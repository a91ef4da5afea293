//! Four-way backend equivalence matrix: the same training run on
//! [`SimBackend`], [`PoolBackend`], [`ServerBackend`] (the in-process ring on
//! real threads) and [`ProcessBackend`] (real OS processes over Unix-domain
//! sockets) must
//! produce **bitwise identical** trained weights and codes — not merely
//! statistically close models. This holds because each submodel's
//! machine-visit sequence is the same on every backend (seeded round-robin,
//! then ring order), submodels are mutually independent during a W step, and
//! per-point Z solves are independent with a collect-then-apply contract
//! applied in topology order.
//!
//! The matrix covers the degenerate single-worker pool (CI runs it at pool
//! sizes 1, 2 and 8), a shuffled ring topology, an imbalanced proportional
//! partition, a mid-training machine add/remove (streaming §4.3), the
//! serial-MAC-shaped whole-dataset Z sweep against each backend's distributed
//! sweep, and the serving path: `ServerBackend` answers Hamming k-NN queries
//! during training, equal to a single-process `hamming_knn` over the
//! concatenated shards — including at replication factor 2 with a machine
//! actor killed between MAC iterations (training stays bitwise identical,
//! serving keeps full coverage through the surviving replicas). The process
//! backend additionally survives a worker **SIGKILL** between iterations
//! bitwise-equal to a simulator whose machine was disconnected at the same
//! point, and a kill *racing* a W step still completes within bounded
//! deadlines with the fault reported.

use parmac_cluster::process::{MachineDownReason, ProcessConfig};
use parmac_cluster::{
    ClusterBackend, CostModel, PoolBackend, ProcessBackend, ServerBackend, SimBackend,
};
use parmac_core::zstep::{self, ZStepProblem};
use parmac_core::{BaConfig, ParMacConfig, ParMacTrainer};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_hash::{BinaryCodes, HashFunction};
use parmac_linalg::Mat;
use parmac_retrieval::hamming_knn;

/// The pool sizes the equivalence suite is pinned at: the single-worker
/// degenerate path, a small pool, and more workers than this container has
/// cores.
const POOL_WORKERS: [usize; 3] = [1, 2, 8];

fn dataset(seed: u64, n: usize) -> Mat {
    gaussian_mixture(&MixtureConfig::new(n, 10, 4).with_seed(seed)).features
}

fn quick_cfg(bits: usize, machines: usize) -> ParMacConfig {
    ParMacConfig::new(
        BaConfig::new(bits)
            .with_mu_schedule(0.02, 2.0, 4)
            .with_epochs(1)
            .with_seed(5)
            .with_sgd(parmac_optim::SgdConfig::new().with_eta0(0.1)),
        machines,
    )
}

/// Runs a full training and returns everything that must match bitwise.
fn run<B: ClusterBackend>(
    cfg: ParMacConfig,
    x: &Mat,
    backend: B,
    speeds: Option<Vec<f64>>,
) -> (Mat, Mat, BinaryCodes, f64) {
    let mut trainer = ParMacTrainer::new(cfg, x, backend);
    if let Some(speeds) = speeds {
        trainer = trainer.with_machine_speeds(speeds);
    }
    let report = trainer.run(x);
    (
        trainer.model().encoder().weights().clone(),
        trainer.model().decoder().weights().clone(),
        trainer.codes().clone(),
        report.mac.final_ba_error,
    )
}

fn assert_matrix_identical(cfg: ParMacConfig, x: &Mat, speeds: Option<Vec<f64>>, label: &str) {
    let sim = run(
        cfg,
        x,
        SimBackend::new(CostModel::distributed()),
        speeds.clone(),
    );
    for workers in POOL_WORKERS {
        let pool = run(
            cfg,
            x,
            PoolBackend::new()
                .with_workers(workers)
                .with_chunk_size(8)
                .with_cost_model(CostModel::distributed()),
            speeds.clone(),
        );
        assert_eq!(
            sim.0, pool.0,
            "{label}: encoder weights sim vs pool({workers})"
        );
        assert_eq!(
            sim.1, pool.1,
            "{label}: decoder weights sim vs pool({workers})"
        );
        assert_eq!(sim.2, pool.2, "{label}: codes sim vs pool({workers})");
        assert_eq!(sim.3, pool.3, "{label}: E_BA sim vs pool({workers})");
    }
    let server = run(
        cfg,
        x,
        ServerBackend::new().with_cost_model(CostModel::distributed()),
        speeds.clone(),
    );
    assert_eq!(sim.0, server.0, "{label}: encoder weights sim vs server");
    assert_eq!(sim.1, server.1, "{label}: decoder weights sim vs server");
    assert_eq!(sim.2, server.2, "{label}: codes sim vs server");
    assert_eq!(sim.3, server.3, "{label}: E_BA sim vs server");
    let process = run(
        cfg,
        x,
        ProcessBackend::new().with_cost_model(CostModel::distributed()),
        speeds,
    );
    assert_eq!(sim.0, process.0, "{label}: encoder weights sim vs process");
    assert_eq!(sim.1, process.1, "{label}: decoder weights sim vs process");
    assert_eq!(sim.2, process.2, "{label}: codes sim vs process");
    assert_eq!(sim.3, process.3, "{label}: E_BA sim vs process");
}

#[test]
fn parmac_full_run_is_bitwise_identical_across_backends() {
    let x = dataset(21, 160);
    assert_matrix_identical(quick_cfg(6, 4), &x, None, "plain");
}

#[test]
fn matrix_holds_under_a_shuffled_topology() {
    // Cross-machine shuffling re-randomises the ring before every W step; the
    // trainer's seeded RNG makes the shuffle sequence identical across
    // backends, so the matrix must still agree bitwise.
    let x = dataset(22, 160);
    let cfg = quick_cfg(5, 4).with_cross_machine_shuffling(true);
    assert_matrix_identical(cfg, &x, None, "shuffled topology");
}

#[test]
fn matrix_holds_under_an_imbalanced_proportional_partition() {
    // Speeds 1:2:5 give shards of very different sizes — the regime where the
    // pool's chunk stealing beats one-thread-per-shard, and exactly where a
    // granularity bug would break bitwise equality.
    let x = dataset(23, 240);
    let cfg = quick_cfg(5, 3);
    assert_matrix_identical(cfg, &x, Some(vec![1.0, 2.0, 5.0]), "imbalanced");
}

#[test]
fn distributed_z_sweep_equals_the_serial_mac_sweep_on_every_backend() {
    // The serial MacTrainer solves its Z step through `zstep::solve_shard`
    // with the whole dataset as one shard. Every backend's distributed sweep
    // must produce exactly those codes: same kernels, same per-point
    // independence, different partitioning and scheduling only.
    let x = dataset(24, 150);
    let cfg = quick_cfg(6, 3);
    let mu = 0.05;

    fn one_iteration<B: ClusterBackend>(
        cfg: ParMacConfig,
        x: &Mat,
        mu: f64,
        backend: B,
    ) -> (Mat, BinaryCodes) {
        let mut t = ParMacTrainer::new(cfg, x, backend);
        t.w_step(x, 0);
        t.z_step(x, mu);
        (t.model().encoder().weights().clone(), t.codes().clone())
    }

    let mut results: Vec<(String, (Mat, BinaryCodes))> = vec![(
        "sim".into(),
        one_iteration(cfg, &x, mu, SimBackend::new(CostModel::distributed())),
    )];
    for workers in POOL_WORKERS {
        results.push((
            format!("pool({workers})"),
            one_iteration(
                cfg,
                &x,
                mu,
                PoolBackend::new().with_workers(workers).with_chunk_size(16),
            ),
        ));
    }
    results.push((
        "server".into(),
        one_iteration(cfg, &x, mu, ServerBackend::new()),
    ));
    let (_, reference) = results[0].clone();
    for (name, result) in &results[1..] {
        assert_eq!(reference.0, result.0, "{name}: W step diverged");
        assert_eq!(reference.1, result.1, "{name}: Z step diverged");
    }

    // The MAC-shaped sweep: one shard covering the whole dataset, solved with
    // the same model state the backends reached after their (identical) W
    // step.
    let ref_codes = reference.1;
    let mut t = ParMacTrainer::new(cfg, &x, SimBackend::new(CostModel::distributed()));
    t.w_step(&x, 0);
    let model = t.model().clone();
    let method = cfg.ba.resolved_z_method();
    let problem = ZStepProblem::new(model.decoder(), mu);
    let points: Vec<usize> = (0..x.rows()).collect();
    let hx = zstep::encoder_outputs(&x, &points, model.decoder().n_bits(), |row| {
        model.encoder().encode_one(row)
    });
    let mut serial_codes = t.codes().clone();
    zstep::solve_shard(
        method,
        &problem,
        &x,
        &points,
        &hx,
        cfg.ba.z_alternations,
        |n, z_new| serial_codes.set_code(n, z_new),
    );
    assert_eq!(
        ref_codes, serial_codes,
        "distributed Z sweep must equal the serial MAC whole-dataset sweep"
    );
}

/// One MAC iteration, then §4.3 streaming — a new machine joins with freshly
/// collected data and an old machine leaves the ring — then another
/// iteration on the final topology. Returns everything that must match.
fn streaming_schedule<B: ClusterBackend>(
    cfg: ParMacConfig,
    x_initial: &Mat,
    x_extended: &Mat,
    backend: B,
) -> (Mat, Mat, BinaryCodes) {
    let mut t = ParMacTrainer::new(cfg, x_initial, backend);
    t.w_step(x_initial, 0);
    t.z_step(x_initial, 0.05);
    let new_id = t.add_streaming_machine(x_extended, 1);
    assert_eq!(new_id, 4);
    t.remove_machine(0);
    t.w_step(x_extended, 1);
    t.z_step(x_extended, 0.1);
    (
        t.model().encoder().weights().clone(),
        t.model().decoder().weights().clone(),
        t.codes().clone(),
    )
}

#[test]
fn matrix_holds_across_a_mid_training_machine_add_and_remove() {
    // Streaming between epochs must not break the bitwise equivalence: every
    // backend sees the same machine join (with identically initialised codes)
    // and the same machine leave, so the second iteration runs on the same
    // final topology everywhere.
    let x_initial = dataset(25, 160);
    let extra = dataset(26, 40);
    let x_extended = x_initial.vstack(&extra).unwrap();
    let cfg = quick_cfg(5, 4);
    let reference = streaming_schedule(
        cfg,
        &x_initial,
        &x_extended,
        SimBackend::new(CostModel::distributed()),
    );
    let others: Vec<(String, _)> = vec![
        (
            "pool".into(),
            streaming_schedule(
                cfg,
                &x_initial,
                &x_extended,
                PoolBackend::new().with_workers(2).with_chunk_size(8),
            ),
        ),
        (
            "server".into(),
            streaming_schedule(cfg, &x_initial, &x_extended, ServerBackend::new()),
        ),
        (
            "process".into(),
            streaming_schedule(cfg, &x_initial, &x_extended, ProcessBackend::new()),
        ),
    ];
    for (name, result) in &others {
        assert_eq!(reference.0, result.0, "{name}: encoder weights");
        assert_eq!(reference.1, result.1, "{name}: decoder weights");
        assert_eq!(reference.2, result.2, "{name}: codes");
    }
}

#[test]
fn server_streaming_between_epochs_matches_a_fresh_sim_run_on_the_final_topology() {
    // The satellite regression: add and remove a machine between epochs on
    // ServerBackend and compare against a *fresh* SimBackend trainer driven
    // through the identical schedule — the end state (final topology, model,
    // codes) must coincide bitwise.
    let x_initial = dataset(27, 160);
    let extra = dataset(28, 40);
    let x_extended = x_initial.vstack(&extra).unwrap();
    let cfg = quick_cfg(6, 4);
    let server = streaming_schedule(cfg, &x_initial, &x_extended, ServerBackend::new());
    let sim = streaming_schedule(
        cfg,
        &x_initial,
        &x_extended,
        SimBackend::new(CostModel::distributed()),
    );
    assert_eq!(sim, server, "server streaming end-state diverged from sim");
}

#[test]
fn server_backend_serves_knn_equal_to_single_process_search() {
    // The train-and-serve acceptance: mid-training (after each MAC
    // iteration), the ServerBackend's QueryRouter must answer Hamming k-NN
    // exactly like a single-process hamming_knn over the concatenated shards
    // — which partition the whole dataset, i.e. the trainer's codes. All
    // three entry points (per-call fan-out, Arc-shared fan-out, and the
    // batched admission queue) must agree with it bitwise.
    let x = dataset(29, 180);
    let cfg = quick_cfg(6, 3);
    let backend = ServerBackend::new();
    let router = backend.query_router();
    let mut trainer = ParMacTrainer::new(cfg, &x, backend);
    let queries = std::sync::Arc::new(trainer.model().encode(&x.select_rows(&[3, 50, 99])));
    for (iteration, mu) in [(0usize, 0.05f64), (1, 0.1)] {
        trainer.w_step(&x, iteration);
        trainer.z_step(&x, mu);
        for k in [1usize, 10, 180] {
            let expected = hamming_knn(trainer.codes(), &queries, k);
            assert_eq!(
                router.knn(&queries, k).expect_full(),
                expected,
                "knn: iteration {iteration}, k={k}"
            );
            assert_eq!(
                router.knn_shared(&queries, k).expect_full(),
                expected,
                "knn_shared: iteration {iteration}, k={k}"
            );
            assert_eq!(
                router
                    .knn_admitted(std::sync::Arc::clone(&queries), k)
                    .expect("uncontended admission queue accepts")
                    .expect_full(),
                expected,
                "knn_admitted: iteration {iteration}, k={k}"
            );
            // Budgeted probing with a budget covering every possible bucket
            // (2^16 is the prefix-width ceiling) is exact mode, so the
            // indexed multi-probe serving path is pinned to the same
            // single-process search as the exact entry points.
            assert_eq!(
                router.knn_budgeted(&queries, k, 1 << 16).expect_full(),
                expected,
                "knn_budgeted: iteration {iteration}, k={k}"
            );
            assert_eq!(
                router
                    .knn_admitted_budgeted(std::sync::Arc::clone(&queries), k, 1 << 16)
                    .expect("uncontended admission queue accepts")
                    .expect_full(),
                expected,
                "knn_admitted_budgeted: iteration {iteration}, k={k}"
            );
        }
    }
    let stats = router.serving_stats();
    assert_eq!(stats.submitted, stats.answered + stats.shed);
    assert_eq!(stats.shed, 0, "uncontended queue never sheds");
}

#[test]
fn batched_serving_path_is_exact_after_a_machine_fault() {
    // §4.3 fault/streaming: a machine leaves the ring mid-training. Serving
    // machines keep their shard when they leave (the fleet still covers
    // every point), so the batched admission path must keep answering
    // exactly like the single-process search over the trainer's codes.
    let x_initial = dataset(31, 160);
    let extra = dataset(32, 40);
    let x_extended = x_initial.vstack(&extra).unwrap();
    let cfg = quick_cfg(5, 4);
    let backend = ServerBackend::new();
    let router = backend.query_router();
    let mut t = ParMacTrainer::new(cfg, &x_initial, backend);
    t.w_step(&x_initial, 0);
    t.z_step(&x_initial, 0.05);
    t.add_streaming_machine(&x_extended, 1);
    t.remove_machine(0); // the "fault": machine 0 is routed around from now on
    t.w_step(&x_extended, 1);
    t.z_step(&x_extended, 0.1);
    let queries = std::sync::Arc::new(t.model().encode(&x_extended.select_rows(&[0, 42, 170])));
    for k in [1usize, 10, 64] {
        let expected = hamming_knn(t.codes(), &queries, k);
        assert_eq!(
            router
                .knn_admitted(std::sync::Arc::clone(&queries), k)
                .expect("admission queue accepts")
                .expect_full(),
            expected,
            "admitted after fault, k={k}"
        );
        assert_eq!(
            router.knn_shared(&queries, k).expect_full(),
            expected,
            "shared fan-out after fault, k={k}"
        );
        // The surviving machines' prefix indexes (built at load, refreshed
        // by every ApplyUpdates since) must answer exactly under a
        // saturating probe budget too.
        assert_eq!(
            router.knn_budgeted(&queries, k, 1 << 16).expect_full(),
            expected,
            "budgeted after fault, k={k}"
        );
    }
}

#[test]
fn replicated_server_training_survives_a_mid_run_replica_kill_bitwise() {
    // The replication satellite: train on a ServerBackend at R = 2, kill one
    // machine actor between the two MAC iterations, and finish the run. The
    // trained weights and codes must stay bitwise identical to SimBackend
    // (the serving fleet is a mirror — losing a replica must never touch the
    // training path), and after the kill the router must still answer every
    // k-NN query with full coverage, equal to the single-process search.
    let x = dataset(33, 160);
    let cfg = quick_cfg(5, 4);

    fn two_iterations<B: ClusterBackend>(
        cfg: ParMacConfig,
        x: &Mat,
        backend: B,
        mid: impl FnOnce(),
    ) -> (Mat, Mat, BinaryCodes) {
        let mut t = ParMacTrainer::new(cfg, x, backend);
        t.w_step(x, 0);
        t.z_step(x, 0.05);
        mid();
        t.w_step(x, 1);
        t.z_step(x, 0.1);
        (
            t.model().encoder().weights().clone(),
            t.model().decoder().weights().clone(),
            t.codes().clone(),
        )
    }

    let sim = two_iterations(cfg, &x, SimBackend::new(CostModel::distributed()), || {});

    let backend = ServerBackend::new().with_replication(2);
    let router = backend.query_router();
    let chaos = backend.clone();
    let mut t = ParMacTrainer::new(cfg, &x, backend);
    t.w_step(&x, 0);
    t.z_step(&x, 0.05);
    chaos.kill_machine(2);
    t.w_step(&x, 1);
    t.z_step(&x, 0.1);
    assert_eq!(
        sim.0,
        t.model().encoder().weights().clone(),
        "encoder weights diverged after the kill"
    );
    assert_eq!(
        sim.1,
        t.model().decoder().weights().clone(),
        "decoder weights diverged after the kill"
    );
    assert_eq!(sim.2, t.codes().clone(), "codes diverged after the kill");

    // Serving after the kill: every shard still has a live replica at R = 2,
    // so coverage is full and answers — including codes refreshed by the
    // post-kill Z step — equal single-process hamming_knn over the trainer's
    // final codes.
    let queries = std::sync::Arc::new(t.model().encode(&x.select_rows(&[3, 50, 99])));
    for k in [1usize, 10, 64] {
        let expected = hamming_knn(t.codes(), &queries, k);
        let response = router.knn_shared(&queries, k);
        assert!(
            response.coverage.is_full(),
            "R=2 must survive one kill with full coverage: {:?}",
            response.coverage
        );
        assert_eq!(response.answers, expected, "after kill, k={k}");
    }
    assert_eq!(router.fleet_status().dead_machines, 1);
}

#[test]
fn server_backend_answers_queries_while_training_runs() {
    // Liveness of the serving path *during* training: one thread hammers the
    // direct fan-out and two more hammer the batched admission queue while
    // the trainer runs; every answer must be well-formed (k hits, valid
    // indices), every admitted submission must be accounted for
    // (answered + shed == submitted), and once training finishes every entry
    // point agrees with the single-process search over the final codes.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let x = dataset(30, 150);
    let cfg = quick_cfg(5, 3);
    let backend = ServerBackend::new();
    let router = backend.query_router();
    let mut trainer = ParMacTrainer::new(cfg, &x, backend);
    let queries = Arc::new(trainer.model().encode(&x.select_rows(&[0, 42])));
    let n_points = x.rows();
    let done = AtomicBool::new(false);
    let (queries_served, admitted_ok, admitted_shed) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut served = 0usize;
            while !done.load(Ordering::Acquire) {
                let answers = router.knn(&queries, 5).expect_full();
                assert_eq!(answers.len(), 2);
                for hits in &answers {
                    assert_eq!(hits.len(), 5, "mid-training answer must have k hits");
                    assert!(hits.iter().all(|&i| i < n_points));
                }
                served += 1;
            }
            served
        });
        let admitters: Vec<_> = (0..2)
            .map(|_| {
                let router = router.clone();
                let queries = Arc::clone(&queries);
                let done = &done;
                scope.spawn(move || {
                    let (mut ok, mut shed) = (0u64, 0u64);
                    while !done.load(Ordering::Acquire) {
                        match router.knn_admitted(Arc::clone(&queries), 5) {
                            Ok(response) => {
                                let answers = response.expect_full();
                                assert_eq!(answers.len(), 2);
                                for hits in &answers {
                                    assert_eq!(hits.len(), 5);
                                    assert!(hits.iter().all(|&i| i < n_points));
                                }
                                ok += 1;
                            }
                            Err(_) => shed += 1,
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        trainer.run(&x);
        done.store(true, Ordering::Release);
        let served = prober.join().expect("query thread panicked");
        let (mut ok, mut shed) = (0u64, 0u64);
        for admitter in admitters {
            let (a, s) = admitter.join().expect("admitted-query thread panicked");
            ok += a;
            shed += s;
        }
        (served, ok, shed)
    });
    assert!(queries_served > 0, "no query was served during training");
    assert!(
        admitted_ok > 0,
        "no admitted query was answered during training"
    );
    let stats = router.serving_stats();
    assert_eq!(
        stats.submitted,
        stats.answered + stats.shed,
        "every admitted query accounted for: {stats:?}"
    );
    assert_eq!(stats.answered, admitted_ok);
    assert_eq!(stats.shed, admitted_shed);
    let expected = hamming_knn(trainer.codes(), &queries, 10);
    assert_eq!(
        router.knn(&queries, 10).expect_full(),
        expected,
        "post-training serving state must match the trainer's codes"
    );
    assert_eq!(
        router
            .knn_admitted(Arc::clone(&queries), 10)
            .expect("quiesced admission queue accepts")
            .expect_full(),
        expected,
        "post-training admitted path must match the trainer's codes"
    );
}

#[test]
fn process_training_survives_a_mid_run_worker_sigkill_bitwise() {
    // The cross-process robustness acceptance: train on ProcessBackend, kill
    // one worker process (SIGKILL, no shutdown handshake) between the two MAC
    // iterations, and finish the run. The end state must be bitwise identical
    // to a SimBackend trainer whose machine was disconnected (§4.3
    // `remove_machine`) at the same point: a dead worker's shard is simply no
    // longer visited, everything else trains on.
    let x = dataset(34, 160);
    let cfg = quick_cfg(5, 4);
    let victim = 2usize;

    fn two_iterations<B: ClusterBackend>(
        cfg: ParMacConfig,
        x: &Mat,
        backend: B,
        mid: impl FnOnce(&mut ParMacTrainer<B>),
    ) -> (Mat, Mat, BinaryCodes) {
        let mut t = ParMacTrainer::new(cfg, x, backend);
        t.w_step(x, 0);
        t.z_step(x, 0.05);
        mid(&mut t);
        t.w_step(x, 1);
        t.z_step(x, 0.1);
        (
            t.model().encoder().weights().clone(),
            t.model().decoder().weights().clone(),
            t.codes().clone(),
        )
    }

    let sim = two_iterations(cfg, &x, SimBackend::new(CostModel::distributed()), |t| {
        t.remove_machine(victim)
    });

    let backend = ProcessBackend::new();
    let chaos = backend.clone();
    let process = two_iterations(cfg, &x, backend, |_| {
        assert!(chaos.kill_process(victim), "victim worker was not live");
    });
    assert_eq!(process.0, sim.0, "encoder weights diverged after SIGKILL");
    assert_eq!(process.1, sim.1, "decoder weights diverged after SIGKILL");
    assert_eq!(process.2, sim.2, "codes diverged after SIGKILL");

    let downs = chaos.down_events();
    assert_eq!(downs.len(), 1, "exactly one fault expected: {downs:?}");
    assert_eq!(downs[0].machine, victim);
    assert_eq!(downs[0].reason, MachineDownReason::Killed);
    assert_eq!(chaos.dead_machines(), vec![victim]);
}

#[test]
fn process_kill_racing_a_w_step_completes_within_bounded_deadlines() {
    // Chaos liveness: a SIGKILL fired from another thread *races* the second
    // W step — it may land before the round opens, mid-epoch with envelopes
    // in flight, or after the step drained. In every interleaving the run
    // must terminate well inside the step deadline with the fault reported;
    // the no-hang guarantee is the assertion, not a particular final state.
    use std::time::{Duration, Instant};
    let x = dataset(35, 160);
    let cfg = quick_cfg(5, 4);
    let backend = ProcessBackend::new().with_config(ProcessConfig {
        step_timeout: Duration::from_secs(30),
        io_timeout: Duration::from_millis(500),
        ..ProcessConfig::default()
    });
    let chaos = backend.clone();
    let start = Instant::now();
    let mut t = ParMacTrainer::new(cfg, &x, backend);
    t.w_step(&x, 0);
    t.z_step(&x, 0.05);
    let killer = std::thread::spawn(move || chaos.kill_process(1));
    t.w_step(&x, 1);
    t.z_step(&x, 0.1);
    let killed = killer.join().expect("chaos thread panicked");
    assert!(killed, "machine 1 was already dead before the chaos kill");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "chaos run exceeded the liveness bound"
    );

    let t_backend_downs = t.backend().down_events();
    assert_eq!(
        t_backend_downs,
        vec![parmac_cluster::MachineDown {
            machine: 1,
            reason: MachineDownReason::Killed
        }],
        "the racing SIGKILL must surface as exactly one structured fault"
    );
    assert_eq!(t.backend().dead_machines(), vec![1]);
    // The trainer end state is well-formed: codes for every point, finite
    // weights (the exact bits depend on where the kill landed).
    assert_eq!(t.codes().len(), x.rows());
    assert!(t
        .model()
        .encoder()
        .weights()
        .as_slice()
        .iter()
        .chain(t.model().decoder().weights().as_slice())
        .all(|w| w.is_finite()));
}
