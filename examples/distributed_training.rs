//! Distributed training with ParMAC: the same binary autoencoder trained on
//! 1, 4 and 16 simulated machines, on the real multi-threaded server backend,
//! and on the work-stealing pool backend (the paper's shared-memory
//! configuration, §8.5).
//!
//! Demonstrates the properties §4–5 of the paper emphasise: only model
//! parameters are communicated (bytes reported), simulated runtime shrinks
//! nearly linearly while the learned model stays equivalent, and the measured
//! speedup can be compared with the closed-form prediction.
//!
//! Run with `cargo run --release --example distributed_training`.

use parmac::cluster::{CostModel, ServerBackend};
use parmac::core::mac::RetrievalEval;
use parmac::core::{BaConfig, ParMacConfig, ParMacTrainer, PoolBackend, SimBackend, SpeedupModel};
use parmac::data::synthetic::{gaussian_mixture, MixtureConfig};

fn main() {
    let bits = 16;
    let data = gaussian_mixture(&MixtureConfig::new(1600, 128, 16).with_seed(3));
    let train = data.train_features();
    let eval = RetrievalEval::new(train.clone(), data.query_features(), 10, 10);

    let ba = BaConfig::new(bits)
        .with_mu_schedule(0.01, 2.0, 6)
        .with_epochs(2)
        .with_seed(3);

    let cost = CostModel::distributed();
    let theory = SpeedupModel::new(
        train.rows(),
        2 * bits,
        ba.epochs,
        cost.w_compute_per_point,
        cost.w_comm_per_submodel,
        cost.z_compute_per_point,
    );

    println!("machines  sim_time   speedup  theory  precision  MB sent");
    let mut t1 = None;
    for &machines in &[1usize, 4, 16] {
        let cfg = ParMacConfig::new(ba, machines);
        let mut trainer = ParMacTrainer::new(cfg, &train, SimBackend::new(cost));
        let report = trainer.run_with_eval(&train, Some(&eval));
        let t = report.total_simulated_time;
        let t1 = *t1.get_or_insert(t);
        let bytes: usize = report.w_steps.iter().map(|w| w.bytes_sent).sum();
        println!(
            "{machines:>8}  {t:>9.0}  {:>7.2}  {:>6.2}  {:>9.3}  {:>7.2}",
            t1 / t,
            theory.speedup(machines),
            eval.precision_of(trainer.model()),
            bytes as f64 / 1e6,
        );
    }

    // The same run on real threads (one per machine): wall-clock parallelism.
    let cfg = ParMacConfig::new(ba, 4);
    let mut server = ParMacTrainer::new(cfg, &train, ServerBackend::new());
    let report = server.run_with_eval(&train, Some(&eval));
    println!(
        "\nserver backend (4 OS threads): {:.2}s wall clock, precision {:.3}",
        report.total_wall_clock_secs,
        eval.precision_of(server.model())
    );

    // And on the work-stealing pool (§8.5's shared-memory configuration):
    // the Z step is split into stealable point chunks so all workers help
    // with every shard, and submodels queued at one machine train
    // concurrently. The trained model is bitwise identical to the other
    // backends'.
    let mut pool = ParMacTrainer::new(cfg, &train, PoolBackend::new().with_workers(4));
    let report = pool.run_with_eval(&train, Some(&eval));
    println!(
        "pool backend (work-stealing, 4 workers): {:.2}s wall clock, precision {:.3}",
        report.total_wall_clock_secs,
        eval.precision_of(pool.model())
    );
    assert_eq!(
        pool.model().encoder().weights(),
        server.model().encoder().weights(),
        "pool and server backends must train the identical model"
    );
}
