//! Cross-crate integration tests: the full pipeline from synthetic data
//! through MAC/ParMAC training to retrieval evaluation, exercised through the
//! public facade crate exactly as a downstream user would.

use parmac::cluster::{CostModel, Fault, ServerBackend};
use parmac::core::mac::RetrievalEval;
use parmac::core::{
    BaConfig, MacTrainer, ParMacConfig, ParMacTrainer, SimBackend, SpeedupModel, ZStepMethod,
};
use parmac::data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac::hash::TpcaHash;
use parmac::linalg::Mat;

fn dataset(n: usize, dim: usize, seed: u64) -> (Mat, RetrievalEval) {
    let data = gaussian_mixture(&MixtureConfig::new(n, dim, 6).with_seed(seed));
    let train = data.train_features();
    let eval = RetrievalEval::new(train.clone(), data.query_features(), 10, 10);
    (train, eval)
}

fn ba_config(bits: usize, seed: u64) -> BaConfig {
    BaConfig::new(bits)
        .with_mu_schedule(0.01, 2.0, 6)
        .with_seed(seed)
}

#[test]
fn serial_mac_end_to_end_improves_over_tpca_initialisation() {
    let (train, eval) = dataset(500, 24, 0);
    let tpca = TpcaHash::fit(&train, 10).unwrap();
    let tpca_precision = eval.precision_of_hash(&tpca);

    let mut trainer = MacTrainer::new(ba_config(10, 0).with_exact_w_step(true), &train);
    let report = trainer.run_with_eval(&train, Some(&eval));
    let ba_precision = eval.precision_of(trainer.model());

    assert!(report.final_ba_error <= report.initial_ba_error * 1.001);
    assert!(
        ba_precision >= tpca_precision - 0.02,
        "BA {ba_precision} vs tPCA {tpca_precision}"
    );
}

#[test]
fn parmac_simulated_matches_serial_quality() {
    let (train, eval) = dataset(420, 16, 1);

    let mut serial = MacTrainer::new(ba_config(8, 1).with_exact_w_step(true), &train);
    serial.run_with_eval(&train, Some(&eval));
    let serial_precision = eval.precision_of(serial.model());

    let cfg = ParMacConfig::new(ba_config(8, 1).with_epochs(2), 4);
    let mut distributed =
        ParMacTrainer::new(cfg, &train, SimBackend::new(CostModel::distributed()));
    distributed.run_with_eval(&train, Some(&eval));
    let parmac_precision = eval.precision_of(distributed.model());

    // The stochastic, distributed W step should cost little retrieval quality
    // (§8.2: "fewer epochs, even just one, cause only a small degradation").
    assert!(
        parmac_precision >= serial_precision - 0.1,
        "ParMAC {parmac_precision} vs serial {serial_precision}"
    );
}

#[test]
fn parmac_server_and_simulated_backends_agree() {
    let (train, _) = dataset(300, 12, 2);
    let cfg = ParMacConfig::new(ba_config(6, 2), 3).with_within_machine_shuffling(false);
    let mut sim = ParMacTrainer::new(cfg, &train, SimBackend::new(CostModel::distributed()));
    let mut srv = ParMacTrainer::new(cfg, &train, ServerBackend::new());
    let r_sim = sim.run(&train);
    let r_srv = srv.run(&train);
    // Same protocol, same deterministic update order per submodel → same model.
    let diff = (r_sim.mac.final_ba_error - r_srv.mac.final_ba_error).abs();
    assert!(
        diff / r_sim.mac.final_ba_error.max(1.0) < 1e-9,
        "simulated {} vs server {}",
        r_sim.mac.final_ba_error,
        r_srv.mac.final_ba_error
    );
}

#[test]
fn one_epoch_no_shuffling_is_invariant_to_machine_count() {
    // §8.2: without shuffling and with a single epoch, ParMAC's W step visits
    // the data in the same global order regardless of P (up to the starting
    // minibatch of each submodel), so quality should barely depend on P.
    let (train, eval) = dataset(360, 12, 3);
    let mut finals = Vec::new();
    for &p in &[1usize, 2, 4] {
        let cfg = ParMacConfig::new(ba_config(6, 3).with_epochs(1), p)
            .with_within_machine_shuffling(false);
        let mut trainer =
            ParMacTrainer::new(cfg, &train, SimBackend::new(CostModel::distributed()));
        trainer.run_with_eval(&train, Some(&eval));
        finals.push(eval.precision_of(trainer.model()));
    }
    let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(max - min < 0.15, "precision spread too large: {finals:?}");
}

#[test]
fn fault_injection_mid_training_still_produces_a_usable_model() {
    let (train, eval) = dataset(400, 16, 4);
    let cfg = ParMacConfig::new(ba_config(8, 4), 5);
    let mut trainer = ParMacTrainer::new(cfg, &train, SimBackend::new(CostModel::distributed()))
        .with_fault(
            0,
            Fault {
                machine: 3,
                at_tick: 2,
            },
        );
    let report = trainer.run_with_eval(&train, Some(&eval));
    assert!(report.mac.final_ba_error.is_finite());
    let init_precision = report.mac.curve.records()[0].precision.unwrap();
    let final_precision = eval.precision_of(trainer.model());
    assert!(final_precision >= init_precision - 1e-9);
}

#[test]
fn speedup_model_agrees_with_simulated_cluster_shape() {
    // Fig. 10's claim: the measured (here: simulated-cluster) speedups follow
    // the theoretical curve — near-perfect for P ≤ M, saturating after.
    let (train, _) = dataset(600, 16, 5);
    let bits = 8;
    let cost = CostModel::new(1.0, 50.0, 10.0);
    let runtime = |p: usize| {
        let cfg = ParMacConfig::new(ba_config(bits, 5).with_mu_schedule(0.05, 2.0, 2), p);
        let mut t = ParMacTrainer::new(cfg, &train, SimBackend::new(cost));
        t.run(&train).total_simulated_time
    };
    let t1 = runtime(1);
    let theory = SpeedupModel::new(
        train.rows(),
        2 * bits,
        1,
        cost.w_compute_per_point,
        cost.w_comm_per_submodel,
        cost.z_compute_per_point,
    );
    for &p in &[2usize, 4, 8, 16] {
        let measured = t1 / runtime(p);
        let predicted = theory.speedup(p);
        let ratio = measured / predicted;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "P={p}: measured {measured:.2} vs predicted {predicted:.2}"
        );
    }
}

#[test]
fn z_step_methods_agree_for_small_codes() {
    // From the *same* trained state, one exact-enumeration Z step must reach a
    // quadratic penalty no worse than the alternating-bits approximation, and
    // the two must land close together (the approximation is near-exact for
    // small L, §3.1). Comparing full training runs instead would conflate this
    // with path dependence across iterations.
    let (train, _) = dataset(250, 12, 6);
    let mu = 0.5;
    let base_cfg = ba_config(6, 6).with_exact_w_step(true);
    let mut base = MacTrainer::new(base_cfg, &train);
    base.w_step(&train);

    let penalty_after = |method: ZStepMethod| {
        let cfg = base_cfg.with_z_method(method);
        let mut trainer = MacTrainer::new(cfg, &train);
        trainer.w_step(&train);
        trainer.z_step(&train, mu);
        trainer
            .model()
            .quadratic_penalty(&train, trainer.codes(), mu)
    };
    let exact = penalty_after(ZStepMethod::Enumeration);
    let alternating = penalty_after(ZStepMethod::AlternatingBits);
    assert!(
        exact <= alternating + 1e-9,
        "enumeration {exact} worse than alternating {alternating}"
    );
    assert!(
        (alternating - exact) / exact < 0.10,
        "enumeration {exact} vs alternating {alternating}"
    );
}

#[test]
fn codes_are_consistent_with_encoder_at_convergence() {
    // Run a schedule whose final µ is large: the returned codes must satisfy
    // the constraint Z = h(X) (the MAC stopping condition).
    let (train, _) = dataset(200, 10, 7);
    let cfg = BaConfig::new(5)
        .with_mu_schedule(0.5, 4.0, 8)
        .with_exact_w_step(true)
        .with_seed(7);
    let mut trainer = MacTrainer::new(cfg, &train);
    trainer.run(&train);
    let hx = trainer.model().encode(&train);
    let mismatches = trainer.codes().total_differing_bits(&hx);
    let total_bits = (train.rows() * 5) as u64;
    assert!(
        mismatches * 20 <= total_bits,
        "{mismatches} of {total_bits} bits still violate Z = h(X)"
    );
}
