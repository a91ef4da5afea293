//! `train_w` and `train_z`: ParMAC training on the simulator, the
//! work-stealing pool and the cross-process ring, interleaved one MAC
//! iteration at a time so host noise lands on every backend alike.

use crate::report::{median, percentile, tail_percentile, Metrics, Outcome};
use crate::trace::{self_time, Phase, Recorder, Span, Traced, ROOT};
use parmac_cluster::{ClusterBackend, CostModel, PoolBackend, ProcessBackend, SimBackend};
use parmac_core::{BaConfig, ParMacConfig, ParMacTrainer};
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_hash::BinaryCodes;
use parmac_linalg::Mat;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Problem size of one training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainShape {
    pub n: usize,
    pub dim: usize,
    pub bits: usize,
    pub epochs: usize,
    pub machines: usize,
    /// Clusters of the generated data and the dimension of the subspace
    /// their centres span: enough of both that the final E_BA, as a share
    /// of the data's variance, varies by about 1% from seed to seed.
    pub clusters: usize,
    pub intrinsic_dim: usize,
    /// MAC iterations per episode (the length of the µ schedule).
    pub iterations: usize,
}

/// W step dominates: 144 submodels (16 hash bits + 128 decoder rows) make
/// two passes over every shard, and the 16-bit Z step uses alternating
/// optimisation.
pub const TRAIN_W: TrainShape = TrainShape {
    n: 4000,
    dim: 128,
    bits: 16,
    epochs: 2,
    machines: 4,
    clusters: 128,
    intrinsic_dim: 32,
    iterations: 4,
};

/// Z step dominates: 12-bit exact enumeration (4096 codes per point) over
/// 8000 points, with only 44 small submodels in the ring.
pub const TRAIN_Z: TrainShape = TrainShape {
    n: 8000,
    dim: 32,
    bits: 12,
    epochs: 1,
    machines: 4,
    clusters: 1024,
    intrinsic_dim: 32,
    iterations: 2,
};

/// Mean squared distance of the points to their centroid: E_BA divided by
/// this is the fraction of variance the autoencoder fails to reconstruct,
/// which compares across seeds where raw E_BA does not.
pub fn total_variance(x: &Mat) -> f64 {
    let (n, d) = (x.rows(), x.cols());
    let mut total = 0.0;
    for j in 0..d {
        let mean = (0..n).map(|i| x[(i, j)]).sum::<f64>() / n as f64;
        total += (0..n).map(|i| (x[(i, j)] - mean).powi(2)).sum::<f64>();
    }
    total / n as f64
}

pub fn data(shape: &TrainShape, seed: u64) -> Mat {
    gaussian_mixture(
        &MixtureConfig::new(shape.n, shape.dim, shape.clusters)
            .with_intrinsic_dim(shape.intrinsic_dim)
            .with_seed(seed),
    )
    .features
}

pub fn config(shape: &TrainShape, machines: usize, seed: u64) -> ParMacConfig {
    ParMacConfig::new(
        BaConfig::new(shape.bits)
            .with_epochs(shape.epochs)
            .with_mu_schedule(0.01, 2.0, shape.iterations)
            .with_seed(seed),
        machines,
    )
}

/// Everything that must match bitwise across backends.
pub type EndState = (Mat, Mat, BinaryCodes);

/// One trainer driven step by step from outside.
pub trait Leg {
    fn backend_name(&self) -> &'static str;
    /// One MAC iteration (W step then Z step); returns its wall seconds and
    /// the W step's ring message count.
    fn iterate(
        &mut self,
        x: &Mat,
        iteration: usize,
        mu: f64,
        rec: Option<&Recorder>,
        phase: &Phase,
    ) -> (f64, usize);
    fn end_state(&self) -> EndState;
    /// Final E_BA as a fraction of the data's total variance.
    fn ba_error(&self, x: &Mat) -> f64;
}

impl<B: ClusterBackend> Leg for ParMacTrainer<Traced<B>> {
    fn backend_name(&self) -> &'static str {
        self.backend().name()
    }

    fn iterate(
        &mut self,
        x: &Mat,
        iteration: usize,
        mu: f64,
        rec: Option<&Recorder>,
        phase: &Phase,
    ) -> (f64, usize) {
        let tag = self.backend().name();
        let start = Instant::now();
        phase.set(Phase::W);
        let w = match rec {
            Some(rec) => rec.time("trainer.w_step", tag, ROOT, |id| {
                self.backend().set_parent(id);
                self.w_step(x, iteration)
            }),
            None => self.w_step(x, iteration),
        };
        phase.set(Phase::Z);
        match rec {
            Some(rec) => rec.time("trainer.z_step", tag, ROOT, |id| {
                self.backend().set_parent(id);
                self.z_step(x, mu)
            }),
            None => self.z_step(x, mu),
        };
        phase.set(Phase::OUTSIDE);
        (start.elapsed().as_secs_f64(), w.messages_sent)
    }

    fn end_state(&self) -> EndState {
        (
            self.model().encoder().weights().clone(),
            self.model().decoder().weights().clone(),
            self.codes().clone(),
        )
    }

    fn ba_error(&self, x: &Mat) -> f64 {
        self.model().ba_error_per_point(x) / total_variance(x)
    }
}

/// Per-layer metrics for backend `tag` from the spans of its traced steps,
/// with `trace.selfsum_frac.<tag>`: trainer, backend and closure self times
/// of a traced iteration against the untraced iteration time. Returns the
/// update calls of every W step, so callers can gate them exactly.
pub fn layer_metrics(
    spans: &[Span],
    tag: &str,
    untraced_iter_s: f64,
    out: &mut Metrics,
) -> Vec<usize> {
    let mut children: HashMap<u32, Vec<Span>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push(*s);
        }
    }
    let kids = |s: &Span| children.get(&s.id).cloned().unwrap_or_default();
    let mut visits = Vec::new();
    let mut self_sum = 0.0;
    for (step, closure) in [("w", "w.update"), ("z", "z.solve")] {
        let (mut prep, mut wall, mut busy, mut par, mut over, mut step_self) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        for t in spans
            .iter()
            .filter(|s| s.tag == tag && s.name == format!("trainer.{step}_step"))
        {
            let backend_steps = kids(t);
            let t_prep = self_time(t, &backend_steps);
            let mut t_self = t_prep;
            for b in &backend_steps {
                let calls: Vec<Span> = kids(b).into_iter().filter(|c| c.name == closure).collect();
                let b_busy: f64 = calls.iter().map(Span::secs).sum();
                let b_over = self_time(b, &calls);
                wall.push(b.secs());
                busy.push(b_busy);
                par.push(b_busy / b.secs().max(1e-12));
                over.push(b_over);
                t_self += b_over + b_busy;
                if step == "w" {
                    visits.push(calls.len());
                }
            }
            prep.push(t_prep);
            step_self.push(t_self);
        }
        out.put(format!("trainer.{step}_prep_s.{tag}"), median(&prep), "s");
        out.put(format!("backend.{step}_step_s.{tag}"), median(&wall), "s");
        out.put(format!("{step}.busy_s.{tag}"), median(&busy), "s");
        out.put(format!("{step}.parallelism.{tag}"), median(&par), "x");
        out.put(format!("{step}.overhead_s.{tag}"), median(&over), "s");
        self_sum += median(&step_self);
    }
    out.put(
        format!("trace.selfsum_frac.{tag}"),
        self_sum / untraced_iter_s.max(1e-12) - 1.0,
        "frac",
    );
    visits
}

pub fn run(
    shape: &TrainShape,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Outcome, Option<Arc<Recorder>>) {
    let x = data(shape, seed);
    let cfg = config(shape, shape.machines, seed);
    let mus: Vec<f64> = cfg.ba.mu_schedule.iter().collect();
    let rec = trace.then(Recorder::new);
    let phase = Phase::default();
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let (mut rounds, mut rounds_traced) = (Vec::new(), Vec::new());
    let mut iters: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut messages = Vec::new();
    let mut ba_error;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut episode = 0usize;
    loop {
        let ep_start = Instant::now();
        let mut legs: Vec<Box<dyn Leg>> = vec![
            Box::new(ParMacTrainer::new(
                cfg,
                &x,
                Traced::new(SimBackend::new(CostModel::distributed()), rec.clone()),
            )),
            Box::new(ParMacTrainer::new(
                cfg,
                &x,
                Traced::new(PoolBackend::new(), rec.clone()),
            )),
            Box::new(ParMacTrainer::new(
                cfg,
                &x,
                Traced::new(ProcessBackend::new(), rec.clone()),
            )),
        ];
        setups.push(ep_start.elapsed().as_secs_f64());
        for (i, &mu) in mus.iter().enumerate() {
            // A traced run traces every other round.
            let round_rec = rec.as_deref().filter(|_| (i + episode) % 2 == 1);
            if let Some(rec) = &rec {
                rec.set_active(round_rec.is_some());
            }
            let mut round = 0.0;
            for leg in legs.iter_mut() {
                let (secs, msgs) = leg.iterate(&x, i, mu, round_rec, &phase);
                round += secs;
                out.attempted += 1;
                if round_rec.is_none() {
                    iters.entry(leg.backend_name()).or_default().push(secs);
                }
                messages.push(msgs as f64);
            }
            if round_rec.is_some() {
                rounds_traced.push(round);
            } else {
                rounds.push(round);
            }
        }
        let reference = legs[0].end_state();
        for leg in &legs[1..] {
            let state = leg.end_state();
            out.gate(state == reference, || {
                format!(
                    "{} diverged from sim after episode {episode} (encoder {}, decoder {}, codes {})",
                    leg.backend_name(),
                    state.0 == reference.0,
                    state.1 == reference.1,
                    state.2 == reference.2
                )
            });
        }
        ba_error = legs[0].ba_error(&x);
        drop(legs);
        episode += 1;
        let ep_time = ep_start.elapsed();
        if episode >= 3 && Instant::now() + ep_time > deadline {
            break;
        }
    }

    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("p50_ms", median(&rounds) * 1e3, "ms");
    m.put(
        "tail_ms",
        percentile(&rounds, tail_percentile(rounds.len())) * 1e3,
        "ms",
    );
    // MAC iterations per second over the three backends, at the median round.
    m.put("throughput", 3.0 / median(&rounds), "1/s");
    m.put("ba_error", ba_error, "frac");
    m.put("n.rounds", rounds.len() as f64, "count");
    m.put("n.episodes", episode as f64, "count");
    for (tag, samples) in &iters {
        m.put(format!("iter_s.{tag}"), median(samples), "s");
    }
    m.put("w.messages", median(&messages), "count");
    if let Some(rec) = &rec {
        let spans = rec.spans();
        let want = (shape.bits + shape.dim) * shape.machines * shape.epochs;
        let mut visits = Vec::new();
        for tag in ["sim", "pool", "process"] {
            let iter_s = out.metrics.get(&format!("iter_s.{tag}")).unwrap_or(0.0);
            let v = layer_metrics(&spans, tag, iter_s, &mut out.metrics);
            out.gate(!v.is_empty() && v.iter().all(|&n| n == want), || {
                format!("{tag}: W-step visits {v:?}, expected M·P·e = {want} each")
            });
            visits.extend(v.into_iter().map(|n| n as f64));
        }
        let m = &mut out.metrics;
        m.put("w.visits", median(&visits), "count");
        m.put(
            "z.updates",
            rec.z_updates() as f64 / (3 * episode) as f64,
            "count",
        );
        m.put(
            "trace.overhead_frac",
            median(&rounds_traced) / median(&rounds) - 1.0,
            "frac",
        );
    }
    (out, rec)
}
