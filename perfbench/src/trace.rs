//! In-memory span recorder and a transparent [`ClusterBackend`] wrapper.
//!
//! The benchmark measures the program's layers from outside: [`Traced`]
//! delegates every call to the real backend and, when a [`Recorder`] is
//! attached, records one span around each backend step and one around every
//! `update`/`solve` closure call the backend makes. Spans stay in memory and
//! are written out when the run ends; self times are derived from them
//! ([`self_time`]).

use parmac_cluster::{
    ClusterBackend, CostModel, Fault, SimCluster, WStepStats, ZStepStats, ZUpdate,
};
use parmac_hash::BinaryCodes;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

/// Parent of a top-level span.
pub const ROOT: SpanId = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    /// Backend name, or the trainer phase a serving call was sent in.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any thread. Ids are reserved when a span opens, so
/// children that finish first can already name their parent.
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    z_updates: AtomicU64,
    active: AtomicBool,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            z_updates: AtomicU64::new(0),
            active: AtomicBool::new(true),
        })
    }

    /// Whether [`Traced`] backends record spans now. A run switches this
    /// per MAC iteration, so traced and untraced iterations interleave and
    /// the tracing overhead is measured against the same host conditions.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::Relaxed);
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn reserve(&self) -> SpanId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Runs `f` inside a new span; `f` receives the span's id for its
    /// children.
    pub fn time<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f(id);
        self.record(Span {
            id,
            parent,
            name,
            tag,
            start_ns,
            end_ns: self.now_ns(),
        });
        out
    }

    /// Z-step code writes returned by traced backends so far, whether or
    /// not spans were being recorded.
    pub fn z_updates(&self) -> u64 {
        self.z_updates.load(Ordering::Relaxed)
    }

    /// Every recorded span, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes the spans as tab-separated lines: id, parent, name, tag,
    /// start and end in nanoseconds since the recorder was created.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tname\ttag\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// `span`'s duration minus the part of it covered by `children` (which may
/// overlap one another when a backend runs them in parallel).
pub fn self_time(span: &Span, children: &[Span]) -> f64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                covered += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = cur {
        covered += e - s;
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

/// A [`ClusterBackend`] that forwards to `inner` and, with an active
/// recorder attached, records `backend.w_step`/`backend.z_step` spans (children of
/// the span set by [`set_parent`](Self::set_parent)) and a `w.update` or
/// `z.solve` span for every closure call the inner backend makes. Without a
/// recorder it adds nothing to the calls it forwards.
pub struct Traced<B> {
    inner: B,
    rec: Option<Arc<Recorder>>,
    parent: AtomicU32,
}

impl<B: ClusterBackend> Traced<B> {
    pub fn new(inner: B, rec: Option<Arc<Recorder>>) -> Self {
        Traced {
            inner,
            rec,
            parent: AtomicU32::new(ROOT),
        }
    }

    /// Parents the next backend step's span under `span` (the trainer step
    /// that calls it).
    pub fn set_parent(&self, span: SpanId) {
        self.parent.store(span, Ordering::Relaxed);
    }
}

impl<B: ClusterBackend> ClusterBackend for Traced<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        let Some(rec) = self.rec.as_ref().filter(|r| r.is_active()) else {
            return self.inner.run_w_step(
                cluster,
                submodels,
                epochs,
                params_per_submodel,
                update,
                fault,
            );
        };
        let tag = self.inner.name();
        let parent = self.parent.load(Ordering::Relaxed);
        rec.time("backend.w_step", tag, parent, |step| {
            let traced = |s: &mut S, machine: usize, shard: &[usize]| {
                rec.time("w.update", tag, step, |_| update(s, machine, shard))
            };
            self.inner.run_w_step(
                cluster,
                submodels,
                epochs,
                params_per_submodel,
                traced,
                fault,
            )
        })
    }

    fn run_z_step<F>(
        &self,
        cluster: &SimCluster,
        n_submodels: usize,
        solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
    {
        let Some(rec) = &self.rec else {
            return self.inner.run_z_step(cluster, n_submodels, solve);
        };
        let out = if rec.is_active() {
            let tag = self.inner.name();
            let parent = self.parent.load(Ordering::Relaxed);
            rec.time("backend.z_step", tag, parent, |step| {
                let traced = |machine: usize, shard: &[usize]| {
                    rec.time("z.solve", tag, step, |_| solve(machine, shard))
                };
                self.inner.run_z_step(cluster, n_submodels, traced)
            })
        } else {
            self.inner.run_z_step(cluster, n_submodels, solve)
        };
        rec.z_updates
            .fetch_add(out.0.len() as u64, Ordering::Relaxed);
        out
    }

    fn publish_codes(&self, cluster: &SimCluster, codes: &BinaryCodes) {
        self.inner.publish_codes(cluster, codes);
    }

    fn publish_point_codes(&self, machine: usize, points: &[usize], codes: &BinaryCodes) {
        self.inner.publish_point_codes(machine, points, codes);
    }
}

/// The trainer phase at a given moment, read by serving clients to tag each
/// request with the phase it was sent in.
#[derive(Debug, Default)]
pub struct Phase(AtomicU32);

impl Phase {
    pub const OUTSIDE: u32 = 0;
    pub const W: u32 = 1;
    pub const Z: u32 = 2;

    pub fn set(&self, phase: u32) {
        self.0.store(phase, Ordering::Relaxed);
    }

    pub fn name(&self) -> &'static str {
        match self.0.load(Ordering::Relaxed) {
            Phase::W => "during_w",
            Phase::Z => "during_z",
            _ => "outside",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmac_cluster::SimBackend;
    use parmac_core::{BaConfig, ParMacConfig, ParMacTrainer};
    use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};

    #[test]
    fn wrapped_sim_run_is_bitwise_equal_and_visits_every_machine_each_epoch() {
        let (n, dim, bits, machines, epochs) = (240, 8, 4, 3, 2);
        let x = gaussian_mixture(&MixtureConfig::new(n, dim, 4).with_seed(5)).features;
        let cfg = ParMacConfig::new(
            BaConfig::new(bits)
                .with_epochs(epochs)
                .with_mu_schedule(0.02, 2.0, 3)
                .with_seed(5),
            machines,
        );
        let rec = Recorder::new();
        let mut plain = ParMacTrainer::new(cfg, &x, SimBackend::default());
        let mut traced = ParMacTrainer::new(
            cfg,
            &x,
            Traced::new(SimBackend::default(), Some(Arc::clone(&rec))),
        );
        for (i, mu) in cfg.ba.mu_schedule.iter().enumerate() {
            plain.w_step(&x, i);
            plain.z_step(&x, mu);
            rec.time("trainer.w_step", "sim", ROOT, |id| {
                traced.backend().set_parent(id);
                traced.w_step(&x, i)
            });
            rec.time("trainer.z_step", "sim", ROOT, |id| {
                traced.backend().set_parent(id);
                traced.z_step(&x, mu)
            });
        }
        assert_eq!(
            plain.model().encoder().weights(),
            traced.model().encoder().weights()
        );
        assert_eq!(
            plain.model().decoder().weights(),
            traced.model().decoder().weights()
        );
        assert_eq!(plain.codes(), traced.codes());

        let spans = rec.spans();
        let steps: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "backend.w_step")
            .collect();
        assert_eq!(steps.len(), 3);
        let submodels = bits + dim;
        for step in steps {
            let visits = spans
                .iter()
                .filter(|s| s.name == "w.update" && s.parent == step.id)
                .count();
            assert_eq!(visits, submodels * machines * epochs);
            let trainer = spans
                .iter()
                .find(|s| s.id == step.parent)
                .expect("parent span");
            assert_eq!(trainer.name, "trainer.w_step");
            assert!(trainer.start_ns <= step.start_ns && step.end_ns <= trainer.end_ns);
        }
        let solves = spans.iter().filter(|s| s.name == "z.solve").count();
        assert_eq!(solves, 3 * machines);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let span = |id, start_ns, end_ns| Span {
            id,
            parent: ROOT,
            name: "s",
            tag: "t",
            start_ns,
            end_ns,
        };
        let parent = span(0, 0, 100);
        let children = [span(1, 10, 40), span(2, 30, 50), span(3, 90, 120)];
        assert!((self_time(&parent, &children) - 50e-9).abs() < 1e-15);
        assert!((self_time(&parent, &[]) - 100e-9).abs() < 1e-15);
    }
}
