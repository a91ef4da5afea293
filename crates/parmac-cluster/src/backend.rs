//! The execution-engine seam: [`ClusterBackend`].
//!
//! ParMAC's two steps have very different execution structures — the W step
//! circulates submodels over a ring while the Z step is embarrassingly
//! parallel over data points — but *what* is computed is identical on every
//! substrate. `ClusterBackend` captures that split: a backend decides **how**
//! the ring protocol and the per-shard Z solves are executed (serially under a
//! simulated clock, on real threads, or on a future substrate such as a rayon
//! pool or MPI ranks), while the shared [`SimCluster`] state (shards, ring
//! topology, machine speeds, cost model) and the algorithmic closures supplied
//! by `parmac-core` stay backend-agnostic.
//!
//! Four backends ship today:
//!
//! * [`SimBackend`] — the deterministic synchronous-tick simulator, charging
//!   simulated time to a [`CostModel`] (fig. 10's speedup experiments);
//! * [`PoolBackend`](crate::pool::PoolBackend) — a hand-rolled work-stealing
//!   thread pool (§8.5's shared-memory configuration): the Z step splits every
//!   shard into point chunks any worker can steal, the W step drains each
//!   machine's submodel queue across the local workers;
//! * [`ServerBackend`](crate::server::ServerBackend) — real OS threads: the
//!   in-process crossbeam ring of [`threaded`](crate::threaded) for the W
//!   step and one scoped thread per machine shard for the Z step, plus a
//!   resident serving fleet of machine actors behind typed mailboxes
//!   ([`MachineMsg`]) that answers Hamming k-NN queries (via
//!   [`QueryRouter`](crate::server::QueryRouter)) *while* training runs.
//!   Simulated time is still charged with the same formulas, so speedup
//!   curves remain comparable across backends;
//! * [`ProcessBackend`](crate::process::ProcessBackend) — machines as real OS
//!   processes (`parmac-machined` workers) connected by Unix-domain sockets:
//!   the coordinator sequences submodel updates exactly once while the worker
//!   ring routes envelope frames, and a SIGKILLed worker becomes a §4.3 fault
//!   the step routes around.
//!
//! [`MachineMsg`]: crate::server::MachineMsg
//!
//! The Z step uses a *collect-then-apply* contract: the solve closure returns
//! the changed codes per shard as [`ZUpdate`]s instead of mutating shared
//! state, which is what makes shard-parallel execution safe and keeps the
//! parallel result bitwise identical to the serial one (per-point solves are
//! independent; updates are applied in topology order either way). Because the
//! closure is invoked once per machine shard, it is also the right place for
//! per-shard amortised state: `parmac-core`'s closure builds one
//! `ZStepProblem` (Cholesky factorisation) **and one `ZStepWorkspace`** per
//! shard and reuses them `&mut` across the shard's points, so the per-point
//! kernels allocate nothing regardless of which backend drives them.

use crate::cost::{CostModel, StepTimings, WStepStats, ZStepStats};
use crate::sim::{Fault, SimCluster};
use std::time::Instant;

/// A new binary code for one data point, produced by a Z-step solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ZUpdate {
    /// The data point (global index) whose code changed.
    pub point: usize,
    /// The new code as 0/1 values.
    pub code: Vec<f64>,
}

/// An execution engine for ParMAC's distributed steps.
///
/// Implementations run the W-step ring protocol and the per-shard Z solves on
/// their substrate of choice. The trainer in `parmac-core` is generic over
/// this trait and contains no backend-specific dispatch; new substrates plug
/// in here without touching the training logic.
pub trait ClusterBackend {
    /// Human-readable backend name (for reports and logging).
    fn name(&self) -> &'static str;

    /// The cost model this backend *seeds* a trainer's cluster with. At
    /// execution time the cluster's own cost model is authoritative — both
    /// steps charge simulated time from `cluster.cost_model()`, so a cluster
    /// constructed with a different model than the backend's will be charged
    /// with the cluster's.
    fn cost_model(&self) -> CostModel;

    /// Runs one distributed W step: every submodel visits every machine
    /// `epochs` times and is updated on that machine's shard via `update`.
    ///
    /// * `cluster` — shards, ring topology, speeds.
    /// * `submodels` — the `M` circulating submodels; returned updated, in the
    ///   original order.
    /// * `params_per_submodel` — parameter count for the bytes statistic.
    /// * `update` — `update(&mut submodel, machine, shard)` performs one pass
    ///   of stochastic updates. It may be called concurrently for *different*
    ///   submodels, hence `Sync`.
    /// * `fault` — optional machine failure to inject. Only the simulator
    ///   honours faults; real-thread backends ignore the plan (they exercise
    ///   actual thread liveness instead).
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
        F: Fn(&mut S, usize, &[usize]) + Sync;

    /// Runs one Z step: `solve(machine, shard)` computes the changed codes of
    /// one machine's shard and the backend decides how machines execute
    /// (serially or one thread per shard). Returns all updates in ring
    /// topology order plus the step statistics.
    ///
    /// * `n_submodels` — the `M` used by the cost model (`M · N/P · t_r^Z`).
    fn run_z_step<F>(
        &self,
        cluster: &SimCluster,
        n_submodels: usize,
        solve: F,
    ) -> (Vec<ZUpdate>, ZStepStats)
    where
        F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync;

    /// Publishes the current auxiliary codes to the backend's serving side,
    /// shard by shard. Called by the trainer whenever the codes are (re)built
    /// wholesale — at initialisation, after re-partitioning and at the end of
    /// a run — so a backend that also *serves* the codes (the
    /// [`ServerBackend`](crate::server::ServerBackend) retrieval fleet) stays
    /// fresh. Purely computational backends ignore it (the default no-op).
    fn publish_codes(&self, _cluster: &SimCluster, _codes: &parmac_hash::BinaryCodes) {}

    /// Publishes the codes of freshly streamed points: `points` were just
    /// added to `machine`'s shard and their codes are rows of `codes`. The
    /// incremental sibling of [`publish_codes`](Self::publish_codes) — a
    /// streaming ingest touches one machine, so only that machine's delta
    /// should move. Default no-op.
    fn publish_point_codes(
        &self,
        _machine: usize,
        _points: &[usize],
        _codes: &parmac_hash::BinaryCodes,
    ) {
    }
}

/// Z-step statistics shared by every backend: simulated time comes from
/// [`SimCluster::simulated_z_time`] (eq. 7), so the simulated speedup curves
/// are directly comparable across substrates.
pub(crate) fn z_stats(cluster: &SimCluster, n_submodels: usize, start: Instant) -> ZStepStats {
    let mut timings = StepTimings::default();
    timings.simulated_compute = cluster.simulated_z_time(n_submodels);
    timings.simulated = timings.simulated_compute;
    ZStepStats {
        timings: timings.with_wall_clock(start.elapsed()),
        points_updated: cluster
            .topology()
            .machines()
            .iter()
            .map(|&m| cluster.shard(m).len())
            .sum(),
    }
}

/// The deterministic synchronous-tick simulator backend.
///
/// Executes both steps serially on the calling thread in ring-topology order,
/// charging simulated time to the configured [`CostModel`]. Supports fault
/// injection (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBackend {
    cost: CostModel,
}

impl SimBackend {
    /// A simulator charging time to `cost`.
    pub fn new(cost: CostModel) -> Self {
        SimBackend { cost }
    }
}

impl Default for SimBackend {
    /// The distributed-cluster cost preset (table 1 / fig. 10).
    fn default() -> Self {
        SimBackend::new(CostModel::distributed())
    }
}

impl ClusterBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        mut submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        let stats = cluster.run_w_step(&mut submodels, epochs, params_per_submodel, update, fault);
        (submodels, stats)
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
        let start = Instant::now();
        let mut updates = Vec::new();
        for &machine in cluster.topology().machines() {
            updates.extend(solve(machine, cluster.shard(machine)));
        }
        (updates, z_stats(cluster, n_submodels, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(p: usize, n: usize) -> Vec<Vec<usize>> {
        let base = n / p;
        (0..p)
            .map(|i| (i * base..(i + 1) * base).collect())
            .collect()
    }

    fn toggle_solve(machine: usize, shard: &[usize]) -> Vec<ZUpdate> {
        // Deterministic per-point "solve": flip points whose index is even,
        // code derived from (machine, point).
        shard
            .iter()
            .filter(|&&n| n % 2 == 0)
            .map(|&n| ZUpdate {
                point: n,
                code: vec![machine as f64, n as f64],
            })
            .collect()
    }

    #[test]
    fn all_backends_z_steps_produce_identical_updates_and_times() {
        let cost = CostModel::new(1.0, 10.0, 5.0);
        let cluster = SimCluster::new(shards(4, 40), cost);
        let sim = SimBackend::new(cost);
        let server = crate::server::ServerBackend::new().with_cost_model(cost);
        let pool = crate::pool::PoolBackend::new()
            .with_workers(3)
            .with_chunk_size(4)
            .with_cost_model(cost);
        let (u_sim, s_sim) = sim.run_z_step(&cluster, 8, toggle_solve);
        let (u_srv, s_srv) = server.run_z_step(&cluster, 8, toggle_solve);
        let (u_pool, s_pool) = pool.run_z_step(&cluster, 8, toggle_solve);
        assert_eq!(
            u_sim, u_srv,
            "parallel Z must be bitwise identical to serial"
        );
        assert_eq!(
            u_sim, u_pool,
            "work-stealing Z must be bitwise identical to serial"
        );
        assert_eq!(s_sim.points_updated, 40);
        assert_eq!(s_sim.points_updated, s_srv.points_updated);
        assert_eq!(s_sim.points_updated, s_pool.points_updated);
        assert_eq!(s_sim.timings.simulated, s_srv.timings.simulated);
        assert_eq!(s_sim.timings.simulated, s_pool.timings.simulated);
    }

    #[test]
    fn z_updates_arrive_in_topology_order() {
        let mut cluster = SimCluster::new(shards(4, 16), CostModel::distributed());
        cluster.set_topology(crate::topology::RingTopology::from_order(vec![2, 0, 3, 1]));
        let per_machine = crate::threaded::run_z_step_threaded(&cluster, |machine, shard| {
            shard
                .iter()
                .map(|&n| ZUpdate {
                    point: n,
                    code: vec![machine as f64],
                })
                .collect()
        });
        let machine_order: Vec<usize> = per_machine
            .iter()
            .map(|updates| updates[0].code[0] as usize)
            .collect();
        assert_eq!(machine_order, vec![2, 0, 3, 1]);
    }

    #[test]
    fn every_backend_runs_the_w_step_protocol() {
        let cluster = SimCluster::new(shards(3, 30), CostModel::distributed());
        for (name, (subs, stats)) in [
            (
                "sim",
                SimBackend::default().run_w_step(
                    &cluster,
                    vec![0usize; 5],
                    2,
                    1,
                    |s, _, shard| *s += shard.len(),
                    None,
                ),
            ),
            (
                "server",
                crate::server::ServerBackend::new().run_w_step(
                    &cluster,
                    vec![0usize; 5],
                    2,
                    1,
                    |s, _, shard| *s += shard.len(),
                    None,
                ),
            ),
            (
                "pool",
                crate::pool::PoolBackend::new().with_workers(2).run_w_step(
                    &cluster,
                    vec![0usize; 5],
                    2,
                    1,
                    |s, _, shard| *s += shard.len(),
                    None,
                ),
            ),
        ] {
            assert!(subs.iter().all(|&s| s == 2 * 30), "{name}");
            assert_eq!(stats.update_visits, 5 * 3 * 2, "{name}");
        }
    }

    #[test]
    fn w_step_stats_are_identical_across_backends() {
        // The canonical message count is ring_hops(M, P, e); the simulator
        // counts hops dynamically and must agree with the closed form used by
        // the server and pool backends (no-fault case), byte-for-byte.
        let (m, p, e, params) = (5usize, 4usize, 3usize, 7usize);
        let cluster = SimCluster::new(shards(p, 40), CostModel::distributed());
        let noop = |_: &mut (), _: usize, _: &[usize]| {};
        let (_, s_sim) =
            SimBackend::default().run_w_step(&cluster, vec![(); m], e, params, noop, None);
        let (_, s_srv) = crate::server::ServerBackend::new().run_w_step(
            &cluster,
            vec![(); m],
            e,
            params,
            noop,
            None,
        );
        let (_, s_pool) = crate::pool::PoolBackend::new().with_workers(2).run_w_step(
            &cluster,
            vec![(); m],
            e,
            params,
            noop,
            None,
        );
        let expected = crate::cost::ring_hops(m, p, e);
        for (name, stats) in [("sim", s_sim), ("server", s_srv), ("pool", s_pool)] {
            assert_eq!(stats.messages_sent, expected, "{name} messages");
            assert_eq!(
                stats.bytes_sent,
                expected * params * std::mem::size_of::<f64>(),
                "{name} bytes"
            );
            assert_eq!(stats.update_visits, m * p * e, "{name} visits");
        }
    }

    #[test]
    fn backend_names_and_cost_models_are_exposed() {
        let sim = SimBackend::new(CostModel::shared_memory());
        assert_eq!(sim.name(), "sim");
        assert_eq!(sim.cost_model(), CostModel::shared_memory());
        let server = crate::server::ServerBackend::new();
        assert_eq!(server.name(), "server");
        assert_eq!(server.cost_model(), CostModel::distributed());
    }
}
