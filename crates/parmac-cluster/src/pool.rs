//! Work-stealing thread-pool backend (§8.5's shared-memory configuration).
//!
//! The paper's shared-memory runs execute the very same ring protocol with
//! all "machines" being cores of one box. Two structural consequences, both
//! implemented here and neither available to the one-thread-per-machine
//! ring of [`threaded`](crate::threaded):
//!
//! * **The Z step is embarrassingly parallel at *point* granularity**, not
//!   shard granularity: when `P ≪ cores` or the shards are imbalanced
//!   (proportional partitions, streaming), per-shard threads leave cores
//!   idle. [`PoolBackend`] splits every shard into fixed-size point chunks
//!   that *any* worker can steal, then reassembles the per-chunk updates in
//!   deterministic topology-then-chunk order — bitwise identical output to
//!   the serial sweep, wall-clock bounded by the slowest *chunk* rather than
//!   the slowest *shard*.
//! * **Within-machine W-step parallelism** (§8.5): several submodels queued
//!   at the same ring machine are trained concurrently by the local workers.
//!   Distinct submodels are independent (the update closure's `Sync`
//!   contract), and each submodel still visits machines in exact ring order,
//!   so the trained weights stay bitwise identical to the simulator's.
//!
//! The pool itself is hand-rolled (crates.io is unreachable, so no rayon):
//! one [`VecDeque`] of tasks per worker behind a [`Mutex`], workers popping
//! from their own deque's front and stealing from the *back* of a victim's
//! when empty. Z-step tasks are a fixed set known upfront, so a worker whose
//! full scan finds nothing simply exits; W-step visits spawn their successor
//! visit, so workers spin (yield, then briefly sleep) until every submodel
//! has been collected.

use crate::backend::{z_stats, ClusterBackend, ZUpdate};
use crate::cost::{ring_hops, CostModel, StepTimings, WStepStats, ZStepStats};
use crate::envelope::SubmodelEnvelope;
use crate::sim::{Fault, SimCluster};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Pops a task for `worker`: its own deque's front first (the distribution
/// order), then the *back* of each other worker's deque (steal-on-empty, so
/// thieves and owners contend on opposite ends). Returns `None` only when a
/// full scan over all deques finds nothing.
fn pop_or_steal<T>(queues: &[Mutex<VecDeque<T>>], worker: usize) -> Option<T> {
    if let Some(task) = queues[worker].lock().pop_front() {
        return Some(task);
    }
    for offset in 1..queues.len() {
        let victim = (worker + offset) % queues.len();
        if let Some(task) = queues[victim].lock().pop_back() {
            return Some(task);
        }
    }
    None
}

/// One W-step task: a submodel envelope about to visit ring position `pos`.
struct Visit<S> {
    pos: usize,
    env: SubmodelEnvelope<S>,
}

/// The work-stealing pool backend: `workers` threads share every task of a
/// step regardless of which "machine" it belongs to.
///
/// With `workers == 1` both steps degrade to the exact serial sweep (the
/// degenerate path the CI matrix keeps covered); with more workers the
/// results are still bitwise identical — only the wall clock changes. The
/// default cost model is the [`CostModel::shared_memory`] preset, matching
/// the configuration this backend models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolBackend {
    cost: CostModel,
    workers: usize,
    chunk_size: usize,
}

impl PoolBackend {
    /// Default chunk size: small enough that even one shard splits into many
    /// stealable tasks, large enough to amortise the per-chunk batched
    /// relaxed initialisation.
    pub const DEFAULT_CHUNK_SIZE: usize = 64;

    /// A pool sized to the host's available parallelism, with the
    /// shared-memory cost preset and the default chunk size.
    pub fn new() -> Self {
        PoolBackend {
            cost: CostModel::shared_memory(),
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
        }
    }

    /// Overrides the cost model a trainer built on this backend seeds its
    /// cluster with (the cluster is authoritative at execution time; see
    /// [`ClusterBackend::cost_model`]).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the number of pool workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the Z-step chunk size (points per stealable task).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Points per stealable Z-step task.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }
}

impl Default for PoolBackend {
    fn default() -> Self {
        PoolBackend::new()
    }
}

impl ClusterBackend for PoolBackend {
    fn name(&self) -> &'static str {
        "pool"
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// §8.5 within-machine W-step parallelism: every (submodel, machine)
    /// visit is one stealable task carrying the submodel's envelope, so all
    /// submodels queued at one machine are trained concurrently by the local
    /// workers. Processing a visit spawns the successor visit into the
    /// worker's own deque; each submodel therefore visits machines in exact
    /// ring order (seeded round-robin by ring position, as in fig. 2) and the
    /// trained weights are bitwise identical to the other backends'.
    /// `messages_sent` is the canonical [`ring_hops`] count. Faults are
    /// ignored (real-thread backends exercise actual liveness instead).
    fn run_w_step<S, F>(
        &self,
        cluster: &SimCluster,
        submodels: Vec<S>,
        epochs: usize,
        params_per_submodel: usize,
        update: F,
        _fault: Option<Fault>,
    ) -> (Vec<S>, WStepStats)
    where
        S: Send,
        F: Fn(&mut S, usize, &[usize]) + Sync,
    {
        assert!(epochs > 0, "need at least one epoch");
        let start = Instant::now();
        let machines = cluster.topology().machines().to_vec();
        let p = machines.len();
        let m_total = submodels.len();
        if m_total == 0 {
            return (
                submodels,
                WStepStats {
                    timings: StepTimings::default().with_wall_clock(start.elapsed()),
                    ..WStepStats::default()
                },
            );
        }

        // At most one worker per circulating submodel can be busy at a time.
        let workers = self.workers.min(m_total);
        let queues: Vec<Mutex<VecDeque<Visit<S>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, sub) in submodels.into_iter().enumerate() {
            let env = SubmodelEnvelope::new(idx, sub, &machines);
            queues[idx % workers]
                .lock()
                .push_back(Visit { pos: idx % p, env });
        }

        let collected: Vec<Mutex<Option<S>>> = (0..m_total).map(|_| Mutex::new(None)).collect();
        let n_collected = AtomicUsize::new(0);
        let update_visits = AtomicUsize::new(0);

        thread::scope(|scope| {
            for worker in 0..workers {
                let queues = &queues;
                let machines = &machines;
                let collected = &collected;
                let n_collected = &n_collected;
                let update_visits = &update_visits;
                let update = &update;
                scope.spawn(move || {
                    let mut idle_scans = 0u32;
                    loop {
                        let Some(mut visit) = pop_or_steal(queues, worker) else {
                            if n_collected.load(Ordering::Acquire) == m_total {
                                break;
                            }
                            // Another worker still holds an in-flight visit;
                            // its successor task will appear shortly.
                            idle_scans += 1;
                            if idle_scans < 16 {
                                thread::yield_now();
                            } else {
                                thread::sleep(Duration::from_micros(50));
                            }
                            continue;
                        };
                        idle_scans = 0;
                        let machine = machines[visit.pos];
                        if visit.env.record_visit(machine, machines, epochs) {
                            update(&mut visit.env.payload, machine, cluster.shard(machine));
                            update_visits.fetch_add(1, Ordering::Relaxed);
                        }
                        if visit.env.is_finished(p, epochs) {
                            *collected[visit.env.submodel_id].lock() = Some(visit.env.payload);
                            n_collected.fetch_add(1, Ordering::Release);
                        } else {
                            visit.pos = (visit.pos + 1) % p;
                            queues[worker].lock().push_back(visit);
                        }
                    }
                });
            }
        });

        let result: Vec<S> = collected
            .into_iter()
            .map(|slot| slot.into_inner().expect("every submodel collected"))
            .collect();
        let msgs = ring_hops(m_total, p, epochs);
        let stats = WStepStats {
            timings: StepTimings::default().with_wall_clock(start.elapsed()),
            messages_sent: msgs,
            bytes_sent: msgs * params_per_submodel * std::mem::size_of::<f64>(),
            update_visits: update_visits.load(Ordering::Relaxed),
        };
        (result, stats)
    }

    /// Point-granular Z step: every shard is split into `chunk_size`-point
    /// tasks, any worker solves any chunk, and the per-chunk updates are
    /// reassembled by task index — i.e. in deterministic topology-then-chunk
    /// order, bitwise identical to [`SimBackend`](crate::backend::SimBackend)
    /// (per-point solves are independent; chunking a shard cannot change any
    /// point's solution). The fixed task set needs no termination protocol:
    /// tasks never spawn tasks, so a worker whose scan finds nothing exits.
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
        let tasks: Vec<(usize, &[usize])> = cluster
            .topology()
            .machines()
            .iter()
            .flat_map(|&machine| {
                cluster
                    .shard(machine)
                    .chunks(self.chunk_size)
                    .map(move |chunk| (machine, chunk))
            })
            .collect();

        let workers = self.workers.min(tasks.len());
        let mut per_task: Vec<Option<Vec<ZUpdate>>> = (0..tasks.len()).map(|_| None).collect();
        if workers <= 1 {
            for (slot, &(machine, chunk)) in per_task.iter_mut().zip(&tasks) {
                *slot = Some(solve(machine, chunk));
            }
        } else {
            // Distribute task indices round-robin so every worker starts with
            // chunks spread across the topology; imbalance is then absorbed
            // by stealing rather than by the initial split.
            let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
                .map(|worker| Mutex::new((worker..tasks.len()).step_by(workers).collect()))
                .collect();
            thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let queues = &queues;
                        let tasks = &tasks;
                        let solve = &solve;
                        scope.spawn(move || {
                            let mut solved: Vec<(usize, Vec<ZUpdate>)> = Vec::new();
                            while let Some(task) = pop_or_steal(queues, worker) {
                                let (machine, chunk) = tasks[task];
                                solved.push((task, solve(machine, chunk)));
                            }
                            solved
                        })
                    })
                    .collect();
                for handle in handles {
                    for (task, updates) in handle.join().expect("Z-step pool worker panicked") {
                        per_task[task] = Some(updates);
                    }
                }
            });
        }

        let updates: Vec<ZUpdate> = per_task
            .into_iter()
            .flat_map(|u| u.expect("every chunk solved"))
            .collect();
        (updates, z_stats(cluster, n_submodels, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::topology::RingTopology;

    fn shards(p: usize, n: usize) -> Vec<Vec<usize>> {
        let base = n / p;
        (0..p)
            .map(|i| (i * base..(i + 1) * base).collect())
            .collect()
    }

    fn toggle_solve(machine: usize, shard: &[usize]) -> Vec<ZUpdate> {
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
    fn pool_z_step_matches_sim_across_worker_and_chunk_sizes() {
        let cost = CostModel::new(1.0, 10.0, 5.0);
        let cluster = SimCluster::new(shards(4, 40), cost);
        let (u_sim, s_sim) = SimBackend::new(cost).run_z_step(&cluster, 8, toggle_solve);
        for workers in [1usize, 2, 3, 8] {
            for chunk in [1usize, 3, 7, 64] {
                let pool = PoolBackend::new()
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .with_cost_model(cost);
                let (u_pool, s_pool) = pool.run_z_step(&cluster, 8, toggle_solve);
                assert_eq!(
                    u_sim, u_pool,
                    "pool Z (workers={workers}, chunk={chunk}) must be bitwise identical to sim"
                );
                assert_eq!(s_sim.points_updated, s_pool.points_updated);
                assert_eq!(s_sim.timings.simulated, s_pool.timings.simulated);
            }
        }
    }

    #[test]
    fn pool_z_updates_arrive_in_topology_then_chunk_order() {
        let mut cluster = SimCluster::new(shards(4, 16), CostModel::distributed());
        cluster.set_topology(RingTopology::from_order(vec![2, 0, 3, 1]));
        let backend = PoolBackend::new().with_workers(4).with_chunk_size(2);
        let (updates, _) = backend.run_z_step(&cluster, 2, |machine, shard| {
            shard
                .iter()
                .map(|&n| ZUpdate {
                    point: n,
                    code: vec![machine as f64],
                })
                .collect()
        });
        let machine_order: Vec<usize> = updates
            .iter()
            .map(|u| u.code[0] as usize)
            .collect::<Vec<_>>()
            .chunks(4)
            .map(|c| c[0])
            .collect();
        assert_eq!(machine_order, vec![2, 0, 3, 1]);
        // Within a machine, points stay in shard order despite the 2-point
        // chunking.
        let points: Vec<usize> = updates.iter().map(|u| u.point).collect();
        assert_eq!(points[..4], [8, 9, 10, 11]);
    }

    #[test]
    fn pool_z_step_handles_imbalanced_shards() {
        // One huge shard next to three tiny ones: chunking means every worker
        // can help with the big one.
        let mut shards = vec![(0..60).collect::<Vec<usize>>()];
        shards.extend((0..3).map(|i| vec![60 + i]));
        let cluster = SimCluster::new(shards, CostModel::distributed());
        let (u_sim, _) = SimBackend::default().run_z_step(&cluster, 4, toggle_solve);
        let pool = PoolBackend::new().with_workers(4).with_chunk_size(8);
        let (u_pool, _) = pool.run_z_step(&cluster, 4, toggle_solve);
        assert_eq!(u_sim, u_pool);
    }

    #[test]
    fn pool_w_step_runs_the_full_protocol() {
        let cluster = SimCluster::new(shards(4, 40), CostModel::distributed());
        for workers in [1usize, 2, 8] {
            let backend = PoolBackend::new().with_workers(workers);
            let epochs = 3;
            let visits = Mutex::new(std::collections::HashMap::<(usize, usize), usize>::new());
            let (result, stats) = backend.run_w_step(
                &cluster,
                (0..6).collect::<Vec<usize>>(),
                epochs,
                1,
                |sub, machine, shard| {
                    assert_eq!(shard.len(), 10);
                    *visits.lock().entry((*sub, machine)).or_insert(0) += 1;
                },
                None,
            );
            assert_eq!(result, (0..6).collect::<Vec<_>>(), "original order kept");
            let visits = visits.lock();
            for sub in 0..6 {
                for machine in 0..4 {
                    assert_eq!(
                        visits.get(&(sub, machine)),
                        Some(&epochs),
                        "workers={workers} ({sub},{machine})"
                    );
                }
            }
            assert_eq!(stats.update_visits, 6 * 4 * epochs);
            assert_eq!(stats.messages_sent, ring_hops(6, 4, epochs));
        }
    }

    #[test]
    fn pool_w_step_visits_machines_in_ring_order() {
        let shards = shards(4, 8);
        let mut cluster = SimCluster::new(shards, CostModel::distributed());
        cluster.set_topology(RingTopology::from_order(vec![2, 0, 3, 1]));
        let seen = Mutex::new(Vec::new());
        let backend = PoolBackend::new().with_workers(3);
        backend.run_w_step(
            &cluster,
            vec![(); 1],
            1,
            1,
            |_, machine, _| seen.lock().push(machine),
            None,
        );
        // The single submodel starts at ring position 0 (machine 2) and walks
        // the ring in order — stealing may move it between workers but never
        // reorders its visits.
        assert_eq!(*seen.lock(), vec![2, 0, 3, 1]);
    }

    #[test]
    fn pool_w_step_empty_submodels_and_single_machine() {
        let cluster = SimCluster::new(shards(1, 10), CostModel::distributed());
        let backend = PoolBackend::new().with_workers(2);
        let (empty, stats) =
            backend.run_w_step(&cluster, Vec::<u8>::new(), 1, 1, |_, _, _| {}, None);
        assert!(empty.is_empty());
        assert_eq!(stats.update_visits, 0);
        let (result, stats) =
            backend.run_w_step(&cluster, vec![0usize; 2], 2, 1, |sub, _, _| *sub += 1, None);
        assert_eq!(result, vec![2, 2]);
        assert_eq!(stats.update_visits, 4);
        assert_eq!(stats.messages_sent, ring_hops(2, 1, 2));
    }

    #[test]
    fn pool_exposes_name_cost_and_knobs() {
        let pool = PoolBackend::new()
            .with_workers(5)
            .with_chunk_size(17)
            .with_cost_model(CostModel::distributed());
        assert_eq!(pool.name(), "pool");
        assert_eq!(pool.workers(), 5);
        assert_eq!(pool.chunk_size(), 17);
        assert_eq!(pool.cost_model(), CostModel::distributed());
        assert_eq!(
            PoolBackend::default().cost_model(),
            CostModel::shared_memory()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = PoolBackend::new().with_workers(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = PoolBackend::new().with_chunk_size(0);
    }
}
