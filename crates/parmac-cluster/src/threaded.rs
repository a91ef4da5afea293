//! Real multi-threaded execution of the ParMAC steps: one OS thread per
//! machine.
//!
//! W step ([`run_w_step_threaded`]): one OS thread plays the role of each
//! machine; the unidirectional ring is a set of crossbeam channels; each
//! machine runs the asynchronous loop of §4.1: *"extract a submodel from the
//! queue, process it (except in epoch e+1) and send it to the machine's
//! successor ... Each submodel carries a counter"*. When a submodel finishes
//! its final forwarding lap it is delivered to a collector channel instead of
//! travelling further, which is the in-process equivalent of "every machine
//! now holds a copy of the final model".
//!
//! Z step ([`run_z_step_threaded`]): the paper's "embarrassingly parallel"
//! step — one scoped thread per machine shard, no communication, results
//! returned in ring topology order so applying them is bitwise identical to
//! the serial sweep.
//!
//! [`ServerBackend`](crate::server::ServerBackend) trains through both; the
//! test suite checks that the concurrent protocol computes exactly the model
//! of the deterministic simulator.

use crate::backend::ZUpdate;
use crate::cost::{ring_hops, StepTimings, WStepStats};
use crate::envelope::SubmodelEnvelope;
use crate::sim::SimCluster;
use crate::topology::RingTopology;
use crate::waits;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

enum Message<S> {
    Envelope(SubmodelEnvelope<S>),
    Shutdown,
}

/// Runs one distributed W step on real threads.
///
/// * `submodels` — the `M` submodels to train; returned updated, in the same
///   order.
/// * `shards` — per-machine point indices, indexed by machine id (`shards[p]`
///   is machine `p`'s local data). Borrowed, not cloned: a W step touches the
///   shards read-only, so callers pass `P` slices instead of copying `N`
///   indices per step.
/// * `topology` — the ring; every machine id it contains must be a valid index
///   into `shards`.
/// * `epochs` — the number of passes `e` over the distributed dataset.
/// * `params_per_submodel` — parameter count, used for the bytes statistic.
/// * `update` — `update(&mut submodel, machine, shard)` performs one pass of
///   stochastic updates of the submodel on that machine's shard. It is called
///   concurrently from several threads (for *different* submodels), hence
///   `Sync`.
///
/// Returns the updated submodels and communication statistics
/// (`messages_sent` is the canonical fault-free hop count,
/// [`ring_hops`]`(M, P, e)`, the same formula the simulator's dynamic count
/// reduces to). Simulated time is not charged here (use
/// [`SimCluster`](crate::sim::SimCluster) for that); wall-clock time is
/// measured.
///
/// # Panics
///
/// Panics if `epochs == 0` or the topology references a machine with no shard
/// entry.
pub fn run_w_step_threaded<S, F>(
    submodels: Vec<S>,
    shards: &[&[usize]],
    topology: &RingTopology,
    epochs: usize,
    params_per_submodel: usize,
    update: F,
) -> (Vec<S>, WStepStats)
where
    S: Send,
    F: Fn(&mut S, usize, &[usize]) + Sync,
{
    assert!(epochs > 0, "need at least one epoch");
    let machines = topology.machines().to_vec();
    let p = machines.len();
    assert!(
        machines.iter().all(|&m| m < shards.len()),
        "topology references a machine without a shard"
    );
    let m_total = submodels.len();
    let start = Instant::now();

    if m_total == 0 {
        return (
            submodels,
            WStepStats {
                timings: StepTimings::default().with_wall_clock(start.elapsed()),
                ..WStepStats::default()
            },
        );
    }

    // Channels: one inbox per machine (indexed by ring position), plus a
    // collector for finished submodels.
    let mut senders: Vec<Sender<Message<S>>> = Vec::with_capacity(p);
    let mut receivers: Vec<Option<Receiver<Message<S>>>> = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let (done_tx, done_rx) = unbounded::<SubmodelEnvelope<S>>();

    // Seed each machine's queue with its portion of the submodels (round
    // robin by ring position, as in fig. 2).
    for (idx, sub) in submodels.into_iter().enumerate() {
        let env = SubmodelEnvelope::new(idx, sub, &machines);
        senders[idx % p]
            .send(Message::Envelope(env))
            .expect("seed send");
    }

    let update_visits = AtomicUsize::new(0);

    let finished = thread::scope(|scope| {
        for (pos, &machine) in machines.iter().enumerate() {
            let rx = receivers[pos].take().expect("receiver taken once");
            let next_tx = senders[(pos + 1) % p].clone();
            let done_tx = done_tx.clone();
            let shard = shards[machine];
            let update = &update;
            let machines_ref = &machines;
            let update_visits = &update_visits;
            scope.spawn(move || {
                while let Ok(msg) = waits::recv_bounded(&rx, waits::IDLE_TICK) {
                    let mut env = match msg {
                        Message::Shutdown => break,
                        Message::Envelope(env) => env,
                    };
                    let updated = env.record_visit(machine, machines_ref, epochs);
                    if updated {
                        update(&mut env.payload, machine, shard);
                        update_visits.fetch_add(1, Ordering::Relaxed);
                    }
                    if env.is_finished(p, epochs) {
                        done_tx.send(env).expect("collector alive");
                    } else {
                        next_tx.send(Message::Envelope(env)).expect("ring alive");
                    }
                }
            });
        }

        // Collector: once every submodel has finished, shut the ring down.
        let mut finished: Vec<Option<S>> = (0..m_total).map(|_| None).collect();
        for _ in 0..m_total {
            // Heartbeat-bounded wait; these are scoped threads, so an
            // `expect` failure re-raises at scope join rather than dying
            // silently like a detached actor would.
            let env = waits::recv_bounded(&done_rx, waits::IDLE_TICK)
                .expect("all submodels eventually finish");
            finished[env.submodel_id] = Some(env.payload);
        }
        for tx in &senders {
            let _ = tx.send(Message::Shutdown);
        }
        finished
    });

    let result: Vec<S> = finished
        .into_iter()
        .map(|s| s.expect("every submodel collected"))
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

/// Runs one Z step shard-parallel: `solve(machine, shard)` on one scoped
/// thread per machine of the ring (no communication, disjoint shards).
///
/// Returns each machine's updates in ring topology order — element `i`
/// belongs to `cluster.topology().machines()[i]` — so flattening them is
/// bitwise identical to a serial sweep over the topology.
///
/// # Panics
///
/// Re-raises a panic from any `solve` call.
pub fn run_z_step_threaded<F>(cluster: &SimCluster, solve: F) -> Vec<Vec<ZUpdate>>
where
    F: Fn(usize, &[usize]) -> Vec<ZUpdate> + Sync,
{
    thread::scope(|scope| {
        let handles: Vec<_> = cluster
            .topology()
            .machines()
            .iter()
            .map(|&machine| {
                let solve = &solve;
                scope.spawn(move || solve(machine, cluster.shard(machine)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("Z-step shard thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    fn shards(p: usize, n: usize) -> Vec<Vec<usize>> {
        let base = n / p;
        (0..p)
            .map(|i| (i * base..(i + 1) * base).collect())
            .collect()
    }

    fn as_refs(shards: &[Vec<usize>]) -> Vec<&[usize]> {
        shards.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn every_submodel_is_updated_on_every_machine_each_epoch() {
        let shards = shards(4, 40);
        let topology = RingTopology::new(4);
        let epochs = 3;
        let visits: Mutex<HashMap<(usize, usize), usize>> = Mutex::new(HashMap::new());
        let submodels: Vec<usize> = (0..6).collect();
        let (result, stats) = run_w_step_threaded(
            submodels,
            &as_refs(&shards),
            &topology,
            epochs,
            1,
            |sub, machine, _shard| {
                *visits.lock().entry((*sub, machine)).or_insert(0) += 1;
            },
        );
        assert_eq!(result, (0..6).collect::<Vec<_>>());
        let visits = visits.lock();
        for sub in 0..6 {
            for machine in 0..4 {
                assert_eq!(
                    visits.get(&(sub, machine)),
                    Some(&epochs),
                    "({sub},{machine})"
                );
            }
        }
        assert_eq!(stats.update_visits, 6 * 4 * epochs);
    }

    #[test]
    fn submodels_return_in_original_order() {
        let shards = shards(3, 9);
        let topology = RingTopology::new(3);
        let submodels: Vec<String> = (0..5).map(|i| format!("model-{i}")).collect();
        let (result, _) = run_w_step_threaded(
            submodels.clone(),
            &as_refs(&shards),
            &topology,
            1,
            1,
            |_, _, _| {},
        );
        assert_eq!(result, submodels);
    }

    #[test]
    fn counters_accumulate_across_machines() {
        // Each visit adds the shard length; after e epochs on P machines each
        // counter equals e * N.
        let shards = shards(4, 32);
        let topology = RingTopology::new(4);
        let submodels = vec![0usize; 3];
        let (result, _) = run_w_step_threaded(
            submodels,
            &as_refs(&shards),
            &topology,
            2,
            1,
            |sub, _, shard| {
                *sub += shard.len();
            },
        );
        assert!(result.iter().all(|&c| c == 2 * 32));
    }

    #[test]
    fn works_with_single_machine() {
        let shards = shards(1, 10);
        let topology = RingTopology::new(1);
        let submodels = vec![0usize; 2];
        let (result, stats) = run_w_step_threaded(
            submodels,
            &as_refs(&shards),
            &topology,
            2,
            1,
            |sub, _, _| {
                *sub += 1;
            },
        );
        assert_eq!(result, vec![2, 2]);
        assert_eq!(stats.update_visits, 4);
    }

    #[test]
    fn empty_submodel_list_is_a_noop() {
        let shards = shards(2, 4);
        let topology = RingTopology::new(2);
        let submodels: Vec<u8> = Vec::new();
        let (result, stats) =
            run_w_step_threaded(submodels, &as_refs(&shards), &topology, 1, 1, |_, _, _| {});
        assert!(result.is_empty());
        assert_eq!(stats.update_visits, 0);
    }

    #[test]
    fn shuffled_topology_is_respected() {
        let shards = shards(4, 8);
        let topology = RingTopology::from_order(vec![2, 0, 3, 1]);
        let seen = Mutex::new(Vec::new());
        let submodels = vec![(); 1];
        run_w_step_threaded(
            submodels,
            &as_refs(&shards),
            &topology,
            1,
            1,
            |_, machine, _| {
                seen.lock().push(machine);
            },
        );
        let seen = seen.lock();
        assert_eq!(seen.len(), 4);
        // The single submodel starts at ring position 0 (machine 2) and walks
        // the ring in order.
        assert_eq!(*seen, vec![2, 0, 3, 1]);
    }
}
