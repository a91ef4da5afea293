//! `serve_static` and `serve_train`: closed-loop Hamming k-NN clients on a
//! `ServerBackend` fleet, without and with concurrent ParMAC training.
//!
//! Closed-loop clients submit query batches through
//! `QueryRouter::knn_admitted` and send the next one only when the previous
//! reply arrives (callers of the router wait for each reply): one client
//! with 1024-query batches on `serve_static`, two with 64-query batches on
//! `serve_train`.

use crate::report::{median, percentile, Outcome};
use crate::trace::{Phase, Recorder, Span, Traced, ROOT};
use crate::train::{self, layer_metrics, total_variance, Leg, TRAIN_Z};
use parmac_cluster::{
    ClusterBackend, CostModel, QueryRouter, ServerBackend, SimBackend, SimCluster,
};
use parmac_core::{BinaryAutoencoder, ParMacTrainer};
use parmac_data::partition_equal;
use parmac_data::synthetic::{gaussian_mixture, MixtureConfig};
use parmac_hash::{BinaryCodes, HashFunction, LinearDecoder, TpcaHash};
use parmac_retrieval::{hamming_knn, PrefixIndex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

pub const STATIC_MACHINES: usize = 2;
pub const TRAIN_MACHINES: usize = 2;
/// `serve_static` runs one client and one scan thread per machine, so the
/// fleet runs at most one compute thread per core, and 1024-query
/// submissions, so thread wake-ups are a small part of each one's latency.
/// With two clients, 64-query submissions and the default scan threads (two
/// per machine on a 2-core host) its median latency spread 0.32 and 0.46 of
/// its median over ten runs on a shared host.
const STATIC_CLIENTS: usize = 1;
const STATIC_QUERIES: usize = 1024;
const STATIC_SCAN_WORKERS: usize = 1;
/// Distinct `serve_static` submissions, each of fresh query points. A
/// submission's latency follows the few queries whose neighbours lie
/// several bits away, and the median latency is a median over these
/// submissions: with 16 of 256 queries, drawn from 4096 points, it moved
/// ~8% from seed to seed.
const STATIC_SUBMISSIONS: usize = 16;
const TRAIN_CLIENTS: usize = 2;
const TRAIN_QUERIES: usize = 64;
const TRAIN_SUBMISSIONS: usize = 32;
const K: usize = 10;
const STATIC_POINTS: usize = 200_000;
/// 32 informative dimensions embedded in 48: a square random embedding is
/// often badly conditioned, which made some seeds' codes far harder to
/// search (index probes up to 2x slower than the median seed).
const STATIC_DIM: usize = 48;
const STATIC_INTRINSIC_DIM: usize = 32;
const STATIC_BITS: usize = 32;
/// 1024 clusters spread over all 32 informative dimensions, so every code
/// bit carries cluster structure and a query's neighbours sit a few bits
/// away: the prefix index probes a handful of buckets instead of scanning.
const STATIC_CLUSTERS: usize = 1024;
/// Set-ups per `serve_static` run; `setup_s` is their median.
const STATIC_SETUPS: usize = 3;

/// Length of the slices the serving window is cut into: the tail latency
/// and throughput are medians over slices, so one stall of the shared host
/// moves one slice, not the run's result.
const SLICE_S: f64 = 2.0;
/// Percentile reported as `tail_ms`. On a shared 2-core host the p99 of a
/// run follows the host's stalls: over ten runs of the first, two-client
/// `serve_static` its spread was 0.30 of its median, against 0.17 for the
/// median latency. A 2-second slice holds ~160 untraced submissions on
/// `serve_static` (half that in a traced run) and thousands on
/// `serve_train`, so its p90 rests on several samples at least.
const TAIL_PERCENTILE: f64 = 90.0;

/// One answered submission: when it was sent (seconds into the window), its
/// latency, how many queries it carried and whether it was traced.
struct Call {
    sent_s: f64,
    secs: f64,
    queries: usize,
    traced: bool,
}

#[derive(Default)]
struct ClientLog {
    calls: Vec<Call>,
    shed: u64,
    degraded: u64,
    wrong: u64,
}

/// What the closed-loop clients share: the router slot (replaced when a new
/// fleet starts), the submissions, their expected answers when known, the
/// trainer phase and, in a traced run, the recorder.
struct Clients<'a> {
    /// How many clients run at once.
    clients: usize,
    router: &'a RwLock<QueryRouter>,
    batches: &'a [Arc<BinaryCodes>],
    expected: Option<&'a [Vec<Vec<usize>>]>,
    phase: &'a Phase,
    rec: Option<&'a Recorder>,
}

impl Clients<'_> {
    /// One client until `stop`: each answer is compared with `expected`
    /// when given, and in a traced run every other call is traced.
    fn run(&self, client: usize, window_start: Instant, stop: &AtomicBool) -> ClientLog {
        let mut log = ClientLog::default();
        let mut j = client * self.batches.len() / self.clients;
        while !stop.load(Ordering::Acquire) {
            let b = j % self.batches.len();
            let batch = &self.batches[b];
            let traced = self.rec.filter(|_| log.calls.len() % 2 == 1);
            let router = self
                .router
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            let tag = self.phase.name();
            let start = Instant::now();
            let sent_s = start.duration_since(window_start).as_secs_f64();
            let reply = match traced {
                Some(rec) => rec.time("serve.knn_admitted", tag, ROOT, |_| {
                    router.knn_admitted(Arc::clone(batch), K)
                }),
                None => router.knn_admitted(Arc::clone(batch), K),
            };
            let secs = start.elapsed().as_secs_f64();
            match reply {
                Ok(response) if response.is_degraded() => log.degraded += 1,
                Ok(response) => {
                    if self.expected.is_some_and(|e| response.answers != e[b]) {
                        log.wrong += 1;
                    }
                    log.calls.push(Call {
                        sent_s,
                        secs,
                        queries: batch.len(),
                        traced: traced.is_some(),
                    });
                }
                Err(_) => log.shed += 1,
            }
            j += 1;
        }
        log
    }

    /// Drives the clients while `work` runs on this thread, then merges
    /// their logs into `out` (latency metrics, failure counts, answer gate).
    fn drive(&self, out: &mut Outcome, work: impl FnOnce()) {
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let stop = &stop;
                    scope.spawn(move || self.run(c, start, stop))
                })
                .collect();
            work();
            stop.store(true, Ordering::Release);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        summarize(
            out,
            &logs,
            start.elapsed().as_secs_f64(),
            self.rec.is_some(),
        );
    }
}

fn summarize(out: &mut Outcome, logs: &[ClientLog], window: f64, traced_run: bool) {
    let slices = ((window / SLICE_S) as usize).max(1);
    let mut slice_lat: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut slice_queries = vec![0usize; slices];
    let mut wrong = 0u64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for log in logs {
        wrong += log.wrong;
        out.attempted += (log.calls.len() as u64) + log.shed + log.degraded;
        out.failed += log.shed + log.degraded;
        for call in &log.calls {
            let slice = (call.sent_s / SLICE_S) as usize;
            if slice < slices {
                slice_queries[slice] += call.queries;
            }
            if call.traced {
                traced.push(call.secs);
            } else {
                plain.push(call.secs);
                if slice < slices {
                    slice_lat[slice].push(call.secs);
                }
            }
        }
    }
    out.gate(wrong == 0, || {
        format!("{wrong} submissions answered differently from hamming_knn")
    });
    let tails: Vec<f64> = slice_lat
        .iter()
        .map(|l| percentile(l, TAIL_PERCENTILE))
        .collect();
    let qps: Vec<f64> = slice_queries.iter().map(|&q| q as f64 / SLICE_S).collect();
    let m = &mut out.metrics;
    m.put("p50_ms", median(&plain) * 1e3, "ms");
    m.put("tail_ms", median(&tails) * 1e3, "ms");
    m.put("throughput", median(&qps), "1/s");
    m.put("n.submissions", plain.len() as f64, "count");
    m.put("n.slices", slices as f64, "count");
    if traced_run {
        m.put(
            "trace.overhead_frac",
            median(&traced) / median(&plain) - 1.0,
            "frac",
        );
    }
}

/// Serving-layer counters and the phase-tagged latencies from the spans.
fn serving_layer_metrics(out: &mut Outcome, router: &QueryRouter, spans: &[Span]) {
    let stats = router.serving_stats();
    out.gate(stats.answered + stats.shed == stats.submitted, || {
        format!("serving accounting off: {stats:?}")
    });
    let m = &mut out.metrics;
    m.put("serve.batches", stats.batches as f64, "count");
    m.put(
        "serve.coalesce_frac",
        stats.coalesced as f64 / stats.submitted.max(1) as f64,
        "frac",
    );
    m.put("serve.shed", stats.shed as f64, "count");
    m.put("serve.degraded", stats.degraded as f64, "count");
    for tag in ["during_z", "during_w", "outside"] {
        let lat: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "serve.knn_admitted" && s.tag == tag)
            .map(Span::secs)
            .collect();
        m.put(
            format!("serve.p99_ms.{tag}"),
            percentile(&lat, 99.0) * 1e3,
            "ms",
        );
        m.put(format!("serve.n.{tag}"), lat.len() as f64, "count");
    }
    let (all, tail) = publish_overlap(spans);
    m.put("serve.publish_overlap_frac.all", all, "frac");
    m.put("serve.publish_overlap_frac.tail", tail, "frac");
}

/// Tests whether Z-step publishes cause the serving tail. A server Z step
/// sends its `ApplyUpdates` after the last shard solve and the machines
/// apply them afterwards, so a publish window runs from the end of the
/// step's last `z.solve` span to one p99 latency after the step ends (a
/// submission sent then may still queue behind the updates). Among the
/// traced submissions sent during or just after traced Z steps, returns the
/// share that overlap a publish window, over all of them and over those at
/// or above their p99: a tail made by publishes overlaps far more often.
fn publish_overlap(spans: &[Span]) -> (f64, f64) {
    let submissions: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "serve.knn_admitted")
        .collect();
    let latencies: Vec<f64> = submissions.iter().map(|s| s.secs()).collect();
    let slack = (percentile(&latencies, 99.0) * 1e9) as u64;
    let windows: Vec<(u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "backend.z_step" && s.tag == "server")
        .map(|step| {
            let last_solve = spans
                .iter()
                .filter(|c| c.parent == step.id && c.name == "z.solve")
                .map(|c| c.end_ns)
                .max()
                .unwrap_or(step.start_ns);
            (step.start_ns, last_solve, step.end_ns + slack)
        })
        .collect();
    let calls: Vec<(f64, bool)> = submissions
        .iter()
        .filter_map(|call| {
            let &(_, publish, _) = windows
                .iter()
                .find(|(start, _, end)| (*start..*end).contains(&call.start_ns))?;
            Some((call.secs(), publish < call.end_ns))
        })
        .collect();
    let share =
        |c: &[&(f64, bool)]| c.iter().filter(|(_, o)| *o).count() as f64 / c.len().max(1) as f64;
    let lat: Vec<f64> = calls.iter().map(|(secs, _)| *secs).collect();
    let p99 = percentile(&lat, 99.0);
    let all: Vec<&(f64, bool)> = calls.iter().collect();
    let tail: Vec<&(f64, bool)> = calls.iter().filter(|(secs, _)| *secs >= p99).collect();
    (share(&all), share(&tail))
}

/// `PrefixIndex` top-k for one submission on one shard, single-threaded and
/// outside the fleet, in milliseconds: each submission's median over
/// `PROBE_REPEATS` calls, then the median over submissions.
fn probe_ms(shard_codes: &BinaryCodes, ids: &[usize], batches: &[Arc<BinaryCodes>]) -> f64 {
    const PROBE_REPEATS: usize = 5;
    let index = PrefixIndex::build(shard_codes, ids);
    let per_batch: Vec<f64> = batches
        .iter()
        .map(|b| {
            let times: Vec<f64> = (0..PROBE_REPEATS)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(index.topk_batched(b, K, None));
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            median(&times)
        })
        .collect();
    median(&per_batch)
}

fn shard_codes(codes: &BinaryCodes, ids: &[usize]) -> BinaryCodes {
    let mut shard = BinaryCodes::zeros(0, codes.n_bits());
    for &i in ids {
        shard.push_code_from(codes, i);
    }
    shard
}

fn submissions(rows: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..TRAIN_SUBMISSIONS)
        .map(|_| {
            (0..TRAIN_QUERIES)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % rows as u64) as usize
                })
                .collect()
        })
        .collect()
}

/// Read-only serving: tPCA codes of clustered data published into a
/// two-machine fleet; every answer is checked against `hamming_knn`.
pub fn run_static(seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<Arc<Recorder>>) {
    let start = Instant::now();
    let extra = STATIC_SUBMISSIONS * STATIC_QUERIES;
    let all = gaussian_mixture(
        &MixtureConfig::new(STATIC_POINTS + extra, STATIC_DIM, STATIC_CLUSTERS)
            .with_intrinsic_dim(STATIC_INTRINSIC_DIM)
            .with_noise(2.0, 0.3)
            .with_seed(seed),
    )
    .features;
    let db_rows: Vec<usize> = (0..STATIC_POINTS).collect();
    let db = all.select_rows(&db_rows);
    let query_pool: Vec<usize> = (STATIC_POINTS..STATIC_POINTS + extra).collect();
    let queries = all.select_rows(&query_pool);
    drop(all);
    let hash = TpcaHash::fit(&db, STATIC_BITS)
        .expect("tPCA of generated data")
        .into_linear_hash();
    let codes = hash.encode(&db);
    let mut out = Outcome::default();

    let mut encode = Vec::new();
    // The query points are fresh draws from the mixture: submission `s`
    // takes the next `STATIC_QUERIES` of them, so no query repeats.
    let batches: Vec<Arc<BinaryCodes>> = (0..STATIC_SUBMISSIONS)
        .map(|s| {
            let rows: Vec<usize> = (s * STATIC_QUERIES..(s + 1) * STATIC_QUERIES).collect();
            let sub = queries.select_rows(&rows);
            let t = Instant::now();
            let coded = hash.encode(&sub);
            encode.push(t.elapsed().as_secs_f64() * 1e6 / rows.len() as f64);
            Arc::new(coded)
        })
        .collect();
    // Reference answers, computed before anything is timed, on every core.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let expected: Vec<Vec<Vec<usize>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .chunks(batches.len().div_ceil(cores))
            .map(|chunk| {
                let codes = &codes;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|b| hamming_knn(codes, b, K))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference search"))
            .collect()
    });
    let decoder = LinearDecoder::fit_least_squares(&codes.to_matrix(), &db, 1e-6);
    let ba_error =
        BinaryAutoencoder::new(hash, decoder).ba_error_per_point(&db) / total_variance(&db);
    let shards = partition_equal(STATIC_POINTS, STATIC_MACHINES).into_shards();
    let cluster = SimCluster::new(shards.clone(), CostModel::distributed());

    // Set-up: fleet start, publish and index build, until the first answer.
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..STATIC_SETUPS {
        drop(fleet.take());
        let t0 = Instant::now();
        let backend = ServerBackend::new().with_scan_workers(STATIC_SCAN_WORKERS);
        backend.publish_codes(&cluster, &codes);
        let router = backend.query_router();
        let first = router.knn_admitted(Arc::clone(&batches[0]), K);
        setups.push(t0.elapsed().as_secs_f64());
        out.gate(
            first
                .as_ref()
                .is_ok_and(|r| !r.is_degraded() && r.answers == expected[0]),
            || "first answer after set-up differs from hamming_knn".into(),
        );
        fleet = Some((backend, router));
    }
    let Some((_backend, router)) = fleet else {
        unreachable!("at least one set-up")
    };

    let rec = trace.then(Recorder::new);
    let phase = Phase::default();
    let slot = RwLock::new(router.clone());
    let remaining = seconds - start.elapsed().as_secs_f64();
    let clients = Clients {
        clients: STATIC_CLIENTS,
        router: &slot,
        batches: &batches,
        expected: Some(&expected),
        phase: &phase,
        rec: rec.as_deref(),
    };
    clients.drive(&mut out, || {
        std::thread::sleep(Duration::from_secs_f64(remaining.max(1.0)));
    });
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("ba_error", ba_error, "frac");
    if let Some(rec) = &rec {
        serving_layer_metrics(&mut out, &router, &rec.spans());
        let probe = probe_ms(&shard_codes(&codes, &shards[0]), &shards[0], &batches);
        let m = &mut out.metrics;
        m.put("encode_us", median(&encode), "us");
        m.put("index.probe_ms", probe, "ms");
        let p50 = m.get("p50_ms").unwrap_or(0.0);
        m.put("serve.overhead_ms", p50 - probe, "ms");
    } else {
        serving_layer_metrics(&mut out, &router, &[]);
    }
    (out, rec)
}

/// Serving beside training: the clients query a two-machine `ServerBackend`
/// while it trains a `train_z`-shaped model. Answers are checked against
/// `hamming_knn` over the trainer's codes once training has quiesced, and
/// the trained model against the simulator on the same configuration.
pub fn run_train(seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<Arc<Recorder>>) {
    let start = Instant::now();
    let shape = TRAIN_Z;
    let x = train::data(&shape, seed);
    let cfg = train::config(&shape, TRAIN_MACHINES, seed);
    let mus: Vec<f64> = cfg.ba.mu_schedule.iter().collect();
    let rec = trace.then(Recorder::new);
    let phase = Phase::default();
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    // Set-up: fleet start and trainer construction (tPCA init, publish),
    // then the first answer.
    let new_trainer = || {
        let t0 = Instant::now();
        let backend = ServerBackend::new();
        let router = backend.query_router();
        let trainer = ParMacTrainer::new(cfg, &x, Traced::new(backend, rec.clone()));
        (trainer, router, t0.elapsed())
    };
    let first_answer = |router: &QueryRouter, batch: &Arc<BinaryCodes>| {
        let t0 = Instant::now();
        let ok = router.knn_admitted(Arc::clone(batch), K).is_ok();
        (t0.elapsed(), ok)
    };
    let (trainer, router, built) = new_trainer();
    let rows = submissions(x.rows(), seed);
    let mut encode = Vec::new();
    let batches: Vec<Arc<BinaryCodes>> = rows
        .iter()
        .map(|r| {
            let sub = x.select_rows(r);
            let t = Instant::now();
            let coded = trainer.model().encoder().encode(&sub);
            encode.push(t.elapsed().as_secs_f64() * 1e6 / r.len() as f64);
            Arc::new(coded)
        })
        .collect();
    let (answered, first_ok) = first_answer(&router, &batches[0]);
    setups.push((built + answered).as_secs_f64());
    out.gate(first_ok, || "first submission after set-up was shed".into());

    let slot = RwLock::new(router);
    let mut pending = Some(trainer);
    let mut iters = Vec::new();
    let mut final_state = None;
    let mut ba_error = 0.0;
    let mut episodes = 0usize;
    let deadline = start + Duration::from_secs_f64(seconds);
    let rec_ref = rec.as_deref();
    let mut gate_failures = Vec::new();
    let clients = Clients {
        clients: TRAIN_CLIENTS,
        router: &slot,
        batches: &batches,
        expected: None,
        phase: &phase,
        rec: rec_ref,
    };
    clients.drive(&mut out, || loop {
        let ep_start = Instant::now();
        let mut trainer = match pending.take() {
            Some(t) => t,
            None => {
                let (t, router, built) = new_trainer();
                let (answered, first_ok) = first_answer(&router, &batches[0]);
                setups.push((built + answered).as_secs_f64());
                if !first_ok {
                    gate_failures.push("first submission after set-up was shed".to_string());
                }
                *slot.write().unwrap_or_else(|e| e.into_inner()) = router;
                t
            }
        };
        for (i, &mu) in mus.iter().enumerate() {
            // A traced run traces every other iteration.
            let traced = rec_ref.filter(|_| (i + episodes) % 2 == 1);
            if let Some(rec) = rec_ref {
                rec.set_active(traced.is_some());
            }
            let secs = trainer.iterate(&x, i, mu, traced, &phase).0;
            if traced.is_none() {
                iters.push(secs);
            }
        }
        // Quiesced: the fleet must answer exactly like a single-process
        // search over the trainer's final codes.
        let router = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
        for b in batches.iter().take(4) {
            let want = hamming_knn(trainer.codes(), b, K);
            match router.knn_admitted(Arc::clone(b), K) {
                Ok(r) if r.answers == want => {}
                _ => gate_failures.push(format!("episode {episodes}: quiesced answers differ")),
            }
        }
        final_state = Some(trainer.end_state());
        ba_error = trainer.ba_error(&x);
        episodes += 1;
        if Instant::now() + ep_start.elapsed() > deadline && episodes >= 2 {
            break;
        }
    });
    for failure in gate_failures {
        out.gate(false, || failure);
    }

    // The server-trained model must equal the simulator's on the same
    // configuration.
    let mut sim = ParMacTrainer::new(
        cfg,
        &x,
        Traced::new(SimBackend::new(CostModel::distributed()), None),
    );
    for (i, &mu) in mus.iter().enumerate() {
        sim.iterate(&x, i, mu, None, &Phase::default());
    }
    out.gate(final_state.as_ref() == Some(&sim.end_state()), || {
        "server-trained model differs from the simulator's".into()
    });

    let router = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("ba_error", ba_error, "frac");
    m.put("iter_s.server", median(&iters), "s");
    m.put("n.episodes", episodes as f64, "count");
    if let Some(rec) = &rec {
        let spans = rec.spans();
        serving_layer_metrics(&mut out, &router, &spans);
        let m = &mut out.metrics;
        let iter_s = m.get("iter_s.server").unwrap_or(0.0);
        layer_metrics(&spans, "server", iter_s, m);
        m.put(
            "z.updates",
            rec.z_updates() as f64 / episodes as f64,
            "count",
        );
        let shard = partition_equal(x.rows(), TRAIN_MACHINES)
            .into_shards()
            .swap_remove(0);
        // The gate above makes the simulator's final codes the fleet's.
        let probe = probe_ms(&shard_codes(sim.codes(), &shard), &shard, &batches);
        m.put("encode_us", median(&encode), "us");
        m.put("index.probe_ms", probe, "ms");
        let p50 = m.get("p50_ms").unwrap_or(0.0);
        m.put("serve.overhead_ms", p50 - probe, "ms");
    } else {
        serving_layer_metrics(&mut out, &router, &[]);
    }
    (out, rec)
}
