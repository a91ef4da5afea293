//! The ParMAC benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <train_w|train_z|serve_static|serve_train>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! Inputs are generated from `--seed`; the program under test only sees the
//! generated data. Every run checks its outputs (see each workload) and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A run whose correctness gate fails
//! exits with status 1.

mod report;
mod serve;
mod trace;
mod train;

use report::Metrics;
use std::process::ExitCode;

/// End-to-end metrics, printed on every workload by an untraced run. The
/// tail latency and throughput are per-layer metrics: on the shared 2-core
/// host their run-to-run spread reached 0.5 and 0.34 of their medians, and
/// in a closed loop throughput repeats the latency.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("p50_ms", "ms"), ("ba_error", "frac")];

const BACKENDS: [&str; 4] = ["sim", "pool", "process", "server"];

/// Per-layer metrics, printed on every workload by a traced run (0 where a
/// layer does not take part in the workload).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = vec![
        ("tail_ms".to_string(), "ms"),
        ("throughput".to_string(), "1/s"),
    ];
    for b in BACKENDS {
        names.push((format!("iter_s.{b}"), "s"));
        for step in ["w", "z"] {
            names.push((format!("{step}.busy_s.{b}"), "s"));
            names.push((format!("{step}.parallelism.{b}"), "x"));
            names.push((format!("{step}.overhead_s.{b}"), "s"));
            names.push((format!("backend.{step}_step_s.{b}"), "s"));
            names.push((format!("trainer.{step}_prep_s.{b}"), "s"));
        }
        names.push((format!("trace.selfsum_frac.{b}"), "frac"));
    }
    for (name, unit) in [
        ("w.visits", "count"),
        ("w.messages", "count"),
        ("z.updates", "count"),
        ("encode_us", "us"),
        ("index.probe_ms", "ms"),
        ("serve.overhead_ms", "ms"),
        ("serve.batches", "count"),
        ("serve.coalesce_frac", "frac"),
        ("serve.shed", "count"),
        ("serve.degraded", "count"),
        ("serve.p99_ms.during_z", "ms"),
        ("serve.p99_ms.during_w", "ms"),
        ("serve.p99_ms.outside", "ms"),
        ("serve.n.during_z", "count"),
        ("serve.n.during_w", "count"),
        ("serve.n.outside", "count"),
        ("serve.publish_overlap_frac.all", "frac"),
        ("serve.publish_overlap_frac.tail", "frac"),
        ("trace.overhead_frac", "frac"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--spans-dir" => spans_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (outcome, rec, machines) = match args.workload.as_str() {
        "train_w" => {
            let (o, r) = train::run(&train::TRAIN_W, args.seed, args.seconds, args.trace);
            (o, r, train::TRAIN_W.machines)
        }
        "train_z" => {
            let (o, r) = train::run(&train::TRAIN_Z, args.seed, args.seconds, args.trace);
            (o, r, train::TRAIN_Z.machines)
        }
        "serve_static" => {
            let (o, r) = serve::run_static(args.seed, args.seconds, args.trace);
            (o, r, serve::STATIC_MACHINES)
        }
        "serve_train" => {
            let (o, r) = serve::run_train(args.seed, args.seconds, args.trace);
            (o, r, serve::TRAIN_MACHINES)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if let (Some(rec), Some(dir)) = (&rec, &args.spans_dir) {
        let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| rec.write_tsv(&mut std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for failure in &outcome.gate_failures {
        eprintln!("perfbench: correctness gate failed: {failure}");
    }
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"machines\": {machines}, \
         \"oversubscribed\": {}, \"samples\": {}}}}}",
        args.workload,
        args.seed,
        parmac_bench::host_info_json(),
        machines > cores,
        outcome.metrics.select_prefix("n.").to_json(),
    );
    eprintln!(
        "perfbench: every metric measured: {}",
        outcome.metrics.to_json()
    );
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let selected: Metrics = outcome.metrics.select(&names);
    println!("{}", outcome.result_line(&selected));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
