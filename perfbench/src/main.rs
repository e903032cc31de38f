//! `perfbench` — the repository benchmark: four workloads over the ROCK
//! pipeline and rock-serve, each measured end to end, with a separate
//! traced run for the per-layer breakdown. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod fit;
mod report;
mod serve;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Metrics of an untraced run, each measured on every workload.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "points_per_s",
    "latency_p50_ms",
    "purity",
    "peak_rss_mb",
    "success_rate",
];

/// Metrics of a traced run. A layer a workload never calls reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("latency.p99_ms", "ms"),
    ("neighbors.self_s", "s"),
    ("neighbors.candidates", "count"),
    ("neighbors.pruned_ratio", "ratio"),
    ("neighbors.edges", "count"),
    ("links.self_s", "s"),
    ("links.kernel_steps", "count"),
    ("links.entries", "count"),
    ("links.table_bytes", "bytes"),
    ("agglomerate.self_s", "s"),
    ("agglomerate.merges", "count"),
    ("agglomerate.heap_pushes", "count"),
    ("agglomerate.heap_pops", "count"),
    ("agglomerate.pops_per_merge", "ratio"),
    ("agglomerate.heap_bytes", "bytes"),
    ("labeling.self_s", "s"),
    ("labeling.evaluations", "count"),
    ("labeling.points", "count"),
    ("fit.other_s", "s"),
    ("snapshot.build_s", "s"),
    ("snapshot.label_ns_per_point", "ns"),
    ("cache.build_s", "s"),
    ("cache.read_s", "s"),
    ("stream.self_s", "s"),
    ("stream.io_s", "s"),
    ("stream.chunks", "count"),
    ("stream.checkpoint_writes", "count"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.kernel_share", "ratio"),
    ("serve.max_rps", "1/s"),
    ("batch.mean_size", "count"),
    ("registry.swap_p50_ms", "ms"),
    ("server.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

const WORKLOADS: [&str; 4] = [
    "mushroom-dense",
    "basket-sparse",
    "serve-mixed",
    "stream-1m",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} outside (0, 600]"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Per-run state shared by the workloads.
pub struct Ctx {
    pub report: Report,
    /// Scratch directory for on-disk artifacts, removed at exit.
    pub work: PathBuf,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(3);
    }
    let host = report::HostTicks::now();
    let mut ctx = Ctx {
        report: Report::default(),
        work: work.clone(),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match args.workload.as_str() {
        "mushroom-dense" => fit::run(&fit::MUSHROOM, &args, &mut ctx),
        "basket-sparse" => fit::run(&fit::BASKET, &args, &mut ctx),
        "serve-mixed" => serve::run(&args, &mut ctx),
        "stream-1m" => stream::run(&args, &mut ctx),
        _ => unreachable!("validated in Args::parse"),
    }
    std::fs::remove_dir_all(&work).ok();
    // Leaves the shared parent only when no other run is using it.
    std::fs::remove_dir(".perfbench_work").ok();

    let r = &mut ctx.report;
    r.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    r.metric("success_rate", 1.0 - r.error_rate(), "ratio");
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !r.has(name) {
                r.metric(name, 0.0, unit);
            }
        }
    }
    println!(
        "correctness: {} of {} operations failed (error rate {:.6})",
        r.failed(),
        r.attempted(),
        r.error_rate()
    );
    println!("metrics:");
    r.print_metrics();
    // The result record: the run's identity, the machine it ran on, and
    // the share of CPU time the host stole during the run (a noisy
    // neighbour shows here before it shows as a regression).
    println!(
        "{{\"record\": \"perfbench/v1\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_steal_share\": {:.4}, \"machine\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.steal_share_since(),
        report::fingerprint_json()
    );
    let keep: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    println!("{}", r.result_json(&keep));
    ExitCode::SUCCESS
}
