//! Result bookkeeping: correctness tallies, named metrics with units,
//! sample statistics, and the machine fingerprint.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Everything one run reports: operations attempted and failed, plus
/// metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one operation; `ok == false` marks it failed and names the
    /// oracle that rejected it on stderr.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: FAILED {failed} of {n} {what}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Share of operations that failed (the benchmark's error rate).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Prints every metric as `name = value unit`.
    pub fn print_metrics(&self) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<30} = {value:>14.6} {unit}");
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics named in `keep` (in that order; every one must have been
    /// recorded).
    pub fn result_json(&self, keep: &[&str]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in keep.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was never recorded"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, become 0 so the line stays parseable).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the two middle values for even counts;
/// 0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` of ascending `sorted` samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample summarized the way every latency is reported: the
/// median, the highest percentile that still has at least ten samples
/// beyond it, and the sample count. Computed from the sorted raw
/// samples, not from a bucketed histogram.
#[derive(Debug, Clone)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
    sorted: Vec<f64>,
}

const TAIL_QUANTILES: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

impl Latency {
    pub fn new(samples: &[f64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_q = TAIL_QUANTILES
            .into_iter()
            .find(|&q| n.saturating_sub((q * n as f64).ceil() as usize) >= 10)
            .unwrap_or(0.5);
        Latency {
            count: n,
            p50: percentile_sorted(&sorted, 0.5),
            tail_q,
            tail: percentile_sorted(&sorted, tail_q),
            sorted,
        }
    }

    pub fn percentile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// `median X unit, pNN Y unit (n = N)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit}, p{} {:.4} {unit} (n = {})",
            self.p50,
            quantile_label(self.tail_q),
            self.tail,
            self.count
        )
    }
}

/// Latency measured in passes spread over a run (label passes, or
/// windows of an open-loop phase). Each pass's median comes from its own
/// sorted raw samples; tails come from all samples pooled.
///
/// [`LatencyPasses::p50`] is the median over passes, so a host stall
/// that spoils one pass does not move it. [`LatencyPasses::quiet_p50`]
/// serves CPU-bound kernel timings: on a shared host whole passes of
/// them run up to twice as slow as others (another guest contends for
/// the core, and every call in the pass slows alike), and how much of a
/// run falls in such stretches varies from run to run, so a median over
/// passes jumps between the two speeds. It is the 10th percentile of the
/// per-pass medians: the median latency of the least contended passes.
#[derive(Debug, Default)]
pub struct LatencyPasses {
    passes: Vec<f64>,
    pooled: Vec<f64>,
}

/// Share of passes allowed below [`LatencyPasses::quiet_p50`].
const QUIET_PASSES: f64 = 0.1;

impl LatencyPasses {
    pub fn add(&mut self, samples: &[f64]) {
        if !samples.is_empty() {
            self.passes.push(Latency::new(samples).p50);
            self.pooled.extend_from_slice(samples);
        }
    }

    /// Median over passes of each pass's median.
    pub fn p50(&self) -> f64 {
        median(&self.passes)
    }

    /// 10th percentile over passes of each pass's median.
    pub fn quiet_p50(&self) -> f64 {
        let mut p50s = self.passes.clone();
        p50s.sort_by(f64::total_cmp);
        percentile_sorted(&p50s, QUIET_PASSES)
    }

    /// Percentile `q` of all samples pooled.
    pub fn percentile(&self, q: f64) -> f64 {
        Latency::new(&self.pooled).percentile(q)
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "{} passes, per-pass median: median over passes {:.4} {unit}, p10 over passes {:.4} {unit}; pooled {}",
            self.passes.len(),
            self.p50(),
            self.quiet_p50(),
            Latency::new(&self.pooled).describe(unit)
        )
    }
}

fn quantile_label(q: f64) -> String {
    let s = format!("{}", q * 100.0);
    s.trim_end_matches(".0").to_owned()
}

/// Host CPU accounting from `/proc/stat`: busy and stolen ticks summed
/// over all CPUs.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    busy: f64,
    steal: f64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
        HostTicks {
            // user, nice, system, irq, softirq
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time this machine's tasks wanted since `self`
    /// that the host gave to another guest (0 on an unshared host).
    pub fn steal_share_since(self) -> f64 {
        let now = HostTicks::now();
        let steal = now.steal - self.steal;
        let busy = now.busy - self.busy;
        if steal + busy > 0.0 {
            steal / (steal + busy)
        } else {
            0.0
        }
    }
}

/// Times CPU-bound work on a shared virtual machine: wall time, and the
/// share of CPU time the host stole over the same interval.
///
/// `granted()` is the wall time with that share removed, the time the
/// work would take on an unshared host. It is what throughput and
/// set-up metrics report: on a 2-vCPU guest whose host steals 5-30% of
/// CPU time from minute to minute, raw wall time swings with the
/// neighbours, not with the code. Raw walls are printed beside it.
/// Latencies are never corrected: a stall is part of what a request
/// waits for.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
    ticks: HostTicks,
}

/// Wall seconds and the stolen share over one timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall: f64,
    pub steal: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            ticks: HostTicks::now(),
        }
    }

    pub fn stop(&self) -> Timing {
        Timing {
            wall: secs(self.start.elapsed()),
            steal: self.ticks.steal_share_since(),
        }
    }
}

impl Timing {
    pub fn granted(&self) -> f64 {
        self.wall * (1.0 - self.steal)
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine fingerprint stamped on every result record: core count,
/// CPU model, compiler and the build settings.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = flags
        .split_whitespace()
        .find_map(|f| f.trim_start_matches("-C").strip_prefix("target-cpu="))
        .unwrap_or("default");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"target_cpu\": {}, \"rustflags\": {}}}",
        quote(&cpu),
        quote(env!("PERFBENCH_RUSTC")),
        quote(env!("PERFBENCH_PROFILE")),
        quote(target_cpu),
        quote(flags)
    )
}

fn quote(s: &str) -> String {
    format!("\"{}\"", rock_core::telemetry::json::escape(s))
}
