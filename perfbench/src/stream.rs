//! The `stream-1m` workload: one million market baskets in a
//! `rock-cache/v1` file, labeled out of core by `StreamLabeler` under a
//! 64 MiB memory budget with a checkpoint after every chunk.
//!
//! Every pass's output file must be byte-identical to
//! `write_assignments` over `ModelSnapshot::label_chunk` on the same
//! rows. Traced passes read the cache through a wrapper that times each
//! `read_chunk` call.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rock_core::prelude::*;
use rock_core::stream::partial_path;
use rock_datasets::cache::{CacheBuilder, DatasetCache};
use rock_datasets::synthetic::BasketModel;

use crate::fit::{label_latency, LATENCY_PASSES};
use crate::report::{median, secs, Latency, LatencyPasses, Stopwatch, Timing};
use crate::{Args, Ctx};

const ROWS: usize = 1_000_000;
const CLUSTERS: usize = 4;
const ITEMS_EACH: u32 = 20;
const BASKET_SIZE: (usize, usize) = (6, 10);
/// Rows generated per slice: generation never holds more in memory.
const SLICE_ROWS: usize = 62_500;
/// Rows per cache chunk (64 chunks).
const CHUNK_ROWS: usize = ROWS / 64;
/// Rows of the first slice the labeling snapshot is fitted on.
const SAMPLE_ROWS: usize = 2_000;
/// Baskets from one 20-item pool share ~3 of ~13 distinct items
/// (Jaccard ≈ 0.25); baskets from different pools share none.
const THETA: f64 = 0.2;
const MEM_BUDGET: u64 = 64 << 20;
const THREADS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const MIN_PASSES: usize = 3;
/// Every `LATENCY_STRIDE`-th row is kept for the single-point latency
/// passes (1 000 rows spread over all clusters, labeled in every pass).
const LATENCY_STRIDE: usize = 1_000;

fn labeling() -> LabelingConfig {
    LabelingConfig {
        representative_fraction: 0.02,
        max_representatives: 24,
    }
}

fn slice_model(seed: u64, slice: u64, rows: usize) -> BasketModel {
    BasketModel::disjoint(CLUSTERS, rows / CLUSTERS, ITEMS_EACH, BASKET_SIZE)
        .seed(seed ^ (0x9e37_79b9 * (slice + 1)))
}

/// Generates the baskets slice by slice straight into the cache and
/// returns it with the planted cluster of every row.
fn build_cache(path: &Path, seed: u64) -> (DatasetCache, Vec<u8>) {
    let universe = CLUSTERS * ITEMS_EACH as usize;
    let mut builder = CacheBuilder::create(path, universe, CHUNK_ROWS).expect("cache builder");
    let mut truth = Vec::with_capacity(ROWS);
    let mut slice = 0u64;
    while truth.len() < ROWS {
        let rows = SLICE_ROWS.min(ROWS - truth.len());
        let (ts, labels) = slice_model(seed, slice, rows).generate();
        for (t, &l) in ts.iter().zip(&labels).take(ROWS - truth.len()) {
            builder.push(t).expect("cache push");
            truth.push(l as u8);
        }
        slice += 1;
    }
    (builder.finish().expect("cache finish"), truth)
}

fn fit_snapshot(seed: u64) -> ModelSnapshot {
    let (sample, _) = slice_model(seed, 0, SAMPLE_ROWS).generate();
    let model = RockBuilder::new(CLUSTERS, THETA)
        .sample(SampleStrategy::All)
        .labeling(labeling())
        .threads(THREADS)
        .seed(seed)
        .build()
        .fit(&sample)
        .expect("fit sample");
    ModelSnapshot::from_model(
        &sample,
        &model,
        THETA,
        MarketBasket.f(THETA),
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        &labeling(),
        seed,
    )
    .expect("snapshot")
}

/// A cache wrapper recording the start and duration of every chunk
/// read: the benchmark-side span around the cache layer.
struct TimedSource<'a> {
    inner: &'a DatasetCache,
    reads: Mutex<Vec<(Instant, Duration)>>,
}

impl ChunkSource for TimedSource<'_> {
    fn total_chunks(&self) -> u64 {
        self.inner.total_chunks()
    }

    fn total_rows(&self) -> u64 {
        self.inner.total_rows()
    }

    fn identity(&self) -> u64 {
        self.inner.identity()
    }

    fn read_chunk(&self, index: u64) -> rock_core::Result<Vec<Transaction>> {
        let start = Instant::now();
        let out = self.inner.read_chunk(index);
        self.reads
            .lock()
            .expect("no reader panicked")
            .push((start, start.elapsed()));
        out
    }
}

struct Paths {
    output: PathBuf,
    checkpoint: PathBuf,
}

/// One streamed pass from scratch; returns its timing, or `None`
/// when it did not complete with output identical to `reference`.
fn pass(
    snapshot: &ModelSnapshot,
    source: &dyn ChunkSource,
    paths: &Paths,
    reference: &[u8],
    observer: &Observer,
) -> Option<Timing> {
    std::fs::remove_file(&paths.output).ok();
    std::fs::remove_file(&paths.checkpoint).ok();
    std::fs::remove_file(partial_path(&paths.output)).ok();
    let guard = Guard::new(RunBudget::unlimited().memory(MEM_BUDGET));
    let clock = Stopwatch::start();
    let outcome = StreamLabeler::new(snapshot).threads(THREADS).run(
        source,
        &paths.output,
        &paths.checkpoint,
        &guard,
        observer,
    );
    let timing = clock.stop();
    let complete = matches!(outcome, Ok(StreamOutcome::Complete(s)) if s.rows == ROWS as u64);
    let identical = std::fs::read(&paths.output).is_ok_and(|bytes| bytes == reference);
    (complete && identical && !paths.checkpoint.exists()).then_some(timing)
}

pub fn run(args: &Args, ctx: &mut Ctx) {
    let seed = args.seed;
    let cache_path = ctx.work.join("baskets.rockcache");
    let mut setup = Vec::new();
    let mut builds = Vec::new();
    let mut snapshot_builds = Vec::new();
    let mut state = None;
    let whole = Stopwatch::start();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (cache, truth) = build_cache(&cache_path, seed);
        builds.push(secs(t.elapsed()));
        let s = Instant::now();
        let snapshot = fit_snapshot(seed);
        snapshot_builds.push(secs(s.elapsed()));
        setup.push(secs(t.elapsed()));
        state = Some((cache, truth, snapshot));
    }
    let setup_steal = whole.stop().steal;
    let (cache, truth, snapshot) = state.expect("at least one setup");
    println!(
        "stream-1m: {} rows in {} chunks, snapshot {} clusters / {} representatives, theta = {THETA}",
        cache.total_rows(),
        cache.total_chunks(),
        snapshot.num_clusters(),
        snapshot.representatives().total()
    );
    println!(
        "setup: {SETUP_REPS} cache builds and snapshot fits, median {:.4} s, host stole {:.1}%",
        median(&setup),
        100.0 * setup_steal
    );
    ctx.report
        .metric("setup_s", median(&setup) * (1.0 - setup_steal), "s");

    // Reference labels: every chunk read and labeled directly.
    let mut read_s = 0.0;
    let mut label_s = 0.0;
    let mut labels: Vec<Option<ClusterId>> = Vec::with_capacity(ROWS);
    let mut latency_rows = Vec::new();
    for index in 0..cache.total_chunks() {
        let t = Instant::now();
        let chunk = cache.read_chunk(index).expect("cache read");
        read_s += secs(t.elapsed());
        let refs: Vec<&Transaction> = chunk.iter().collect();
        let t = Instant::now();
        let chunk_labels = snapshot.label_chunk(&refs, THREADS);
        label_s += secs(t.elapsed());
        labels.extend(chunk_labels.iter().map(|l| l.map(|c| ClusterId(c as u32))));
        latency_rows.extend(chunk.into_iter().step_by(LATENCY_STRIDE));
    }
    let latency_refs: Vec<&Transaction> = latency_rows.iter().collect();
    let mut reference = Vec::new();
    write_assignments(&mut reference, &labels).expect("in-memory write");
    let predicted: Vec<Option<u32>> = labels.iter().map(|l| l.map(|c| c.0)).collect();
    let truth: Vec<usize> = truth.iter().map(|&t| usize::from(t)).collect();
    let stream_purity = purity(&predicted, &truth).expect("aligned labels");
    drop((labels, predicted, truth));

    let paths = Paths {
        output: ctx.work.join("labels.rockassign"),
        checkpoint: ctx.work.join("labels.ckpt"),
    };
    let timed = TimedSource {
        inner: &cache,
        reads: Mutex::new(Vec::new()),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut granted = Vec::new();
    let mut traced = Vec::new();
    let mut io = Vec::new();
    let mut chunk_gaps = Vec::new();
    let mut counters = None;
    let mut latency = LatencyPasses::default();
    while started.elapsed() < budget || untraced.len() < MIN_PASSES {
        let timing = pass(&snapshot, &cache, &paths, &reference, &Observer::new());
        ctx.report.op(
            timing.is_some(),
            "streamed pass completes byte-identical to label_chunk",
        );
        untraced.extend(timing.map(|t| t.wall));
        granted.extend(timing.map(|t| t.granted()));
        label_latency(
            &snapshot,
            &latency_refs,
            LATENCY_PASSES,
            &mut latency,
            &mut ctx.report,
        );
        if args.trace {
            timed.reads.lock().expect("no reader panicked").clear();
            let observer = Observer::new();
            let wall = pass(&snapshot, &timed, &paths, &reference, &observer).map(|t| t.wall);
            ctx.report
                .op(wall.is_some(), "traced streamed pass byte-identical");
            let reads = timed.reads.lock().expect("no reader panicked");
            let read: f64 = reads.iter().map(|(_, d)| secs(*d)).sum();
            chunk_gaps.extend(reads.windows(2).map(|w| secs(w[1].0 - w[0].0) * 1e3));
            if let Some(wall) = wall {
                traced.push(wall);
                io.push(wall - read - label_s);
            }
            counters = Some(observer.counters().snapshot());
        }
    }
    let pass_s = median(&untraced);
    let granted_s = median(&granted);
    println!(
        "streamed passes: {}, median wall {pass_s:.4} s ({:.0} rows/s), {granted_s:.4} s with the \
         host's stolen share removed, purity {stream_purity:.4}",
        untraced.len(),
        ROWS as f64 / pass_s
    );
    println!("single-point label latency: {}", latency.describe("ms"));

    let r = &mut ctx.report;
    r.metric("points_per_s", ROWS as f64 / granted_s, "1/s");
    r.metric("latency_p50_ms", latency.quiet_p50(), "ms");
    r.metric("latency.p99_ms", latency.percentile(0.99), "ms");
    r.metric("purity", stream_purity, "ratio");

    if args.trace {
        let wall = median(&traced);
        let c = counters.expect("traced passes");
        println!(
            "traced breakdown (median of {} passes, {wall:.4} s): cache reads {read_s:.4} s, \
             label kernel {label_s:.4} s, output and checkpoint I/O {:.4} s",
            traced.len(),
            median(&io)
        );
        println!("chunk cycle: {}", Latency::new(&chunk_gaps).describe("ms"));
        println!(
            "tracing overhead: traced {wall:.4} s - untraced {pass_s:.4} s = {:+.4} s",
            wall - pass_s
        );
        r.metric("cache.build_s", median(&builds), "s");
        r.metric("cache.read_s", read_s, "s");
        r.metric("snapshot.build_s", median(&snapshot_builds), "s");
        r.metric(
            "snapshot.label_ns_per_point",
            label_s * 1e9 / ROWS as f64,
            "ns",
        );
        r.metric("stream.self_s", wall, "s");
        r.metric("stream.io_s", median(&io), "s");
        r.metric("stream.chunks", c.chunks_labeled as f64, "count");
        r.metric(
            "stream.checkpoint_writes",
            c.checkpoint_writes as f64,
            "count",
        );
        r.metric("trace.overhead_ms", (wall - pass_s) * 1e3, "ms");
    }
}
