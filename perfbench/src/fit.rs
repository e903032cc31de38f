//! The two fit workloads: `mushroom-dense` and `basket-sparse`.
//!
//! Untraced runs time `Rock::fit_guarded` end to end. Every fit is
//! checked against a pipeline the benchmark composes itself from the
//! phase entry points (`sample_indices`, `NeighborGraph::compute_guarded`,
//! `NeighborFilter::split_observed`, `LinkTable::compute_guarded`,
//! `agglomerate_guarded`, `Representatives::draw`,
//! `label_many_observed`): the two must produce the same partition.
//! Traced runs time that composed pipeline with a span around each phase
//! call, which is where the per-layer numbers come from.

use std::time::{Duration, Instant};

use rock_core::agglomerate::{agglomerate_guarded, AgglomerateConfig};
use rock_core::labeling::label_many_observed;
use rock_core::prelude::*;
use rock_core::telemetry::{CounterSnapshot, MemorySnapshot};
use rock_datasets::synthetic::{BasketModel, MushroomModel};

use crate::report::{median, ms, secs, LatencyPasses, Report, Stopwatch};
use crate::{Args, Ctx};

/// Worker threads for the row-sharded phases (the box has two cores).
const THREADS: usize = 2;
/// Data generations timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Rows per single-point labeling latency pass, strided over the whole
/// data set; every pass labels the same rows.
const LATENCY_ROWS: usize = 500;
/// Latency passes run back to back after every fit, so they sample the
/// host's state all through the run.
pub const LATENCY_PASSES: usize = 24;
/// Least share of the composed fit's wall time its phase spans must
/// cover (the traced breakdown's tolerance).
const SPAN_COVERAGE: f64 = 0.98;
/// Fewest fits a run times, however short `--seconds` is.
const MIN_FITS: usize = 3;

/// One fit workload's inputs and parameters.
pub struct FitSpec {
    name: &'static str,
    k: usize,
    theta: f64,
    sample: usize,
}

pub const MUSHROOM: FitSpec = FitSpec {
    name: "mushroom-dense",
    k: 21,
    theta: 0.73,
    sample: 3000,
};

pub const BASKET: FitSpec = FitSpec {
    name: "basket-sparse",
    k: 8,
    theta: 0.45,
    sample: 6000,
};

/// Baskets per planted cluster in `basket-sparse` (8 clusters, plus one
/// bridge basket per five).
const BASKETS_PER_CLUSTER: usize = 6000;

impl FitSpec {
    /// Generates the workload's data and planted labels from `seed`.
    fn generate(&self, seed: u64) -> (TransactionSet, Vec<usize>) {
        if self.name == MUSHROOM.name {
            let (table, _, groups) = MushroomModel::default().seed(seed).generate();
            (table.to_transactions(), groups)
        } else {
            BasketModel::disjoint(8, BASKETS_PER_CLUSTER, 30, (3, 15))
                .bridges(BASKETS_PER_CLUSTER / 5)
                .seed(seed)
                .generate()
        }
    }

    fn rock(&self, seed: u64) -> Rock {
        RockBuilder::new(self.k, self.theta)
            .sample(SampleStrategy::Fixed(self.sample))
            .threads(THREADS)
            .seed(seed)
            .build()
    }
}

/// The parts of a fitted partition both pipelines must agree on.
#[derive(Debug, PartialEq)]
struct Partition {
    assignments: Vec<Option<ClusterId>>,
    clusters: Vec<Vec<u32>>,
    outliers: Vec<u32>,
    sample: Vec<usize>,
}

impl Partition {
    fn of(model: &RockModel) -> Partition {
        Partition {
            assignments: model.assignments().to_vec(),
            clusters: model.clusters().to_vec(),
            outliers: model.outliers().to_vec(),
            sample: model.sample_indices().to_vec(),
        }
    }

    /// The `contracts::check_partition` invariants (which compile to
    /// nothing in release builds), plus cluster/assignment agreement:
    /// outliers strictly increasing, every point exactly one of labeled
    /// or outlier, and every cluster member assigned to that cluster.
    fn is_valid(&self) -> bool {
        let n = self.assignments.len();
        if !self.outliers.windows(2).all(|w| w[0] < w[1]) {
            return false;
        }
        if self.outliers.last().is_some_and(|&o| o as usize >= n) {
            return false;
        }
        let mut next = self.outliers.iter().peekable();
        for (i, a) in self.assignments.iter().enumerate() {
            let is_outlier = next.peek().is_some_and(|&&o| o as usize == i);
            if is_outlier {
                next.next();
            }
            if a.is_some() == is_outlier {
                return false;
            }
        }
        let mut members = 0usize;
        for (c, list) in self.clusters.iter().enumerate() {
            members += list.len();
            if list
                .iter()
                .any(|&p| self.assignments[p as usize] != Some(ClusterId(c as u32)))
            {
                return false;
            }
        }
        members == self.assignments.iter().filter(|a| a.is_some()).count()
    }

    fn purity(&self, truth: &[usize]) -> f64 {
        let predicted: Vec<Option<u32>> = self.assignments.iter().map(|a| a.map(|c| c.0)).collect();
        purity(&predicted, truth).expect("aligned labels")
    }
}

/// Benchmark-side spans around the phase calls of one composed fit.
/// Phases run one after another, so a span's self time is its duration.
#[derive(Default)]
struct Spans {
    on: bool,
    spans: Vec<(&'static str, Duration)>,
}

impl Spans {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start.elapsed()));
        out
    }

    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| secs(*d))
            .sum()
    }

    fn covered(&self) -> f64 {
        self.spans.iter().map(|(_, d)| secs(*d)).sum()
    }
}

/// One traced composed fit: its wall time, phase spans, and the
/// counters and memory gauges its observer collected.
struct TracedFit {
    wall: f64,
    spans: Spans,
    counters: CounterSnapshot,
    memory: MemorySnapshot,
}

/// Phase span names in pipeline order.
const PHASES: [&str; 7] = [
    "sample",
    "neighbors",
    "outliers",
    "links",
    "agglomerate",
    "labeling",
    "assemble",
];

/// The ROCK pipeline composed from the public phase entry points,
/// mirroring `Rock::fit_guarded` step for step (same RNG draws, same
/// filtering, same renumbering) under an unlimited guard.
fn composed_fit(
    data: &TransactionSet,
    spec: &FitSpec,
    seed: u64,
    observer: &Observer,
    spans: &mut Spans,
) -> Result<Partition> {
    let guard = Guard::unlimited();
    let n = data.len();
    let mut rng = seeded_rng(seed);
    let (sample_idx, sample) = spans.span("sample", || -> Result<_> {
        let idx = sample_indices(n, spec.sample.min(n).max(1), &mut rng)?;
        let sample = data.subset(&idx);
        Ok((idx, sample))
    })?;

    let (graph, trip) = spans.span("neighbors", || {
        NeighborGraph::compute_guarded(&sample, &Jaccard, spec.theta, THREADS, observer, &guard)
    })?;
    assert!(trip.is_none(), "unlimited guard tripped in neighbors");

    let (kept, filtered, graph, clustered) = spans.span("outliers", || {
        let (kept, filtered) = NeighborFilter::default().split_observed(&graph, observer);
        let (graph, clustered) = if filtered.is_empty() {
            (graph, sample.clone())
        } else {
            (graph.restricted(&kept), sample.subset(&kept))
        };
        (kept, filtered, graph, clustered)
    });

    let (links, trip) = spans.span("links", || {
        LinkTable::compute_guarded(&graph, THREADS, observer, &guard)
    });
    assert!(trip.is_none(), "unlimited guard tripped in links");

    let goodness = Goodness::new(spec.theta, &MarketBasket)?;
    let config = AgglomerateConfig {
        k: spec.k,
        prune: None,
        record_history: false,
        min_goodness: None,
    };
    let (agg, trip) = spans.span("agglomerate", || {
        agglomerate_guarded(
            clustered.len(),
            &links,
            &goodness,
            &config,
            observer,
            &guard,
        )
    })?;
    assert!(trip.is_none(), "unlimited guard tripped in agglomerate");

    let (mut assignments, mut clusters, mut outliers) = spans.span("assemble", || {
        let to_original = |local: u32| sample_idx[kept[local as usize]] as u32;
        let mut assignments: Vec<Option<ClusterId>> = vec![None; n];
        let clusters: Vec<Vec<u32>> = agg
            .clusters
            .iter()
            .map(|members| {
                let mut m: Vec<u32> = members.iter().map(|&p| to_original(p)).collect();
                m.sort_unstable();
                m
            })
            .collect();
        for (c, members) in clusters.iter().enumerate() {
            for &p in members {
                assignments[p as usize] = Some(ClusterId(c as u32));
            }
        }
        let outliers: Vec<u32> = filtered
            .iter()
            .map(|&i| sample_idx[i] as u32)
            .chain(agg.outliers.iter().map(|&p| to_original(p)))
            .collect();
        (assignments, clusters, outliers)
    });

    spans.span("labeling", || -> Result<()> {
        if clustered.len() >= n {
            return Ok(());
        }
        let in_sample: std::collections::HashSet<usize> =
            kept.iter().map(|&i| sample_idx[i]).collect();
        let reps = Representatives::draw(
            &clustered,
            &agg.clusters,
            &LabelingConfig::default(),
            &mut rng,
        )?;
        let fixed: std::collections::HashSet<u32> = outliers.iter().copied().collect();
        let unlabeled: Vec<usize> = (0..n)
            .filter(|&i| {
                !in_sample.contains(&i) && assignments[i].is_none() && !fixed.contains(&(i as u32))
            })
            .collect();
        let points: Vec<&Transaction> = unlabeled
            .iter()
            .map(|&i| data.transaction(i).expect("index in range"))
            .collect();
        let labels = label_many_observed(
            &points,
            &reps,
            &Jaccard,
            &MarketBasket,
            spec.theta,
            THREADS,
            observer,
        );
        for (&i, label) in unlabeled.iter().zip(labels) {
            match label {
                Some(c) => {
                    assignments[i] = Some(ClusterId(c as u32));
                    clusters[c].push(i as u32);
                }
                None => outliers.push(i as u32),
            }
        }
        for members in &mut clusters {
            members.sort_unstable();
        }
        Ok(())
    })?;

    Ok(spans.span("assemble", || {
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by(|&a, &b| {
            clusters[b]
                .len()
                .cmp(&clusters[a].len())
                .then_with(|| clusters[a].first().cmp(&clusters[b].first()))
        });
        let clusters: Vec<Vec<u32>> = order.into_iter().map(|i| clusters[i].clone()).collect();
        let mut assignments: Vec<Option<ClusterId>> = vec![None; n];
        for (c, members) in clusters.iter().enumerate() {
            for &p in members {
                assignments[p as usize] = Some(ClusterId(c as u32));
            }
        }
        outliers.sort_unstable();
        outliers.dedup();
        Partition {
            assignments,
            clusters,
            outliers,
            sample: kept.iter().map(|&i| sample_idx[i]).collect(),
        }
    }))
}

/// The join's own accounting identity: every candidate pair is either
/// pruned by the size/prefix filters or verified.
fn candidates_balance(c: &CounterSnapshot) -> bool {
    c.neighbor_candidates == c.neighbor_candidates_pruned + c.neighbor_pairs_verified
}

/// Runs one fit workload.
pub fn run(spec: &FitSpec, args: &Args, ctx: &mut Ctx) {
    let seed = args.seed;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut generated = None;
    let whole = Stopwatch::start();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let out = spec.generate(seed);
        setup.push(secs(t.elapsed()));
        generated = Some(out);
    }
    let setup_steal = whole.stop().steal;
    let (data, truth) = generated.expect("at least one setup");
    let n = data.len();
    println!(
        "{}: n = {n}, sample = {}, theta = {}, k = {}, threads = {THREADS}",
        spec.name, spec.sample, spec.theta, spec.k
    );
    println!(
        "setup: {SETUP_REPS} data generations, median {:.4} s, host stole {:.1}%",
        median(&setup),
        100.0 * setup_steal
    );
    ctx.report
        .metric("setup_s", median(&setup) * (1.0 - setup_steal), "s");

    // The composed pipeline is the oracle every timed fit is compared to
    // (and warms caches before the clock starts).
    let reference_observer = Observer::new();
    let reference = composed_fit(
        &data,
        spec,
        seed,
        &reference_observer,
        &mut Spans::default(),
    )
    .expect("composed fit");
    ctx.report
        .op(reference.is_valid(), "composed fit partition invariants");
    ctx.report.op(
        candidates_balance(&reference_observer.counters().snapshot()),
        "composed fit: candidates = pruned + verified",
    );

    let rock = spec.rock(seed);
    let check_fit = |outcome: Result<Outcome>, observer: &Observer, report: &mut Report| {
        let model = match outcome {
            Ok(Outcome::Complete(model)) => Some(model),
            _ => None,
        };
        let ok = model.as_ref().is_some_and(|model| {
            let p = Partition::of(model);
            p.is_valid() && p == reference && candidates_balance(&observer.counters().snapshot())
        });
        report.op(
            ok,
            "fit_guarded equals the composed fit, partition valid, candidates balance",
        );
        model
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut granted = Vec::new();
    let mut snapshot: Option<(ModelSnapshot, f64)> = None;
    let mut latency = LatencyPasses::default();
    let latency_rows: Vec<&Transaction> = data
        .iter()
        .step_by((n / LATENCY_ROWS).max(1))
        .take(LATENCY_ROWS)
        .collect();
    let mut traced: Vec<TracedFit> = Vec::new();
    while started.elapsed() < budget || untraced.len() < MIN_FITS {
        let observer = Observer::new();
        let clock = Stopwatch::start();
        let outcome = rock.fit_guarded(&data, &observer, &Guard::unlimited());
        let timing = clock.stop();
        untraced.push(timing.wall);
        granted.push(timing.granted());
        let model = check_fit(outcome, &observer, &mut ctx.report);

        // The fitted model as a labeling snapshot: single-point labeling
        // latency is what a caller of the fitted model waits for. One
        // pass follows every fit, so passes spread over the whole run.
        if snapshot.is_none() {
            let model = model.expect("the first timed fit completed");
            let t = Instant::now();
            let built = ModelSnapshot::from_model(
                &data,
                &model,
                spec.theta,
                MarketBasket.f(spec.theta),
                SimilarityKind::Jaccard,
                OutlierPolicy::Mark,
                &LabelingConfig::default(),
                seed,
            )
            .expect("snapshot");
            println!(
                "snapshot: {} clusters, {} representatives",
                built.num_clusters(),
                built.representatives().total()
            );
            snapshot = Some((built, secs(t.elapsed())));
        }
        let (snap, _) = snapshot.as_ref().expect("built above");
        label_latency(
            snap,
            &latency_rows,
            LATENCY_PASSES,
            &mut latency,
            &mut ctx.report,
        );

        if args.trace {
            let observer = Observer::new();
            let mut spans = Spans {
                on: true,
                spans: Vec::new(),
            };
            let t = Instant::now();
            let part = composed_fit(&data, spec, seed, &observer, &mut spans);
            let wall = secs(t.elapsed());
            ctx.report.op(
                part.as_ref().is_ok_and(|p| *p == reference),
                "traced composed fit equals the reference",
            );
            traced.push(TracedFit {
                wall,
                spans,
                counters: observer.counters().snapshot(),
                memory: observer.memory().snapshot(),
            });
        }
    }
    let fit_s = median(&granted);
    println!(
        "fit_guarded: {} fits, median wall {:.4} s (min {:.4}, max {:.4}), \
         {fit_s:.4} s with the host's stolen share removed",
        untraced.len(),
        median(&untraced),
        untraced.iter().copied().fold(f64::INFINITY, f64::min),
        untraced.iter().copied().fold(0.0, f64::max)
    );
    let fit_purity = reference.purity(&truth);
    println!(
        "partition: {} clusters, {} outliers, purity {fit_purity:.4}",
        reference.clusters.len(),
        reference.outliers.len()
    );
    println!("single-point label latency: {}", latency.describe("ms"));

    ctx.report.metric("points_per_s", n as f64 / fit_s, "1/s");
    ctx.report
        .metric("latency_p50_ms", latency.quiet_p50(), "ms");
    ctx.report
        .metric("latency.p99_ms", latency.percentile(0.99), "ms");
    ctx.report.metric("purity", fit_purity, "ratio");

    if args.trace {
        let (snap, build_s) = snapshot.as_ref().expect("at least one fit");
        let rows: Vec<&Transaction> = data.iter().collect();
        let t = Instant::now();
        std::hint::black_box(snap.label_chunk(&rows, THREADS));
        let chunk_ns = t.elapsed().as_nanos() as f64 / rows.len() as f64;
        breakdown(spec, &traced, &untraced, ctx);
        ctx.report.metric("snapshot.build_s", *build_s, "s");
        ctx.report
            .metric("snapshot.label_ns_per_point", chunk_ns, "ns");
    }
}

/// Times `ModelSnapshot::label` on each row (one call per sample, in
/// ms), `passes` passes over `rows` back to back, adding each pass to
/// `latency`. Every answer is checked against the chunk kernel's.
pub fn label_latency(
    snapshot: &ModelSnapshot,
    rows: &[&Transaction],
    passes: usize,
    latency: &mut LatencyPasses,
    report: &mut Report,
) {
    let expected = snapshot.label_chunk(rows, 1);
    let mut samples = Vec::with_capacity(rows.len());
    for _ in 0..passes {
        samples.clear();
        let mut wrong = 0u64;
        for (row, want) in rows.iter().zip(&expected) {
            let t = Instant::now();
            let got = std::hint::black_box(snapshot.label(std::hint::black_box(row)));
            samples.push(ms(t.elapsed()));
            wrong += u64::from(got != *want);
        }
        report.ops(
            rows.len() as u64,
            wrong,
            "single-point labels equal label_chunk",
        );
        latency.add(&samples);
    }
}

/// Prints the traced fits' per-phase breakdown and records the per-layer
/// metrics (medians over the traced fits).
fn breakdown(spec: &FitSpec, traced: &[TracedFit], untraced: &[f64], ctx: &mut Ctx) {
    let walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
    let wall = median(&walls);
    let phase = |name: &str| {
        median(
            &traced
                .iter()
                .map(|t| t.spans.total(name))
                .collect::<Vec<_>>(),
        )
    };
    println!(
        "traced breakdown ({} composed fits, median wall {wall:.4} s):",
        traced.len()
    );
    for name in PHASES {
        let s = phase(name);
        println!("  {name:<12} self {s:>9.4} s  {:>6.2}%", 100.0 * s / wall);
    }
    let mut uncovered = 0u64;
    for t in traced {
        let share = t.spans.covered() / t.wall;
        if share < SPAN_COVERAGE {
            eprintln!("perfbench: spans cover {:.2}% of a fit", 100.0 * share);
            uncovered += 1;
        }
    }
    let covered = median(
        &traced
            .iter()
            .map(|t| t.spans.covered() / t.wall)
            .collect::<Vec<_>>(),
    );
    println!(
        "  span self times sum to {:.2}% of the fit wall (tolerance: at least {:.0}%)",
        100.0 * covered,
        100.0 * SPAN_COVERAGE
    );
    ctx.report.ops(
        traced.len() as u64,
        uncovered,
        "traced fits whose spans cover the wall time",
    );
    let overhead = wall - median(untraced);
    println!(
        "tracing overhead: traced {wall:.4} s - untraced {:.4} s = {overhead:+.4} s",
        median(untraced)
    );

    let TracedFit {
        counters, memory, ..
    } = traced.last().expect("traced fits");
    let r = &mut ctx.report;
    let core = ["neighbors", "links", "agglomerate", "labeling"];
    r.metric("neighbors.self_s", phase("neighbors"), "s");
    r.metric(
        "neighbors.candidates",
        counters.neighbor_candidates as f64,
        "count",
    );
    r.metric(
        "neighbors.pruned_ratio",
        ratio(
            counters.neighbor_candidates_pruned,
            counters.neighbor_candidates,
        ),
        "ratio",
    );
    r.metric("neighbors.edges", counters.neighbor_edges as f64, "count");
    r.metric("links.self_s", phase("links"), "s");
    r.metric(
        "links.kernel_steps",
        counters.link_kernel_steps as f64,
        "count",
    );
    r.metric("links.entries", counters.link_entries as f64, "count");
    r.metric("links.table_bytes", memory.link_table as f64, "bytes");
    r.metric("agglomerate.self_s", phase("agglomerate"), "s");
    r.metric("agglomerate.merges", counters.merges as f64, "count");
    r.metric(
        "agglomerate.heap_pushes",
        counters.heap_pushes as f64,
        "count",
    );
    r.metric("agglomerate.heap_pops", counters.heap_pops as f64, "count");
    r.metric(
        "agglomerate.pops_per_merge",
        ratio(counters.heap_pops, counters.merges),
        "ratio",
    );
    r.metric("agglomerate.heap_bytes", memory.heaps as f64, "bytes");
    r.metric("labeling.self_s", phase("labeling"), "s");
    r.metric(
        "labeling.evaluations",
        counters.labeling_evaluations as f64,
        "count",
    );
    r.metric("labeling.points", counters.points_labeled as f64, "count");
    r.metric(
        "fit.other_s",
        wall - core.iter().map(|name| phase(name)).sum::<f64>(),
        "s",
    );
    r.metric("trace.overhead_ms", overhead * 1e3, "ms");
    println!(
        "{}: links + agglomerate = {:.1}% of the fit, labeling = {:.1}%, links = {:.1}%",
        spec.name,
        100.0 * (phase("links") + phase("agglomerate")) / wall,
        100.0 * phase("labeling") / wall,
        100.0 * phase("links") / wall
    );
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
