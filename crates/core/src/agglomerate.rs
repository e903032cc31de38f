//! The ROCK agglomerative merge engine (paper §4, procedure `cluster`).
//!
//! Every point starts as a singleton cluster. Each iteration merges the
//! linked pair `(u, v)` of highest goodness (ties: smaller `u`, then
//! smaller `v`), keeping `u` and absorbing `v` — the merge order of the
//! paper's local heaps `q[i]` and global heap `Q`. The bookkeeping is
//! simpler than the paper's: one pair heap of candidate merges, with
//! entries that a merge makes stale left in place and skipped when they
//! surface, so a merge costs `O(row size + partners · log heap)` and
//! touches no partner's row.
//!
//! The loop stops when the requested number of clusters is reached or when
//! no cross-cluster links remain (the paper's termination condition; the
//! leftover link-free clusters cannot be merged meaningfully).
//!
//! Outlier handling follows paper §4.3: optionally, when the number of
//! clusters first falls to a checkpoint fraction of the starting count,
//! clusters that are still very small are discarded — outliers tend to form
//! singletons or tiny groups that stop participating in merges early.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cast;
use crate::contracts;
use crate::error::{Result, RockError};
use crate::goodness::Goodness;
use crate::guard::{Guard, Trip};
use crate::links::LinkTable;
use crate::telemetry::trace::{LatencyHistogram, Payload, Tracer};
use crate::telemetry::{MemoryGauges, Observer, Phase, PipelineCounters};

/// Merges per trace span / histogram sample in the instrumented merge
/// loop: small enough to localize a slow stretch, large enough to keep
/// trace volume at ~1/64 of the merge count.
const MERGE_BATCH: u64 = 64;

/// The workspace's **single audited total order over floating-point
/// goodness values**.
///
/// Floats are only partially ordered (`NaN` compares to nothing), and a
/// `partial_cmp(..).unwrap()` on a NaN goodness would panic mid-merge —
/// or worse, a silent `unwrap_or` tie-break would scramble the merge
/// order nondeterministically. `GoodnessOrd` closes that hole once, for
/// everyone: construction debug-asserts the value is not NaN (goodness
/// denominators are proven positive in [`Goodness`]), and ordering is
/// IEEE 754 `total_cmp`, which is total even if a NaN slips through a
/// release build.
///
/// The `float-ord` lint (`crates/analysis`) bans `partial_cmp` and raw
/// float `Ord` shims everywhere else in the workspace; float orderings
/// must route through this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodnessOrd(f64);

impl GoodnessOrd {
    /// Wraps a goodness/score value, debug-asserting it is not NaN.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "ordered float value must not be NaN");
        GoodnessOrd(value)
    }

    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for GoodnessOrd {}

impl Ord for GoodnessOrd {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for GoodnessOrd {
    #[inline]
    // rock-analyze: allow(float-ord) — the audited site: delegates to total_cmp, non-NaN is debug-asserted at construction.
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Outlier pruning policy applied during merging (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneConfig {
    /// When the live cluster count first drops to
    /// `ceil(checkpoint_fraction · n)`, pruning fires. The paper suggests
    /// around 1/3.
    pub checkpoint_fraction: f64,
    /// Clusters with at most this many members are discarded at the
    /// checkpoint (the paper suggests 1–2 points).
    pub max_prune_size: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            checkpoint_fraction: 1.0 / 3.0,
            max_prune_size: 2,
        }
    }
}

/// Configuration for [`agglomerate`].
#[derive(Debug, Clone)]
pub struct AgglomerateConfig {
    /// Target number of clusters.
    pub k: usize,
    /// Optional mid-run outlier pruning.
    pub prune: Option<PruneConfig>,
    /// Record the merge history (one [`MergeStep`] per merge).
    pub record_history: bool,
    /// Stop early once the best available merge's goodness falls below
    /// this value (the paper's alternative termination condition when the
    /// natural cluster count is unknown). `None` disables it.
    pub min_goodness: Option<f64>,
}

impl AgglomerateConfig {
    /// Plain configuration: merge down to `k`, no pruning, keep history.
    pub fn new(k: usize) -> Self {
        AgglomerateConfig {
            k,
            prune: None,
            record_history: true,
            min_goodness: None,
        }
    }

    /// Sets the early-stop goodness threshold.
    pub fn min_goodness(mut self, threshold: f64) -> Self {
        self.min_goodness = Some(threshold);
        self
    }
}

/// One merge performed by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeStep {
    /// Cluster slot that survived the merge.
    pub kept: u32,
    /// Cluster slot folded into `kept`.
    pub absorbed: u32,
    /// Goodness of the merged pair.
    pub goodness: f64,
    /// Sizes of `(kept, absorbed)` before the merge.
    pub sizes: (u32, u32),
    /// Value of the criterion function E_l after the merge.
    pub criterion: f64,
}

/// Result of a run of the merge engine.
#[derive(Debug, Clone)]
pub struct Agglomeration {
    /// For each input point, the dense output cluster index, or `None` if
    /// the point was pruned as an outlier.
    pub assignment: Vec<Option<u32>>,
    /// Member point indices per output cluster, each sorted ascending.
    /// Clusters are ordered by decreasing size (ties by smallest member).
    pub clusters: Vec<Vec<u32>>,
    /// Merge history (empty unless `record_history`).
    pub history: Vec<MergeStep>,
    /// Final value of the criterion function E_l.
    pub criterion: f64,
    /// Number of merges performed (counted even when history is off).
    pub merges: usize,
    /// `true` if the engine reached exactly `k` clusters; `false` if it
    /// stopped early because no cross-cluster links remained.
    pub reached_k: bool,
    /// Points pruned as outliers during merging.
    pub outliers: Vec<u32>,
}

/// Runs the ROCK merge engine over `n` points with the given link table.
///
/// # Errors
/// * [`RockError::EmptyDataset`] when `n == 0`.
/// * [`RockError::InvalidK`] when `k` is 0 or exceeds `n`.
pub fn agglomerate(
    n: usize,
    links: &LinkTable,
    goodness: &Goodness,
    config: &AgglomerateConfig,
) -> Result<Agglomeration> {
    agglomerate_observed(n, links, goodness, config, &Observer::new())
}

/// [`agglomerate`] with telemetry: merges, pair-heap push/pop totals and
/// pruned outliers flow into `observer`'s counters, and the peak footprint
/// of the pair heap plus the link rows into its memory gauge.
///
/// # Errors
/// Same as [`agglomerate`].
pub fn agglomerate_observed(
    n: usize,
    links: &LinkTable,
    goodness: &Goodness,
    config: &AgglomerateConfig,
    observer: &Observer,
) -> Result<Agglomeration> {
    let (agg, _trip) =
        agglomerate_guarded(n, links, goodness, config, observer, &Guard::unlimited())?;
    Ok(agg)
}

/// [`agglomerate_observed`] under a [`Guard`]: the merge loop calls
/// [`Guard::merge_tick`] before every merge, so a step budget of `s`
/// permits exactly `s` merges, cancellation takes effect within one merge,
/// and a deadline is sampled periodically. On a trip the engine stops
/// cleanly — telemetry still flushes and the partial result is a valid
/// partition (ROCK is an anytime algorithm: every prefix of the merge
/// sequence is a consistent clustering). Returns the agglomeration plus
/// the trip, if one occurred.
///
/// # Errors
/// Same as [`agglomerate`]; a budget trip is **not** an error.
pub fn agglomerate_guarded(
    n: usize,
    links: &LinkTable,
    goodness: &Goodness,
    config: &AgglomerateConfig,
    observer: &Observer,
    guard: &Guard,
) -> Result<(Agglomeration, Option<Trip>)> {
    if n == 0 {
        return Err(RockError::EmptyDataset);
    }
    if config.k == 0 || config.k > n {
        return Err(RockError::InvalidK { k: config.k, n });
    }
    debug_assert_eq!(links.len(), n, "link table size mismatch");

    let mut engine = Engine::new(n, links, goodness, observer, config.record_history);
    let checkpoint = config.prune.map(|p| {
        let c = cast::f64_to_usize((p.checkpoint_fraction * cast::usize_to_f64(n)).ceil());
        (c.clamp(config.k, n), p.max_prune_size)
    });
    let mut pruned_at_checkpoint = checkpoint.is_none();

    // Trace instrumentation: one `agglomerate.batch` span (and one
    // histogram sample) per MERGE_BATCH merges. All of it is `None`-guarded,
    // so a disabled tracer costs one atomic load before the loop.
    let tracer = observer.tracer();
    let mut batch_span = tracer.begin();
    let mut batch_hist = LatencyHistogram::new();
    let mut batch_merges = 0u64;
    let mut batch_goodness = 0.0f64;
    fn end_batch(
        tracer: &Tracer,
        hist: &mut LatencyHistogram,
        span: crate::telemetry::trace::SpanStart,
        merges: u64,
        goodness: f64,
        active: usize,
    ) {
        hist.record(Tracer::elapsed_ns(&span));
        tracer.end(
            span,
            "agglomerate.batch",
            Some(Phase::Agglomerate),
            0,
            Payload::new()
                .count("merges", merges)
                .num("goodness", goodness)
                .count("active", cast::usize_to_u64(active)),
        );
    }

    let mut trip = None;
    let mut active = n;
    while active > config.k {
        if let Some((at, max_size)) = checkpoint {
            if !pruned_at_checkpoint && active <= at {
                engine.prune_small(max_size);
                pruned_at_checkpoint = true;
                active = engine.active_count();
                if active <= config.k {
                    break;
                }
            }
        }
        if let Some(threshold) = config.min_goodness {
            if engine.best_goodness().is_none_or(|g| g < threshold) {
                break; // remaining merges are below the quality floor
            }
        }
        if let Some(t) = guard.merge_tick() {
            trip = Some(t); // budget tripped; keep the partial clustering
            break;
        }
        let Some(goodness_value) = engine.merge_best() else {
            break; // no cross-cluster links remain
        };
        active -= 1;
        if batch_span.is_some() {
            batch_merges += 1;
            batch_goodness = goodness_value;
            if batch_merges == MERGE_BATCH {
                if let Some(span) = batch_span.take() {
                    end_batch(
                        tracer,
                        &mut batch_hist,
                        span,
                        batch_merges,
                        batch_goodness,
                        active,
                    );
                }
                batch_merges = 0;
                batch_span = tracer.begin();
            }
        }
    }
    if batch_merges > 0 {
        if let Some(span) = batch_span.take() {
            end_batch(
                tracer,
                &mut batch_hist,
                span,
                batch_merges,
                batch_goodness,
                active,
            );
        }
    }
    if batch_hist.count() > 0 {
        tracer.record_hist("agglomerate.batch_ns", None, &batch_hist);
    }

    engine.flush_telemetry();
    let agg = engine.finish(active == config.k);
    // Contract: clusters, assignment, outliers and criterion agree.
    contracts::check_agglomeration(&agg);
    Ok((agg, trip))
}

/// A candidate merge in the pair heap: goodness, then kept slot, then
/// absorbed slot (smaller ids win ties), stamped with the kept and
/// absorbed slots' generations at push time.
type Candidate = (GoodnessOrd, Reverse<u32>, Reverse<u32>, u32, u32);

/// Bytes of one link-row entry.
const ROW_ENTRY_BYTES: usize = std::mem::size_of::<(u32, u64)>();

/// Whether neither slot of `entry` has changed since it was pushed.
#[inline]
fn is_live(generation: &[u32], &(_, Reverse(a), Reverse(b), ga, gb): &Candidate) -> bool {
    generation[cast::u32_to_usize(a)] == ga && generation[cast::u32_to_usize(b)] == gb
}

/// Internal merge-engine state.
///
/// One max-heap holds a candidate merge per linked cluster pair. Merging
/// bumps the generation of both slots, so every candidate that names
/// either becomes stale; stale candidates are skipped when they reach the
/// top and dropped whenever the heap has doubled since its last
/// compaction. Link rows are rebuilt only when their own cluster merges:
/// a partner id in a row may name a cluster that has since been
/// absorbed, and is resolved to its current slot through a union-find.
struct Engine<'a> {
    goodness: &'a Goodness,
    observer: &'a Observer,
    /// Member lists per slot; empty = inactive slot.
    members: Vec<Vec<u32>>,
    /// Union-find over slots: an absorbed slot points at the slot it was
    /// folded into; a live or pruned slot points at itself.
    parent: Vec<u32>,
    /// Link rows per slot, sorted by partner id. Counts whose partners
    /// resolve to the same cluster sum to that pair's cross-link count.
    rows: Vec<Vec<(u32, u64)>>,
    /// Internal (within-cluster) ordered link counts per slot.
    internal: Vec<u64>,
    /// Per-slot generation, bumped whenever the slot's cluster changes.
    generation: Vec<u32>,
    heap: BinaryHeap<Candidate>,
    /// Heap length right after the last compaction.
    compacted_len: usize,
    /// Dense per-slot accumulator (all zero between merges) and the slots
    /// it touched, for rebuilding a merged cluster's row.
    acc: Vec<u64>,
    touched: Vec<u32>,
    /// Bytes held by `rows` (entry capacity).
    row_bytes: usize,
    /// High-water mark of heap plus row bytes.
    peak_bytes: usize,
    pushes: u64,
    pops: u64,
    history: Vec<MergeStep>,
    record_history: bool,
    merges: usize,
    outliers: Vec<u32>,
    active: usize,
}

impl<'a> Engine<'a> {
    fn new(
        n: usize,
        links: &LinkTable,
        goodness: &'a Goodness,
        observer: &'a Observer,
        record_history: bool,
    ) -> Self {
        // Symmetric rows from the upper-triangle table: row i receives its
        // lower partners (from earlier rows) before its own upper ones, so
        // every row comes out sorted.
        let mut degree = vec![0usize; n];
        for (i, j, _) in links.iter() {
            degree[cast::u32_to_usize(i)] += 1;
            degree[cast::u32_to_usize(j)] += 1;
        }
        let mut rows: Vec<Vec<(u32, u64)>> =
            degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for (i, j, c) in links.iter() {
            rows[cast::u32_to_usize(i)].push((j, u64::from(c)));
            rows[cast::u32_to_usize(j)].push((i, u64::from(c)));
        }
        let entries = links.num_entries();
        let mut engine = Engine {
            goodness,
            observer,
            members: (0..cast::usize_to_u32(n)).map(|i| vec![i]).collect(),
            parent: (0..cast::usize_to_u32(n)).collect(),
            rows,
            internal: vec![0; n],
            generation: vec![0; n],
            heap: BinaryHeap::new(),
            compacted_len: entries,
            acc: vec![0; n],
            touched: Vec::new(),
            row_bytes: 2 * entries * ROW_ENTRY_BYTES,
            peak_bytes: 0,
            pushes: cast::usize_to_u64(entries),
            pops: 0,
            history: Vec::new(),
            record_history,
            merges: 0,
            outliers: Vec::new(),
            active: n,
        };
        // Compaction keeps the heap within twice the live candidates, and
        // there are never more live candidates than initial link entries,
        // so this capacity is never outgrown.
        let mut candidates = Vec::with_capacity(2 * entries);
        candidates.extend(
            links
                .iter()
                .map(|(i, j, c)| engine.candidate(i, j, u64::from(c))),
        );
        engine.heap = BinaryHeap::from(candidates);
        engine.note_footprint();
        engine
    }

    fn active_count(&self) -> usize {
        self.active
    }

    #[inline]
    fn size(&self, slot: u32) -> usize {
        self.members[cast::u32_to_usize(slot)].len()
    }

    /// The slot currently holding `slot`'s points (path-halving find).
    #[inline]
    fn find(&mut self, mut slot: u32) -> u32 {
        // rock-analyze: allow(guard-loop) — bounded: every iteration climbs the union-find tree toward its root.
        loop {
            let up = self.parent[cast::u32_to_usize(slot)];
            if up == slot {
                return slot;
            }
            let grand = self.parent[cast::u32_to_usize(up)];
            self.parent[cast::u32_to_usize(slot)] = grand;
            slot = grand;
        }
    }

    /// The candidate for merging live clusters `a` and `b` with `links`
    /// cross links: the greater of its two orientations. Both carry the
    /// same generations, so the lesser could never reach the top.
    fn candidate(&self, a: u32, b: u32, links: u64) -> Candidate {
        let (na, nb) = (self.size(a), self.size(b));
        let (ga, gb) = (
            self.generation[cast::u32_to_usize(a)],
            self.generation[cast::u32_to_usize(b)],
        );
        let ab = GoodnessOrd::new(self.goodness.merge_goodness(links, na, nb));
        let ba = GoodnessOrd::new(self.goodness.merge_goodness(links, nb, na));
        (ab, Reverse(a), Reverse(b), ga, gb).max((ba, Reverse(b), Reverse(a), gb, ga))
    }

    /// Pops stale candidates until the top is live (or the heap is empty).
    fn skip_stale(&mut self) {
        // rock-analyze: allow(guard-loop) — bounded: every iteration pops one heap entry.
        while let Some(top) = self.heap.peek() {
            if is_live(&self.generation, top) {
                return;
            }
            self.heap.pop();
            self.pops += 1;
        }
    }

    fn push(&mut self, entry: Candidate) {
        if self.heap.len() >= 2 * self.compacted_len {
            self.compact();
        }
        self.heap.push(entry);
        self.pushes += 1;
    }

    /// Drops every stale candidate and reports the footprint so far.
    fn compact(&mut self) {
        let before = self.heap.len();
        let generation = &self.generation;
        self.heap.retain(|entry| is_live(generation, entry));
        self.compacted_len = self.heap.len();
        self.pops += cast::usize_to_u64(before - self.compacted_len);
        self.note_footprint();
        MemoryGauges::observe(
            &self.observer.memory().heaps,
            cast::usize_to_u64(self.peak_bytes),
        );
    }

    /// Bytes held by the heap and the rows right now.
    fn footprint(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Candidate>() + self.row_bytes
    }

    fn note_footprint(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.footprint());
    }

    /// Goodness of the best available merge, if any.
    fn best_goodness(&mut self) -> Option<f64> {
        self.skip_stale();
        self.heap.peek().map(|&(g, ..)| g.get())
    }

    /// Merges the globally best pair, returning its goodness. `None` when
    /// no pair exists.
    fn merge_best(&mut self) -> Option<f64> {
        self.skip_stale();
        let (g, Reverse(u), Reverse(v), _, _) = self.heap.pop()?;
        self.pops += 1;
        self.merge(u, v, g.get());
        Some(g.get())
    }

    /// Merges cluster `v` into cluster `u`.
    fn merge(&mut self, u: u32, v: u32, goodness_value: f64) {
        debug_assert_ne!(u, v);
        let (nu, nv) = (self.size(u), self.size(v));

        // Resolve both rows' partners to their current clusters and sum
        // the counts per cluster; pruned clusters (no members) drop out.
        let u_row = std::mem::take(&mut self.rows[cast::u32_to_usize(u)]);
        let v_row = std::mem::take(&mut self.rows[cast::u32_to_usize(v)]);
        self.row_bytes -= (u_row.capacity() + v_row.capacity()) * ROW_ENTRY_BYTES;
        for &(y, c) in u_row.iter().chain(&v_row) {
            let r = self.find(y);
            if self.members[cast::u32_to_usize(r)].is_empty() {
                continue;
            }
            let slot = &mut self.acc[cast::u32_to_usize(r)];
            if *slot == 0 {
                self.touched.push(r);
            }
            *slot += c;
        }
        // u's row counts the u↔v links under v, and v's row under u.
        let cross_both_ways = self.acc[cast::u32_to_usize(u)] + self.acc[cast::u32_to_usize(v)];
        self.touched.sort_unstable();
        let mut row = Vec::with_capacity(self.touched.len());
        for &r in &self.touched {
            let c = std::mem::take(&mut self.acc[cast::u32_to_usize(r)]);
            if r != u && r != v {
                row.push((r, c));
            }
        }
        self.touched.clear();

        // Fold v into u; every candidate naming either slot goes stale.
        self.parent[cast::u32_to_usize(v)] = u;
        let v_members = std::mem::take(&mut self.members[cast::u32_to_usize(v)]);
        self.members[cast::u32_to_usize(u)].extend(v_members);
        self.internal[cast::u32_to_usize(u)] +=
            self.internal[cast::u32_to_usize(v)] + cross_both_ways;
        self.internal[cast::u32_to_usize(v)] = 0;
        self.generation[cast::u32_to_usize(u)] += 1;
        self.generation[cast::u32_to_usize(v)] += 1;

        for &(x, c) in &row {
            let entry = self.candidate(u, x, c);
            self.push(entry);
        }
        self.row_bytes += row.capacity() * ROW_ENTRY_BYTES;
        self.rows[cast::u32_to_usize(u)] = row;
        self.note_footprint();
        self.active -= 1;
        self.merges += 1;

        if self.record_history {
            let criterion = self.criterion();
            self.history.push(MergeStep {
                kept: u,
                absorbed: v,
                goodness: goodness_value,
                sizes: (cast::usize_to_u32(nu), cast::usize_to_u32(nv)),
                criterion,
            });
        }
    }

    /// Discards every active cluster with at most `max_size` members.
    fn prune_small(&mut self, max_size: usize) {
        let victims: Vec<u32> = (0..cast::usize_to_u32(self.members.len()))
            .filter(|&s| {
                let m = &self.members[cast::u32_to_usize(s)];
                !m.is_empty() && m.len() <= max_size
            })
            .collect();
        // Never prune everything: keep at least one cluster.
        if victims.len() == self.active {
            return;
        }
        for s in victims {
            let si = cast::u32_to_usize(s);
            let mem = std::mem::take(&mut self.members[si]);
            self.outliers.extend(mem);
            self.internal[si] = 0;
            self.row_bytes -= std::mem::take(&mut self.rows[si]).capacity() * ROW_ENTRY_BYTES;
            self.generation[si] += 1;
            self.active -= 1;
        }
    }

    /// Flushes the run's tallies into `observer`: merges, pruned points,
    /// pair-heap pushes and pops, and the peak heap-plus-rows footprint.
    fn flush_telemetry(&self) {
        let counters = self.observer.counters();
        PipelineCounters::add(&counters.heap_pushes, self.pushes);
        PipelineCounters::add(&counters.heap_pops, self.pops);
        PipelineCounters::add(&counters.merges, cast::usize_to_u64(self.merges));
        PipelineCounters::add(
            &counters.outliers_pruned,
            cast::usize_to_u64(self.outliers.len()),
        );
        MemoryGauges::observe(
            &self.observer.memory().heaps,
            cast::usize_to_u64(self.peak_bytes),
        );
    }

    /// Current value of the criterion function E_l.
    fn criterion(&self) -> f64 {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| self.goodness.criterion_term(self.internal[i], m.len()))
            .sum()
    }

    fn finish(self, reached_k: bool) -> Agglomeration {
        let criterion = self.criterion();
        let n: usize = self.members.iter().map(Vec::len).sum::<usize>() + self.outliers.len();
        let mut clusters: Vec<Vec<u32>> = self
            .members
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|mut m| {
                m.sort_unstable();
                m
            })
            .collect();
        clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
        let mut assignment: Vec<Option<u32>> = vec![None; n];
        for (c, mem) in clusters.iter().enumerate() {
            for &p in mem {
                assignment[cast::u32_to_usize(p)] = Some(cast::usize_to_u32(c));
            }
        }
        let mut outliers = self.outliers;
        outliers.sort_unstable();
        Agglomeration {
            assignment,
            clusters,
            history: self.history,
            criterion,
            merges: self.merges,
            reached_k,
            outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Transaction, TransactionSet};
    use crate::goodness::MarketBasket;
    use crate::neighbors::NeighborGraph;
    use crate::similarity::Jaccard;

    fn pipeline(transactions: Vec<Transaction>, theta: f64, k: usize) -> Agglomeration {
        let data: TransactionSet = transactions.into_iter().collect();
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(theta, &MarketBasket).unwrap();
        agglomerate(data.len(), &links, &good, &AgglomerateConfig::new(k)).unwrap()
    }

    fn block(base: u32, n: usize, shared: usize) -> Vec<Transaction> {
        // n transactions sharing `shared` common items plus one unique item.
        (0..n as u32)
            .map(|i| {
                let mut items: Vec<u32> = (base..base + shared as u32).collect();
                items.push(base + 1000 + i);
                Transaction::new(items)
            })
            .collect()
    }

    #[test]
    fn goodness_ord_is_total() {
        let lo = GoodnessOrd::new(-1.5);
        let hi = GoodnessOrd::new(2.5);
        assert!(hi > lo);
        assert_eq!(hi.get(), 2.5);
        assert_eq!(lo.cmp(&lo), std::cmp::Ordering::Equal);
        assert!(GoodnessOrd::new(f64::INFINITY) > hi);
        assert!(GoodnessOrd::new(f64::NEG_INFINITY) < lo);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    #[cfg(debug_assertions)]
    fn nan_goodness_is_rejected_in_debug() {
        let _ = GoodnessOrd::new(f64::NAN);
    }

    #[test]
    fn two_blocks_recovered() {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.reached_k);
        assert_eq!(out.clusters.len(), 2);
        let sizes: Vec<usize> = out.clusters.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![6, 6]);
        // Members 0..6 together, 6..12 together.
        assert_eq!(out.clusters[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.clusters[1], vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn assignment_matches_clusters() {
        let mut data = block(0, 5, 4);
        data.extend(block(500, 7, 4));
        let out = pipeline(data, 0.5, 2);
        for (c, mem) in out.clusters.iter().enumerate() {
            for &p in mem {
                assert_eq!(out.assignment[p as usize], Some(c as u32));
            }
        }
        assert_eq!(out.assignment.iter().filter(|a| a.is_some()).count(), 12);
    }

    #[test]
    fn stops_when_no_links_remain() {
        // Three mutually unlinked pairs; asking for 2 clusters must stop at 3.
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([10, 11]),
            Transaction::new([10, 11]),
            Transaction::new([20, 21]),
            Transaction::new([20, 21]),
        ];
        let out = pipeline(data, 0.9, 2);
        assert!(!out.reached_k);
        // Each pair is mutual-neighbors but has no *common* third neighbor,
        // so there are no links at all: six singletons remain.
        assert_eq!(out.clusters.len(), 6);
    }

    #[test]
    fn pairs_with_links_do_merge() {
        // Triples: within a triple every pair has the third point as a
        // common neighbor → 1 link. Triples are link-free across.
        let data = vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([7, 8]),
            Transaction::new([7, 8]),
            Transaction::new([7, 8]),
        ];
        let out = pipeline(data, 0.9, 2);
        assert!(out.reached_k);
        assert_eq!(out.clusters[0], vec![0, 1, 2]);
        assert_eq!(out.clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn history_records_every_merge() {
        let mut data = block(0, 4, 4);
        data.extend(block(500, 4, 4));
        let out = pipeline(data, 0.5, 2);
        // 8 points → 2 clusters = 6 merges.
        assert_eq!(out.history.len(), 6);
        for step in &out.history {
            assert!(step.goodness > 0.0);
            assert_ne!(step.kept, step.absorbed);
            assert!(step.sizes.0 >= 1 && step.sizes.1 >= 1);
        }
    }

    #[test]
    fn merging_down_to_one_cluster() {
        let data = block(0, 5, 4);
        let out = pipeline(data, 0.5, 1);
        assert!(out.reached_k);
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].len(), 5);
        assert!(out.criterion > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data: TransactionSet = block(0, 3, 2).into_iter().collect();
        let g = NeighborGraph::compute(&data, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        assert!(matches!(
            agglomerate(0, &links, &good, &AgglomerateConfig::new(1)),
            Err(RockError::EmptyDataset)
        ));
        assert!(matches!(
            agglomerate(3, &links, &good, &AgglomerateConfig::new(0)),
            Err(RockError::InvalidK { .. })
        ));
        assert!(matches!(
            agglomerate(3, &links, &good, &AgglomerateConfig::new(4)),
            Err(RockError::InvalidK { .. })
        ));
    }

    #[test]
    fn pruning_discards_small_clusters() {
        // Two solid blocks of 8 plus two isolated-ish points that link to
        // nothing: with pruning they become outliers.
        let mut data = block(0, 8, 4);
        data.extend(block(500, 8, 4));
        data.push(Transaction::new([9000, 9001]));
        data.push(Transaction::new([9500, 9501]));
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        let cfg = AgglomerateConfig {
            k: 2,
            min_goodness: None,
            // Fire the checkpoint once only ~4 clusters remain, i.e. after
            // both blocks have fully coalesced, leaving the two isolated
            // points as prunable singletons.
            prune: Some(PruneConfig {
                checkpoint_fraction: 0.2,
                max_prune_size: 1,
            }),
            record_history: false,
        };
        let out = agglomerate(ts.len(), &links, &good, &cfg).unwrap();
        assert_eq!(out.outliers, vec![16, 17]);
        assert_eq!(out.clusters.len(), 2);
        assert!(out.assignment[16].is_none());
        assert!(out.assignment[17].is_none());
        assert!(out.reached_k);
    }

    #[test]
    fn criterion_is_positive_after_merges() {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.criterion > 0.0);
        // History criterion should end at the final criterion.
        let last = out.history.last().unwrap();
        assert!((last.criterion - out.criterion).abs() < 1e-9);
    }

    #[test]
    fn clusters_sorted_by_decreasing_size() {
        let mut data = block(0, 9, 4);
        data.extend(block(500, 4, 4));
        let out = pipeline(data, 0.5, 2);
        assert!(out.clusters[0].len() >= out.clusters[1].len());
        assert_eq!(out.clusters[0].len(), 9);
    }

    #[test]
    fn min_goodness_stops_early() {
        // Two tight blocks joined by one bridge transaction: links exist
        // across, so unconstrained merging reaches k = 1, but the final
        // merges have far lower goodness than the within-block ones. A
        // goodness floor between the two stops at the block structure.
        let mut data: Vec<Transaction> = (0..8u32)
            .map(|i| {
                let b = i / 4;
                Transaction::new([b * 10, b * 10 + 1, b * 10 + 2])
            })
            .collect();
        data.push(Transaction::new([0, 1, 10, 11])); // bridge
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.3, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.3, &MarketBasket).unwrap();
        let unbounded = agglomerate(9, &links, &good, &AgglomerateConfig::new(1)).unwrap();
        assert_eq!(unbounded.clusters.len(), 1);
        let first = unbounded.history.first().unwrap().goodness;
        let last = unbounded.history.last().unwrap().goodness;
        assert!(first > last, "within-block merges must score higher");
        let cfg = AgglomerateConfig::new(1).min_goodness((first + last) / 2.0);
        let stopped = agglomerate(9, &links, &good, &cfg).unwrap();
        assert!(!stopped.reached_k);
        assert!(stopped.clusters.len() >= 2);
        // Every block stays whole: points 0-3 together, 4-7 together.
        let cluster_of = |p: usize| stopped.assignment[p].unwrap();
        assert!((1..4).all(|p| cluster_of(p) == cluster_of(0)));
        assert!((5..8).all(|p| cluster_of(p) == cluster_of(4)));
    }

    #[test]
    fn deterministic_runs() {
        let mut data = block(0, 7, 4);
        data.extend(block(500, 7, 4));
        let a = pipeline(data.clone(), 0.5, 2);
        let b = pipeline(data, 0.5, 2);
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.assignment, b.assignment);
    }

    fn guarded_fixture() -> (TransactionSet, LinkTable, Goodness) {
        let mut data = block(0, 6, 4);
        data.extend(block(500, 6, 4));
        let ts: TransactionSet = data.into_iter().collect();
        let g = NeighborGraph::compute(&ts, &Jaccard, 0.5, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(0.5, &MarketBasket).unwrap();
        (ts, links, good)
    }

    #[test]
    fn step_budget_stops_after_exact_step_count() {
        use crate::guard::{Guard, RunBudget, TripReason};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let guard = Guard::new(RunBudget::unlimited().steps(3));
        let (agg, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &guard,
        )
        .unwrap();
        let trip = trip.expect("budget of 3 must trip before 10 merges");
        assert_eq!(trip.reason, TripReason::StepBudget { limit: 3 });
        assert_eq!(agg.merges, 3);
        assert!(!agg.reached_k);
        // The partial result is still a full, consistent partition.
        assert_eq!(agg.clusters.len(), ts.len() - 3);
        let covered: usize = agg.clusters.iter().map(Vec::len).sum();
        assert_eq!(covered + agg.outliers.len(), ts.len());
    }

    #[test]
    fn unlimited_guard_matches_unguarded_run() {
        use crate::guard::Guard;
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let plain = agglomerate(ts.len(), &links, &good, &AgglomerateConfig::new(2)).unwrap();
        let (guarded, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &Guard::unlimited(),
        )
        .unwrap();
        assert!(trip.is_none());
        assert_eq!(plain.clusters, guarded.clusters);
        assert_eq!(plain.assignment, guarded.assignment);
    }

    #[test]
    fn cancellation_stops_merge_loop() {
        use crate::guard::{Guard, TripReason};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let guard = Guard::unlimited();
        guard.cancel_token().cancel();
        let (agg, trip) = agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &Observer::new(),
            &guard,
        )
        .unwrap();
        assert_eq!(trip.map(|t| t.reason), Some(TripReason::Cancelled));
        assert_eq!(agg.merges, 0);
        assert_eq!(agg.clusters.len(), ts.len());
    }

    #[test]
    fn heaps_gauge_covers_the_engine_footprint() {
        let (ts, links, good) = guarded_fixture();
        let obs = Observer::new();
        let out = agglomerate_observed(ts.len(), &links, &good, &AgglomerateConfig::new(2), &obs)
            .unwrap();
        let gauge = obs.memory().snapshot().heaps;
        // Replay the same merges on a bare engine and measure it.
        let scratch = Observer::new();
        let mut engine = Engine::new(ts.len(), &links, &good, &scratch, false);
        let initial = engine.footprint();
        while engine.active_count() > 2 && engine.merge_best().is_some() {}
        assert_eq!(engine.merges, out.merges);
        assert!(engine.pushes > cast::usize_to_u64(links.num_entries()));
        assert!(gauge >= cast::usize_to_u64(engine.footprint()));
        assert!(gauge >= cast::usize_to_u64(initial));
    }

    #[test]
    fn guarded_run_flushes_heap_telemetry() {
        use crate::guard::{Guard, RunBudget};
        use crate::telemetry::Observer;
        let (ts, links, good) = guarded_fixture();
        let obs = Observer::new();
        let guard = Guard::new(RunBudget::unlimited().steps(2));
        agglomerate_guarded(
            ts.len(),
            &links,
            &good,
            &AgglomerateConfig::new(2),
            &obs,
            &guard,
        )
        .unwrap();
        let c = obs.counters().snapshot();
        assert_eq!(c.merges, 2);
        assert!(c.heap_pushes > 0);
        assert_eq!(c.heap_anomalies, 0);
    }
}
