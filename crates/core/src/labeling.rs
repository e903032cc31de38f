//! Labeling data on disk (paper §4.2).
//!
//! After clustering a sample, the remaining points are assigned in one
//! pass. From each cluster `i` ROCK selects a set `L_i` of representative
//! points; an outside point `p` joins the cluster maximizing
//!
//! ```text
//! N_i / (|L_i| + 1)^{f(θ)}
//! ```
//!
//! where `N_i` is the number of `p`'s θ-neighbors inside `L_i`. The
//! denominator is the expected number of neighbors a genuine member would
//! have among `L_i ∪ {p}`, so large representative sets do not
//! automatically attract every point. Points with no neighbors in any
//! `L_i` are labeled outliers.

use crate::bits;
use crate::cast;
use crate::data::{Transaction, TransactionSet};
use crate::error::{Result, RockError};
use crate::goodness::{ConstantExponent, LinkExponent};
use crate::rng::{Rng, SliceRandom};
use crate::shard::effective_threads;
use crate::similarity::Similarity;
use crate::snapshot::SimilarityKind;
use crate::telemetry::trace::Payload;
use crate::telemetry::{Observer, Phase, PipelineCounters};

/// Configuration for the labeling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingConfig {
    /// Fraction of each cluster drawn as representatives (`L_i`), in
    /// `(0, 1]`.
    pub representative_fraction: f64,
    /// Upper bound on `|L_i|` per cluster (keeps the pass `O(n·Σ|L_i|)`
    /// affordable for huge clusters). `0` means unbounded.
    pub max_representatives: usize,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            representative_fraction: 0.25,
            max_representatives: 256,
        }
    }
}

impl LabelingConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.representative_fraction > 0.0 && self.representative_fraction <= 1.0) {
            return Err(RockError::InvalidFraction {
                name: "representative_fraction",
                value: self.representative_fraction,
            });
        }
        Ok(())
    }
}

/// Representative points (`L_i`) drawn from each cluster.
#[derive(Debug, Clone)]
pub struct Representatives {
    /// Per cluster: the representative transactions.
    sets: Vec<Vec<Transaction>>,
}

impl Representatives {
    /// Draws representatives from `clusters` (member index lists into
    /// `sample`) according to `config`.
    ///
    /// # Errors
    /// Propagates config validation; returns [`RockError::EmptyDataset`]
    /// when `clusters` is empty.
    pub fn draw(
        sample: &TransactionSet,
        clusters: &[Vec<u32>],
        config: &LabelingConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        config.validate()?;
        if clusters.is_empty() {
            return Err(RockError::EmptyDataset);
        }
        let sets = clusters
            .iter()
            .map(|members| {
                let want = cast::f64_to_usize(
                    (cast::usize_to_f64(members.len()) * config.representative_fraction).ceil(),
                )
                .max(1);
                let want = if config.max_representatives > 0 {
                    want.min(config.max_representatives)
                } else {
                    want
                };
                let mut ids: Vec<u32> = members.clone();
                ids.shuffle(rng);
                ids.truncate(want);
                ids.iter()
                    // Member indices come from the clustering over this
                    // sample, so the lookup cannot miss; skip defensively
                    // instead of panicking.
                    .filter_map(|&i| sample.transaction(cast::u32_to_usize(i)).cloned())
                    .collect()
            })
            .collect();
        Ok(Representatives { sets })
    }

    /// Reconstructs representative sets from explicit per-cluster
    /// transactions (the model-snapshot load path; `draw` is the fitting
    /// path).
    pub fn from_sets(sets: Vec<Vec<Transaction>>) -> Self {
        Representatives { sets }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.sets.len()
    }

    /// Representatives of cluster `i`.
    pub fn set(&self, i: usize) -> &[Transaction] {
        &self.sets[i]
    }

    /// Total number of representatives across clusters.
    pub fn total(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Assigns one point: returns `Some(cluster)` with the best labeling score,
/// or `None` when the point has no neighbor in any representative set.
///
/// The scalar rule (one `sim()` per representative): the oracle for the
/// packed index, and the kernel's path when there is no index.
pub fn label_point<S: Similarity, F: LinkExponent>(
    point: &Transaction,
    reps: &Representatives,
    sim: &S,
    f: &F,
    theta: f64,
) -> Option<usize> {
    let counts = reps.sets.iter().map(|set| {
        let n_i = set.iter().filter(|r| sim.sim(point, r) >= theta).count();
        (n_i, set.len())
    });
    best_cluster(counts, f.f(theta))
}

/// The §4.2 choice from each cluster's `(N_i, |L_i|)`: the highest
/// `N_i / (|L_i| + 1)^exponent`, or `None` when no cluster holds a
/// neighbor.
fn best_cluster(counts: impl Iterator<Item = (usize, usize)>, exponent: f64) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, (n_i, size)) in counts.enumerate() {
        if n_i == 0 {
            continue;
        }
        let score = cast::usize_to_f64(n_i) / cast::usize_to_f64(size + 1).powf(exponent);
        // Deterministic tie-break: keep the lower cluster index.
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Widest bit row (in items) the packed labeling index builds. Beyond
/// it the per-representative rows stop paying for themselves (64 words
/// each) and labeling takes the scalar sorted-merge path.
pub const MAX_DENSE_UNIVERSE: usize = 4096;

/// Bit-packed representative index: one bit row per representative, so
/// the θ-neighbor test of the labeling rule becomes a handful of
/// `AND` + popcount words instead of a branchy sorted merge per
/// representative.
///
/// The index is exact, not approximate: transactions are sorted
/// deduplicated sets, so popcounting `point ∧ rep` yields the same
/// integer `|A ∩ B|` the merge in
/// [`Transaction::intersection_len`](crate::data::Transaction::intersection_len)
/// produces, and the similarity formulas are evaluated through the very
/// same `from_counts` definitions the scalar path uses
/// ([`crate::similarity::Jaccard::from_counts`] et al.) — identical
/// floats, identical labels, only faster. Queries reuse a
/// caller-provided scratch row so the hot path allocates nothing.
#[derive(Debug, Clone)]
pub struct DenseReps {
    /// Words per bit row (`ceil((largest item + 1) / 64)`).
    words: usize,
    /// Rep-major bit matrix: representative `r` is
    /// `bits[r * words .. (r + 1) * words]`.
    bits: Vec<u64>,
    /// `|B|` of each representative, in row order.
    lens: Vec<usize>,
    /// Per cluster: (first row, representative count).
    clusters: Vec<(usize, usize)>,
}

impl DenseReps {
    /// Builds the index with rows just wide enough for the
    /// representatives' largest item, or `None` when no representative
    /// holds an item or that item is `MAX_DENSE_UNIVERSE` or beyond.
    pub fn build(reps: &Representatives) -> Option<DenseReps> {
        let largest = reps
            .sets
            .iter()
            .flatten()
            .filter_map(|rep| rep.items().last())
            .max()?;
        let width = cast::u32_to_usize(*largest) + 1;
        if width > MAX_DENSE_UNIVERSE {
            return None;
        }
        let words = width.div_ceil(64);
        let total = reps.total();
        let mut bits = vec![0u64; total * words];
        let mut lens = Vec::with_capacity(total);
        let mut clusters = Vec::with_capacity(reps.num_clusters());
        let mut rows = bits.chunks_exact_mut(words);
        for set in &reps.sets {
            clusters.push((lens.len(), set.len()));
            for (rep, row) in set.iter().zip(&mut rows) {
                for &item in rep.items() {
                    bits::set(row, cast::u32_to_usize(item));
                }
                lens.push(rep.len());
            }
        }
        Some(DenseReps {
            words,
            bits,
            lens,
            clusters,
        })
    }

    /// [`label_point`] over the packed index: same scores, same
    /// deterministic lower-index tie-break, same `None`-for-outlier
    /// contract. `kind` evaluates the measure from the counts through
    /// the same `from_counts` definition its `sim()` uses. `scratch` is
    /// the caller's reusable bit row for the point.
    pub fn label_point(
        &self,
        point: &Transaction,
        kind: SimilarityKind,
        theta: f64,
        exponent: f64,
        scratch: &mut Vec<u64>,
    ) -> Option<usize> {
        scratch.clear();
        scratch.resize(self.words, 0);
        for &item in point.items() {
            let i = cast::u32_to_usize(item);
            // Items past the row width can never match a representative;
            // they still count toward |A| below.
            if i < 64 * self.words {
                bits::set(scratch, i);
            }
        }
        let a_len = point.len();
        let counts = self.clusters.iter().map(|&(start, count)| {
            let n_i = (start..start + count)
                .filter(|&r| {
                    let row = &self.bits[r * self.words..(r + 1) * self.words];
                    kind.sim_from_counts(bits::and_count(scratch, row), a_len, self.lens[r])
                        >= theta
                })
                .count();
            (n_i, count)
        });
        best_cluster(counts, exponent)
    }
}

/// The §4.2 labeling kernel behind the fit, model snapshots and
/// [`label_stream`]: a point takes the packed index when there is one
/// and the measure reports a [`Similarity::count_kind`] (whose promise
/// makes the label identical), and the scalar [`label_point`] otherwise.
pub(crate) struct Labeler<'a, S> {
    reps: &'a Representatives,
    dense: Option<(&'a DenseReps, SimilarityKind)>,
    sim: &'a S,
    theta: f64,
    exponent: f64,
}

impl<'a, S: Similarity> Labeler<'a, S> {
    pub(crate) fn new(
        reps: &'a Representatives,
        dense: Option<&'a DenseReps>,
        sim: &'a S,
        theta: f64,
        exponent: f64,
    ) -> Self {
        Labeler {
            reps,
            dense: dense.zip(sim.count_kind()),
            sim,
            theta,
            exponent,
        }
    }

    /// Labels one point; `scratch` is the caller's reusable bit row.
    pub(crate) fn label(&self, point: &Transaction, scratch: &mut Vec<u64>) -> Option<usize> {
        match self.dense {
            Some((dense, kind)) => {
                dense.label_point(point, kind, self.theta, self.exponent, scratch)
            }
            None => label_point(
                point,
                self.reps,
                self.sim,
                &ConstantExponent(self.exponent),
                self.theta,
            ),
        }
    }

    /// Labels `points` over contiguous slices, one worker per slice
    /// ([`effective_threads`] resolves `threads`) with one scratch row
    /// each. Output order matches input order and does not depend on
    /// the thread count.
    pub(crate) fn label_many(&self, points: &[&Transaction], threads: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; points.len()];
        let label_slice = |slice_in: &[&Transaction], slice_out: &mut [Option<usize>]| {
            let mut scratch = Vec::new();
            for (p, o) in slice_in.iter().zip(slice_out) {
                *o = self.label(p, &mut scratch);
            }
        };
        let threads = effective_threads(threads, points.len());
        if threads <= 1 {
            label_slice(points, &mut out);
        } else {
            let chunk = points.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (slice_in, slice_out) in points.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    scope.spawn(move || label_slice(slice_in, slice_out));
                }
            });
        }
        out
    }
}

/// Labels many points with the §4.2 kernel (chunked over `threads`
/// workers; `0` = one per CPU, capped at 16; the packed index is built
/// once per call), with telemetry: labeling similarity evaluations
/// (`points × total representatives`) and the labeled/outlier split
/// flow into `observer`'s counters. Output order matches input.
#[allow(clippy::too_many_arguments)] // the labeling closure + threads + observer
pub fn label_many_observed<S: Similarity, F: LinkExponent>(
    points: &[&Transaction],
    reps: &Representatives,
    sim: &S,
    f: &F,
    theta: f64,
    threads: usize,
    observer: &Observer,
) -> Vec<Option<usize>> {
    let span = observer.tracer().begin();
    let dense = sim.count_kind().and_then(|_| DenseReps::build(reps));
    let out =
        Labeler::new(reps, dense.as_ref(), sim, theta, f.f(theta)).label_many(points, threads);
    let counters = observer.counters();
    PipelineCounters::add(
        &counters.labeling_evaluations,
        cast::usize_to_u64(points.len()) * cast::usize_to_u64(reps.total()),
    );
    let labeled = cast::usize_to_u64(out.iter().filter(|l| l.is_some()).count());
    PipelineCounters::add(&counters.points_labeled, labeled);
    let total = cast::usize_to_u64(points.len());
    if let Some(s) = span {
        observer.tracer().end(
            s,
            "labeling.pass",
            Some(Phase::Labeling),
            0,
            Payload::new()
                .count("points", total)
                .count("representatives", cast::usize_to_u64(reps.total()))
                .count("labeled", labeled),
        );
    }
    observer.progress(Phase::Labeling, total, total);
    out
}

/// Labels a *stream* of transactions (the paper's "data residing on
/// disk"): each item is scored against the representatives and yielded
/// with its assignment, without materializing the dataset.
pub fn label_stream<'a, S, F, I>(
    stream: I,
    reps: &'a Representatives,
    sim: &'a S,
    f: &'a F,
    theta: f64,
) -> impl Iterator<Item = (Transaction, Option<usize>)> + 'a
where
    S: Similarity,
    F: LinkExponent,
    I: IntoIterator<Item = Transaction>,
    I::IntoIter: 'a,
{
    let dense = sim.count_kind().and_then(|_| DenseReps::build(reps));
    let exponent = f.f(theta);
    let mut scratch = Vec::new();
    stream.into_iter().map(move |t| {
        let label =
            Labeler::new(reps, dense.as_ref(), sim, theta, exponent).label(&t, &mut scratch);
        (t, label)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::MarketBasket;
    use crate::sampling::seeded_rng;
    use crate::similarity::Jaccard;

    fn ts(v: Vec<Transaction>) -> TransactionSet {
        v.into_iter().collect()
    }

    fn label_many(
        points: &[&Transaction],
        reps: &Representatives,
        threads: usize,
    ) -> Vec<Option<usize>> {
        let f = &MarketBasket;
        label_many_observed(points, reps, &Jaccard, f, 0.5, threads, &Observer::new())
    }

    fn two_cluster_fixture() -> (TransactionSet, Vec<Vec<u32>>) {
        let sample = ts(vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 2, 3]),
            Transaction::new([10, 11, 12]),
            Transaction::new([10, 11, 12, 13]),
        ]);
        let clusters = vec![vec![0, 1], vec![2, 3]];
        (sample, clusters)
    }

    #[test]
    fn draw_respects_fraction_and_cap() {
        let (sample, clusters) = two_cluster_fixture();
        let mut rng = seeded_rng(1);
        let cfg = LabelingConfig {
            representative_fraction: 0.5,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut rng).unwrap();
        assert_eq!(reps.num_clusters(), 2);
        assert_eq!(reps.set(0).len(), 1);
        assert_eq!(reps.set(1).len(), 1);

        let capped = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 1,
        };
        let reps = Representatives::draw(&sample, &clusters, &capped, &mut rng).unwrap();
        assert_eq!(reps.total(), 2);
    }

    #[test]
    fn draw_always_takes_at_least_one() {
        let (sample, _) = two_cluster_fixture();
        let clusters = vec![vec![0], vec![2]];
        let cfg = LabelingConfig {
            representative_fraction: 0.01,
            max_representatives: 8,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(3)).unwrap();
        assert_eq!(reps.set(0).len(), 1);
        assert_eq!(reps.set(1).len(), 1);
    }

    #[test]
    fn draw_validates_config() {
        let (sample, clusters) = two_cluster_fixture();
        let bad = LabelingConfig {
            representative_fraction: 0.0,
            max_representatives: 0,
        };
        assert!(Representatives::draw(&sample, &clusters, &bad, &mut seeded_rng(0)).is_err());
        assert!(Representatives::draw(
            &sample,
            &[],
            &LabelingConfig::default(),
            &mut seeded_rng(0)
        )
        .is_err());
    }

    #[test]
    fn points_label_to_their_block() {
        let (sample, clusters) = two_cluster_fixture();
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let data = ts(vec![
            Transaction::new([0, 1, 2, 4]),
            Transaction::new([10, 11, 12, 14]),
            Transaction::new([50, 51, 52]),
        ]);
        let points: Vec<&Transaction> = data.iter().collect();
        assert_eq!(label_many(&points, &reps, 1), vec![Some(0), Some(1), None]);
    }

    #[test]
    fn labeling_normalizes_by_representative_count() {
        // Cluster 0 has many representatives, cluster 1 few. A point with
        // one neighbor in each must prefer the *smaller* set: the
        // normalization (|L|+1)^f penalizes big sets.
        let sample = ts(vec![
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1]),
            Transaction::new([0, 1, 2, 3, 4, 5]),
        ]);
        let clusters = vec![vec![0, 1, 2, 3], vec![4]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        // This point neighbors exactly one rep of cluster 0 (none — it
        // neighbors all 4 identical reps) — craft instead a point whose
        // similarity passes only for one rep in each set is impossible with
        // identical reps; instead verify the score formula directly.
        let p = Transaction::new([0, 1]);
        let exponent = MarketBasket.f(0.5);
        let score0 = 4.0 / 5f64.powf(exponent);
        let score1 = 0.0; // sim([0,1], [0..6]) = 2/6 < 0.5
        assert!(score0 > score1);
        assert_eq!(
            label_point(&p, &reps, &Jaccard, &MarketBasket, 0.5),
            Some(0)
        );
    }

    #[test]
    fn parallel_labeling_matches_sequential() {
        // 300 points (past the single-thread cutoff) labeled both ways.
        let sample = ts(vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 2, 3]),
            Transaction::new([10, 11, 12]),
            Transaction::new([10, 11, 12, 13]),
        ]);
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let points: Vec<Transaction> = (0..300u32)
            .map(|i| {
                if i % 3 == 0 {
                    Transaction::new([0, 1, 2, 100 + i])
                } else if i % 3 == 1 {
                    Transaction::new([10, 11, 12, 100 + i])
                } else {
                    Transaction::new([500 + i])
                }
            })
            .collect();
        let refs: Vec<&Transaction> = points.iter().collect();
        let seq = label_many(&refs, &reps, 1);
        let par = label_many(&refs, &reps, 4);
        assert_eq!(seq, par);
        assert_eq!(seq[0], Some(0));
        assert_eq!(seq[1], Some(1));
        assert_eq!(seq[2], None);
    }

    #[test]
    fn label_stream_matches_label_point() {
        let (sample, clusters) = two_cluster_fixture();
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let points = vec![
            Transaction::new([0, 1, 2, 4]),
            Transaction::new([10, 11, 12, 14]),
            Transaction::new([50, 51, 52]),
        ];
        let batch: Vec<Option<usize>> = points
            .iter()
            .map(|p| label_point(p, &reps, &Jaccard, &MarketBasket, 0.5))
            .collect();
        let streamed: Vec<Option<usize>> =
            label_stream(points, &reps, &Jaccard, &MarketBasket, 0.5)
                .map(|(_, l)| l)
                .collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn dense_index_matches_scalar_labeling() {
        // The bit-packed index must reproduce the scalar path bit for
        // bit: same integer intersection counts through the shared
        // `from_counts` formulas, so identical labels for every
        // measure, θ, and point — including points carrying items
        // outside the indexed universe.
        let mut rng = seeded_rng(7);
        let universe = 96usize; // every representative item is below this
        let item = |rng: &mut crate::rng::Rng, lo: usize, span: usize| {
            u32::try_from(lo + rng.gen_range(0..span)).expect("small test universe")
        };
        let sets: Vec<Vec<Transaction>> = (0..5)
            .map(|c| {
                (0..8)
                    .map(|_| Transaction::new((0..6).map(|_| item(&mut rng, c * 16, 20) % 96)))
                    .collect()
            })
            .collect();
        let reps = Representatives::from_sets(sets);
        let dense = DenseReps::build(&reps).expect("fits");
        let mut scratch = Vec::new();

        let points: Vec<Transaction> = (0..200)
            .map(|i| {
                let len = 1 + rng.gen_range(0..6usize);
                Transaction::new((0..len).map(|_| {
                    if i % 7 == 0 {
                        // Out-of-universe items: in |A|, never in a rep.
                        item(&mut rng, universe, 50)
                    } else {
                        item(&mut rng, 0, universe)
                    }
                }))
            })
            .collect();

        for theta in [0.2, 0.5, 0.8] {
            let exponent = MarketBasket.f(theta);
            for kind in [
                SimilarityKind::Jaccard,
                SimilarityKind::Dice,
                SimilarityKind::Overlap,
                SimilarityKind::Cosine,
            ] {
                for p in &points {
                    let scalar = label_point(p, &reps, &kind, &MarketBasket, theta);
                    let fast = dense.label_point(p, kind, theta, exponent, &mut scratch);
                    assert_eq!(scalar, fast, "{kind:?} theta {theta} point {:?}", p.items());
                }
            }
        }
    }

    #[test]
    fn dense_index_gates_on_universe_size() {
        // The row width is derived from the representatives' largest
        // item: `ceil((largest + 1) / 64)` words, packed only while
        // `largest + 1 <= MAX_DENSE_UNIVERSE`.
        let largest = |item: u32| {
            let reps = Representatives::from_sets(vec![
                vec![Transaction::new([0, 1]), Transaction::new([])],
                vec![Transaction::new([2, item])],
            ]);
            DenseReps::build(&reps).map(|d| d.words)
        };
        assert_eq!(largest(63), Some(1));
        assert_eq!(largest(64), Some(2));
        let edge = u32::try_from(MAX_DENSE_UNIVERSE).expect("small constant");
        assert_eq!(largest(edge - 1), Some(MAX_DENSE_UNIVERSE / 64));
        assert_eq!(largest(edge), None);
        // No representative holds an item: nothing to pack.
        let empty = Representatives::from_sets(vec![vec![Transaction::new([])]]);
        assert!(DenseReps::build(&empty).is_none());
    }

    #[test]
    fn tie_breaks_to_lower_cluster_index() {
        let sample = ts(vec![Transaction::new([0, 1]), Transaction::new([0, 1])]);
        let clusters = vec![vec![0], vec![1]];
        let cfg = LabelingConfig {
            representative_fraction: 1.0,
            max_representatives: 0,
        };
        let reps = Representatives::draw(&sample, &clusters, &cfg, &mut seeded_rng(0)).unwrap();
        let p = Transaction::new([0, 1]);
        assert_eq!(
            label_point(&p, &reps, &Jaccard, &MarketBasket, 0.5),
            Some(0)
        );
    }
}
