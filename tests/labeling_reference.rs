//! The labeling kernel against the scalar §4.2 rule.
//!
//! `label_point` scores a point with one `sim()` per representative and
//! is the oracle. The kernel behind `label_many_observed` (the fit) and
//! `ModelSnapshot::label_chunk` (rock-serve, the streaming labeler)
//! takes the bit-packed representative index whenever the measure has a
//! count form and the representatives' largest item fits under
//! `MAX_DENSE_UNIVERSE`, and the scalar rule otherwise. Both must give
//! the oracle's label for every point: over the four count-based
//! measures, θ ∈ {0.2, 0.5, 0.8}, 1/2/4/8 workers on inputs large
//! enough to shard, representatives on each side of the packed cutoff,
//! empty points and points carrying items past the representatives'
//! range — and over `HammingRecord`, which has no count form and always
//! takes the scalar path. The labeling counters must not depend on the
//! thread count.

use rock::core::labeling::{
    label_many_observed, label_point, DenseReps, Representatives, MAX_DENSE_UNIVERSE,
};
use rock::core::rng::Rng;
use rock::prelude::*;

const THETAS: [f64; 3] = [0.2, 0.5, 0.8];
const THREADS: [usize; 4] = [1, 2, 4, 8];
const CLUSTERS: usize = 5;
/// Items per cluster's home block: small, so high θ still finds hits.
const BLOCK: usize = 10;

/// Representatives in `CLUSTERS` item blocks spread over `0..=largest`,
/// with `largest` itself held by one representative.
fn representatives(rng: &mut Rng, largest: u32) -> Representatives {
    let top = usize::try_from(largest).expect("u32 fits usize");
    let stride = (top + 1 - BLOCK) / CLUSTERS;
    let mut sets: Vec<Vec<Transaction>> = (0..CLUSTERS)
        .map(|c| {
            let reps = 1 + rng.gen_range(0..8usize);
            (0..reps)
                .map(|_| {
                    let len = 2 + rng.gen_range(0..5usize);
                    block_items(rng, c * stride, len)
                })
                .collect()
        })
        .collect();
    let last = sets.len() - 1;
    let mut items = sets[last][0].items().to_vec();
    items.push(largest);
    sets[last][0] = Transaction::new(items);
    Representatives::from_sets(sets)
}

fn block_items(rng: &mut Rng, base: usize, len: usize) -> Transaction {
    Transaction::new((0..len).map(|_| item(base + rng.gen_range(0..BLOCK))))
}

fn item(i: usize) -> u32 {
    u32::try_from(i).expect("test items fit u32")
}

/// `n` points: mostly drawn near one cluster's block, plus empty points,
/// points with items past `largest`, uniform noise, and near-copies of
/// the representative that holds `largest` (the last bit of its row).
fn points(rng: &mut Rng, n: usize, largest: u32, reps: &Representatives) -> Vec<Transaction> {
    let top = usize::try_from(largest).expect("u32 fits usize");
    let edge_rep = &reps.set(CLUSTERS - 1)[0];
    let stride = (top + 1 - BLOCK) / CLUSTERS;
    (0..n)
        .map(|i| match i % 8 {
            0 => Transaction::new([]),
            1 => {
                // Near a block, with extra items no representative holds.
                let mut items = block_items(rng, (i % CLUSTERS) * stride, 3)
                    .items()
                    .to_vec();
                items.extend((0..1 + rng.gen_range(0..3usize)).map(|k| item(top + 1 + k * 97)));
                Transaction::new(items)
            }
            2 => Transaction::new((0..4).map(|_| item(rng.gen_range(0..top + 200)))),
            3 => {
                let mut items = edge_rep.items().to_vec();
                if i % 16 == 11 {
                    items.push(item((CLUSTERS - 1) * stride + rng.gen_range(0..BLOCK)));
                }
                Transaction::new(items)
            }
            _ => {
                let base = rng.gen_range(0..CLUSTERS) * stride;
                let len = 2 + rng.gen_range(0..5usize);
                block_items(rng, base, len)
            }
        })
        .collect()
}

/// Labels `refs` through `label_many_observed` at every thread count and
/// checks each label against `oracle` and the counters across thread
/// counts.
fn check_fit_kernel<S: Similarity>(
    refs: &[&Transaction],
    reps: &Representatives,
    sim: &S,
    theta: f64,
    oracle: &[Option<usize>],
    what: &str,
) {
    let mut first_counts = None;
    for threads in THREADS {
        let observer = Observer::new();
        let got = label_many_observed(refs, reps, sim, &MarketBasket, theta, threads, &observer);
        for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
            assert_eq!(
                g,
                o,
                "{what}: label_many_observed point {i} {:?} at {threads} threads",
                refs[i].items()
            );
        }
        let c = observer.counters().snapshot();
        let counts = (c.labeling_evaluations, c.points_labeled);
        assert_eq!(
            counts.0,
            u64::try_from(refs.len() * reps.total()).expect("fits"),
            "{what}: evaluations are points × representatives"
        );
        match first_counts {
            None => first_counts = Some(counts),
            Some(prev) => assert_eq!(
                prev, counts,
                "{what}: labeling counters differ at {threads} threads"
            ),
        }
    }
}

#[test]
fn kernel_matches_scalar_rule_point_by_point() {
    let edge = item(MAX_DENSE_UNIVERSE);
    let (mut labeled, mut outliers) = (0usize, 0usize);
    for seed in 0..4u64 {
        // One side of the packed cutoff each: 4095 packs, 4096 does not.
        for largest in [edge - 1, edge] {
            let mut rng = Rng::seed_from_u64(seed * 31 + u64::from(largest));
            let reps = representatives(&mut rng, largest);
            assert_eq!(
                DenseReps::build(&reps).is_some(),
                largest < edge,
                "largest item {largest}"
            );
            let n = 256 + rng.gen_range(0..64usize);
            let data = points(&mut rng, n, largest, &reps);
            let refs: Vec<&Transaction> = data.iter().collect();
            let universe = usize::try_from(largest).expect("fits") + 1;
            for theta in THETAS {
                for kind in [
                    SimilarityKind::Jaccard,
                    SimilarityKind::Dice,
                    SimilarityKind::Overlap,
                    SimilarityKind::Cosine,
                ] {
                    let what = format!("seed {seed} largest {largest} θ {theta} {}", kind.name());
                    let oracle: Vec<Option<usize>> = data
                        .iter()
                        .map(|p| label_point(p, &reps, &kind, &MarketBasket, theta))
                        .collect();
                    labeled += oracle.iter().filter(|l| l.is_some()).count();
                    outliers += oracle.iter().filter(|l| l.is_none()).count();
                    check_fit_kernel(&refs, &reps, &kind, theta, &oracle, &what);

                    let snapshot = ModelSnapshot::new(
                        theta,
                        MarketBasket.f(theta),
                        kind,
                        OutlierPolicy::Mark,
                        universe,
                        None,
                        reps.clone(),
                    )
                    .expect("valid snapshot");
                    for threads in THREADS {
                        let got = snapshot.label_chunk(&refs, threads);
                        assert_eq!(got, oracle, "{what}: label_chunk at {threads} threads");
                    }
                    for (p, o) in data.iter().zip(&oracle).step_by(7) {
                        assert_eq!(snapshot.label(p), *o, "{what}: label {:?}", p.items());
                    }
                }
                // No count form: the kernel takes the scalar rule.
                let hamming = HammingRecord::new(6);
                let oracle: Vec<Option<usize>> = data
                    .iter()
                    .map(|p| label_point(p, &reps, &hamming, &MarketBasket, theta))
                    .collect();
                let what = format!("seed {seed} largest {largest} θ {theta} hamming-record");
                check_fit_kernel(&refs, &reps, &hamming, theta, &oracle, &what);
            }
        }
    }
    // The fixture exercises both outcomes, not just one.
    assert!(
        labeled > 1000 && outliers > 1000,
        "{labeled} labeled, {outliers} outliers"
    );
}
