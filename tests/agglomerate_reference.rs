//! The merge engine against a slow reference merge.
//!
//! The reference keeps a dense `n × n` link matrix and, for every merge,
//! scans all live linked pairs for the maximum
//! `(GoodnessOrd(merge_goodness(c, n_a, n_b)), Reverse(a), Reverse(b))` —
//! the paper's merge order with its deterministic tie-break, with none of
//! the engine's heap bookkeeping. Fold, outlier pruning and the criterion
//! are written out the same way the engine does them, so the two must
//! agree bit for bit: every `MergeStep` (goodness and criterion compared
//! with `to_bits`), the clusters, the outliers and `reached_k`, over a
//! seed loop of similarity measures, θ values, pruning, goodness floors
//! and step budgets.

use std::cmp::Reverse;

use rock::core::agglomerate::{agglomerate_guarded, GoodnessOrd};
use rock::core::rng::Rng;
use rock::datasets::synthetic::BlockModel;
use rock::prelude::*;

/// Result of the reference merge, in the engine's output conventions.
struct Reference {
    history: Vec<MergeStep>,
    clusters: Vec<Vec<u32>>,
    outliers: Vec<u32>,
    reached_k: bool,
}

fn reference(
    n: usize,
    links: &LinkTable,
    good: &Goodness,
    cfg: &AgglomerateConfig,
    steps: Option<usize>,
) -> Reference {
    let mut link = vec![vec![0u64; n]; n];
    for (i, j, c) in links.iter() {
        link[i as usize][j as usize] = u64::from(c);
        link[j as usize][i as usize] = u64::from(c);
    }
    let mut members: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
    let mut internal = vec![0u64; n];
    let (mut history, mut outliers) = (Vec::new(), Vec::new());
    let criterion = |members: &[Vec<u32>], internal: &[u64]| -> f64 {
        (0..n)
            .filter(|&i| !members[i].is_empty())
            .map(|i| good.criterion_term(internal[i], members[i].len()))
            .sum()
    };
    let best = |members: &[Vec<u32>], link: &[Vec<u64>]| {
        let live: Vec<usize> = (0..n).filter(|&a| !members[a].is_empty()).collect();
        let mut best = None;
        for &a in &live {
            for &b in live.iter().filter(|&&b| b != a && link[a][b] > 0) {
                let g = good.merge_goodness(link[a][b], members[a].len(), members[b].len());
                best = best.max(Some((GoodnessOrd::new(g), Reverse(a), Reverse(b))));
            }
        }
        best
    };
    let checkpoint = cfg.prune.map(|p| {
        let at = (p.checkpoint_fraction * n as f64).ceil() as usize;
        (at.clamp(cfg.k, n), p.max_prune_size)
    });
    let mut pruned = checkpoint.is_none();
    let mut active = n;
    while active > cfg.k {
        if let Some((_, max_size)) = checkpoint.filter(|&(at, _)| !pruned && active <= at) {
            pruned = true;
            let victims: Vec<usize> = (0..n)
                .filter(|&s| !members[s].is_empty() && members[s].len() <= max_size)
                .collect();
            if victims.len() < active {
                for s in victims {
                    outliers.append(&mut members[s]);
                    internal[s] = 0;
                    link[s].fill(0);
                    link.iter_mut().for_each(|row| row[s] = 0);
                    active -= 1;
                }
            }
            if active <= cfg.k {
                break;
            }
        }
        let found = best(&members, &link);
        if let Some(floor) = cfg.min_goodness {
            if found.is_none_or(|(g, _, _)| g.get() < floor) {
                break;
            }
        }
        if steps.is_some_and(|s| history.len() == s) {
            break;
        }
        let Some((g, Reverse(u), Reverse(v))) = found else {
            break;
        };
        let sizes = (members[u].len() as u32, members[v].len() as u32);
        let moved = std::mem::take(&mut members[v]);
        members[u].extend(moved);
        internal[u] += internal[v] + 2 * link[u][v];
        internal[v] = 0;
        for x in (0..n).filter(|&x| x != u && x != v) {
            link[u][x] += link[v][x];
            link[x][u] = link[u][x];
        }
        link[v].fill(0);
        link.iter_mut().for_each(|row| row[v] = 0);
        active -= 1;
        history.push(MergeStep {
            kept: u as u32,
            absorbed: v as u32,
            goodness: g.get(),
            sizes,
            criterion: criterion(&members, &internal),
        });
    }
    let mut clusters: Vec<Vec<u32>> = members.into_iter().filter(|m| !m.is_empty()).collect();
    clusters.iter_mut().for_each(|m| m.sort_unstable());
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    outliers.sort_unstable();
    Reference {
        history,
        clusters,
        outliers,
        reached_k: active == cfg.k,
    }
}

fn neighbors(data: &TransactionSet, measure: usize, theta: f64) -> NeighborGraph {
    match measure {
        0 => NeighborGraph::compute(data, &Jaccard, theta, 1),
        1 => NeighborGraph::compute(data, &Cosine, theta, 1),
        2 => NeighborGraph::compute(data, &Dice, theta, 1),
        _ => NeighborGraph::compute(data, &Overlap, theta, 1),
    }
    .unwrap()
}

/// Planted blocks (many exact goodness ties among singletons) or, every
/// third seed, unstructured baskets over a small item universe.
fn dataset(rng: &mut Rng, seed: u64) -> TransactionSet {
    if seed % 3 == 2 {
        let n = rng.gen_range(40..=160usize);
        let rows = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=6usize);
                Transaction::new((0..len).map(|_| rng.gen_range(0..24u64) as u32))
            })
            .collect();
        return TransactionSet::new(rows, 24);
    }
    let blocks = rng.gen_range(2..=5usize);
    let per_block = rng.gen_range(8..=240 / blocks);
    BlockModel::symmetric(blocks, per_block, 10, 0.6, 0.05)
        .seed(seed)
        .generate()
        .0
}

fn assert_same(engine: &Agglomeration, reference: &Reference, case: &str) {
    assert_eq!(engine.history.len(), reference.history.len(), "{case}");
    for (step, (e, r)) in engine.history.iter().zip(&reference.history).enumerate() {
        let bits = |s: &MergeStep| {
            let MergeStep {
                kept,
                absorbed,
                goodness,
                sizes,
                criterion,
            } = *s;
            (
                kept,
                absorbed,
                goodness.to_bits(),
                sizes,
                criterion.to_bits(),
            )
        };
        assert_eq!(bits(e), bits(r), "{case}, merge {step}");
    }
    assert_eq!(engine.merges, reference.history.len(), "{case}");
    assert_eq!(engine.clusters, reference.clusters, "{case}");
    assert_eq!(engine.outliers, reference.outliers, "{case}");
    assert_eq!(engine.reached_k, reference.reached_k, "{case}");
}

#[test]
fn engine_matches_reference_merge_bit_for_bit() {
    const THETAS: [f64; 5] = [0.2, 0.35, 0.5, 0.65, 0.8];
    let (mut compared_merges, mut pruning_runs) = (0, 0);
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let data = dataset(&mut rng, seed);
        let n = data.len();
        let measure = (seed % 4) as usize;
        let theta = THETAS[rng.gen_range(0..THETAS.len())];
        let links = LinkTable::compute(&neighbors(&data, measure, theta));
        let good = Goodness::new(theta, &MarketBasket).unwrap();
        let k = rng.gen_range(1..=6usize.min(n));
        let plain = AgglomerateConfig::new(k);
        let full = reference(n, &links, &good, &plain, None);
        let pruned = AgglomerateConfig {
            prune: Some(PruneConfig {
                checkpoint_fraction: rng.gen_range(0.2..0.6),
                max_prune_size: rng.gen_range(1..=3usize),
            }),
            ..plain.clone()
        };
        // A floor halfway through the unconstrained run's merge goodness.
        let floor = full.history.get(full.history.len() / 2).map(|s| s.goodness);
        let floored = floor.map_or(plain.clone(), |f| plain.clone().min_goodness(f));
        let budget = rng.gen_range(0..=n / 2);
        let cases = [
            ("plain", &plain, None),
            ("pruned", &pruned, None),
            ("floor", &floored, None),
            ("budget", &plain, Some(budget)),
            ("pruned+budget", &pruned, Some(budget)),
        ];
        for (name, cfg, steps) in cases {
            let case = format!("seed {seed} ({name}, n {n}, measure {measure}, theta {theta})");
            let guard = match steps {
                Some(s) => Guard::new(RunBudget::unlimited().steps(s as u64)),
                None => Guard::unlimited(),
            };
            let (engine, _) =
                agglomerate_guarded(n, &links, &good, cfg, &Observer::new(), &guard).unwrap();
            let expected = reference(n, &links, &good, cfg, steps);
            assert_same(&engine, &expected, &case);
            compared_merges += expected.history.len();
            pruning_runs += usize::from(!expected.outliers.is_empty());
        }
    }
    // The loop must actually exercise the merge order and the pruning.
    assert!(compared_merges > 5_000, "only {compared_merges} merges");
    assert!(
        pruning_runs > 10,
        "only {pruning_runs} runs pruned outliers"
    );
}
