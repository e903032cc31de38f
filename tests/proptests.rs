//! Randomized invariant tests on the core data structures of the
//! clustering pipeline. Each test sweeps a fixed set of seeds through the
//! vendored [`rock::core::rng::Rng`], generating arbitrary inputs and
//! checking properties that must hold for *every* input — the offline,
//! dependency-free replacement for the original proptest suite. Failures
//! print the seed so a case can be replayed by hand.

use rock::core::agglomerate::{agglomerate, AgglomerateConfig};
use rock::core::components::connected_components;
use rock::core::export::{read_assignments, write_assignments};
use rock::core::metrics::{hungarian_max, ContingencyTable};
use rock::core::rng::Rng;
use rock::core::summary::ClusterSummary;
use rock::prelude::*;

/// Seeds swept by every test; each seed is one independent random case.
const CASES: u64 = 64;

fn arb_transaction(rng: &mut Rng, universe: u32, max_len: usize) -> Transaction {
    let len = rng.gen_range(0..=max_len);
    let items: Vec<u32> = (0..len)
        .map(|_| rng.gen_range(0..universe as u64) as u32)
        .collect();
    Transaction::new(items)
}

fn arb_dataset(rng: &mut Rng, max_n: usize, universe: u32, max_len: usize) -> TransactionSet {
    let n = rng.gen_range(1..=max_n);
    let rows: Vec<Transaction> = (0..n)
        .map(|_| arb_transaction(rng, universe, max_len))
        .collect();
    TransactionSet::new(rows, universe as usize)
}

// ── Transactions & similarity ──────────────────────────────────────────

#[test]
fn intersection_is_bounded_and_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = arb_transaction(&mut rng, 40, 15);
        let b = arb_transaction(&mut rng, 40, 15);
        let ab = a.intersection_len(&b);
        assert_eq!(ab, b.intersection_len(&a), "seed {seed}");
        assert!(ab <= a.len().min(b.len()), "seed {seed}");
        assert_eq!(a.union_len(&b) + ab, a.len() + b.len(), "seed {seed}");
    }
}

#[test]
fn jaccard_properties() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let a = arb_transaction(&mut rng, 30, 12);
        let b = arb_transaction(&mut rng, 30, 12);
        let s = Jaccard.sim(&a, &b);
        assert!((0.0..=1.0).contains(&s), "seed {seed}");
        assert_eq!(s, Jaccard.sim(&b, &a), "seed {seed}");
        assert_eq!(Jaccard.sim(&a, &a), 1.0, "seed {seed}");
        // Dice dominates Jaccard: both rank pairs identically.
        let d = Dice.sim(&a, &b);
        assert!(d >= s || (d - s).abs() < 1e-12, "seed {seed}");
    }
}

// ── Neighbor graph ─────────────────────────────────────────────────────

#[test]
fn neighbor_graph_is_symmetric_and_loopless() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 30, 25, 8);
        let theta = rng.gen_range(0.05..0.95);
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        for i in 0..g.len() {
            assert!(!g.neighbors(i).contains(&(i as u32)), "seed {seed}");
            for &j in g.neighbors(i) {
                assert!(
                    g.neighbors(j as usize).contains(&(i as u32)),
                    "seed {seed}: edge {i}-{j} not symmetric"
                );
            }
        }
    }
}

#[test]
fn higher_theta_never_adds_neighbors() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 25, 20, 8);
        let theta = rng.gen_range(0.1..0.8);
        let lo = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let hi = NeighborGraph::compute(&data, &Jaccard, theta + 0.1, 1).unwrap();
        for i in 0..lo.len() {
            assert!(hi.degree(i) <= lo.degree(i), "seed {seed}");
        }
    }
}

// ── Links ──────────────────────────────────────────────────────────────

#[test]
fn links_match_bruteforce() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 25, 20, 8);
        let theta = rng.gen_range(0.1..0.9);
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let links = LinkTable::compute(&g);
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                let expected = g
                    .neighbors(i)
                    .iter()
                    .filter(|x| g.neighbors(j).contains(x))
                    .count() as u32;
                assert_eq!(links.link(i, j), expected, "seed {seed}: pair {i},{j}");
            }
        }
    }
}

#[test]
fn parallel_links_are_byte_identical_to_sequential() {
    // The sharded kernel must be a pure optimization: same rows, same
    // order, same counts for every thread count (DESIGN.md §13). Sizes
    // start above the tiny-input cutoff so the parallel path really runs.
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(260..400usize);
        let rows: Vec<Transaction> = (0..n).map(|_| arb_transaction(&mut rng, 30, 8)).collect();
        let data = TransactionSet::new(rows, 30);
        let theta = rng.gen_range(0.1..0.9);
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let sequential = LinkTable::compute_observed(&g, 1, &Observer::new());
        for threads in [2usize, 4, 8] {
            let parallel = LinkTable::compute_observed(&g, threads, &Observer::new());
            assert_eq!(parallel, sequential, "seed {seed}, threads {threads}");
        }
    }
}

// ── Agglomeration invariants ───────────────────────────────────────────

#[test]
fn agglomeration_partitions_points() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 30, 15, 6);
        let theta = rng.gen_range(0.2..0.8);
        let n = data.len();
        let k = rng.gen_range(1..5usize);
        if k > n {
            continue;
        }
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(theta, &MarketBasket).unwrap();
        let out = agglomerate(n, &links, &good, &AgglomerateConfig::new(k)).unwrap();
        // Clusters form a partition of all n points (no pruning here).
        let mut seen = vec![false; n];
        for members in &out.clusters {
            for &p in members {
                assert!(!seen[p as usize], "seed {seed}: point {p} twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "seed {seed}");
        // At least k clusters (early stop allowed), never fewer.
        assert!(out.clusters.len() >= k, "seed {seed}");
        if out.reached_k {
            assert_eq!(out.clusters.len(), k, "seed {seed}");
        }
        // Merge history consistent with cluster count.
        assert_eq!(out.merges, n - out.clusters.len(), "seed {seed}");
    }
}

#[test]
fn merge_goodness_is_positive_and_monotone_in_links() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let links = rng.gen_range(1..1000u64);
        let ni = rng.gen_range(1..100usize);
        let nj = rng.gen_range(1..100usize);
        let theta = rng.gen_range(0.1..0.9);
        let g = Goodness::new(theta, &MarketBasket).unwrap();
        let a = g.merge_goodness(links, ni, nj);
        let b = g.merge_goodness(links + 1, ni, nj);
        assert!(a > 0.0, "seed {seed}");
        assert!(b > a, "seed {seed}");
        // Symmetric in the cluster sizes (up to fp rounding: the
        // denominator subtracts E(ni) and E(nj) in swapped order).
        let swapped = g.merge_goodness(links, nj, ni);
        assert!(
            (a - swapped).abs() <= 1e-9 * a.abs().max(1.0),
            "seed {seed}"
        );
    }
}

// ── Metrics ────────────────────────────────────────────────────────────

#[test]
fn accuracy_invariant_to_cluster_relabeling() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(4..40usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3u64) as usize).collect();
        let preds: Vec<Option<u32>> = (0..n)
            .map(|_| Some(rng.gen_range(0..3u64) as u32))
            .collect();
        // Permute cluster ids 0→2, 1→0, 2→1.
        let permuted: Vec<Option<u32>> = preds.iter().map(|p| p.map(|c| (c + 2) % 3)).collect();
        let a = ContingencyTable::new(&preds, &labels).unwrap();
        let b = ContingencyTable::new(&permuted, &labels).unwrap();
        assert!(
            (a.matched_accuracy() - b.matched_accuracy()).abs() < 1e-12,
            "seed {seed}"
        );
        assert!(
            (a.adjusted_rand_index() - b.adjusted_rand_index()).abs() < 1e-9,
            "seed {seed}"
        );
        assert!((a.nmi() - b.nmi()).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn hungarian_beats_greedy() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let profit: Vec<Vec<i64>> = (0..4)
            .map(|_| (0..4).map(|_| rng.gen_range(0..50u64) as i64).collect())
            .collect();
        let assign = hungarian_max(&profit);
        let total: i64 = assign.iter().enumerate().map(|(i, &j)| profit[i][j]).sum();
        // Greedy row-by-row baseline.
        let mut used = [false; 4];
        let mut greedy = 0i64;
        for row in &profit {
            let (j, v) = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| !used[j])
                .max_by_key(|&(_, v)| *v)
                .unwrap();
            used[j] = true;
            greedy += v;
        }
        assert!(total >= greedy, "seed {seed}");
        // Assignment is a permutation.
        let mut sorted = assign.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "seed {seed}");
    }
}

#[test]
fn purity_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..30usize);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..4u64) as usize).collect();
        let preds: Vec<Option<u32>> = labels.iter().map(|&l| Some(l as u32)).collect();
        let t = ContingencyTable::new(&preds, &labels).unwrap();
        // Predicting the truth exactly is perfect under every measure.
        assert_eq!(t.purity(), 1.0, "seed {seed}");
        assert_eq!(t.matched_accuracy(), 1.0, "seed {seed}");
        assert!(t.nmi() > 0.999, "seed {seed}");
    }
}

// ── Sampling ───────────────────────────────────────────────────────────

#[test]
fn sample_indices_are_valid() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(1..500usize);
        let frac = rng.gen_range(0.01..1.0);
        let size = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        let mut sample_rng = seeded_rng(seed);
        let s = sample_indices(n, size, &mut sample_rng).unwrap();
        assert_eq!(s.len(), size, "seed {seed}");
        assert!(s.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        assert!(s.iter().all(|&i| i < n), "seed {seed}");
    }
}

#[test]
fn chernoff_bound_monotonicity() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(100..10_000usize);
        let u_frac = rng.gen_range(0.05..0.5);
        let u = ((n as f64 * u_frac) as usize).max(1);
        let loose = chernoff_sample_size(n, u, 0.25, 0.1).unwrap();
        let tight = chernoff_sample_size(n, u, 0.25, 0.01).unwrap();
        assert!(tight >= loose, "seed {seed}");
        assert!(loose <= n, "seed {seed}");
    }
}

// ── Extension modules ──────────────────────────────────────────────────

#[test]
fn export_roundtrips_arbitrary_assignments() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(0..200usize);
        let assignments: Vec<Option<ClusterId>> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Some(ClusterId(rng.gen_range(0..50u64) as u32))
                } else {
                    None
                }
            })
            .collect();
        let mut buf = Vec::new();
        write_assignments(&mut buf, &assignments).unwrap();
        let back = read_assignments(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, assignments, "seed {seed}");
    }
}

#[test]
fn components_partition_all_points() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 40, 20, 8);
        let theta = rng.gen_range(0.1..0.9);
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, data.len(), "seed {seed}");
        let mut seen = vec![false; data.len()];
        for c in &comps {
            for &p in c {
                assert!(!seen[p as usize], "seed {seed}");
                seen[p as usize] = true;
            }
        }
        // Size-sorted.
        assert!(
            comps.windows(2).all(|w| w[0].len() >= w[1].len()),
            "seed {seed}"
        );
        // No edge may cross components.
        let mut comp_of = vec![0usize; data.len()];
        for (ci, c) in comps.iter().enumerate() {
            for &p in c {
                comp_of[p as usize] = ci;
            }
        }
        for i in 0..data.len() {
            for &j in g.neighbors(i) {
                assert_eq!(comp_of[i], comp_of[j as usize], "seed {seed}");
            }
        }
    }
}

#[test]
fn dendrogram_cuts_are_nested_partitions() {
    // Fewer cases: the nested-partition check is O(n²) per cut level.
    for seed in 0..CASES / 2 {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 25, 15, 6);
        let theta = rng.gen_range(0.2..0.7);
        let n = data.len();
        let g = NeighborGraph::compute(&data, &Jaccard, theta, 1).unwrap();
        let links = LinkTable::compute(&g);
        let good = Goodness::new(theta, &MarketBasket).unwrap();
        let out = agglomerate(n, &links, &good, &AgglomerateConfig::new(1)).unwrap();
        let d = Dendrogram::new(n, out.history);
        let floor = d.min_clusters();
        // Every cut is a partition, and coarser cuts refine into finer ones.
        let mut prev: Option<Vec<u32>> = None;
        for k in floor..=n {
            let assign = d.cut_assignments(k).unwrap();
            assert_eq!(assign.len(), n, "seed {seed}");
            if let Some(coarser) = &prev {
                // k-1 (previous iteration, coarser) must be a merge of k's
                // clusters: same coarse cluster whenever same fine cluster.
                for a in 0..n {
                    for b in (a + 1)..n {
                        if assign[a] == assign[b] {
                            assert_eq!(coarser[a], coarser[b], "seed {seed}");
                        }
                    }
                }
            }
            prev = Some(assign);
        }
    }
}

#[test]
fn summaries_supports_are_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let data = arb_dataset(&mut rng, 30, 12, 6);
        let n = data.len();
        if n < 2 {
            continue;
        }
        let split = rng.gen_range(1..n);
        let members: Vec<u32> = (0..split as u32).collect();
        let s = ClusterSummary::compute(&data, &members, 0.0);
        assert_eq!(s.size, split, "seed {seed}");
        for item in &s.items {
            assert!(item.count >= 1 && item.count <= split, "seed {seed}");
            assert!(
                (item.support - item.count as f64 / split as f64).abs() < 1e-12,
                "seed {seed}"
            );
        }
        // Sorted by decreasing support.
        assert!(
            s.items.windows(2).all(|w| w[0].support >= w[1].support),
            "seed {seed}"
        );
    }
}
