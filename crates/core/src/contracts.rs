//! Runtime invariant contracts for the pipeline's phase boundaries.
//!
//! This module is the runtime twin of the `rock-analyze` static pass
//! (`crates/analysis`): the lint pass proves *textual* discipline (no
//! unchecked casts, no raw float orderings), while these contracts check
//! the *numeric* invariants the paper's correctness argument rests on —
//! at every one of the six phase boundaries of
//! [`fit`](crate::rock::Rock::fit):
//!
//! | phase boundary | contract |
//! |----------------|----------|
//! | sample         | [`check_sample`] — indices in range, strictly increasing |
//! | neighbors      | [`check_neighbor_graph`] — symmetric, sorted, no self-loops |
//! | outliers       | [`check_outlier_split`] — kept/filtered partition the sample |
//! | links          | [`check_link_table`] — upper-triangle, sorted, positive counts |
//! | agglomerate    | [`check_agglomeration`] — clusters ↔ assignment agree, criterion finite |
//! | labeling       | [`check_partition`] — every point labeled or an outlier, never both |
//!
//! All checks are `debug_assert!`-class: they run under `cargo test` and
//! debug builds (where every seed-loop and pipeline test exercises them)
//! and compile to nothing in release, so the serving hot path pays zero
//! cost. Violations indicate a bug in `rock-core` itself, never bad user
//! input — user input is validated with typed [`RockError`]s instead.
//!
//! [`RockError`]: crate::error::RockError

use crate::agglomerate::Agglomeration;
use crate::data::ClusterId;
use crate::links::LinkTable;
use crate::neighbors::NeighborGraph;

/// Checks a drawn sample: every index in `0..n`, strictly increasing
/// (which also proves distinctness).
#[inline]
pub fn check_sample(sample: &[usize], n: usize) {
    if cfg!(debug_assertions) {
        debug_assert!(
            sample.windows(2).all(|w| w[0] < w[1]),
            "sample indices must be strictly increasing"
        );
        debug_assert!(
            sample.last().is_none_or(|&last| last < n),
            "sample index out of range (n = {n})"
        );
    }
}

/// Checks the neighbor graph: lists sorted and self-loop free, and every
/// edge symmetric (`j ∈ N(i) ⇔ i ∈ N(j)` — similarity is symmetric, so
/// an asymmetric graph means a parallel fill went wrong).
#[inline]
pub fn check_neighbor_graph(graph: &NeighborGraph) {
    if cfg!(debug_assertions) {
        for (i, list) in graph.iter().enumerate() {
            let i32b = crate::cast::usize_to_u32(i);
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "neighbor list {i} not strictly sorted"
            );
            debug_assert!(!list.contains(&i32b), "self-loop on point {i}");
            for &j in list {
                let back = graph.neighbors(crate::cast::u32_to_usize(j));
                debug_assert!(
                    back.binary_search(&i32b).is_ok(),
                    "neighbor edge {i} -> {j} has no reverse edge"
                );
            }
        }
    }
}

/// Checks the outlier split: `kept` and `filtered` are each strictly
/// increasing, disjoint, and together cover exactly `0..sample_len`.
#[inline]
pub fn check_outlier_split(kept: &[usize], filtered: &[usize], sample_len: usize) {
    if cfg!(debug_assertions) {
        debug_assert!(kept.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(filtered.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(
            kept.len() + filtered.len(),
            sample_len,
            "outlier split must cover the sample"
        );
        let mut merged: Vec<usize> = kept.iter().chain(filtered).copied().collect();
        merged.sort_unstable();
        debug_assert!(
            merged.iter().copied().eq(0..sample_len),
            "outlier split must partition 0..{sample_len}"
        );
    }
}

/// Checks the link table: rows are upper-triangle (`j > i`), sorted, in
/// range, with strictly positive counts. Together with the construction
/// (each row stores the pair once) this is link symmetry: `link(i, j)`
/// and `link(j, i)` read the same entry.
#[inline]
pub fn check_link_table(links: &LinkTable) {
    if cfg!(debug_assertions) {
        let n = crate::cast::usize_to_u32(links.len());
        for i in 0..links.len() {
            let row = links.row(i);
            let iu = crate::cast::usize_to_u32(i);
            debug_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "link row {i} not strictly sorted"
            );
            for &(j, c) in row {
                debug_assert!(j > iu, "link entry ({i}, {j}) below the diagonal");
                debug_assert!(j < n, "link entry ({i}, {j}) out of range");
                debug_assert!(c > 0, "stored link count ({i}, {j}) must be positive");
            }
        }
    }
}

/// Checks a finished agglomeration: cluster member lists are sorted and
/// disjoint, the assignment vector points each member at its cluster,
/// outliers are unassigned, and the criterion value is finite.
#[inline]
pub fn check_agglomeration(agg: &Agglomeration) {
    if cfg!(debug_assertions) {
        debug_assert!(
            agg.criterion.is_finite(),
            "criterion E_l must stay finite (got {})",
            agg.criterion
        );
        for step in &agg.history {
            debug_assert!(
                step.goodness.is_finite(),
                "merge goodness must stay finite (got {})",
                step.goodness
            );
        }
        for (c, members) in agg.clusters.iter().enumerate() {
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
            let cid = crate::cast::usize_to_u32(c);
            for &p in members {
                debug_assert_eq!(
                    agg.assignment[crate::cast::u32_to_usize(p)],
                    Some(cid),
                    "member {p} of cluster {c} not assigned to it"
                );
            }
        }
        for &p in &agg.outliers {
            debug_assert!(
                agg.assignment[crate::cast::u32_to_usize(p)].is_none(),
                "pruned outlier {p} still assigned"
            );
        }
        let assigned = agg.assignment.iter().filter(|a| a.is_some()).count();
        let member_total: usize = agg.clusters.iter().map(Vec::len).sum();
        debug_assert_eq!(assigned, member_total, "assignment/cluster totals differ");
    }
}

/// Checks label-partition totality after the labeling phase: every point
/// is either assigned to a cluster or listed as an outlier — never both,
/// never neither — and the outlier list is sorted and duplicate-free.
#[inline]
pub fn check_partition(assignments: &[Option<ClusterId>], outliers: &[u32]) {
    if cfg!(debug_assertions) {
        debug_assert!(
            outliers.windows(2).all(|w| w[0] < w[1]),
            "outlier list must be strictly increasing"
        );
        let mut next_outlier = outliers.iter().peekable();
        for (i, a) in assignments.iter().enumerate() {
            let is_outlier = next_outlier
                .peek()
                .is_some_and(|&&o| crate::cast::u32_to_usize(o) == i);
            if is_outlier {
                next_outlier.next();
            }
            debug_assert!(
                a.is_some() != is_outlier,
                "point {i} must be exactly one of labeled/outlier (assigned: {}, outlier: {is_outlier})",
                a.is_some()
            );
        }
        debug_assert!(
            next_outlier.peek().is_none(),
            "outlier index beyond the assignment range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Transaction, TransactionSet};
    use crate::similarity::Jaccard;

    fn small_graph() -> NeighborGraph {
        let data: TransactionSet = vec![
            Transaction::new([0, 1, 2]),
            Transaction::new([0, 1, 3]),
            Transaction::new([0, 2, 3]),
        ]
        .into_iter()
        .collect();
        NeighborGraph::compute(&data, &Jaccard, 0.4, 1).unwrap()
    }

    #[test]
    fn healthy_structures_pass() {
        let g = small_graph();
        check_neighbor_graph(&g);
        let links = LinkTable::compute(&g);
        check_link_table(&links);
        check_sample(&[0, 2, 5], 6);
        check_outlier_split(&[0, 2], &[1], 3);
        check_partition(&[Some(ClusterId(0)), None, Some(ClusterId(0))], &[1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    #[cfg(debug_assertions)]
    fn unsorted_sample_is_rejected() {
        check_sample(&[3, 1], 5);
    }

    #[test]
    #[should_panic(expected = "exactly one of labeled/outlier")]
    #[cfg(debug_assertions)]
    fn double_booked_point_is_rejected() {
        // Point 0 is both assigned and an outlier.
        check_partition(&[Some(ClusterId(0))], &[0]);
    }

    #[test]
    #[should_panic(expected = "partition")]
    #[cfg(debug_assertions)]
    fn leaky_outlier_split_is_rejected() {
        check_outlier_split(&[0, 1], &[3], 3);
    }
}
