//! Deterministic contiguous sharding of row ranges by estimated work.
//!
//! Every row-sharded kernel (the link kernel, DESIGN.md §13; the
//! inverted-index neighbor join, DESIGN.md §17; labeling, §16) resolves
//! its workers with [`effective_threads`] and partitions its rows into
//! contiguous ranges so each worker writes a disjoint output slice with
//! no synchronization. Balancing by *row count* alone is poor when work
//! per row is skewed (hub rows dominate), so callers supply a per-row
//! work estimate and the boundaries equalize estimated work instead.
//! The partition is a pure function of the weights — never of thread
//! timing — which is one half of the byte-identical-for-any-thread-count
//! guarantee (the other half being that workers only write their own
//! slice).

use crate::cast;

/// Resolves a `threads` request: `0` means auto (one per CPU, capped), and
/// tiny inputs stay single-threaded to avoid spawn overhead. Shared by
/// every row-sharded phase (neighbors, links, labeling) so one knob means
/// the same thing everywhere.
pub(crate) fn effective_threads(requested: usize, n: usize) -> usize {
    // Tiny inputs return before the CPU query: on Linux it reads the
    // cgroup quota files (tens of µs), which a single-point label_chunk
    // call would otherwise pay on every request.
    if n < 256 {
        return 1;
    }
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(16)
    } else {
        requested
    };
    t.min(n)
}

/// Splits `0..weights.len()` into `shards` contiguous ranges balanced by
/// the per-row work estimates. Returns `shards + 1` non-decreasing
/// boundaries starting at 0 and ending at `weights.len()`. Purely a
/// function of the weights, so the partition — and hence each worker's
/// output slice — is deterministic.
pub(crate) fn shard_by_weights(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let shards_u64 = cast::usize_to_u64(shards);
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0);
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        // Cut after row i once this prefix holds its proportional share.
        // rock-analyze: allow(guard-loop) — bounded: every iteration grows bounds.len() toward shards.
        while bounds.len() < shards && acc * shards_u64 >= total * cast::usize_to_u64(bounds.len())
        {
            bounds.push(i + 1);
        }
    }
    // rock-analyze: allow(guard-loop) — bounded: every iteration grows bounds.len() toward shards.
    while bounds.len() < shards {
        bounds.push(n);
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(bounds: &[usize], n: usize, shards: usize) {
        assert_eq!(bounds.len(), shards + 1);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[shards], n);
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1], "non-decreasing boundaries");
        }
        let covered: usize = bounds.windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(4, 100), 1); // tiny input
        assert_eq!(effective_threads(4, 1000), 4);
        assert!(effective_threads(0, 1000) >= 1);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let weights = vec![1u64; 100];
        let bounds = shard_by_weights(&weights, 4);
        check_invariants(&bounds, 100, 4);
        for w in bounds.windows(2) {
            assert_eq!(w[1] - w[0], 25);
        }
    }

    #[test]
    fn skewed_weights_move_the_boundaries() {
        // One heavy row up front: the first shard should hold little else.
        let mut weights = vec![1u64; 64];
        weights[0] = 1_000;
        let bounds = shard_by_weights(&weights, 4);
        check_invariants(&bounds, 64, 4);
        assert!(
            bounds[1] < 16,
            "heavy first row must shrink shard 0, got {bounds:?}"
        );
    }

    #[test]
    fn more_shards_than_rows_yields_empty_tail_ranges() {
        let weights = vec![1u64; 3];
        let bounds = shard_by_weights(&weights, 8);
        check_invariants(&bounds, 3, 8);
    }

    #[test]
    fn empty_input_and_zero_weights() {
        check_invariants(&shard_by_weights(&[], 4), 0, 4);
        check_invariants(&shard_by_weights(&[0, 0, 0], 2), 3, 2);
    }

    #[test]
    fn single_shard_covers_everything() {
        let bounds = shard_by_weights(&[3, 1, 4, 1, 5], 1);
        assert_eq!(bounds, vec![0, 5]);
    }
}
