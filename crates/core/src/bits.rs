//! Bit rows over `u64` words: the set-bit and `AND` + popcount primitive
//! behind the labeling index (DESIGN.md §16) and the neighbor join's
//! dense verification (§17). For rows of two item sets, `and_count` is
//! exactly `|A ∩ B|`.

use crate::cast;

/// Sets bit `i` of `row`. The caller guarantees `i < 64 * row.len()`.
#[inline]
pub(crate) fn set(row: &mut [u64], i: usize) {
    row[i / 64] |= 1u64 << (i % 64);
}

/// Number of bits set in both `a` and `b` (over the shorter row).
#[inline]
pub(crate) fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| cast::u32_to_usize((x & y).count_ones()))
        .sum()
}
