//! Contiguous, weight-balanced vertex ranges.
//!
//! The graph stores its vertex-indexed state in copy-on-write chunks over
//! contiguous vertex ranges; [`balanced_ranges_by_weight`] cuts the vertex
//! ids into those ranges so every chunk carries about the same weight
//! regardless of degree skew.

use std::ops::Range;

/// Splits `0..n` into at most `parts` contiguous ranges of approximately
/// equal total `weight` (each vertex counts at least 1 so empty vertices
/// still tile). Every returned range is non-empty and the ranges tile
/// `0..n` in ascending order; `n == 0` or `parts == 0` yields no ranges.
pub fn balanced_ranges_by_weight(
    n: u32,
    parts: usize,
    weight: impl Fn(u32) -> usize,
) -> Vec<Range<u32>> {
    if n == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(n as usize);
    let total: usize = (0..n).map(|v| weight(v).max(1)).sum();
    let per_part = total.div_ceil(parts);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0u32;
    let mut acc = 0usize;
    for v in 0..n {
        acc += weight(v).max(1);
        let remaining_parts = parts - ranges.len();
        let remaining_vertices = n - v;
        // Close the range when it is full — or when every remaining
        // vertex is needed to keep later ranges non-empty.
        if acc >= per_part || remaining_vertices <= remaining_parts as u32 {
            if ranges.len() + 1 == parts {
                break; // the last range takes the tail
            }
            ranges.push(start..v + 1);
            start = v + 1;
            acc = 0;
        }
    }
    ranges.push(start..n);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::Graph;

    /// Ranges over `g`'s vertices weighted by extended degree.
    fn by_degree(g: &Graph, parts: usize) -> Vec<Range<u32>> {
        balanced_ranges_by_weight(g.vertex_count(), parts, |v| g.ext_degree(v))
    }

    #[test]
    fn balanced_ranges_cover_and_are_nonempty() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(57, 300, 3, 1));
        for parts in [1, 2, 3, 7, 8, 57, 100] {
            let ranges = by_degree(&g, parts);
            assert!(ranges.len() <= parts);
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, g.vertex_count());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile");
            }
            for r in &ranges {
                assert!(r.start < r.end, "empty range {r:?} for {parts} parts");
            }
        }
    }

    #[test]
    fn balanced_ranges_roughly_balance_degree() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(400, 3_000, 3, 5));
        let ranges = by_degree(&g, 4);
        assert_eq!(ranges.len(), 4);
        let loads: Vec<usize> =
            ranges.iter().map(|r| (r.start..r.end).map(|v| g.ext_degree(v)).sum()).collect();
        let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(*max <= min * 4 + 64, "range loads far apart: {loads:?}");
    }

    #[test]
    fn degenerate_views() {
        assert!(balanced_ranges_by_weight(0, 4, |_| 1).is_empty());
        assert!(balanced_ranges_by_weight(5, 0, |_| 1).is_empty());
        // All-zero weights still tile: each vertex counts at least 1.
        assert_eq!(balanced_ranges_by_weight(4, 2, |_| 0), vec![0..2, 2..4]);
    }
}
