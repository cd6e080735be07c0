//! Source-target vertex pairs packed into a single machine word.

use crate::graph::VertexId;
use std::fmt;

/// An s-t vertex pair `(v, u)` packed as `v << 32 | u`.
///
/// The packing makes pair sets flat sorted `Vec<Pair>`s: sorting orders by
/// source first, then target, which is exactly what the index's sorted-merge
/// operators (Sec. IV-D) need. The type is `#[repr(transparent)]` over `u64`
/// so vectors of pairs have no overhead versus raw words.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Pair(pub u64);

impl Pair {
    /// Packs `(v, u)`.
    #[inline]
    pub fn new(v: VertexId, u: VertexId) -> Self {
        Pair(((v as u64) << 32) | u as u64)
    }

    /// The source vertex `v`.
    #[inline]
    pub fn src(self) -> VertexId {
        (self.0 >> 32) as u32
    }

    /// The target vertex `u`.
    #[inline]
    pub fn dst(self) -> VertexId {
        self.0 as u32
    }

    /// Whether the pair is cyclic (`v = u`), the paper's Def. 4.1 cond. 1.
    #[inline]
    pub fn is_loop(self) -> bool {
        self.src() == self.dst()
    }

    /// The reversed pair `(u, v)`.
    #[inline]
    pub fn swap(self) -> Pair {
        Pair::new(self.dst(), self.src())
    }
}

impl fmt::Debug for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.src(), self.dst())
    }
}

/// Sorts and deduplicates a pair vector in place (set normalization).
pub fn normalize(pairs: &mut Vec<Pair>) {
    sort_pairs(pairs);
    pairs.dedup();
}

/// Below this many pairs a comparison sort wins: the radix passes' fixed
/// costs (histograms, scratch buffer) are not yet amortized.
const RADIX_MIN_LEN: usize = 2048;

/// Widest radix digit: 2¹² counters and as many write streams per pass
/// still stay cache-resident.
const RADIX_DIGIT_BITS: u32 = 12;

/// Most radix passes worth making: a fourth (keys over 36 bits wide) lost
/// to the comparison sort at every length measured.
const RADIX_MAX_PASSES: u32 = 3;

/// Sorts pairs ascending (source-major) — the sort behind [`normalize`],
/// for callers whose input is already duplicate-free.
///
/// Pair sets drawn from one graph differ only in the low bits of their
/// sources and targets (vertex ids are dense), so large inputs take an LSD
/// radix sort over just those bits: one sweep finds which bits vary (and
/// returns at once on sorted input), the varying source and target bits
/// are read as one compact key, and that key is sorted in
/// `⌈width / 12⌉` stable counting passes. The choice is made from what the
/// input shows: short inputs, and keys so wide that the passes would cost
/// more than a comparison sort's `log₂ n` levels (measured: a pass is
/// worth about five levels, and more than three never pay), go to
/// `sort_unstable`.
pub fn sort_pairs(pairs: &mut [Pair]) {
    let n = pairs.len();
    if !(RADIX_MIN_LEN..=u32::MAX as usize).contains(&n) {
        return pairs.sort_unstable();
    }
    let first = pairs[0].0;
    let (mut varying, mut sorted, mut prev) = (0u64, true, first);
    for p in pairs.iter() {
        varying |= p.0 ^ first;
        sorted &= prev <= p.0;
        prev = p.0;
    }
    if sorted {
        return;
    }
    // Compact key: the varying low bits of the source above those of the
    // target. Every higher bit is shared, so key order is pair order.
    let dst_bits = 32 - (varying as u32).leading_zeros();
    let src_bits = 32 - ((varying >> 32) as u32).leading_zeros();
    let width = src_bits + dst_bits;
    let passes = width.div_ceil(RADIX_DIGIT_BITS);
    if passes > RADIX_MAX_PASSES || 5 * passes >= n.ilog2() {
        return pairs.sort_unstable();
    }
    let (dst_mask, src_mask) = ((1u64 << dst_bits) - 1, (1u64 << src_bits) - 1);
    let key = |p: Pair| ((p.0 >> 32) & src_mask) << dst_bits | (p.0 & dst_mask);
    let digit_bits = width.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let digit = |p: Pair, pass: u32| (key(p) >> (pass * digit_bits)) as usize & (buckets - 1);

    let mut scratch = vec![Pair(0); n];
    let (mut from, mut to): (&mut [Pair], &mut [Pair]) = (pairs, &mut scratch);
    for pass in 0..passes {
        // Histogram, turned into bucket start offsets, then a stable scatter.
        let mut starts = [0u32; 1 << RADIX_DIGIT_BITS];
        for &p in from.iter() {
            starts[digit(p, pass)] += 1;
        }
        let mut at = 0u32;
        for slot in &mut starts[..buckets] {
            at += std::mem::replace(slot, at);
        }
        for &p in from.iter() {
            let slot = &mut starts[digit(p, pass)];
            to[*slot as usize] = p;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    // `from` holds the result; after an odd pass count that is the scratch.
    if passes % 2 == 1 {
        to.copy_from_slice(from);
    }
}

/// Size-ratio threshold past which [`intersect_sorted`] switches from the
/// linear merge to the galloping search: with `|small| · 16 < |large|` the
/// `O(|small| · log |large|)` gallop beats walking the large side.
pub const GALLOP_RATIO: usize = 16;

/// Intersects two sorted, deduplicated slices (pairs, class ids — any
/// ordered element type).
///
/// Dispatches on the size ratio: balanced inputs take the linear
/// sorted-merge, skewed inputs (one side ≥ 16× the other) the galloping
/// variant [`intersect_gallop`] so the cost tracks the *smaller* operand.
pub fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    if a.len().saturating_mul(GALLOP_RATIO) < b.len() {
        return intersect_gallop(a, b, out);
    }
    if b.len().saturating_mul(GALLOP_RATIO) < a.len() {
        return intersect_gallop(b, a, out);
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential-search) intersection of two sorted deduplicated
/// slices: for each element of `small`, gallop forward in `large` —
/// doubling steps to bracket the element, then a binary search inside the
/// bracket. `O(|small| · log |large|)`, the right shape when one operand
/// dwarfs the other (skewed label frequencies, tiny class sets against
/// huge relations).
pub fn intersect_gallop<T: Ord + Copy>(small: &[T], large: &[T], out: &mut Vec<T>) {
    let mut lo = 0usize;
    for &x in small {
        if lo >= large.len() {
            break;
        }
        // Bracket: after the loop the first element >= x lies in
        // large[lo ..= lo + step].
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < x {
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        let at = lo + large[lo..hi].partition_point(|&y| y < x);
        if at < large.len() && large[at] == x {
            out.push(x);
            lo = at + 1;
        } else {
            lo = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_roundtrip() {
        let p = Pair::new(0xDEAD_BEEF, 0x0042_4242);
        assert_eq!(p.src(), 0xDEAD_BEEF);
        assert_eq!(p.dst(), 0x0042_4242);
        assert!(!p.is_loop());
        assert!(Pair::new(3, 3).is_loop());
        assert_eq!(p.swap().src(), p.dst());
    }

    #[test]
    fn ordering_is_source_major() {
        let a = Pair::new(1, 9);
        let b = Pair::new(2, 0);
        assert!(a < b);
        let c = Pair::new(1, 10);
        assert!(a < c);
    }

    #[test]
    fn normalize_dedups() {
        let mut v = vec![Pair::new(2, 1), Pair::new(1, 1), Pair::new(2, 1)];
        normalize(&mut v);
        assert_eq!(v, vec![Pair::new(1, 1), Pair::new(2, 1)]);
    }

    /// Pairs whose sources and targets vary in `src_bits` / `dst_bits` low
    /// bits below a shared high part — the key widths the radix sort
    /// chooses its passes by, up to ids at the top of the `u32` range.
    fn keyed_pairs() -> impl Strategy<Value = Vec<Pair>> {
        let len = prop_oneof![
            0usize..64,
            RADIX_MIN_LEN - 3..RADIX_MIN_LEN + 3,
            RADIX_MIN_LEN..3 * RADIX_MIN_LEN,
        ];
        (len, 0u32..=32, 0u32..=32, any::<u64>(), any::<u64>()).prop_map(
            |(len, src_bits, dst_bits, high, seed)| {
                let mask = |bits: u32| ((1u64 << bits) - 1) as u32;
                let (src_high, dst_high) = ((high >> 32) as u32, high as u32);
                let mut rng = TestRng::new(seed);
                (0..len)
                    .map(|_| {
                        let r = rng.next_u64();
                        Pair::new(
                            src_high & !mask(src_bits) | (r >> 32) as u32 & mask(src_bits),
                            dst_high & !mask(dst_bits) | r as u32 & mask(dst_bits),
                        )
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The radix route, the comparison route and the sorted-input
        /// return all order exactly as `sort_unstable` does — whatever
        /// the key width (zero-width sources: all-equal), with
        /// duplicates, around the cut-over length, and on input that is
        /// already sorted or sorted but for its tail.
        #[test]
        fn sort_pairs_matches_comparison_sort(pairs in keyed_pairs(), presort in 0u8..3) {
            let mut expected = pairs.clone();
            expected.sort_unstable();
            let mut input = pairs;
            match presort {
                1 => input.sort_unstable(),
                2 => {
                    input.sort_unstable();
                    let tail = input.len().min(1);
                    input.rotate_left(tail);
                }
                _ => {}
            }
            let mut sorted = input.clone();
            sort_pairs(&mut sorted);
            prop_assert_eq!(&sorted, &expected);
            expected.dedup();
            normalize(&mut input);
            prop_assert_eq!(input, expected);
        }
    }

    #[test]
    fn narrow_and_wide_keys_sort_alike() {
        // 4096 pairs over 2 × 12 varying bits take two radix passes; the
        // same count over full-width ids would take six and falls back —
        // both sort correctly, near `u32::MAX` included.
        let mut rng = TestRng::new(7);
        for (mask, base) in [(0xFFFu32, !0xFFFu32), (u32::MAX, 0)] {
            let mut pairs: Vec<Pair> = (0..4096)
                .map(|_| {
                    let r = rng.next_u64();
                    Pair::new(base | (r >> 32) as u32 & mask, base | r as u32 & mask)
                })
                .collect();
            let mut expected = pairs.clone();
            expected.sort_unstable();
            sort_pairs(&mut pairs);
            assert_eq!(pairs, expected);
        }
    }

    #[test]
    fn gallop_matches_merge_on_skewed_inputs() {
        let large: Vec<Pair> = (0..1024u32).map(|i| Pair::new(i / 8, i % 8)).collect();
        let small = vec![Pair::new(3, 5), Pair::new(50, 2), Pair::new(500, 0)];
        let naive: Vec<Pair> = small.iter().copied().filter(|p| large.contains(p)).collect();
        let mut gallop = Vec::new();
        intersect_gallop(&small, &large, &mut gallop);
        assert_eq!(gallop, naive);
        assert_eq!(gallop, vec![Pair::new(3, 5), Pair::new(50, 2)]);
        // The dispatching entry point agrees regardless of argument order.
        let mut a = Vec::new();
        intersect_sorted(&small, &large, &mut a);
        let mut b = Vec::new();
        intersect_sorted(&large, &small, &mut b);
        assert_eq!(a, gallop);
        assert_eq!(b, gallop);
        // Generic over other ordered ids too.
        let mut ids = Vec::new();
        intersect_gallop(&[7u32, 900], &(0..800u32).collect::<Vec<_>>(), &mut ids);
        assert_eq!(ids, vec![7]);
    }

    #[test]
    fn intersection() {
        let a = vec![Pair::new(1, 1), Pair::new(1, 2), Pair::new(3, 1)];
        let b = vec![Pair::new(1, 2), Pair::new(2, 2), Pair::new(3, 1)];
        let mut out = Vec::new();
        intersect_sorted(&a, &b, &mut out);
        assert_eq!(out, vec![Pair::new(1, 2), Pair::new(3, 1)]);
    }
}
