//! Fixed-layout log-bucketed latency histograms (HDR-style).
//!
//! A [`Histogram`] maps a `u64` value (microseconds, by convention) to
//! one of [`BUCKETS`] buckets: values below 8 get an exact bucket each,
//! and every power-of-two octave above that is split into 8 sub-buckets
//! (3 mantissa bits), bounding the relative quantization error at 12.5%.
//! The layout is *fixed* — every histogram in the process, and every
//! snapshot that crosses the wire, uses the same bucket boundaries — so
//! snapshots merge by plain element-wise addition and two independently
//! recorded histograms are directly comparable.
//!
//! Recording is a handful of relaxed atomic adds: no locks, no
//! allocation, safe to share across serving threads behind an `Arc`.
//! [`Histogram::snapshot`] copies the counters into a plain
//! [`HistogramSnapshot`], the mergeable, serializable form used by the
//! wire `METRICS` frame and the Prometheus renderer.

use std::sync::atomic::{AtomicU64, Ordering};

/// Mantissa bits per octave: each power-of-two range is split into
/// `2^SUB_BITS` sub-buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Total number of buckets: 8 exact buckets for values `0..8`, then 8
/// sub-buckets for each of the 61 octaves `[2^3, 2^4) .. [2^63, 2^64)`.
pub const BUCKETS: usize = SUB + 61 * SUB;

/// The bucket index for a value. Total order: `bucket_index` is
/// monotone in `v`, so cumulative bucket counts give nearest-rank
/// quantiles up to one bucket of quantization.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= SUB_BITS
        let sub = ((v >> (msb - SUB_BITS as usize)) & (SUB as u64 - 1)) as usize;
        SUB + (msb - SUB_BITS as usize) * SUB + sub
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let octave = (index - SUB) / SUB; // 0-based above the exact range
        let sub = ((index - SUB) % SUB) as u64;
        let msb = octave + SUB_BITS as usize;
        (1u64 << msb) + (sub << (msb - SUB_BITS as usize))
    }
}

/// Exclusive upper bound of a bucket (saturating at `u64::MAX` for the
/// last bucket, whose true bound would be `2^64`).
pub fn bucket_hi(index: usize) -> u64 {
    if index < SUB {
        index as u64 + 1
    } else {
        let octave = (index - SUB) / SUB;
        let msb = octave + SUB_BITS as usize;
        bucket_lo(index).saturating_add(1u64 << (msb - SUB_BITS as usize))
    }
}

/// A concurrent fixed-layout log-bucketed histogram.
///
/// All methods take `&self`; recording uses relaxed atomics only.
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        // `AtomicU64` has no Copy, so build the array through a Vec.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> =
            counts.into_boxed_slice().try_into().unwrap_or_else(|_| unreachable!());
        Histogram {
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (a few relaxed atomic adds; lock-free).
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the counters. Concurrent recording makes
    /// the copy a *consistent-enough* snapshot: per-bucket counts are
    /// each atomically read, so merge arithmetic never corrupts, but a
    /// racing `record` may be half-visible (bucket but not total).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        for (i, c) in self.counts.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            total: self.total.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain, mergeable copy of a [`Histogram`]'s counters — the form
/// that crosses the wire and renders to text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { counts: vec![0; BUCKETS], total: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Reassembles a snapshot from its wire parts: `(bucket, count)`
    /// pairs for the non-zero buckets plus the three scalar counters.
    /// Out-of-range bucket indices are rejected with `None` (hostile
    /// input never panics).
    pub fn from_parts(total: u64, sum: u64, max: u64, nonzero: &[(u16, u64)]) -> Option<Self> {
        let mut counts = vec![0u64; BUCKETS];
        for &(bucket, count) in nonzero {
            let slot = counts.get_mut(bucket as usize)?;
            *slot = slot.checked_add(count)?;
        }
        Some(HistogramSnapshot { counts, total, sum, max })
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// The non-zero `(bucket, count)` pairs, ascending by bucket — the
    /// sparse wire form.
    pub fn nonzero(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.counts.iter().enumerate().filter(|&(_, &c)| c != 0).map(|(i, &c)| (i as u16, c))
    }

    /// Nearest-rank quantile over the bucketed counts, reported as the
    /// midpoint of the bucket holding that rank (`None` when empty).
    /// Matches the exact nearest-rank quantile of the raw samples to within
    /// one bucket: both pick the value at rank `round((n-1) * p)`; this
    /// one only knows it to bucket precision.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((self.total - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if c != 0 && seen > rank {
                let (lo, hi) = (bucket_lo(i), bucket_hi(i));
                return Some(lo + (hi - 1 - lo) / 2);
            }
        }
        // Counts raced with `total`; fall back to the last non-empty bucket.
        self.counts
            .iter()
            .rposition(|&c| c != 0)
            .map(|i| bucket_lo(i) + (bucket_hi(i) - 1 - bucket_lo(i)) / 2)
    }

    /// Element-wise merge: after `a.merge(&b)`, every bucket count,
    /// `count`, and `sum` are the sums of the two, and `max` the max.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_tight() {
        // Every bucket's bounds nest: lo(i) < hi(i) == lo(i+1).
        for i in 0..BUCKETS - 1 {
            assert!(bucket_lo(i) < bucket_hi(i), "bucket {i}");
            assert_eq!(bucket_hi(i), bucket_lo(i + 1), "bucket {i}");
        }
        // Values map into the bucket whose bounds contain them.
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let b = bucket_index(v);
            assert!(bucket_lo(b) <= v, "v={v} b={b}");
            assert!(v < bucket_hi(b) || b == BUCKETS - 1, "v={v} b={b}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Relative quantization error is bounded by one sub-bucket.
        for v in [64u64, 1000, 65_535, 1 << 40] {
            let b = bucket_index(v);
            let width = bucket_hi(b) - bucket_lo(b);
            assert!(width as f64 / v as f64 <= 0.125 + 1e-9, "v={v} width={width}");
        }
    }

    #[test]
    fn record_and_quantile() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        assert_eq!(s.max(), 1000);
        let p50 = s.quantile(0.5).unwrap();
        // True p50 is 500 (rank 500 of 0..=999); within one bucket width.
        let b = bucket_index(500);
        assert!(bucket_lo(b) <= p50 && p50 < bucket_hi(b), "p50={p50}");
        assert!(s.quantile(0.0).unwrap() <= s.quantile(1.0).unwrap());
    }

    #[test]
    fn merge_adds_counts() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 17);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        let whole = Histogram::new();
        for v in 0..100u64 {
            whole.record(v);
            whole.record(v * 17);
        }
        assert_eq!(m, whole.snapshot());
    }

    #[test]
    fn from_parts_roundtrip_and_hostile() {
        let h = Histogram::new();
        for v in [0u64, 3, 900, 4096, 1 << 33] {
            h.record(v);
        }
        let s = h.snapshot();
        let nonzero: Vec<(u16, u64)> = s.nonzero().collect();
        let back = HistogramSnapshot::from_parts(s.count(), s.sum(), s.max(), &nonzero).unwrap();
        assert_eq!(back, s);
        // Out-of-range bucket index is rejected, not a panic.
        assert!(HistogramSnapshot::from_parts(1, 1, 1, &[(BUCKETS as u16, 1)]).is_none());
    }
}
