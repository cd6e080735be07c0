//! Integer keys packed at the byte width their bits need — the one packer
//! behind both width-packed stores: a class chunk's `Ic2p` rows (a pair
//! as `source << shift | target`) and a pair-map shard's entries
//! (`target << class_bits | class`).
//!
//! A run of keys of `bits` bits stores each in `⌈bits / 8⌉` little-endian
//! bytes, back to back, followed by [`KEY_PAD`] zero bytes, so any key is
//! read with one unaligned 8-byte load and a mask ([`PackedKeys::get`]).
//! A run without keys is no bytes at all.

use std::ops::Range;

/// Zero bytes after a run's last key: enough for an 8-byte load at any
/// key of at least one byte.
pub(crate) const KEY_PAD: usize = 7;

/// The bit width of `largest`, at least 1 — or 0 when there is no value.
pub(crate) fn bits_for(largest: Option<u32>) -> u32 {
    largest.map_or(0, |v| (u32::BITS - v.leading_zeros()).max(1))
}

/// Bytes per key of `bits` bits.
#[inline]
pub(crate) fn key_width(bits: u32) -> usize {
    (bits as usize).div_ceil(8)
}

/// The 8 bytes from `at` on, as a little-endian word.
#[inline]
pub(crate) fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Stores `key` as the `i`-th key of `width` bytes of a run, leaving the
/// bytes after it as they are: one 8-byte load and one 8-byte store, so a
/// writer may fill a run's slots in any order.
#[inline]
pub(crate) fn store(bytes: &mut [u8], i: usize, width: usize, key: u64) {
    let (at, mask) = (i * width, u64::MAX >> (64 - 8 * width as u32));
    let word = load(bytes, at) & !mask | key;
    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
}

/// The run of `keys`, each of at most `bits` bits.
pub(crate) fn pack(bits: u32, keys: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    if keys.len() == 0 {
        return Vec::new();
    }
    let width = key_width(bits);
    // Each key is written as one 8-byte word at its offset: its bytes past
    // `width` are zero, and the next key (or the padding) overwrites them.
    let mut out = vec![0; keys.len() * width + KEY_PAD];
    for (at, key) in (0..).step_by(width).zip(keys) {
        out[at..at + 8].copy_from_slice(&key.to_le_bytes());
    }
    out
}

/// A run of packed keys with its width decoded once, for reading.
#[derive(Clone, Copy)]
pub(crate) struct PackedKeys<'a> {
    bytes: &'a [u8],
    width: usize,
    /// The low `bits` bits: one key out of an 8-byte load.
    mask: u64,
}

impl<'a> PackedKeys<'a> {
    /// A reader of `bytes`, a run of keys of `bits` bits.
    #[inline]
    pub(crate) fn new(bytes: &'a [u8], bits: u32) -> Self {
        PackedKeys { bytes, width: key_width(bits), mask: ((1u128 << bits) - 1) as u64 }
    }

    /// Bytes per key.
    #[inline]
    pub(crate) fn width(self) -> usize {
        self.width
    }

    /// The `i`-th key: one unaligned 8-byte load and a mask.
    #[inline]
    pub(crate) fn get(self, i: usize) -> u64 {
        load(self.bytes, i * self.width) & self.mask
    }

    /// The bytes of the keys at positions `range`.
    fn bytes(self, range: Range<usize>) -> &'a [u8] {
        &self.bytes[range.start * self.width..range.end * self.width]
    }

    /// The first position of `span` — a stretch of ascending keys — whose
    /// key is not below `key`, by binary search; `span.end` if none is.
    /// Each step keeps one of two bounds by a conditional move, not a
    /// branch that half the steps would mispredict, and the bounds are
    /// byte offsets: the step sizes do not depend on the keys read, so no
    /// multiplication waits on a load.
    #[inline]
    pub(crate) fn lower_bound(self, span: Range<usize>, key: u64) -> usize {
        let (width, mut size) = (self.width, span.len());
        if size == 0 {
            return span.start;
        }
        let mut base = span.start * width;
        while size > 1 {
            let half = size / 2;
            let mid = base + half * width;
            let below = load(self.bytes, mid) & self.mask < key;
            base = std::hint::select_unpredictable(below, mid, base);
            size -= half;
        }
        base / width + usize::from(load(self.bytes, base) & self.mask < key)
    }
}

/// A run of keys written one key, or one stretch of another run at the
/// same width, at a time — for a writer that splices edits into a run.
pub(crate) struct KeyWriter {
    out: Vec<u8>,
    width: usize,
}

impl KeyWriter {
    /// An empty run of keys of `bits` bits, with room for `keys` of them.
    pub(crate) fn with_capacity(bits: u32, keys: usize) -> Self {
        let width = key_width(bits);
        KeyWriter { out: Vec::with_capacity(keys * width + KEY_PAD), width }
    }

    /// Appends `key`: all 8 bytes of its word are copied, and the ones
    /// past the width cut off again.
    pub(crate) fn push(&mut self, key: u64) {
        let end = self.out.len() + self.width;
        self.out.extend_from_slice(&key.to_le_bytes());
        self.out.truncate(end);
    }

    /// Appends the keys of `run` — stored at this writer's width — at
    /// positions `range`, copied whole.
    pub(crate) fn copy(&mut self, run: PackedKeys<'_>, range: Range<usize>) {
        debug_assert_eq!(run.width, self.width, "a copy across widths");
        self.out.extend_from_slice(run.bytes(range));
    }

    /// Number of keys written.
    pub(crate) fn len(&self) -> usize {
        self.out.len().checked_div(self.width).unwrap_or(0)
    }

    /// The finished run: its keys and the padding, or no bytes without a
    /// key.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        if !self.out.is_empty() {
            self.out.resize(self.out.len() + KEY_PAD, 0);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_keys_read_back_at_every_width() {
        for bits in [1, 7, 8, 9, 17, 29, 32, 33, 56, 57, 64] {
            let top = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut keys = vec![0, 1, top / 3, top - 1, top];
            keys.sort_unstable();
            keys.dedup();
            let bytes = pack(bits, keys.iter().copied());
            assert_eq!(bytes.len(), keys.len() * key_width(bits) + KEY_PAD, "{bits} bits");
            assert!(bytes[keys.len() * key_width(bits)..].iter().all(|&b| b == 0));
            let run = PackedKeys::new(&bytes, bits);
            assert!((0..keys.len()).map(|i| run.get(i)).eq(keys.iter().copied()), "{bits} bits");
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(run.lower_bound(0..keys.len(), key), i);
                assert_eq!(run.lower_bound(0..i, key), i);
            }
            let mut writer = KeyWriter::with_capacity(bits, keys.len());
            writer.copy(run, 0..2);
            keys[2..].iter().for_each(|&key| writer.push(key));
            assert_eq!(writer.len(), keys.len());
            assert_eq!(writer.finish(), bytes, "{bits} bits: spliced and packed runs differ");
        }
        assert_eq!(pack(9, std::iter::empty()), Vec::<u8>::new());
        assert_eq!(KeyWriter::with_capacity(9, 0).finish(), Vec::<u8>::new());
        assert_eq!((bits_for(None), bits_for(Some(0)), bits_for(Some(4095))), (0, 1, 12));
        assert_eq!((bits_for(Some(4096)), bits_for(Some(u32::MAX))), (13, 32));
    }
}
