//! Integer keys packed at the byte width their bits need, and the one
//! store of packed rows built on them. Two structures hold "up to 256
//! rows of sorted, width-packed keys", and both are a [`PackedRows`]:
//!
//! * a class chunk's `Ic2p` rows, one per class — a pair as the key
//!   `source << shift | target` — with its per-class set sizes as a
//!   [`PackedColumn`] beside them;
//! * a pair-map shard's slices, one per source — an entry as the key
//!   `target << class_bits | class`.
//!
//! A run of keys of `bits` bits stores each in `⌈bits / 8⌉` little-endian
//! bytes, back to back, followed by [`KEY_PAD`] zero bytes, so any key is
//! read with one unaligned 8-byte load and a mask ([`PackedKeys::get`]).
//! A run without keys is no bytes at all. A [`PackedColumn`] owns one
//! run and its bit width; [`PackedRows`] is two columns, the rows' keys
//! back to back and each row's end offset.
//!
//! What the keys mean stays with their owner: it passes the low width
//! below which a key's bits are payload rather than search key (0 for a
//! chunk's pairs, `class_bits` for a shard's entries), re-packs the keys
//! at new bits through its own key transform, and decides when they need
//! more bits or fewer.

use std::ops::Range;

/// Zero bytes after a run's last key: enough for an 8-byte load at any
/// key of at least one byte.
pub(crate) const KEY_PAD: usize = 7;

/// The bit width of `largest`, at least 1 — or 0 when there is no value.
pub(crate) fn bits_for<T: Into<u64>>(largest: Option<T>) -> u32 {
    largest.map_or(0, |v| (u64::BITS - v.into().leading_zeros()).max(1))
}

/// Bytes per key of `bits` bits.
#[inline]
pub(crate) fn key_width(bits: u32) -> usize {
    (bits as usize).div_ceil(8)
}

/// The 8 bytes from `at` on, as a little-endian word.
#[inline]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
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

    /// The `i`-th key: one unaligned 8-byte load and a mask.
    #[inline]
    pub(crate) fn get(self, i: usize) -> u64 {
        word_at(self.bytes, i * self.width) & self.mask
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
            let below = word_at(self.bytes, mid) & self.mask < key;
            base = std::hint::select_unpredictable(below, mid, base);
            size -= half;
        }
        base / width + usize::from(word_at(self.bytes, base) & self.mask < key)
    }
}

/// Where row `row` lies among the keys, given the rows' end offsets: an
/// offset counts keys, so it takes at most 4 bytes, and past the first
/// row both ends come out of one 8-byte load.
#[inline]
pub(crate) fn row_span(ends: PackedKeys<'_>, row: usize) -> Range<usize> {
    debug_assert!(ends.width <= 4, "an end offset wider than 4 bytes");
    if row == 0 {
        return 0..ends.get(0) as usize;
    }
    let word = word_at(ends.bytes, (row - 1) * ends.width);
    (word & ends.mask) as usize..(word >> (8 * ends.width) & ends.mask) as usize
}

/// An owned run of packed keys and their bit width. A build stores each
/// run at the narrowest bits its owner's keys need; a push that needs
/// more re-packs the run wider, and only a re-pack narrows it.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct PackedColumn {
    bytes: Vec<u8>,
    bits: u8,
}

impl PackedColumn {
    /// The run of `keys`, each of at most `bits` bits.
    pub(crate) fn new(bits: u32, keys: impl ExactSizeIterator<Item = u64>) -> Self {
        let (width, mut bytes) = (key_width(bits), Vec::new());
        if keys.len() > 0 {
            // Each key is written as one 8-byte word at its offset: its
            // bytes past `width` are zero, and the next key (or the
            // padding) overwrites them.
            bytes = vec![0; keys.len() * width + KEY_PAD];
            for (at, key) in (0..).step_by(width).zip(keys) {
                bytes[at..at + 8].copy_from_slice(&key.to_le_bytes());
            }
        }
        PackedColumn { bytes, bits: bits as u8 }
    }

    /// The run of `keys` at the bits their largest one needs.
    pub(crate) fn narrowest(keys: &[u64]) -> Self {
        Self::new(bits_for(keys.iter().max().copied()), keys.iter().copied())
    }

    /// The bit width of a key.
    pub(crate) fn bits(&self) -> u32 {
        u32::from(self.bits)
    }

    /// Bytes per key.
    fn width(&self) -> usize {
        key_width(self.bits())
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len().saturating_sub(KEY_PAD).checked_div(self.width()).unwrap_or(0)
    }

    /// A reader of the keys.
    #[inline]
    pub(crate) fn reader(&self) -> PackedKeys<'_> {
        PackedKeys::new(&self.bytes, self.bits())
    }

    /// The `i`-th key.
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.reader().get(i)
    }

    /// The last key, if any.
    pub(crate) fn last(&self) -> Option<u64> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Appends `key`, re-packing the run wider first if it does not fit.
    pub(crate) fn push(&mut self, key: u64) {
        let bits = bits_for(Some(key));
        if bits > self.bits() {
            *self = self.repacked(bits, |key| key);
        }
        let (n, width) = (self.len(), self.width());
        self.bytes.resize((n + 1) * width + KEY_PAD, 0);
        self.set(n, key);
    }

    /// Overwrites the `i`-th key with `key`, which fits the width: one
    /// 8-byte load and one 8-byte store.
    pub(crate) fn set(&mut self, i: usize, key: u64) {
        debug_assert!(bits_for(Some(key)) <= self.bits(), "a key wider than its run");
        let (at, mask) = (i * self.width(), u64::MAX >> (64 - 8 * self.width() as u32));
        let word = word_at(&self.bytes, at) & !mask | key;
        self.bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }

    /// The run of the keys `key` maps these to, at `bits` bits.
    pub(crate) fn repacked(&self, bits: u32, key: impl Fn(u64) -> u64) -> Self {
        let run = self.reader();
        Self::new(bits, (0..self.len()).map(|i| key(run.get(i))))
    }

    /// Bytes the run stores: its keys and their padding, and a byte naming
    /// the bit width.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.bytes.len() + 1
    }

    /// Checks the run's canonical form: keys of `bits` bits — the
    /// narrowest its owner needs —, stored as a whole number of keys and
    /// then [`KEY_PAD`] zero bytes (no bytes without a key), with no bit
    /// set past `bits`. Returns the first rule broken.
    pub(crate) fn check(&self, bits: u32) -> Result<(), &'static str> {
        if self.bits() != bits {
            return Err("not at their narrowest width");
        }
        let (n, width) = (self.len(), self.width());
        if self.bytes.len() != if n == 0 { 0 } else { n * width + KEY_PAD } {
            return Err("not a whole number of keys and their padding");
        }
        if self.bytes[n * width..].iter().any(|&b| b != 0) {
            return Err("non-zero pad bytes");
        }
        let (stored, run) = (PackedKeys::new(&self.bytes, 8 * width as u32), self.reader());
        if (0..n).any(|i| stored.get(i) != run.get(i)) {
            return Err("a key bit set past their width");
        }
        Ok(())
    }
}

/// Rows of keys, each sorted, back to back in one [`PackedColumn`], and
/// each row's end offset — counted in keys, a row starting where the one
/// before it ends — in another, at the narrowest bits the key total
/// needs. Keys and ends are separate allocations, so a reader of a few
/// rows' lengths touches no key.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct PackedRows {
    /// Per row, where it ends among the keys.
    pub(crate) ends: PackedColumn,
    /// The rows' keys.
    pub(crate) keys: PackedColumn,
}

impl PackedRows {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Number of keys across the rows, read off the last row's end.
    pub(crate) fn len(&self) -> usize {
        self.ends.last().map_or(0, |end| end as usize)
    }

    /// The positions of row `row`'s keys.
    #[inline]
    pub(crate) fn span(&self, row: usize) -> Range<usize> {
        row_span(self.ends.reader(), row)
    }

    /// The rows with every key re-stored as `key` maps it, at `bits` bits —
    /// how an owner re-packs its keys when its key layout changes.
    pub(crate) fn repacked(&self, bits: u32, key: impl Fn(u64) -> u64) -> Self {
        PackedRows { ends: self.ends.clone(), keys: self.keys.repacked(bits, key) }
    }

    /// The rows with `edits` applied — `(row, search key, new key)`,
    /// sorted by row and then search key — in one pass: each edit cuts its
    /// row at the first key, from the previous cut on, whose bits above
    /// `low` are not below the search key's (a binary search), drops the
    /// key there if those bits are equal, and puts the new key, if any, in
    /// its place. The stretches between cuts are copied whole, so a row of
    /// any length costs its `memcpy` plus a search per edit. The keys keep
    /// their width, which every new key must fit; the end offsets are
    /// stored at the narrowest bits the new key total needs.
    pub(crate) fn spliced(&self, low: u32, mut edits: &[(usize, u64, Option<u64>)]) -> Self {
        let (ends, keys, width) = (self.ends.reader(), self.keys.reader(), self.keys.width());
        let added = edits.iter().filter(|e| e.2.is_some()).count();
        let mut out = Vec::with_capacity((self.len() + added) * width + KEY_PAD);
        let mut new_ends = Vec::with_capacity(self.rows());
        for row in 0..self.rows() {
            let span = row_span(ends, row);
            let (here, rest) = edits.split_at(edits.partition_point(|e| e.0 == row));
            edits = rest;
            let mut from = span.start;
            for &(_, search, new) in here {
                let at = keys.lower_bound(from..span.end, search);
                out.extend_from_slice(keys.bytes(from..at));
                // The row's own key of these bits is dropped either way.
                from = at + usize::from(at < span.end && keys.get(at) >> low == search >> low);
                if let Some(key) = new {
                    // All 8 bytes of its word, and those past the width cut
                    // off again.
                    out.extend_from_slice(&key.to_le_bytes());
                    out.truncate(out.len() - 8 + width);
                }
            }
            out.extend_from_slice(keys.bytes(from..span.end));
            new_ends.push(out.len().checked_div(width).unwrap_or(0) as u64);
        }
        debug_assert!(edits.is_empty(), "edits past the last row");
        if !out.is_empty() {
            out.resize(out.len() + KEY_PAD, 0);
        }
        let keys = PackedColumn { bytes: out, bits: self.keys.bits };
        PackedRows { ends: PackedColumn::narrowest(&new_ends), keys }
    }

    /// Bytes the rows store: both columns'.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.ends.stored_bytes() + self.keys.stored_bytes()
    }

    /// Checks the form every read assumes, and the canonical one, given
    /// `low` and the bits the owner's keys need (`key_bits`): the end
    /// offsets and the keys each in [`PackedColumn::check`]'s form, the
    /// ends at the narrowest bits their largest needs; the ends never
    /// decreasing and the last one the key count; and each row strictly
    /// ascending in its keys' bits above `low`. Returns the first rule
    /// broken.
    pub(crate) fn check(&self, low: u32, key_bits: u32) -> Result<(), String> {
        self.ends.check(bits_for(self.ends.last())).map_err(|rule| format!("row ends: {rule}"))?;
        self.keys.check(key_bits).map_err(|rule| format!("keys: {rule}"))?;
        let ends = self.ends.reader();
        if let Some(row) = (1..self.rows()).find(|&row| ends.get(row - 1) > ends.get(row)) {
            return Err(format!("row ends: row {row} ends before row {}", row - 1));
        }
        if self.keys.len() != self.len() {
            return Err(format!("{} keys for rows ending at {}", self.keys.len(), self.len()));
        }
        let keys = self.keys.reader();
        for row in 0..self.rows() {
            let highs = self.span(row).map(|i| keys.get(i) >> low);
            if highs.clone().zip(highs.skip(1)).any(|(a, b)| a >= b) {
                return Err(format!("row {row}: keys not strictly ascending"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl PackedColumn {
        /// The stored bytes, for damaging them.
        pub(crate) fn bytes_mut(&mut self) -> &mut Vec<u8> {
            &mut self.bytes
        }
    }

    #[test]
    fn packed_keys_read_back_at_every_width() {
        for bits in [1, 7, 8, 9, 17, 29, 32, 33, 56, 57, 64] {
            let top = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut keys = vec![0, 1, top / 3, top - 1, top];
            keys.sort_unstable();
            keys.dedup();
            let column = PackedColumn::new(bits, keys.iter().copied());
            let stored = keys.len() * key_width(bits) + KEY_PAD + 1;
            assert_eq!(column.stored_bytes(), stored, "{bits} bits");
            assert_eq!(column.check(bits), Ok(()), "{bits} bits");
            let run = column.reader();
            assert!((0..keys.len()).map(|i| run.get(i)).eq(keys.iter().copied()), "{bits} bits");
            for (i, &key) in keys.iter().enumerate() {
                assert_eq!(run.lower_bound(0..keys.len(), key), i);
                assert_eq!(run.lower_bound(0..i, key), i);
            }
            // The run spliced together from its first two keys and the rest.
            let two = PackedColumn::new(bits, keys[..2].iter().copied());
            let two = PackedRows { ends: PackedColumn::narrowest(&[2]), keys: two };
            let rest: Vec<_> = keys[2..].iter().map(|&key| (0, key, Some(key))).collect();
            let spliced = two.spliced(0, &rest);
            assert_eq!(spliced.keys, column, "{bits} bits: spliced and packed runs differ");
            assert_eq!(spliced.ends, PackedColumn::narrowest(&[keys.len() as u64]));
            // A key overwritten in place leaves the others.
            let mut set = column.clone();
            set.set(0, top);
            assert!((0..keys.len()).all(|i| set.get(i) == if i == 0 { top } else { keys[i] }));
            set.set(0, keys[0]);
            assert_eq!(set, column, "{bits} bits");
        }
        assert_eq!(PackedColumn::new(9, std::iter::empty()).stored_bytes(), 1);
        assert_eq!(
            (bits_for(None::<u32>), bits_for(Some(0u32)), bits_for(Some(4095u32))),
            (0, 1, 12)
        );
        assert_eq!(
            (bits_for(Some(4096u32)), bits_for(Some(u32::MAX)), bits_for(Some(u64::MAX))),
            (13, 32, 64)
        );
    }

    /// Values on both sides of each byte-width boundary.
    const VALUES: [u64; 10] =
        [0, 1, 254, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24, u32::MAX as u64];

    /// Holds `column` to `model`: the same values, in canonical form at
    /// the narrowest bits that fit them, counted at that width.
    fn assert_reads_like(column: &PackedColumn, model: &[u64]) {
        assert_eq!(column.len(), model.len());
        assert!((0..model.len()).all(|i| column.get(i) == model[i]), "{model:?}");
        assert_eq!(column.last(), model.last().copied());
        let bits = bits_for(model.iter().copied().max());
        assert_eq!(column.check(bits), Ok(()), "{model:?}");
        let keys = if model.is_empty() { 0 } else { model.len() * key_width(bits) + KEY_PAD };
        assert_eq!(column.stored_bytes(), keys + 1);
    }

    /// Searchable bits of the keys in the rows test, on both sides of each
    /// byte-width boundary; a bulk row's keys lie between 300 and 65,821.
    const HIGHS: [u64; 9] = [0, 1, 254, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24];

    /// The rows of `model` — per row, its keys by their bits above the low
    /// width — packed as a build packs them: the keys at `bits`, the ends
    /// at their narrowest.
    fn rows_of(model: &[BTreeMap<u64, u64>], bits: u32) -> PackedRows {
        let mut end = 0;
        let ends: Vec<u64> = model.iter().map(|row| (end += row.len() as u64, end).1).collect();
        let keys: Vec<u64> = model.iter().flat_map(|row| row.values().copied()).collect();
        PackedRows {
            ends: PackedColumn::narrowest(&ends),
            keys: PackedColumn::new(bits, keys.into_iter()),
        }
    }

    /// The bits the keys of `model` need.
    fn model_bits(model: &[BTreeMap<u64, u64>]) -> u32 {
        bits_for(model.iter().flat_map(|row| row.values().copied()).max())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Against a `Vec<u64>` model, a run of pushes of values on both
        /// sides of each byte-width boundary — 255/256, 65,535/65,536 and
        /// 2²⁴ — with now and then a rebuild at the narrowest bits from a
        /// prefix of the values (which may drop the widest ones), keeps
        /// the column reading like the model in canonical form.
        #[test]
        fn a_column_reads_like_the_model(
            ops in prop::collection::vec((0usize..VALUES.len(), 0usize..8, 0usize..40), 0..60),
        ) {
            let mut model: Vec<u64> = Vec::new();
            let mut column = PackedColumn::default();
            for (value, rebuild, keep) in ops {
                if rebuild == 0 {
                    model.truncate(keep);
                    column = PackedColumn::narrowest(&model);
                } else {
                    model.push(VALUES[value]);
                    column.push(VALUES[value]);
                }
                assert_reads_like(&column, &model);
            }
        }

        /// Against a model of sorted rows, batch after batch of splices —
        /// insertions, replacements and removals, of present and absent
        /// keys — in both key layouts: a chunk's (low width 0, every bit
        /// searched) and a shard's (a payload in the low 8 or 17 bits, the
        /// bits above them searched). The keys' searched bits cross 255/256,
        /// 65,535/65,536 and 2²⁴, and a bulk row of 241 or 65,521 keys, 16
        /// of which edits remove and put back, puts the key total about 15
        /// below 256 or 65,536 at the start and around it after a few
        /// batches, so the end offsets cross 255/256 and 65,535/65,536
        /// both ways.
        /// Re-packed wider before a splice and narrower after it as an
        /// owner does, the rows read like the model and are, byte for byte,
        /// the rows a build of the model packs — canonical form, zero
        /// padding included.
        #[test]
        fn spliced_rows_read_like_the_model(
            layout in 0usize..3,
            bulk in 0usize..3,
            start in prop::collection::vec((0usize..4, 0usize..HIGHS.len(), 0u64..4), 0..4),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..4, 0usize..HIGHS.len() + 16, 0u64..5), 0..24),
                1..6,
            ),
        ) {
            let low = [0, 8, 17][layout];
            let payload = |p: u64| p * ((1 << low) - 1) / 4;
            let high = |h: usize| HIGHS.get(h).copied().unwrap_or_else(|| (300 + h - HIGHS.len()) as u64);
            let mut model = vec![BTreeMap::new(); 4];
            for h in 0..[0, 241, 65_521][bulk] {
                model[1].insert(300 + h, (300 + h) << low);
            }
            for (row, h, p) in start {
                model[row].insert(HIGHS[h], HIGHS[h] << low | payload(p));
            }
            let mut rows = rows_of(&model, model_bits(&model));
            for batch in batches {
                // Payloads 0 and 1 stand for a removal.
                let edits: BTreeMap<(usize, u64), Option<u64>> = batch
                    .into_iter()
                    .map(|(row, h, p)| {
                        let h = high(h);
                        ((row, h << low), p.checked_sub(2).map(|p| h << low | payload(p)))
                    })
                    .collect();
                for (&(row, search), &new) in &edits {
                    model[row].remove(&(search >> low));
                    if let Some(key) = new {
                        model[row].insert(key >> low, key);
                    }
                }
                let edits: Vec<(usize, u64, Option<u64>)> =
                    edits.into_iter().map(|((row, search), new)| (row, search, new)).collect();
                let edited = edits.iter().flat_map(|e| [Some(e.1), e.2]).flatten().max();
                if bits_for(edited) > rows.keys.bits() {
                    rows = rows.repacked(bits_for(edited), |key| key);
                }
                rows = rows.spliced(low, &edits);
                let bits = model_bits(&model);
                if bits < rows.keys.bits() {
                    rows = rows.repacked(bits, |key| key);
                }
                prop_assert_eq!(rows.check(low, bits), Ok(()));
                prop_assert_eq!(rows.rows(), model.len());
                prop_assert_eq!(rows.len(), model.iter().map(BTreeMap::len).sum::<usize>());
                let keys = rows.keys.reader();
                for (i, row) in model.iter().enumerate() {
                    prop_assert!(rows.span(i).map(|at| keys.get(at)).eq(row.values().copied()));
                }
                prop_assert_eq!(&rows, &rows_of(&model, bits));
            }
        }
    }
}
