//! The writer's pair → class map — the inverted index from each s-t pair to
//! its class that Sec. IV-E's lazy maintenance needs — as a sorted column.
//!
//! Pairs are grouped by source vertex, a CSR over sources (Pathce's
//! per-label CSR idiom, SNIPPETS.md snippet 2, applied in the pair → class
//! direction): per source a slice of entries sorted by target — the source
//! is implied by the slice, and a sorted slice needs no empty slots. A
//! lookup is a binary search in one source's slice.
//!
//! The column is cut into [`Shard`]s of 256 consecutive sources, each
//! behind `Arc`, so a write copies only the shards of the pairs it touches.
//! A write hands all of its edits over at once, sorted by pair
//! ([`PairColumn::edit`]): a shard whose entries only change class is
//! overwritten in place, and one that gains or loses entries is spliced
//! once.
//!
//! A shard is the one store of packed rows that a class chunk's `Ic2p`
//! rows use too ([`PackedRows`]): a row per source, its end offset and its
//! entries as **width-packed** keys. The entry of target `t` in class `c`
//! is the key `t << class_bits | c`, where `target_bits` and `class_bits`
//! are the bit widths of the shard's own largest target and largest class,
//! stored in `⌈(target_bits + class_bits) / 8⌉` bytes. Keys sort as their
//! targets do, and a splice matches them on their bits above
//! `class_bits`. On a graph of up to 4,096 vertices with up to 2¹⁷ class
//! slots an entry takes 4 bytes, where a `(target, class)` pair of `u32`s
//! takes 8.
//!
//! The form is canonical: it depends on the mapped pairs alone, not on the
//! order of the edits that made them. Every shard holds its 256 sources'
//! end offsets at the narrowest width the entry count needs, its keys at
//! the narrowest widths that fit its entries — a batch that needs a wider
//! key or leaves the shard without its widest one re-packs it — and the
//! column has exactly the shards its largest source needs — no empty shard
//! at the end.

use crate::bisim::ClassId;
use crate::packed_keys::{bits_for, PackedColumn, PackedKeys, PackedRows};
use cpqx_graph::{Pair, VertexId};
use std::borrow::Cow;
use std::sync::Arc;

/// Source-vertex ids per copy-on-write shard, as a bit count. Fine-grained
/// for the same touched/total reason as the index's class chunks.
const SHARD_BITS: u32 = 8;

/// Source-vertex ids per shard.
const SHARD: usize = 1 << SHARD_BITS;

/// A shard's key widths: the bit widths of its largest target and of its
/// largest class, each at least 1 — both 0 while it holds no entry.
type Widths = (u32, u32);

/// The shard of source `v`.
fn shard_of(v: VertexId) -> usize {
    (v >> SHARD_BITS) as usize
}

/// The offset of source `v` within its shard.
fn offset_of(v: VertexId) -> usize {
    v as usize % SHARD
}

/// The number of shards a column whose largest source is `largest` has:
/// none without a source.
pub(crate) fn shards_for(largest: Option<VertexId>) -> usize {
    largest.map_or(0, |v| shard_of(v) + 1)
}

/// The entries of 256 consecutive sources.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Shard {
    /// A row per source of the shard: its entries as packed keys
    /// `target << class_bits | class`, sorted; the keys' other bits are
    /// the target's.
    pub(crate) rows: PackedRows,
    /// The bit width of the shard's largest class (0 without entries).
    pub(crate) class_bits: u8,
}

/// How a batch of edits changes a shard.
enum Change {
    /// Not at all: every edit maps a pair to the class it has, or removes
    /// an absent pair.
    None,
    /// Some mapped pairs change class, and no entry comes or goes.
    Classes,
    /// Entries come or go.
    Entries,
}

impl Shard {
    /// A shard without entries.
    pub(crate) fn empty() -> Self {
        let ends = PackedColumn::narrowest(&[0; SHARD]);
        Shard { rows: PackedRows { ends, keys: PackedColumn::default() }, class_bits: 0 }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// The key widths.
    fn widths(&self) -> Widths {
        let class_bits = u32::from(self.class_bits);
        (self.rows.keys.bits() - class_bits, class_bits)
    }

    /// A reader of the packed keys.
    #[inline]
    fn keys(&self) -> PackedKeys<'_> {
        self.rows.keys.reader()
    }

    /// The key of target `t` in class `c` at the shard's widths.
    #[inline]
    fn key(&self, t: VertexId, c: ClassId) -> u64 {
        u64::from(t) << self.class_bits | u64::from(c)
    }

    /// The `i`-th entry's target and class.
    #[inline]
    fn entry(&self, i: usize) -> (VertexId, ClassId) {
        let (key, class_bits) = (self.keys().get(i), self.class_bits);
        ((key >> class_bits) as VertexId, (key & ((1 << class_bits) - 1)) as ClassId)
    }

    /// The position of `p`'s entry, or `Err` with where it would go: a
    /// binary search for the first key of its target.
    #[inline]
    fn find(&self, p: Pair) -> Result<usize, usize> {
        let span = self.rows.span(offset_of(p.src()));
        let keys = self.keys();
        let at = keys.lower_bound(span.clone(), self.key(p.dst(), 0));
        match at < span.end && keys.get(at) >> self.class_bits == u64::from(p.dst()) {
            true => Ok(at),
            false => Err(at),
        }
    }

    /// What `edits` — all of this shard's sources — would change.
    fn change(&self, edits: &[(Pair, Option<ClassId>)]) -> Change {
        let mut change = Change::None;
        for &(p, class) in edits {
            match (self.find(p), class) {
                (Ok(at), Some(c)) if self.entry(at).1 != c => change = Change::Classes,
                (Ok(_), None) | (Err(_), Some(_)) => return Change::Entries,
                _ => {}
            }
        }
        change
    }

    /// The widths the shard needs to hold the targets and classes `edits`
    /// map: its own, or wider.
    fn widths_for(&self, edits: &[(Pair, Option<ClassId>)]) -> Widths {
        let mapped = edits.iter().filter_map(|&(p, class)| Some((p.dst(), class?)));
        let (targets, classes) = mapped.fold((None, None), |(targets, classes), (t, c)| {
            (Option::max(targets, Some(t)), Option::max(classes, Some(c)))
        });
        let (own_targets, own_classes) = self.widths();
        (own_targets.max(bits_for(targets)), own_classes.max(bits_for(classes)))
    }

    /// Applies `edits` that move no entry and whose classes fit the class
    /// width: each mapped pair's class bits are overwritten where they
    /// stand.
    fn overwrite(&mut self, edits: &[(Pair, Option<ClassId>)]) {
        for &(p, class) in edits {
            if let (Ok(i), Some(c)) = (self.find(p), class) {
                let key = self.key(p.dst(), c);
                self.rows.keys.set(i, key);
            }
        }
    }

    /// The shard with its keys re-packed at `widths`, wide enough for
    /// every entry.
    fn repacked(&self, (target_bits, class_bits): Widths) -> Shard {
        let (old, classes) = (self.class_bits, (1u64 << self.class_bits) - 1);
        let rows = self
            .rows
            .repacked(target_bits + class_bits, |key| (key >> old) << class_bits | key & classes);
        Shard { rows, class_bits: class_bits as u8 }
    }

    /// The shard with `edits` applied, at `widths` — its own or wider: the
    /// keys re-packed first if they are wider, then spliced
    /// ([`PackedRows::spliced`]) on their target bits.
    fn edited(&self, edits: &[(Pair, Option<ClassId>)], widths: Widths) -> Shard {
        let shard = match widths == self.widths() {
            true => Cow::Borrowed(self),
            false => Cow::Owned(self.repacked(widths)),
        };
        let edits: Vec<(usize, u64, Option<u64>)> = edits
            .iter()
            .map(|&(p, class)| {
                let (off, t) = (offset_of(p.src()), p.dst());
                (off, shard.key(t, 0), class.map(|c| shard.key(t, c)))
            })
            .collect();
        let class_bits = shard.class_bits;
        Shard { rows: shard.rows.spliced(u32::from(class_bits), &edits), class_bits }
    }

    /// The narrowest widths that fit the entries: a scan of every entry.
    fn narrowest(&self) -> Widths {
        let (mut targets, mut classes) = (None, None);
        for (t, c) in (0..self.rows.keys.len()).map(|i| self.entry(i)) {
            (targets, classes) = (targets.max(Some(t)), classes.max(Some(c)));
        }
        (bits_for(targets), bits_for(classes))
    }

    /// Whether the widths are the narrowest that fit the entries: some
    /// entry's target needs all the target bits, and some entry's class
    /// all the class bits. Usually early entries hold both, and the scan
    /// stops there.
    fn at_narrowest(&self) -> bool {
        let (targets, classes) = self.widths();
        let (mut wide_target, mut wide_class) = (false, false);
        for (t, c) in (0..self.len()).map(|i| self.entry(i)) {
            wide_target |= bits_for(Some(t)) == targets;
            wide_class |= bits_for(Some(c)) == classes;
            if wide_target && wide_class {
                return true;
            }
        }
        self.len() == 0 && (targets, classes) == (0, 0)
    }
}

/// The pair → class map: `Shard`s of 256 sources each, in source order
/// (see the module docs).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct PairColumn {
    shards: Vec<Arc<Shard>>,
}

impl PairColumn {
    /// The column of the `(pair, class)` entries `rows` yields, each pair
    /// once, in any order; `rows` is walked twice. One counting pass sizes
    /// every source's slice and finds each shard's widths, one pass
    /// scatters the keys into the slices, and each slice is then sorted
    /// and each shard packed.
    pub fn from_rows<I: Iterator<Item = (Pair, ClassId)>>(rows: impl Fn() -> I) -> Self {
        let mut counts: Vec<u32> = Vec::new();
        // Per shard, its largest target and largest class.
        let mut largest: Vec<(Option<VertexId>, Option<ClassId>)> = Vec::new();
        rows().for_each(|(p, c)| {
            let v = p.src() as usize;
            if v >= counts.len() {
                counts.resize(v + 1, 0);
                largest.resize(shard_of(p.src()) + 1, (None, None));
            }
            counts[v] += 1;
            let (targets, classes) = &mut largest[shard_of(p.src())];
            (*targets, *classes) = ((*targets).max(Some(p.dst())), (*classes).max(Some(c)));
        });
        // Each source's count becomes its cursor: where its slice starts.
        // Per shard, its slices' ends and widths, and its keys gathered
        // unpacked, to be packed once its slices are sorted.
        let mut cursors = counts;
        let mut shards: Vec<(Vec<u64>, Widths, Vec<u64>)> = cursors
            .chunks_mut(SHARD)
            .zip(largest)
            .map(|(sources, (targets, classes))| {
                let mut ends = Vec::with_capacity(SHARD);
                let mut at = 0;
                for cursor in sources {
                    (*cursor, at) = (at, at + *cursor);
                    ends.push(u64::from(at));
                }
                ends.resize(SHARD, u64::from(at));
                (ends, (bits_for(targets), bits_for(classes)), vec![0; at as usize])
            })
            .collect();
        rows().for_each(|(p, c)| {
            let cursor = &mut cursors[p.src() as usize];
            let (_, (_, class_bits), keys) = &mut shards[shard_of(p.src())];
            keys[*cursor as usize] = u64::from(p.dst()) << *class_bits | u64::from(c);
            *cursor += 1;
        });
        // A shard's unpacked keys are freed before the next shard's are
        // packed.
        let shards = shards.into_iter().map(|(ends, (target_bits, class_bits), mut keys)| {
            let mut start = 0;
            for &end in &ends {
                keys[start..end as usize].sort_unstable();
                start = end as usize;
            }
            let keys = PackedColumn::new(target_bits + class_bits, keys.into_iter());
            let rows = PackedRows { ends: PackedColumn::narrowest(&ends), keys };
            Arc::new(Shard { rows, class_bits: class_bits as u8 })
        });
        PairColumn { shards: shards.collect() }
    }

    /// The class `p` is mapped to, if any: a binary search in the slice of
    /// its source.
    #[inline]
    pub fn get(&self, p: Pair) -> Option<ClassId> {
        let shard = self.shards.get(shard_of(p.src()))?;
        shard.find(p).ok().map(|at| shard.entry(at).1)
    }

    /// Applies a write's edits, sorted by pair without duplicates: `(p,
    /// Some(c))` maps `p` to `c`, inserting it if it is absent, and `(p,
    /// None)` removes `p` if it is present. Each shard the edits change is
    /// written once: when no entry comes or goes and every class fits the
    /// class width, its class bits are overwritten in place (the shard
    /// copied first if it is shared); otherwise a new shard is spliced
    /// from the old one and the edits, at the widths they need. A shard
    /// left without an entry of its top target or class width is then
    /// re-packed narrower. Shards the edits do not change stay shared.
    pub fn edit(&mut self, mut edits: &[(Pair, Option<ClassId>)]) {
        debug_assert!(edits.windows(2).all(|w| w[0].0 < w[1].0), "edits not sorted by pair");
        while let Some(&(first, _)) = edits.first() {
            let i = shard_of(first.src());
            let (here, rest) = edits.split_at(edits.partition_point(|e| shard_of(e.0.src()) == i));
            edits = rest;
            if i >= self.shards.len() {
                if here.iter().all(|e| e.1.is_none()) {
                    continue; // nothing there to remove
                }
                self.shards.resize_with(i + 1, || Arc::new(Shard::empty()));
            }
            let shard = &mut self.shards[i];
            let change = shard.change(here);
            let widths = shard.widths_for(here);
            match change {
                Change::None => continue,
                Change::Classes if widths == shard.widths() => Arc::make_mut(shard).overwrite(here),
                _ => *shard = Arc::new(shard.edited(here, widths)),
            }
            if !shard.at_narrowest() {
                *shard = Arc::new(shard.repacked(shard.narrowest()));
            }
        }
        while self.shards.last().is_some_and(|shard| shard.len() == 0) {
            self.shards.pop();
        }
    }

    /// Number of mapped pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    /// Whether no pair is mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shards, in source order.
    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The bytes the column stores: per shard, its packed rows — the keys
    /// and the sources' end offsets, each run with its padding and its bit
    /// width byte — and the class width byte.
    pub fn stored_bytes(&self) -> usize {
        self.shards.iter().map(|shard| shard.rows.stored_bytes() + 1).sum()
    }

    /// Checks the form every read assumes of each shard, and its canonical
    /// widths: a row per source, in the packed rows' canonical form
    /// ([`PackedRows::check`]) with each source's slice strictly ascending
    /// by target and the keys at the narrowest widths that fit the
    /// entries. Whether the shard count is the one the largest mapped
    /// source needs is the caller's to check (`validate` holds it to the
    /// class rows).
    pub(crate) fn check(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let (targets, classes) = shard.narrowest();
            let class_bits = u32::from(shard.class_bits);
            // A class width off the narrowest is keys off their narrowest
            // width, whatever the key width.
            let key_bits = if classes == class_bits { targets + classes } else { u32::MAX };
            let rows = &shard.rows;
            rows.check(class_bits, key_bits)
                .map_err(|rule| format!("pair map shard {i}: {rule}"))?;
            if rows.rows() != SHARD {
                return Err(format!("pair map shard {i}: {} rows, not {SHARD}", rows.rows()));
            }
        }
        Ok(())
    }

    /// The shards, for damaging them.
    #[cfg(test)]
    pub(crate) fn shards_mut(&mut self) -> &mut Vec<Arc<Shard>> {
        &mut self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed_keys::KEY_PAD;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn column_of(model: &BTreeMap<Pair, ClassId>) -> PairColumn {
        PairColumn::from_rows(|| model.iter().map(|(&p, &c)| (p, c)))
    }

    fn entries(column: &PairColumn) -> Vec<(Pair, ClassId)> {
        let mut all = Vec::new();
        for (i, shard) in column.shards().iter().enumerate() {
            for off in 0..SHARD {
                let v = (i * SHARD + off) as VertexId;
                let slice = shard.rows.span(off).map(|at| shard.entry(at));
                all.extend(slice.map(|(t, c)| (Pair::new(v, t), c)));
            }
        }
        all
    }

    /// Each shard's `(target_bits, class_bits)`.
    fn widths(column: &PairColumn) -> Vec<Widths> {
        column.shards().iter().map(|shard| shard.widths()).collect()
    }

    #[test]
    fn a_built_column_reads_its_rows() {
        let p = Pair::new;
        // Class-major, as the index's rows list them.
        let rows = [(p(3, 9), 0), (p(300, 1), 0), (p(3, 2), 1), (p(3, 5), 1), (p(0, 0), 2)];
        let column = PairColumn::from_rows(|| rows.iter().copied());
        assert_eq!(column.check(), Ok(()));
        assert_eq!(column.shards().len(), 2);
        assert_eq!(
            entries(&column),
            [(p(0, 0), 2), (p(3, 2), 1), (p(3, 5), 1), (p(3, 9), 0), (p(300, 1), 0)]
        );
        for &(pair, c) in &rows {
            assert_eq!(column.get(pair), Some(c));
        }
        for absent in [p(3, 3), p(3, 10), p(3, 4096), p(1, 0), p(299, 1), p(600, 0)] {
            assert_eq!(column.get(absent), None, "{absent:?}");
        }
        // Shard 0: targets up to 9 (4 bits) and classes up to 2 (2 bits),
        // a byte a key; shard 1: one bit each, a byte a key.
        assert_eq!(widths(&column), [(4, 2), (1, 1)]);
        // Per shard: keys and their bit width byte, 256 one-byte ends and
        // theirs, and the class width byte.
        let shards = [4 + KEY_PAD + 1, 1 + KEY_PAD + 1];
        let ends = 256 + KEY_PAD + 1;
        assert_eq!(column.stored_bytes(), shards.iter().map(|keys| keys + ends + 1).sum());
        assert_eq!(PairColumn::from_rows(std::iter::empty), PairColumn::default());
    }

    /// Each kind of batch writes its shards as it should: a re-mapping in
    /// place (copying a shared shard), an insertion or removal by a merge,
    /// and a batch that changes nothing not at all — a shared shard stays
    /// shared.
    #[test]
    fn a_batch_copies_only_the_shards_it_changes() {
        let p = Pair::new;
        let model: BTreeMap<Pair, ClassId> =
            [(p(1, 1), 0), (p(1, 4), 1), (p(256, 0), 2), (p(600, 7), 3)].into();
        let before = column_of(&model);
        let shared = |now: &PairColumn| -> Vec<bool> {
            let pairs = now.shards().iter().zip(before.shards());
            pairs.map(|(a, b)| Arc::ptr_eq(a, b)).collect()
        };
        let mut column = before.clone();
        column.edit(&[(p(1, 4), Some(1)), (p(2, 0), None), (p(900, 1), None)]);
        assert_eq!(shared(&column), [true, true, true], "a no-op batch copied a shard");
        assert_eq!(column.shards().len(), 3, "a removal past the end added shards");
        column.edit(&[(p(1, 4), Some(5)), (p(256, 0), Some(2))]);
        assert_eq!(shared(&column), [false, true, true]);
        assert_eq!(column.get(p(1, 4)), Some(5));
        let mut column = before.clone();
        column.edit(&[(p(256, 0), None), (p(257, 3), Some(9))]);
        assert_eq!(shared(&column), [true, false, true]);
        assert_eq!((column.get(p(256, 0)), column.get(p(257, 3))), (None, Some(9)));
        assert_eq!(column.check(), Ok(()));
    }

    /// A shard's widths follow its own largest target and class both ways:
    /// a re-mapping in place to a class past the class width re-packs the
    /// shard wider, and removing or re-mapping the only entry of the top
    /// width re-packs it narrower. Other shards keep their widths, shared.
    #[test]
    fn a_batch_widens_and_narrows_only_its_shard() {
        let p = Pair::new;
        let mut model: BTreeMap<Pair, ClassId> =
            [(p(1, 1), 0), (p(1, 4), 255), (p(2, 255), 3), (p(300, 2), 1)].into();
        let mut column = column_of(&model);
        assert_eq!(widths(&column), [(8, 8), (2, 1)]);
        let other = Arc::clone(&column.shards()[1]);
        let mut apply = |edits: &[(Pair, Option<ClassId>)], expected: Widths| -> usize {
            for &(pair, class) in edits {
                match class {
                    Some(c) => model.insert(pair, c),
                    None => model.remove(&pair),
                };
            }
            column.edit(edits);
            assert_eq!(column.check(), Ok(()));
            assert_eq!(column, column_of(&model), "after {edits:?}");
            assert_eq!(column.shards()[0].widths(), expected, "after {edits:?}");
            assert!(Arc::ptr_eq(&column.shards()[1], &other));
            for &(pair, class) in edits {
                assert_eq!(column.get(pair), class);
            }
            column.shards()[0].rows.keys.stored_bytes()
        };
        // Re-mapped in place, but 65,536 takes 17 bits: 25 bits, 4 bytes.
        assert_eq!(apply(&[(p(1, 1), Some(65_536))], (8, 17)), 3 * 4 + KEY_PAD + 1);
        // Back below 65,536: 255 is the largest class again.
        apply(&[(p(1, 1), Some(65_535))], (8, 16));
        apply(&[(p(1, 1), Some(0))], (8, 8));
        // Target 4,096 takes 13 bits; removing it, 255 is the largest.
        apply(&[(p(2, 4096), Some(7))], (13, 8));
        apply(&[(p(2, 4096), None)], (8, 8));
        // The only target of 8 bits goes, and the only class of 8 bits
        // moves down: 3 bits of target and 2 of class.
        apply(&[(p(1, 4), Some(3)), (p(2, 255), None)], (3, 2));
        // The last entries go: no key bytes and no widths.
        assert_eq!(apply(&[(p(1, 1), None), (p(1, 4), None)], (0, 0)), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against a `BTreeMap` model, batch after batch of edits — class
        /// overwrites, insertions and removals, of present and absent
        /// pairs, at sources on both sides of the shard boundaries at
        /// 256 and 512 and past the last shard, with targets on both sides
        /// of 256 and 4,096 and classes on both sides of 256, 65,536 and
        /// 131,072 — leave a column that reads like the model, passes
        /// `check`, and is the very column a build from the model makes:
        /// shard count (a removal that empties the last shards drops them),
        /// offsets (an emptied source slice is an empty span), key widths
        /// (an in-place re-mapping past the class width widens a shard, and
        /// losing its only widest target or class narrows it) and keys.
        #[test]
        fn edits_keep_the_column_a_built_one(
            start in prop::collection::vec((0usize..9, 0usize..8, 0usize..9), 0..40),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..9, 0usize..8, 0usize..12), 0..24),
                1..6,
            ),
        ) {
            const SOURCES: [VertexId; 9] = [0, 1, 254, 255, 256, 257, 511, 512, 1300];
            const TARGETS: [VertexId; 8] = [0, 1, 5, 255, 256, 4095, 4096, 70_000];
            const CLASSES: [ClassId; 9] =
                [0, 3, 255, 256, 65_535, 65_536, 131_071, 131_072, 1 << 31];
            let mut model: BTreeMap<Pair, ClassId> = start
                .iter()
                .map(|&(v, t, c)| (Pair::new(SOURCES[v], TARGETS[t]), CLASSES[c]))
                .collect();
            let mut column = column_of(&model);
            for batch in batches {
                let mut edits: BTreeMap<Pair, Option<ClassId>> = BTreeMap::new();
                // Classes 9 to 11 stand for a removal.
                for (v, t, class) in batch {
                    let class = CLASSES.get(class).copied();
                    edits.insert(Pair::new(SOURCES[v], TARGETS[t]), class);
                }
                for (&p, &class) in &edits {
                    match class {
                        Some(c) => model.insert(p, c),
                        None => model.remove(&p),
                    };
                }
                let edits: Vec<(Pair, Option<ClassId>)> = edits.into_iter().collect();
                column.edit(&edits);
                prop_assert_eq!(column.check(), Ok(()));
                let expected: Vec<(Pair, ClassId)> = model.iter().map(|(&p, &c)| (p, c)).collect();
                prop_assert_eq!(entries(&column), expected);
                for &(p, _) in &edits {
                    prop_assert_eq!(column.get(p), model.get(&p).copied());
                }
                prop_assert_eq!(column.len(), model.len());
                prop_assert_eq!(column.shards().len(), shards_for(model.keys().map(|p| p.src()).max()));
                prop_assert_eq!(&column, &column_of(&model));
            }
        }
    }
}
