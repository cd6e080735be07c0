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
//! overwritten in place, and one that gains or loses entries is rewritten
//! once, by merging its slices with the edits.
//!
//! Entries are **width-packed**, as `Ic2p` rows are: the entry of target
//! `t` in class `c` is the key `t << class_bits | c`, where `target_bits`
//! and `class_bits` are the bit widths of the shard's own largest target
//! and largest class, stored in `⌈(target_bits + class_bits) / 8⌉` bytes
//! ([`crate::packed_keys`]). Keys sort as their targets do. On a graph of
//! up to 4,096 vertices with up to 2¹⁷ class slots an entry takes 4 bytes,
//! where a `(target, class)` pair of `u32`s takes 8.
//!
//! The form is canonical: it depends on the mapped pairs alone, not on the
//! order of the edits that made them. Every shard holds its 256 sources'
//! start offsets and the entry count, its keys at the narrowest widths that
//! fit its entries — a batch that needs a wider key or leaves the shard
//! without its widest one re-packs it — and the column has exactly the
//! shards its largest source needs — no empty shard at the end.

use crate::bisim::ClassId;
use crate::packed_keys::{self, bits_for, store, KeyWriter, PackedKeys, KEY_PAD};
use cpqx_graph::{Pair, VertexId};
use std::ops::Range;
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
    /// Per source of the shard, where its slice starts among the entries;
    /// then the entry count. `SHARD + 1` offsets, from 0, never
    /// decreasing.
    pub(crate) starts: Vec<u32>,
    /// Each source's entries as packed keys `target << class_bits |
    /// class`, sorted, one source after another; no bytes while the shard
    /// holds no entry.
    pub(crate) keys: Vec<u8>,
    /// The bit width of the shard's largest target (0 without entries).
    pub(crate) target_bits: u8,
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
    fn empty() -> Self {
        Shard { starts: vec![0; SHARD + 1], keys: Vec::new(), target_bits: 0, class_bits: 0 }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.starts[SHARD] as usize
    }

    /// The key widths.
    fn widths(&self) -> Widths {
        (u32::from(self.target_bits), u32::from(self.class_bits))
    }

    /// Where the `off`-th source's slice lies among the entries.
    #[inline]
    fn span(&self, off: usize) -> Range<usize> {
        self.starts[off] as usize..self.starts[off + 1] as usize
    }

    /// A reader of the packed keys.
    #[inline]
    fn keys(&self) -> PackedKeys<'_> {
        PackedKeys::new(&self.keys, u32::from(self.target_bits + self.class_bits))
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
        let span = self.span(offset_of(p.src()));
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
        let width = self.keys().width();
        for &(p, class) in edits {
            if let (Ok(i), Some(c)) = (self.find(p), class) {
                let key = self.key(p.dst(), c);
                store(&mut self.keys, i, width, key);
            }
        }
    }

    /// The shard with `edits` applied, packed at `widths` — wide enough for
    /// every entry — in one pass: each source's slice is cut at its edited
    /// targets (binary search), and the stretches between cuts are copied
    /// whole, or re-packed key by key when the widths change.
    fn merged(&self, mut edits: &[(Pair, Option<ClassId>)], widths: Widths) -> Shard {
        let (target_bits, class_bits) = widths;
        let keys = self.keys();
        let mut out = KeyWriter::with_capacity(target_bits + class_bits, self.len() + edits.len());
        let copy = |out: &mut KeyWriter, range: Range<usize>| {
            if widths == self.widths() {
                out.copy(keys, range);
            } else {
                for (t, c) in range.map(|i| self.entry(i)) {
                    out.push(u64::from(t) << class_bits | u64::from(c));
                }
            }
        };
        let mut starts = Vec::with_capacity(SHARD + 1);
        starts.push(0);
        for off in 0..SHARD {
            let span = self.span(off);
            let (here, rest) =
                edits.split_at(edits.partition_point(|e| offset_of(e.0.src()) == off));
            edits = rest;
            let mut from = span.start;
            for &(p, class) in here {
                let t = p.dst();
                let at = keys.lower_bound(from..span.end, self.key(t, 0));
                copy(&mut out, from..at);
                // The slice's own entry for `t` is dropped either way.
                from = at + usize::from(at < span.end && self.entry(at).0 == t);
                if let Some(c) = class {
                    out.push(u64::from(t) << class_bits | u64::from(c));
                }
            }
            copy(&mut out, from..span.end);
            starts.push(u32::try_from(out.len()).expect("a shard holds fewer than 2^32 pairs"));
        }
        debug_assert!(edits.is_empty(), "edits outside the shard");
        let empty = out.len() == 0;
        let (target_bits, class_bits) = if empty { (0, 0) } else { widths };
        Shard {
            starts,
            keys: out.finish(),
            target_bits: target_bits as u8,
            class_bits: class_bits as u8,
        }
    }

    /// The narrowest widths that fit the entries: a scan of every entry.
    fn narrowest(&self) -> Widths {
        let (mut targets, mut classes) = (None, None);
        for (t, c) in (0..self.len()).map(|i| self.entry(i)) {
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
        // Per shard, its keys are gathered unpacked and packed once its
        // slices are sorted.
        let mut cursors = counts;
        let mut shards: Vec<(Shard, Vec<u64>)> = cursors
            .chunks_mut(SHARD)
            .zip(largest)
            .map(|(sources, (targets, classes))| {
                let mut starts = Vec::with_capacity(SHARD + 1);
                let mut at = 0;
                starts.push(at);
                for cursor in sources {
                    (*cursor, at) = (at, at + *cursor);
                    starts.push(at);
                }
                starts.resize(SHARD + 1, at);
                let (target_bits, class_bits) = (bits_for(targets) as u8, bits_for(classes) as u8);
                (Shard { starts, keys: Vec::new(), target_bits, class_bits }, vec![0; at as usize])
            })
            .collect();
        rows().for_each(|(p, c)| {
            let cursor = &mut cursors[p.src() as usize];
            let (shard, keys) = &mut shards[shard_of(p.src())];
            keys[*cursor as usize] = shard.key(p.dst(), c);
            *cursor += 1;
        });
        // A shard's unpacked keys are freed before the next shard's are
        // packed.
        let shards = shards.into_iter().map(|(mut shard, mut keys)| {
            for off in 0..SHARD {
                keys[shard.span(off)].sort_unstable();
            }
            let bits = u32::from(shard.target_bits + shard.class_bits);
            shard.keys = packed_keys::pack(bits, keys.into_iter());
            Arc::new(shard)
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
    /// copied first if it is shared); otherwise a new shard is merged from
    /// the old one and the edits, at the widths they need. A shard left
    /// without an entry of its top target or class width is then re-packed
    /// narrower. Shards the edits do not change stay shared.
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
                _ => *shard = Arc::new(shard.merged(here, widths)),
            }
            if !shard.at_narrowest() {
                *shard = Arc::new(shard.merged(&[], shard.narrowest()));
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

    /// The bytes the column stores: per shard, its packed keys (padding
    /// included), a byte for each of its two widths, and 4 bytes per
    /// offset.
    pub fn stored_bytes(&self) -> usize {
        let per_shard = 2 + (SHARD + 1) * std::mem::size_of::<u32>();
        self.shards.iter().map(|shard| shard.keys.len() + per_shard).sum()
    }

    /// Checks the form every read assumes of each shard, and its canonical
    /// widths: `SHARD + 1` offsets that start at 0 and never decrease; a
    /// key per entry at the width its two bit widths need, then
    /// [`KEY_PAD`] zero bytes (no bytes without an entry); each source's
    /// slice strictly ascending by target; the widths the narrowest that
    /// fit the entries; and no key bit set past them. Whether the shard
    /// count is the one the largest mapped source needs is the caller's to
    /// check (`validate` holds it to the class rows).
    pub(crate) fn check(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let starts = &shard.starts;
            if starts.len() != SHARD + 1 || starts[0] != 0 || starts.windows(2).any(|w| w[0] > w[1])
            {
                return Err(format!("pair map shard {i}: offsets not monotone from 0"));
            }
            let (n, width) = (shard.len(), shard.keys().width());
            if (n == 0) != (shard.widths() == (0, 0)) {
                return Err(format!("pair map shard {i}: keys not at their narrowest widths"));
            }
            let expected = if n == 0 { 0 } else { n * width + KEY_PAD };
            if shard.keys.len() != expected {
                return Err(format!(
                    "pair map shard {i}: {} key bytes for {n} entries of {width} bytes, not \
                     {expected}",
                    shard.keys.len()
                ));
            }
            for off in 0..SHARD {
                let targets = shard.span(off).map(|at| shard.entry(at).0);
                if targets.clone().zip(targets.skip(1)).any(|(a, b)| a >= b) {
                    let v = i * SHARD + off;
                    return Err(format!("pair map: source {v}'s targets not strictly ascending"));
                }
            }
            if !shard.at_narrowest() {
                return Err(format!("pair map shard {i}: keys not at their narrowest widths"));
            }
            if shard.keys[n * width..].iter().any(|&b| b != 0) {
                return Err(format!("pair map shard {i}: non-zero pad bytes"));
            }
            let stored = PackedKeys::new(&shard.keys, 8 * width as u32);
            if (0..n).any(|at| stored.get(at) != shard.keys().get(at)) {
                return Err(format!("pair map shard {i}: a key bit set past its widths"));
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
                let slice = shard.span(off).map(|at| shard.entry(at));
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
        let shards = [4 + KEY_PAD, 1 + KEY_PAD];
        assert_eq!(column.stored_bytes(), shards.iter().map(|keys| keys + 2 + 257 * 4).sum());
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
            column.shards()[0].keys.len()
        };
        // Re-mapped in place, but 65,536 takes 17 bits: 25 bits, 4 bytes.
        assert_eq!(apply(&[(p(1, 1), Some(65_536))], (8, 17)), 3 * 4 + KEY_PAD);
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
        assert_eq!(apply(&[(p(1, 1), None), (p(1, 4), None)], (0, 0)), 0);
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
