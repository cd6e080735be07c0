//! The writer's pair → class map — the inverted index from each s-t pair to
//! its class that Sec. IV-E's lazy maintenance needs — as a sorted column.
//!
//! Pairs are grouped by source vertex, a CSR over sources (Pathce's
//! per-label CSR idiom, SNIPPETS.md snippet 2, applied in the pair → class
//! direction): per source a slice of `(target, class)` entries sorted by
//! target, 8 bytes an entry — the source is implied by the slice, and a
//! sorted slice needs no empty slots. A lookup is a binary search in one
//! source's slice.
//!
//! The column is cut into [`Shard`]s of 256 consecutive sources, each
//! behind `Arc`, so a write copies only the shards of the pairs it touches.
//! A write hands all of its edits over at once, sorted by pair
//! ([`PairColumn::edit`]): a shard whose entries only change class is
//! overwritten in place, and one that gains or loses entries is rewritten
//! once, by merging its slices with the edits.
//!
//! The form is canonical: it depends on the mapped pairs alone, not on the
//! order of the edits that made them. Every shard holds its 256 sources'
//! start offsets and the entry count, and the column has exactly the shards
//! its largest source needs — no empty shard at the end.

use crate::bisim::ClassId;
use cpqx_graph::{Pair, VertexId};
use std::ops::Range;
use std::sync::Arc;

/// Source-vertex ids per copy-on-write shard, as a bit count. Fine-grained
/// for the same touched/total reason as the index's class chunks.
const SHARD_BITS: u32 = 8;

/// Source-vertex ids per shard.
const SHARD: usize = 1 << SHARD_BITS;

/// A mapped pair's target and class; its source is the slice it sits in.
type Entry = (VertexId, ClassId);

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
    /// Per source of the shard, where its slice starts in `entries`; then
    /// the entry count. `SHARD + 1` offsets, from 0, never decreasing.
    pub(crate) starts: Vec<u32>,
    /// Each source's entries, sorted by target, one source after another.
    pub(crate) entries: Vec<Entry>,
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
        Shard { starts: vec![0; SHARD + 1], entries: Vec::new() }
    }

    /// Where the `off`-th source's slice lies in `entries`.
    fn span(&self, off: usize) -> Range<usize> {
        self.starts[off] as usize..self.starts[off + 1] as usize
    }

    /// The position of `p`'s entry, or `Err` with where it would go.
    fn find(&self, p: Pair) -> Result<usize, usize> {
        let span = self.span(offset_of(p.src()));
        let slice = &self.entries[span.clone()];
        slice
            .binary_search_by_key(&p.dst(), |e| e.0)
            .map(|i| span.start + i)
            .map_err(|i| span.start + i)
    }

    /// What `edits` — all of this shard's sources — would change.
    fn change(&self, edits: &[(Pair, Option<ClassId>)]) -> Change {
        let mut change = Change::None;
        for &(p, class) in edits {
            match (self.find(p), class) {
                (Ok(at), Some(c)) if self.entries[at].1 != c => change = Change::Classes,
                (Ok(_), None) | (Err(_), Some(_)) => return Change::Entries,
                _ => {}
            }
        }
        change
    }

    /// Applies `edits` that move no entry: each mapped pair's class is
    /// overwritten where it stands.
    fn overwrite(&mut self, edits: &[(Pair, Option<ClassId>)]) {
        for &(p, class) in edits {
            if let (Ok(at), Some(c)) = (self.find(p), class) {
                self.entries[at].1 = c;
            }
        }
    }

    /// The shard with `edits` applied, in one pass: each source's slice is
    /// cut at its edited targets (binary search), and the stretches between
    /// cuts are copied whole.
    fn merged(&self, mut edits: &[(Pair, Option<ClassId>)]) -> Shard {
        let mut entries = Vec::with_capacity(self.entries.len() + edits.len());
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
                let at = from + self.entries[from..span.end].partition_point(|e| e.0 < t);
                entries.extend_from_slice(&self.entries[from..at]);
                // The slice's own entry for `t` is dropped either way.
                from = at + usize::from(at < span.end && self.entries[at].0 == t);
                if let Some(c) = class {
                    entries.push((t, c));
                }
            }
            entries.extend_from_slice(&self.entries[from..span.end]);
            starts.push(u32::try_from(entries.len()).expect("a shard holds fewer than 2^32 pairs"));
        }
        debug_assert!(edits.is_empty(), "edits outside the shard");
        Shard { starts, entries }
    }
}

/// The pair → class map: [`Shard`]s of 256 sources each, in source order
/// (see the module docs).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct PairColumn {
    shards: Vec<Arc<Shard>>,
}

impl PairColumn {
    /// The column of the `(pair, class)` entries `rows` yields, each pair
    /// once, in any order; `rows` is walked twice. One counting pass sizes
    /// every source's slice, one pass scatters the entries into them, and
    /// each slice is then sorted by target.
    pub(crate) fn from_rows<I: Iterator<Item = (Pair, ClassId)>>(rows: impl Fn() -> I) -> Self {
        let mut counts: Vec<u32> = Vec::new();
        rows().for_each(|(p, _)| {
            let v = p.src() as usize;
            if v >= counts.len() {
                counts.resize(v + 1, 0);
            }
            counts[v] += 1;
        });
        // Each source's count becomes its cursor: where its slice starts.
        let mut cursors = counts;
        let mut shards: Vec<Shard> = cursors
            .chunks_mut(SHARD)
            .map(|sources| {
                let mut starts = Vec::with_capacity(SHARD + 1);
                let mut at = 0;
                starts.push(at);
                for cursor in sources {
                    (*cursor, at) = (at, at + *cursor);
                    starts.push(at);
                }
                starts.resize(SHARD + 1, at);
                Shard { starts, entries: vec![(0, 0); at as usize] }
            })
            .collect();
        rows().for_each(|(p, c)| {
            let cursor = &mut cursors[p.src() as usize];
            shards[shard_of(p.src())].entries[*cursor as usize] = (p.dst(), c);
            *cursor += 1;
        });
        for shard in &mut shards {
            for off in 0..SHARD {
                let span = shard.span(off);
                shard.entries[span].sort_unstable_by_key(|e| e.0);
            }
        }
        PairColumn { shards: shards.into_iter().map(Arc::new).collect() }
    }

    /// The class `p` is mapped to, if any: a binary search in the slice of
    /// its source.
    pub(crate) fn get(&self, p: Pair) -> Option<ClassId> {
        let shard = self.shards.get(shard_of(p.src()))?;
        shard.find(p).ok().map(|at| shard.entries[at].1)
    }

    /// Applies a write's edits, sorted by pair without duplicates: `(p,
    /// Some(c))` maps `p` to `c`, inserting it if it is absent, and `(p,
    /// None)` removes `p` if it is present. Each shard the edits change is
    /// written once: when no entry comes or goes, its classes are
    /// overwritten in place (the shard copied first if it is shared); when
    /// some do, a new shard is merged from the old one and the edits.
    /// Shards the edits do not change stay shared.
    pub(crate) fn edit(&mut self, mut edits: &[(Pair, Option<ClassId>)]) {
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
            match shard.change(here) {
                Change::None => {}
                Change::Classes => Arc::make_mut(shard).overwrite(here),
                Change::Entries => *shard = Arc::new(shard.merged(here)),
            }
        }
        while self.shards.last().is_some_and(|shard| shard.entries.is_empty()) {
            self.shards.pop();
        }
    }

    /// Number of mapped pairs.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.entries.len()).sum()
    }

    /// The shards, in source order.
    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The bytes the column stores: 8 an entry, and 4 per offset.
    pub(crate) fn stored_bytes(&self) -> usize {
        let offsets = self.shards.len() * (SHARD + 1) * std::mem::size_of::<u32>();
        self.len() * std::mem::size_of::<Entry>() + offsets
    }

    /// Checks the form every read assumes of each shard: `SHARD + 1`
    /// offsets that start at 0, never decrease and end at the entry count,
    /// and each source's slice strictly ascending by target. Whether the
    /// shard count is the one the largest mapped source needs is the
    /// caller's to check (`validate` holds it to the class rows).
    pub(crate) fn check(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            let starts = &shard.starts;
            if starts.len() != SHARD + 1 || starts[0] != 0 || starts.windows(2).any(|w| w[0] > w[1])
            {
                return Err(format!("pair map shard {i}: offsets not monotone from 0"));
            }
            if starts[SHARD] as usize != shard.entries.len() {
                return Err(format!(
                    "pair map shard {i}: offsets end at {}, not at the entry count {}",
                    starts[SHARD],
                    shard.entries.len()
                ));
            }
            for off in 0..SHARD {
                if shard.entries[shard.span(off)].windows(2).any(|w| w[0].0 >= w[1].0) {
                    let v = i * SHARD + off;
                    return Err(format!("pair map: source {v}'s targets not strictly ascending"));
                }
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
                all.extend(
                    shard.entries[shard.span(off)].iter().map(|&(t, c)| (Pair::new(v, t), c)),
                );
            }
        }
        all
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
        for absent in [p(3, 3), p(3, 10), p(1, 0), p(299, 1), p(600, 0)] {
            assert_eq!(column.get(absent), None, "{absent:?}");
        }
        assert_eq!(column.stored_bytes(), 5 * 8 + 2 * 257 * 4);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Against a `BTreeMap` model, batch after batch of edits — class
        /// overwrites, insertions and removals, of present and absent
        /// pairs, at sources on both sides of the shard boundaries at
        /// 256 and 512 and past the last shard — leave a column that reads
        /// like the model, passes `check`, and is the very column a build
        /// from the model makes: shard count (a removal that empties the
        /// last shards drops them), offsets (an emptied source slice is an
        /// empty span) and entries.
        #[test]
        fn edits_keep_the_column_a_built_one(
            start in prop::collection::vec((0usize..9, 0u32..6, 0u32..4), 0..40),
            batches in prop::collection::vec(
                prop::collection::vec((0usize..9, 0u32..6, 0u32..11), 0..24),
                1..6,
            ),
        ) {
            const SOURCES: [VertexId; 9] = [0, 1, 254, 255, 256, 257, 511, 512, 1300];
            let mut model: BTreeMap<Pair, ClassId> = start
                .iter()
                .map(|&(v, t, c)| (Pair::new(SOURCES[v], t), c))
                .collect();
            let mut column = column_of(&model);
            for batch in batches {
                let mut edits: BTreeMap<Pair, Option<ClassId>> = BTreeMap::new();
                // Classes 8 to 10 stand for a removal.
                for (v, t, class) in batch {
                    edits.insert(Pair::new(SOURCES[v], t), (class < 8).then_some(class));
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
