//! Computing the CPQk-equivalence classes — the paper's Algorithm 1.
//!
//! The partition is built bottom-up by block refinement:
//!
//! * **Level 1**: s-t pairs connected by at least one edge are grouped by
//!   `(is-loop, sorted set of extended edge labels v→u)`; the block id
//!   `b₁(v,u)` identifies the group. Pairs without a length-1 path have
//!   `b₁ = NULL` (the paper's skipping rule — the `{id}` and `{}` blocks of
//!   Fig. 3 never get identifiers).
//! * **Level i**: every pair `(v,m)` with an *exact* length-(i−1) path is
//!   joined with every edge `(m,u)`; the signature of `(v,u)` at level i is
//!   the sorted set `Sᵢ(v,u) = {(b_{i-1}(v,m), b₁(m,u))}` over all such `m`,
//!   together with the loop flag. `bᵢ = NULL` iff the pair has no exact
//!   length-i path.
//! * **Classes**: pairs are grouped by `(is-loop, ⟨b₁,…,b_k⟩)` — Algorithm
//!   2's hash of the block-id sequence — and those groups by the invariant
//!   they stand for, `(is-loop, L≤k)`.
//!
//! **Why this is sound for the index** (Sec. IV-C's discussion): by
//! induction on i, the block id `bᵢ` determines the set of exact-length-i
//! label sequences of its pairs — level 1 directly, level i because
//! `L₌ᵢ(v,u) = ⋃_m L₌ᵢ₋₁(v,m)·L₌₁(m,u)` and the members of `Sᵢ` determine
//! the operand sets. Hence all pairs of a class share `L≤k` and cyclicity,
//! which is exactly the invariant query processing relies on (Prop. 4.1 and
//! the IDENTITY check). The same induction lets us compute each block's
//! exact-length-i sequence set *per block id* instead of per pair, which is
//! how `Il2c` is materialized without ever enumerating paths.
//!
//! # Intern as you go
//!
//! Every grouping above runs through one mechanism, `SigInterner`: a
//! signature is interned the moment it is complete and the id it gets is
//! its block or class id. Nothing is buffered level-wide to be sorted into
//! groups afterwards:
//!
//! * every level is **source-major**, a CSR over the source vertices: per
//!   source an end offset, per pair its target and its block id — 8 bytes a
//!   pair. Level 1 sweeps the sorted `(pair, label)` entries once and
//!   interns each pair's label set as its run ends;
//! * level i streams **one source at a time**: for each pair `(v, m)` of
//!   level i−1 it reads `m`'s row of level 1 — level 1's CSR *is* the
//!   edge adjacency, so no copy of it is kept — and fills a small reused
//!   buffer with `(target, combo)` emissions, sorts it, and interns each
//!   target's run of combos on the spot; rows come out target-sorted;
//! * class assembly walks `P≤k` as **one merge of the k levels' rows per
//!   source**, twice. Pass 1 builds each pair's block tuple, interns it,
//!   and records the pair's class (one `u32` a pair); the first pair of a
//!   tuple derives the tuple's `L≤k` and interns *that* — so two block
//!   tuples that stand for the same `(is-loop, L≤k)` land in one class,
//!   and the partition is the coarsest the index invariant allows. Then
//!   the tuple interner, the levels' block ids and their sequence sets are
//!   dropped, and pass 2 re-walks the merge to counting-sort every pair
//!   into its class's exact-size row. The `(pair, class)` list is never
//!   materialized.
//!
//! Ids count up in first-occurrence order along the pair list, in `(src,
//! dst)` order, at every one of those steps. Class numbering is therefore a
//! function of the graph alone: a saved index is byte-identical across
//! builds and processes (the interner's hash has a fixed seed and decides
//! nothing but probe order).
//!
//! Sequence sets are never spelled out per block or class: a build keeps
//! one dictionary of the label sequences it meets, and every block's and
//! class's set is a flat list of [`SeqId`]s into it, ordered by the
//! sequences they name. Dictionary numbering is private to a build;
//! [`crate::CpqxIndex::from_partition`] renumbers the ids for the index.

use crate::intern::{id_words, SeqDict, SigInterner};
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair, MAX_SEQ_LEN};
use std::ops::Range;

/// Identifier of a CPQk-equivalence class.
pub type ClassId = u32;

/// Identifier of a label sequence in a sequence dictionary (a
/// [`Partition`]'s `seqs`, or the index's).
pub type SeqId = u32;

/// The computed partition of `P≤k` (pairs connected by a non-trivial path
/// of length ≤ k; pure-identity pairs with no path are not materialized,
/// matching the index definition — `id` is answered by the executor), laid
/// out class-major: each class's pairs form one row, the `Ic2p` row the
/// index keeps.
#[derive(Default)]
pub struct Partition {
    /// Every class's pairs, back to back in class order; each row sorted.
    /// The rows are disjoint and cover `P≤k`.
    pub rows: Vec<Pair>,
    /// Per class: where its row ends in `rows` (it starts where the
    /// previous class's ends).
    pub row_ends: Vec<usize>,
    /// Per class: whether its pairs are cyclic (`v = u`).
    pub class_loop: Vec<bool>,
    /// Every class's set `L≤k(v,u)`, back to back in class order, as ids
    /// into `seqs`; each class's ids are ordered by the sequences they
    /// name, which are distinct.
    pub(crate) seq_ids: Vec<SeqId>,
    /// Per class: where its ids end in `seq_ids` (they start where the
    /// previous class's end).
    pub(crate) seq_ends: Vec<usize>,
    /// The sequence dictionary: `seqs[id]` is the sequence `id` names.
    pub(crate) seqs: Vec<LabelSeq>,
}

impl Partition {
    /// Number of classes `|C|`.
    pub fn class_count(&self) -> usize {
        self.class_loop.len()
    }

    /// Number of indexed pairs `|P≤k|` (non-trivially connected).
    pub fn pair_count(&self) -> usize {
        self.rows.len()
    }

    /// The sorted pairs of class `c`.
    pub fn row(&self, c: ClassId) -> &[Pair] {
        &self.rows[span(&self.row_ends, c as usize)]
    }

    /// The rows of the classes in `classes`, back to back.
    pub(crate) fn rows_of(&self, classes: Range<usize>) -> &[Pair] {
        &self.rows[start_of(&self.row_ends, classes.start)..start_of(&self.row_ends, classes.end)]
    }

    /// The sequence ids of class `c`'s `L≤k`, in sequence order.
    pub(crate) fn class_seq_ids(&self, c: ClassId) -> &[SeqId] {
        &self.seq_ids[span(&self.seq_ends, c as usize)]
    }

    /// The sorted set `L≤k(v,u)` shared by all member pairs of class `c`.
    pub fn class_seqs(&self, c: ClassId) -> impl ExactSizeIterator<Item = LabelSeq> + '_ {
        self.class_seq_ids(c).iter().map(|&id| self.seqs[id as usize])
    }

    /// Fills the rows by counting sort: `pairs` yields `P≤k` in ascending
    /// order, the `i`-th pair belonging to class `class_of[i]`, so every
    /// row fills sorted and at its exact size.
    pub(crate) fn fill_rows(&mut self, class_of: &[ClassId], pairs: impl Iterator<Item = Pair>) {
        // Each row's start, then its write cursor, and in the end its end.
        let mut ends = vec![0usize; self.class_count()];
        for &c in class_of {
            ends[c as usize] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            start += std::mem::replace(end, start);
        }
        let mut rows = vec![Pair(0); class_of.len()];
        let mut filled = 0;
        for (p, &c) in pairs.zip(class_of) {
            let at = &mut ends[c as usize];
            rows[*at] = p;
            *at += 1;
            filled += 1;
        }
        debug_assert_eq!(filled, class_of.len(), "one class per pair");
        (self.rows, self.row_ends) = (rows, ends);
    }
}

/// Where the `i`-th list starts — where the previous one ends — given the
/// lists' end offsets; `i` may be the number of lists.
fn start_of(ends: &[usize], i: usize) -> usize {
    i.checked_sub(1).map_or(0, |prev| ends[prev])
}

/// The range the `i`-th list occupies, given the lists' end offsets.
fn span(ends: &[usize], i: usize) -> Range<usize> {
    start_of(ends, i)..ends[i]
}

/// One level of the refinement, source-major: the pairs holding an
/// exact-length-i path as a CSR over their source vertices, each pair with
/// its block id, and each block's exact-length-i sequence set.
#[derive(Default)]
struct Level {
    /// Per source vertex: where its pairs end in `targets` and `blocks`
    /// (they start where the previous source's end).
    ends: Vec<usize>,
    /// Each pair's target; ascending within a source.
    targets: Vec<u32>,
    /// Each pair's block id.
    blocks: Vec<u32>,
    /// Every block's exact-length-i sequences, back to back in block order,
    /// as dictionary ids in sequence order.
    seq_ids: Vec<SeqId>,
    /// Per block: where its ids end in `seq_ids`.
    seq_ends: Vec<usize>,
}

impl Level {
    /// Block `b`'s sequence ids.
    #[inline]
    fn block(&self, b: u32) -> &[SeqId] {
        &self.seq_ids[span(&self.seq_ends, b as usize)]
    }

    /// Where source `v`'s pairs lie in `targets` and `blocks`.
    #[inline]
    fn row(&self, v: usize) -> Range<usize> {
        span(&self.ends, v)
    }

    /// Source `v`'s `(target, block)` pairs, in target order.
    fn pairs_of(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let row = self.row(v);
        self.targets[row.clone()].iter().copied().zip(self.blocks[row].iter().copied())
    }

    /// Appends pair `p` in block `b`. Pairs must come in ascending order.
    fn push(&mut self, p: Pair, b: u32) {
        // Close the rows of every source before `p`'s.
        let end = self.targets.len();
        while self.ends.len() < p.src() as usize {
            self.ends.push(end);
        }
        self.targets.push(p.dst());
        self.blocks.push(b);
    }

    /// Closes the rows of the sources up to `n`, the vertex count.
    fn close(&mut self, n: usize) {
        self.ends.resize(n, self.targets.len());
    }
}

/// Computes the CPQk-equivalence classes of `g` (Algorithm 1 + the class
/// assignment of Algorithm 2): [`RefinementBase::new`], then
/// [`RefinementBase::partition`].
pub fn cpq_path_partition(g: &Graph, k: usize) -> Partition {
    RefinementBase::new(g).partition(k)
}

/// Level 1 of Algorithm 1: the level-1 partition — whose CSR doubles as the
/// edge adjacency every later level joins with — and the dictionary of the
/// length-1 sequences its blocks name. Every later refinement level only
/// ever *reads* this state.
pub struct RefinementBase {
    level1: Level,
    dict: SeqDict,
}

impl RefinementBase {
    /// Builds the level-1 state of `g`.
    pub fn new(g: &Graph) -> Self {
        let mut dict = SeqDict::default();
        let level1 = build_level1(g, &mut dict);
        RefinementBase { level1, dict }
    }

    /// Runs the rest of Algorithm 1: refinement levels `2..=k`, then class
    /// assembly. The returned partition covers `P≤k`, grouped by
    /// `(cyclicity, L≤k)`, classes numbered by first occurrence along the
    /// pair list.
    pub fn partition(self, k: usize) -> Partition {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= MAX_SEQ_LEN, "k exceeds MAX_SEQ_LEN");

        let RefinementBase { level1, mut dict } = self;
        let mut levels: Vec<Level> = Vec::with_capacity(k);
        levels.push(level1);
        for _ in 2..=k {
            let next = refine_level(&levels[levels.len() - 1], &levels[0], &mut dict);
            levels.push(next);
        }
        assemble_classes(levels, dict.into_seqs())
    }
}

/// Classes under construction, keyed by the index invariant `(cyclicity,
/// sequence set)`: the grouping step class assembly and the interest-aware
/// partition share. Sequence sets are id lists into one dictionary, ordered
/// by sequence, so equal sets are equal lists; each is stored once, as its
/// interner words.
#[derive(Default)]
pub(crate) struct ClassTable {
    by_invariant: SigInterner,
    class_loop: Vec<bool>,
    /// Reused encoding buffer.
    words: Vec<u64>,
}

impl ClassTable {
    /// The class of `(is_loop, ids)`, registering it under the next id if
    /// it is new.
    pub(crate) fn class_of(&mut self, is_loop: bool, ids: &[SeqId]) -> ClassId {
        id_words(ids, &mut self.words);
        let c = self.by_invariant.intern(is_loop, &self.words);
        if c as usize == self.class_loop.len() {
            self.class_loop.push(is_loop);
        }
        c
    }

    /// A partition over these classes, whose ids name `seqs`, with its rows
    /// still to fill ([`Partition::fill_rows`]). Each class's set is
    /// unpacked from the interner's words, and the interner goes.
    pub(crate) fn into_partition(self, seqs: Vec<LabelSeq>) -> Partition {
        let ClassTable { by_invariant, class_loop, .. } = self;
        let mut seq_ends = Vec::with_capacity(class_loop.len());
        let mut seq_ids = Vec::new();
        for c in 0..class_loop.len() as ClassId {
            // Two ids a word, low first; `u32::MAX` pads an odd last one.
            for &w in by_invariant.words(c) {
                seq_ids.push(w as SeqId);
                if w >> 32 != u32::MAX as u64 {
                    seq_ids.push((w >> 32) as SeqId);
                }
            }
            seq_ends.push(seq_ids.len());
        }
        Partition { class_loop, seq_ids, seq_ends, seqs, ..Partition::default() }
    }
}

/// Level 1: one sweep over the sorted `(pair, label)` entries of every
/// extended label; as a pair's run ends, its `(is-loop, label set)` is
/// interned and the id is the pair's block. Each block's label set is
/// recorded as the dictionary ids of its length-1 sequences.
fn build_level1(g: &Graph, dict: &mut SeqDict) -> Level {
    let mut entries: Vec<(Pair, u16)> = Vec::new();
    for l in g.ext_labels() {
        entries.extend(g.edge_pairs(l).iter().map(|p| (p, l.0)));
    }
    entries.sort_unstable();

    let mut blocks = SigInterner::default();
    let mut level = Level::default();
    let mut labels: Vec<u64> = Vec::new();
    for of_pair in entries.chunk_by(|a, b| a.0 == b.0) {
        let p = of_pair[0].0;
        labels.clear();
        labels.extend(of_pair.iter().map(|&(_, l)| l as u64));
        level.push(p, blocks.intern(p.is_loop(), &labels));
    }
    level.close(g.vertex_count() as usize);

    // Label sets are sorted by label, which is their sequence order.
    level.seq_ends.reserve_exact(blocks.len());
    for b in 0..blocks.len() as u32 {
        let singles = blocks.words(b).iter().map(|&l| LabelSeq::single(ExtLabel(l as u16)));
        level.seq_ids.extend(singles.map(|s| dict.intern(s)));
        level.seq_ends.push(level.seq_ids.len());
    }
    level
}

/// Level i from level i−1: join exact-(i−1) pairs with edges, group by
/// `(is-loop, sorted (b_{i-1}, b₁) set)`. Block ids in the output index
/// into the returned level's sets only, whose sequences `dict` names (new
/// ones are added).
fn refine_level(prev: &Level, level1: &Level, dict: &mut SeqDict) -> Level {
    let n = prev.ends.len();
    let mut blocks = SigInterner::default();
    let mut level = Level::default();
    // One source's `(target, combo)` emissions, and one target's combos.
    let mut emitted: Vec<(u32, u64)> = Vec::new();
    let mut combos: Vec<u64> = Vec::new();
    // Every decomposition prefix·edge of a pair `(v, ·)` is a pair of
    // `v`'s row in `prev` followed by an edge of level 1's row of its
    // target.
    for v in 0..n {
        emitted.clear();
        for (m, b_prev) in prev.pairs_of(v) {
            let combo = (b_prev as u64) << 32;
            emitted.extend(level1.pairs_of(m as usize).map(|(u, b1)| (u, combo | b1 as u64)));
        }
        emitted.sort_unstable();
        emitted.dedup();
        for of_target in emitted.chunk_by(|a, b| a.0 == b.0) {
            let p = Pair::new(v as u32, of_target[0].0);
            combos.clear();
            combos.extend(of_target.iter().map(|&(_, c)| c));
            level.push(p, blocks.intern(p.is_loop(), &combos));
        }
    }
    level.close(n);

    // Each block's exact-length-i sequence set: union over its combos of
    // prev-block seqs × level-1 labels (memoized per block, not per pair —
    // see the module docs for why this equals the paper's per-pair loop),
    // sorted in one reused buffer and stored as ids.
    level.seq_ends.reserve_exact(blocks.len());
    let mut seqs: Vec<LabelSeq> = Vec::new();
    for b in 0..blocks.len() as u32 {
        seqs.clear();
        for &c in blocks.words(b) {
            for &w in prev.block((c >> 32) as u32) {
                let w = dict.seq(w);
                seqs.extend(level1.block(c as u32).iter().map(|&s1| w.concat(&dict.seq(s1))));
            }
        }
        seqs.sort_unstable();
        seqs.dedup();
        level.seq_ids.extend(seqs.iter().map(|&s| dict.intern(s)));
        level.seq_ends.push(level.seq_ids.len());
    }
    level
}

/// Marks, in a [`Merge`] item, a level that does not hold the pair.
const ABSENT: usize = usize::MAX;

/// `P≤k` in `(src, dst)` order — per source, one merge of that source's
/// rows across the k levels — each pair with its position in every level's
/// `targets` and `blocks`, or [`ABSENT`] where it has no exact-length-i
/// path.
struct Merge<'a> {
    levels: &'a [Level],
    /// The source whose rows are being merged, and the next one.
    v: u32,
    next: usize,
    /// Per level: the next unread position of `v`'s row, and its end.
    at: [usize; MAX_SEQ_LEN],
    end: [usize; MAX_SEQ_LEN],
}

impl<'a> Merge<'a> {
    fn new(levels: &'a [Level]) -> Self {
        Merge { levels, v: 0, next: 0, at: [0; MAX_SEQ_LEN], end: [0; MAX_SEQ_LEN] }
    }
}

impl Iterator for Merge<'_> {
    type Item = (Pair, [usize; MAX_SEQ_LEN]);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.levels.len();
        loop {
            // The smallest target under any cursor is the next pair.
            let next_target = (0..k)
                .filter(|&i| self.at[i] < self.end[i])
                .map(|i| self.levels[i].targets[self.at[i]])
                .min();
            if let Some(u) = next_target {
                let mut found = [ABSENT; MAX_SEQ_LEN];
                for (i, level) in self.levels.iter().enumerate() {
                    if self.at[i] < self.end[i] && level.targets[self.at[i]] == u {
                        found[i] = self.at[i];
                        self.at[i] += 1;
                    }
                }
                return Some((Pair::new(self.v, u), found));
            }
            if self.next == self.levels[0].ends.len() {
                return None;
            }
            for (i, level) in self.levels.iter().enumerate() {
                let row = level.row(self.next);
                (self.at[i], self.end[i]) = (row.start, row.end);
            }
            self.v = self.next as u32;
            self.next += 1;
        }
    }
}

/// Final class assignment over the `k` levels, in two walks of their
/// [`Merge`]. Pass 1 interns each pair's `(is-loop, ⟨b₁,…,b_k⟩)` and maps
/// each distinct block tuple to the class of the `(is-loop, L≤k)` it
/// stands for (derived once per tuple from the per-level block sequence
/// sets, whose ids `seqs` names), recording one class id per pair. Pass 2
/// fills the class-major rows.
fn assemble_classes(mut levels: Vec<Level>, seqs: Vec<LabelSeq>) -> Partition {
    const NULL: u32 = u32::MAX;
    let k = levels.len();
    let mut tuple = [NULL; MAX_SEQ_LEN];
    // A tuple's k block ids, two to a word: every tuple has k of them, so
    // the packing is injective.
    let mut tuple_words: Vec<u64> = Vec::new();
    let mut tuples = SigInterner::default();
    // Per distinct block tuple: its class.
    let mut class_of_tuple: Vec<ClassId> = Vec::new();
    let mut classes = ClassTable::default();
    let mut ids: Vec<SeqId> = Vec::new();
    // Per pair of the merge: its class. Every pair of `P≤k` is in some
    // level, so the levels' lengths summed bound the count.
    let mut class_of: Vec<ClassId> =
        Vec::with_capacity(levels.iter().map(|l| l.targets.len()).sum());

    for (p, at) in Merge::new(&levels) {
        for ((b, level), &at) in tuple.iter_mut().zip(&levels).zip(&at) {
            *b = if at == ABSENT { NULL } else { level.blocks[at] };
        }
        id_words(&tuple[..k], &mut tuple_words);
        let t = tuples.intern(p.is_loop(), &tuple_words) as usize;
        if t == class_of_tuple.len() {
            ids.clear();
            for (level, &b) in levels.iter().zip(&tuple) {
                if b != NULL {
                    ids.extend_from_slice(level.block(b));
                }
            }
            // Already in sequence order: each level's block set is, and
            // `LabelSeq` orders by length first.
            debug_assert!(ids.windows(2).all(|w| seqs[w[0] as usize] < seqs[w[1] as usize]));
            class_of_tuple.push(classes.class_of(p.is_loop(), &ids));
        }
        class_of.push(class_of_tuple[t]);
    }

    // Pass 2 reads the pairs alone: what only named blocks goes first.
    drop((tuples, class_of_tuple));
    for level in &mut levels {
        level.blocks = Vec::new();
        level.seq_ids = Vec::new();
        level.seq_ends = Vec::new();
    }
    let mut partition = classes.into_partition(seqs);
    partition.fill_rows(&class_of, Merge::new(&levels).map(|(p, _)| p));
    partition
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::label_seqs_between;
    use cpqx_graph::generate;

    /// Class `c`'s sequence set, read through the partition's dictionary.
    fn seq_set(p: &Partition, c: ClassId) -> Vec<LabelSeq> {
        p.class_seqs(c).collect()
    }

    /// Every class's sequence set, in class order.
    fn seq_sets(p: &Partition) -> Vec<Vec<LabelSeq>> {
        (0..p.class_count() as ClassId).map(|c| seq_set(p, c)).collect()
    }

    /// Every class id with its row.
    fn rows(p: &Partition) -> impl Iterator<Item = (ClassId, &[Pair])> {
        (0..p.class_count() as ClassId).map(|c| (c, p.row(c)))
    }

    /// A level's pairs with their blocks, read off its CSR, after checking
    /// the CSR's shape: one end per vertex, ascending, and targets strictly
    /// ascending within each source.
    fn level_pairs(level: &Level, n: usize) -> Vec<(Pair, u32)> {
        assert_eq!(level.ends.len(), n, "one row per vertex");
        assert!(level.ends.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(level.ends.last().copied().unwrap_or(0), level.targets.len());
        assert_eq!(level.blocks.len(), level.targets.len());
        let mut out = Vec::new();
        for v in 0..n {
            let row = &level.targets[level.row(v)];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {v} unsorted");
            out.extend(level.pairs_of(v).map(|(u, b)| (Pair::new(v as u32, u), b)));
        }
        out
    }

    /// The invariant everything rests on: every row is sorted, the rows
    /// disjointly cover exactly the non-trivially connected pairs, and all
    /// members of a class share cyclicity and the full label-sequence set
    /// `L≤k`.
    fn check_invariants(g: &Graph, k: usize) -> Partition {
        let p = cpq_path_partition(g, k);
        assert_eq!(p.row_ends.len(), p.class_count());
        assert_eq!(p.row_ends.last().copied().unwrap_or(0), p.pair_count());
        // Sorted, disjoint rows.
        let mut seen = std::collections::HashSet::new();
        for (c, row) in rows(&p) {
            assert!(!row.is_empty(), "class {c} has no pairs");
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of class {c} unsorted");
            for &pair in row {
                assert!(seen.insert(pair), "pair {pair:?} in two classes");
            }
        }
        // Exactly the pairs with a non-trivial path of length ≤ k.
        for v in g.vertices() {
            for u in g.vertices() {
                let connected = !label_seqs_between(g, v, u, k).is_empty();
                assert_eq!(
                    seen.contains(&Pair::new(v, u)),
                    connected,
                    "membership mismatch for ({v},{u})"
                );
            }
        }
        // Class homogeneity + stored sequence sets match recomputation.
        for (c, row) in rows(&p) {
            for &pair in row {
                let expected = label_seqs_between(g, pair.src(), pair.dst(), k);
                assert_eq!(seq_set(&p, c), expected, "class {c} seqs wrong for pair {pair:?}");
                assert_eq!(p.class_loop[c as usize], pair.is_loop());
            }
        }
        p
    }

    #[test]
    fn invariants_on_gex_k2() {
        let g = generate::gex();
        let p = check_invariants(&g, 2);
        assert!(p.class_count() > 10, "Gex at k=2 has many classes");
        assert!(p.pair_count() >= p.class_count());
    }

    #[test]
    fn invariants_on_gex_k1_and_k3() {
        let g = generate::gex();
        check_invariants(&g, 1);
        check_invariants(&g, 3);
    }

    #[test]
    fn invariants_on_random_graphs() {
        for seed in 0..4 {
            let cfg = generate::RandomGraphConfig::social(40, 160, 3, seed);
            let g = generate::random_graph(&cfg);
            check_invariants(&g, 2);
        }
    }

    #[test]
    fn invariants_with_self_loops() {
        let mut b = cpqx_graph::GraphBuilder::new();
        b.add_edge_named("a", "a", "f");
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("b", "b", "v");
        b.add_edge_named("b", "a", "v");
        let g = b.build();
        check_invariants(&g, 2);
        check_invariants(&g, 3);
    }

    /// The CSR's edge cases: sources without pairs before, between and
    /// after the ones that have some, and a graph whose only pairs are
    /// self-loops — at k = 1, 2 and 3.
    #[test]
    fn csr_levels_skip_isolated_vertices_and_keep_self_loops() {
        let mut gaps = cpqx_graph::GraphBuilder::new();
        gaps.ensure_vertices(8);
        let (f, v) = (gaps.label("f"), gaps.label("v"));
        // 0, 3, 4, 6 and 7 are isolated.
        gaps.add_edge(1, 2, f);
        gaps.add_edge(2, 5, v);
        gaps.add_edge(5, 5, f);
        let mut loops = cpqx_graph::GraphBuilder::new();
        loops.ensure_vertices(4);
        let f = loops.label("f");
        for x in [1, 3] {
            loops.add_edge(x, x, f);
        }
        for g in [gaps.build(), loops.build()] {
            let n = g.vertex_count() as usize;
            let mut dict = SeqDict::default();
            let mut levels = vec![build_level1(&g, &mut dict)];
            for k in 1..=3 {
                if k > 1 {
                    let next = refine_level(&levels[k - 2], &levels[0], &mut dict);
                    levels.push(next);
                }
                for (i, level) in levels.iter().enumerate() {
                    // Level i holds exactly the pairs with an exact-length-i path.
                    let pairs: Vec<Pair> = level_pairs(level, n).into_iter().map(|e| e.0).collect();
                    let exact: Vec<Pair> = g
                        .vertices()
                        .flat_map(|v| g.vertices().map(move |u| Pair::new(v, u)))
                        .filter(|p| {
                            let seqs = label_seqs_between(&g, p.src(), p.dst(), i + 1);
                            seqs.iter().any(|s| s.len() == i + 1)
                        })
                        .collect();
                    assert_eq!(pairs, exact, "level {}", i + 1);
                }
                let p = check_invariants(&g, k);
                let merged: Vec<Pair> = Merge::new(&levels).map(|(p, _)| p).collect();
                let mut covered = p.rows.clone();
                covered.sort_unstable();
                assert_eq!(merged, covered, "the merge walks P≤{k} in order");
            }
        }
    }

    #[test]
    fn cycle_symmetry_collapses_classes() {
        // On a directed f-cycle every vertex looks alike: the partition at
        // any k has one class per (distance pattern), independent of n.
        let g = generate::cycle(6, "f");
        let p = cpq_path_partition(&g, 2);
        // Five classes: {f}, {ff}, {f⁻¹}, {f⁻¹f⁻¹}, and the loop class
        // {ff⁻¹, f⁻¹f} — each with one pair per vertex.
        assert_eq!(p.class_count(), 5);
        assert_eq!(p.class_loop.iter().filter(|&&l| l).count(), 1);
        for (c, row) in rows(&p) {
            assert_eq!(row.len(), 6, "class {c} should contain one pair per vertex");
        }
    }

    #[test]
    fn refinement_grows_classes_with_k() {
        let g = generate::gex();
        let c1 = cpq_path_partition(&g, 1).class_count();
        let c2 = cpq_path_partition(&g, 2).class_count();
        assert!(c2 >= c1, "k=2 partition refines k=1 ({c2} < {c1})");
    }

    #[test]
    fn loop_and_nonloop_never_share_class() {
        let g = generate::gex();
        let p = cpq_path_partition(&g, 2);
        for (c, row) in rows(&p) {
            assert!(row.iter().all(|pair| pair.is_loop() == p.class_loop[c as usize]));
        }
    }

    #[test]
    fn clique_has_uniform_classes() {
        let g = generate::clique(4, "f");
        let p = check_invariants(&g, 2);
        // All non-loop pairs are alike; all loop pairs are alike.
        assert_eq!(p.class_count(), 2);
    }

    /// Classes are numbered by first occurrence along the pair list — class
    /// c's first pair is below class c+1's — and no two of them share
    /// `(cyclicity, L≤k)`: the partition is the coarsest the index
    /// invariant allows.
    #[test]
    fn classes_are_minimal_and_numbered_by_first_occurrence() {
        for seed in 0..4 {
            let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 3, seed));
            let p = cpq_path_partition(&g, 2);
            let firsts: Vec<Pair> = rows(&p).map(|(_, row)| row[0]).collect();
            assert!(
                firsts.windows(2).all(|w| w[0] < w[1]),
                "classes out of first-occurrence order"
            );
            let distinct: std::collections::HashSet<_> =
                p.class_loop.iter().zip(seq_sets(&p)).collect();
            assert_eq!(distinct.len(), p.class_count(), "two classes share an invariant");
        }
    }

    /// Level 1 on its own: blocks partition the edge-connected pairs
    /// exactly by `(is-loop, label set)`, block `b`'s sequence ids name
    /// that label set, and ids count up by first occurrence along the pair
    /// list.
    #[test]
    fn level1_groups_pairs_by_loop_flag_and_label_set() {
        let mut self_loops = cpqx_graph::GraphBuilder::new();
        self_loops.add_edge_named("a", "a", "f");
        self_loops.add_edge_named("a", "b", "f");
        self_loops.add_edge_named("b", "b", "f");
        self_loops.add_edge_named("b", "a", "v");
        let mut edgeless = cpqx_graph::GraphBuilder::new();
        edgeless.ensure_vertices(4);
        edgeless.ensure_labels(2);
        for g in [generate::gex(), self_loops.build(), edgeless.build()] {
            let mut expected: std::collections::BTreeMap<Pair, Vec<LabelSeq>> = Default::default();
            for l in g.ext_labels() {
                for p in g.edge_pairs(l).iter() {
                    expected.entry(p).or_default().push(LabelSeq::single(l));
                }
            }
            let mut dict = SeqDict::default();
            let level1 = build_level1(&g, &mut dict);
            let pair_blocks = level_pairs(&level1, g.vertex_count() as usize);
            assert!(pair_blocks.iter().map(|&(p, _)| p).eq(expected.keys().copied()));
            let mut by_sig = std::collections::HashMap::new();
            for &(p, b) in &pair_blocks {
                let labels: Vec<LabelSeq> =
                    level1.block(b).iter().map(|&id| dict.seq(id)).collect();
                assert_eq!(labels, expected[&p], "label set of {p:?}");
                let next = by_sig.len() as u32;
                let first = *by_sig.entry((p.is_loop(), &expected[&p])).or_insert(next);
                assert_eq!(b, first, "{p:?}: one id per signature, by first occurrence");
            }
            assert_eq!(by_sig.len(), level1.seq_ends.len());
        }
    }

    #[test]
    fn star_separates_center_from_spokes() {
        let g = generate::star(5, "f");
        let p = check_invariants(&g, 2);
        // (0,i): edge f + 2-paths; (i,0): inverse; (i,j): spoke to spoke
        // via center; (i,i)/(0,0): cyclic f·f⁻¹ patterns.
        assert!(p.class_count() >= 4);
    }
}
