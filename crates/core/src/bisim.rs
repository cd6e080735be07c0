//! Computing the CPQk-equivalence classes — the paper's Algorithm 1.
//!
//! The partition is built bottom-up, one path length at a time:
//!
//! * **Level 1**: s-t pairs connected by at least one edge are grouped by
//!   their sorted set of extended edge labels `L₌₁(v,u)`; the block id
//!   `b₁(v,u)` is the id of that set. Pairs without a length-1 path have
//!   `b₁ = NULL` (the paper's skipping rule — the `{id}` and `{}` blocks of
//!   Fig. 3 never get identifiers).
//! * **Level i**: every pair `(v,m)` with an *exact* length-(i−1) path is
//!   joined with every edge `(m,u)`; `L₌ᵢ(v,u) = ⋃_m L₌ᵢ₋₁(v,m)·L₌₁(m,u)`,
//!   and `bᵢ(v,u)` is the id of that set. `bᵢ = NULL` iff the pair has no
//!   exact length-i path.
//! * **Classes**: pairs are grouped by `(is-loop, ⟨b₁,…,b_k⟩)` — Algorithm
//!   2's hash of the block-id sequence.
//!
//! **Why a tuple of set ids is canonical**: each `bᵢ` names one distinct
//! set `L₌ᵢ` (or the empty one, `NULL`), and `L≤k` is the disjoint union
//! of `L₌₁ … L₌ₖ` — sequences of different lengths never mix — so
//! `L≤k` determines every `L₌ᵢ` and is determined by them. Two pairs
//! therefore share `(is-loop, ⟨b₁,…,b_k⟩)` exactly when they share
//! `(is-loop, L≤k)`: the grouping is the coarsest the index invariant
//! (Prop. 4.1 and the IDENTITY check) allows, with no second grouping of
//! block tuples by the invariant they stand for. With an interest set `Lq`
//! (Def. 5.1) the same holds for `L≤k ∩ Lq` and the sets `L₌ᵢ ∩ Lq`.
//!
//! # Sets as integer keys
//!
//! No sequence set is spelled out as [`LabelSeq`]s while the levels are
//! built. A length-i sequence `s·l` is the integer key
//! `rank(s) · n_ext + l`, where `rank(s)` is `s`'s position among the
//! length-(i−1) sequences the build met, in sequence order (a length-1
//! sequence's rank is its label). Key order is therefore sequence order:
//! a set is a sorted, deduplicated run of integers. Once a level is
//! complete its distinct keys, sorted, give the ranks the next level's keys
//! are made of. Keys are `u64` (a rank times `n_ext` can pass `u32::MAX`),
//! and a `(target, key)` emission is one `u64`, the key in its low bits:
//! the build checks that a vertex id and a key fit one together.
//!
//! # One walk per source
//!
//! Every level below the last is **source-major**, a CSR over the source
//! vertices: per source an end offset, per pair its target and its set id
//! — 8 bytes a pair. Level 1 sweeps the sorted `(pair, label)` entries
//! once and interns each pair's label set as its run ends; level 1's CSR
//! *is* the edge adjacency every later level joins with, so no copy of it
//! is kept. Level i < k streams one source at a time: for each pair
//! `(v, m)` of level i−1 it reads `m`'s row of level 1 and fills a small
//! reused buffer with `(target, key)` emissions, sorts and deduplicates it,
//! and interns each target's run of keys as the pair's set.
//!
//! The last level k is never materialized. Its walk, again one source `v`
//! at a time, emits and sorts `v`'s `(target, key)` pairs as above, merges
//! each target's run of keys with `v`'s rows of levels `1..k−1`, and
//! interns the pair's `(is-loop, ⟨b₁,…,b_{k−1}⟩, L₌ₖ keys)` at once — one
//! probe per pair of `P≤k` — recording `(target, class)` for the pair. The
//! levels then go, each class's `L≤k` is written out from its interned
//! words (each level-k key getting its dictionary id from the sorted list
//! of the keys met), and a counting sort of the recorded `(target, class)`
//! list fills every class's row at its exact size, sorted.
//!
//! # An interest set prunes the walk
//!
//! The interest-aware partition (Sec. V) is the same walk under a **keep
//! set** per level above the first: a key survives iff its sequence is an
//! interest or a proper prefix of one, and level i+1 extends a surviving
//! prefix only by the labels allowed after it, off the graph's label runs.
//! At k ≥ 3 a lower set can hold prefix-only keys: the **filtered-id map**
//! sends its id, once per set, to the id of its interest keys' part, which
//! the class interns. Without prefix-only keys in the keep set (at k = 2,
//! and in a full build) the map is the identity and never built. A pair
//! that names no sequence is not indexed.
//!
//! Ids count up in first-occurrence order along the pair list, in `(src,
//! dst)` order, at every one of those steps. Class numbering is therefore a
//! function of the graph alone: a saved index is byte-identical across
//! builds and processes (the interner's hash has a fixed seed and decides
//! nothing but probe order).
//!
//! The build's dictionary is the sequences of every length in rank order:
//! every class's set is a flat list of [`SeqId`]s into it, ordered by the
//! sequences they name. Dictionary numbering is private to a build;
//! [`crate::CpqxIndex::from_partition`] renumbers the ids for the index.

use crate::intern::SigInterner;
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair, MAX_SEQ_LEN};
use std::collections::BTreeSet;
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
/// index keeps. An interest-aware one covers the pairs with a non-empty
/// `L≤k ∩ Lq`, and its class sets are those intersections.
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
    fn fill_rows(&mut self, class_of: &[ClassId], pairs: impl Iterator<Item = Pair>) {
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

/// Pairs grouped per source vertex: a CSR of per-source end offsets over
/// per-pair targets and one `u32` value a pair.
#[derive(Default)]
struct SourceRows {
    /// Per source vertex: where its pairs end in `targets` and `values`
    /// (they start where the previous source's end).
    ends: Vec<usize>,
    /// Each pair's target; ascending within a source.
    targets: Vec<u32>,
    /// Each pair's value: its set id in a [`Level`], its class in a
    /// [`LastLevel`].
    values: Vec<u32>,
}

impl SourceRows {
    /// Where source `v`'s pairs lie in `targets` and `values`.
    #[inline]
    fn row(&self, v: usize) -> Range<usize> {
        span(&self.ends, v)
    }

    /// Source `v`'s `(target, value)` pairs, in target order.
    #[inline]
    fn pairs_of(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let row = self.row(v);
        self.targets[row.clone()].iter().copied().zip(self.values[row].iter().copied())
    }

    /// Every pair, in `(src, dst)` order.
    fn pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        (0..self.ends.len() as u32).flat_map(move |v| {
            self.targets[self.row(v as usize)].iter().map(move |&u| Pair::new(v, u))
        })
    }

    /// Appends pair `p` with `value`. Pairs must come in ascending order.
    fn push(&mut self, p: Pair, value: u32) {
        // Close the rows of every source before `p`'s.
        let end = self.targets.len();
        while self.ends.len() < p.src() as usize {
            self.ends.push(end);
        }
        self.targets.push(p.dst());
        self.values.push(value);
    }

    /// Closes the rows of the sources up to `n`, the vertex count.
    fn close(&mut self, n: usize) {
        self.ends.resize(n, self.targets.len());
    }
}

/// One level below the last: the pairs holding an exact-length-i path
/// with a kept key, each with its set id `bᵢ`, and each set's sequences.
#[derive(Default)]
struct Level {
    /// The pairs, each valued with its set id.
    rows: SourceRows,
    /// Every set's sequences, back to back in set order, as ranks among
    /// the level's sequences — ascending, hence in sequence order. The
    /// interest-filtered parts `filtered` names follow the level's own sets.
    ranks: Vec<u32>,
    /// Per set: where its ranks end in `ranks`.
    rank_ends: Vec<usize>,
    /// The filtered-id map: per set, the set id of its interest keys' part,
    /// [`NULL`] if none; empty — the identity — without prefix-only keys.
    filtered: Vec<u32>,
}

impl Level {
    /// Set `b`'s ranks.
    #[inline]
    fn set(&self, b: u32) -> &[u32] {
        &self.ranks[span(&self.rank_ends, b as usize)]
    }

    /// Records every set of `sets` as ranks: `rank` maps each word (a
    /// label, or a key) to its rank.
    fn record_sets(&mut self, sets: &SigInterner, mut rank: impl FnMut(u64) -> u32) {
        self.rank_ends.reserve_exact(sets.len());
        for b in 0..sets.len() as u32 {
            self.ranks.extend(sets.words(b).iter().map(|&w| rank(w)));
            self.rank_ends.push(self.ranks.len());
        }
    }

    /// Fills the filtered-id map: each of `sets`' keys that are
    /// interests (`indexed`) form a part, and the parts are recorded after
    /// the level's own sets.
    fn filter_sets(&mut self, sets: &SigInterner, indexed: &[u64], rank: impl FnMut(u64) -> u32) {
        let (mut parts, mut keys, first) = (SigInterner::default(), Vec::new(), sets.len() as u32);
        for b in 0..first {
            keys.clear();
            keys.extend(sets.words(b).iter().filter(|key| indexed.binary_search(key).is_ok()));
            let part =
                if keys.is_empty() { NULL as u32 } else { first + parts.intern(false, &keys) };
            self.filtered.push(part);
        }
        self.record_sets(&parts, rank);
    }
}

/// The keys of one level an interest-aware build keeps — those whose
/// sequence is an interest or a proper prefix of one: per rank of the
/// level below, the labels after it (`labels`, ending at `ends`); and the
/// kept keys whose sequence is an interest, ascending (`indexed`).
struct Keep {
    labels: Vec<u16>,
    ends: Vec<usize>,
    indexed: Vec<u64>,
}

/// Marks, in a class's interned words, a level that does not hold the
/// pair.
const NULL: u64 = u32::MAX as u64;

/// A `(target, key)` emission: one `u64` with the key in its low `shift`
/// bits, so that emission order is `(target, key)` order.
#[inline]
fn pack(target: u32, key: u64, shift: u32) -> u64 {
    (target as u64) << shift | key
}

/// An emission's target.
#[inline]
fn target_of(e: u64, shift: u32) -> u32 {
    (e >> shift) as u32
}

/// An emission's key.
#[inline]
fn key_of(e: u64, shift: u32) -> u64 {
    e & ((1 << shift) - 1)
}

/// Number of bits that hold every value below `bound`.
fn bits_below(bound: u64) -> u32 {
    u64::BITS - bound.saturating_sub(1).leading_zeros()
}

/// The key shift of an emission over `n` targets and keys below
/// `key_space`, or `None` if the two do not fit one `u64`.
fn u64_shift(n: usize, key_space: u64) -> Option<u32> {
    let shift = bits_below(key_space);
    (shift + bits_below(n as u64) <= u64::BITS).then_some(shift)
}

/// [`u64_shift`], for a build: a vertex id and a key must fit one `u64`.
fn emission_shift(n: usize, key_space: u64) -> u32 {
    u64_shift(n, key_space).expect("a vertex id and a sequence key exceed 64 bits")
}

/// Computes the CPQk-equivalence classes of `g` (Algorithm 1 + the class
/// assignment of Algorithm 2): [`RefinementBase::new`], then
/// [`RefinementBase::partition`] with no interest set.
pub fn cpq_path_partition(g: &Graph, k: usize) -> Partition {
    RefinementBase::new(g).partition(k, None)
}

/// Level 1 of Algorithm 1: the level-1 partition, whose CSR doubles as the
/// edge adjacency every later level joins with. Every later level only
/// ever *reads* this state.
pub struct RefinementBase<'g> {
    /// The graph, whose label runs a pruned walk joins with.
    g: &'g Graph,
    level1: Level,
}

impl<'g> RefinementBase<'g> {
    /// Builds the level-1 state of `g`.
    pub fn new(g: &'g Graph) -> Self {
        RefinementBase { g, level1: build_level1(g) }
    }

    /// Runs the rest of Algorithm 1: levels `2..k`, then the last level k
    /// fused with class assembly. The partition covers `P≤k`, grouped by
    /// `(cyclicity, L≤k)`; with `interests` (as [`crate::normalize_interests`]
    /// returns them, plus every length-1 sequence: `Lq`), only the pairs
    /// with a non-empty `L≤k ∩ Lq`, grouped by `(cyclicity, L≤k ∩ Lq)`.
    /// Classes are numbered by first occurrence along the pair list.
    pub fn partition(self, k: usize, interests: Option<&BTreeSet<LabelSeq>>) -> Partition {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= MAX_SEQ_LEN, "k exceeds MAX_SEQ_LEN");
        assert!(interests.is_none_or(|lq| lq.iter().all(|s| s.len() <= k)), "normalize first");
        let mut lower = LowerLevels::new(self.g, self.level1, k);
        let keep = |lower: &LowerLevels<'_>| interests.map(|lq| lower.keep(lq));
        for _ in 2..k {
            lower.refine(keep(&lower).as_ref());
        }
        let last = lower.last_level(keep(&lower).as_ref());
        lower.into_partition(last)
    }
}

/// Levels `1..k−1`, materialized, and the dictionary of the sequences
/// their sets name.
struct LowerLevels<'g> {
    g: &'g Graph,
    /// Level 1 first; at k = 1 it is only the edge adjacency, not a level
    /// below the last.
    levels: Vec<Level>,
    /// The path parameter.
    k: usize,
    /// The number of extended labels: the radix of every key.
    n_ext: u64,
    /// The sequences of lengths `1..=levels.len()` below k, each length's
    /// in rank order: level i's rank `r` names `seqs[starts[i − 1] + r]`.
    seqs: Vec<LabelSeq>,
    starts: Vec<usize>,
}

impl<'g> LowerLevels<'g> {
    fn new(g: &'g Graph, level1: Level, k: usize) -> Self {
        let n_ext = g.ext_label_count() as u64;
        // A length-1 sequence's rank is its label; at k = 1 every
        // sequence is a level-k key, named when the classes are written.
        let seqs = if k > 1 {
            (0..n_ext).map(|l| LabelSeq::single(ExtLabel(l as u16))).collect()
        } else {
            Vec::new()
        };
        LowerLevels { g, levels: vec![level1], k, n_ext, seqs, starts: vec![0] }
    }

    /// The sequences the top level ranks, in rank order (at k > 1).
    fn ranked(&self) -> &[LabelSeq] {
        &self.seqs[self.starts[self.levels.len() - 1]..]
    }

    /// The number of keys of the level above the top one.
    fn next_key_space(&self) -> u64 {
        (self.ranked().len() as u64).checked_mul(self.n_ext).expect("key space exceeds u64")
    }

    /// The keep set of the level above the top one, for the interests `lq`.
    fn keep(&self, lq: &BTreeSet<LabelSeq>) -> Keep {
        let (top, n_ext, ranked) = (self.levels.len(), self.n_ext, self.ranked());
        // Every kept key, with whether its sequence is an interest.
        let mut keys: Vec<(u64, bool)> = lq
            .iter()
            .filter(|s| s.len() > top)
            .filter_map(|s| {
                let (r, l) = (ranked.binary_search(&s.prefix(top)).ok()?, s.get(top).0 as u64);
                (l < n_ext).then_some((r as u64 * n_ext + l, s.len() == top + 1))
            })
            .collect();
        keys.sort_unstable();
        let indexed = keys.iter().filter(|e| e.1).map(|e| e.0).collect();
        keys.dedup_by_key(|e| e.0);
        let ends =
            (1..=ranked.len() as u64).map(|r| keys.partition_point(|e| e.0 < r * n_ext)).collect();
        Keep { labels: keys.iter().map(|e| (e.0 % n_ext) as u16).collect(), ends, indexed }
    }

    /// Fills `out` with source `v`'s exact-length-i sequences, per target,
    /// as sorted, deduplicated `(target, key)` emissions: for every pair
    /// `(v, m)` of `prev` (level i−1) and every edge `(m, u)` of level 1,
    /// every `rank(s) · n_ext + l` with `s` in `(v, m)`'s set and `l` in
    /// `(m, u)`'s — or, with a keep set, only the `l` it allows after `s`,
    /// off the graph's label runs. Without `prev` (i = 1) the keys are `v`'s
    /// edges' labels.
    fn emit(
        &self,
        prev: Option<&Level>,
        shift: u32,
        keep: Option<&Keep>,
        v: usize,
        out: &mut Vec<u64>,
    ) {
        let (level1, n_ext) = (&self.levels[0], self.n_ext);
        out.clear();
        match (prev, keep) {
            (Some(prev), None) => {
                for (m, s) in prev.rows.pairs_of(v) {
                    let prefixes = prev.set(s);
                    for (u, b1) in level1.rows.pairs_of(m as usize) {
                        let labels = level1.set(b1);
                        for &r in prefixes {
                            let base = r as u64 * n_ext;
                            out.extend(labels.iter().map(|&l| pack(u, base + l as u64, shift)));
                        }
                    }
                }
            }
            (Some(prev), Some(keep)) => {
                for (m, s) in prev.rows.pairs_of(v) {
                    for &r in prev.set(s) {
                        for &l in &keep.labels[span(&keep.ends, r as usize)] {
                            let key = r as u64 * n_ext + l as u64;
                            let run = self.g.label_run(m, ExtLabel(l));
                            out.extend(run.iter().map(|p| pack(p.dst(), key, shift)));
                        }
                    }
                }
            }
            // Level 1's rows are target-sorted and its sets label-sorted.
            (None, _) => {
                for (u, b1) in level1.rows.pairs_of(v) {
                    out.extend(level1.set(b1).iter().map(|&l| pack(u, l as u64, shift)));
                }
                return;
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The sequence `key` names, one longer than the top level's.
    fn key_seq(&self, key: u64) -> LabelSeq {
        let l = ExtLabel((key % self.n_ext) as u16);
        if self.k == 1 {
            return LabelSeq::single(l);
        }
        self.ranked()[(key / self.n_ext) as usize].appended(l)
    }

    /// Adds the level above the top one: its pairs' sets of the keys `keep`
    /// keeps, interned by their sorted keys, then recorded as ranks — with
    /// their interest-filtered parts if some key is only a prefix — and its
    /// sequences appended to the dictionary in rank order.
    fn refine(&mut self, keep: Option<&Keep>) {
        let n = self.levels[0].rows.ends.len();
        let mut sets = SigInterner::default();
        let mut level = Level::default();
        let shift = emission_shift(n, self.next_key_space());
        let prev = self.levels.last().expect("level 1 is built");
        let (mut emitted, mut keys) = (Vec::new(), Vec::new());
        for v in 0..n {
            self.emit(Some(prev), shift, keep, v, &mut emitted);
            for of_target in emitted.chunk_by(|&a, &b| target_of(a, shift) == target_of(b, shift)) {
                keys.clear();
                keys.extend(of_target.iter().map(|&e| key_of(e, shift)));
                let p = Pair::new(v as u32, target_of(of_target[0], shift));
                level.rows.push(p, sets.intern(false, &keys));
            }
        }
        level.rows.close(n);

        let mut memo = KeyMemo::default();
        for b in 0..sets.len() as u32 {
            memo.insert_all(sets.words(b));
        }
        let met = memo.rank();
        level.record_sets(&sets, |key| memo.position(key));
        if let Some(keep) = keep.filter(|keep| keep.indexed.len() < keep.labels.len()) {
            level.filter_sets(&sets, &keep.indexed, |key| memo.position(key));
        }
        let named: Vec<LabelSeq> = met.iter().map(|&key| self.key_seq(key)).collect();
        self.starts.push(self.seqs.len());
        self.seqs.extend(named);
        self.levels.push(level);
    }

    /// The last level, fused with class assembly: one walk per source
    /// emits the source's level-k keys that `keep` keeps and merges each
    /// target's run with the source's rows of levels `1..k−1`, interning
    /// each pair's class at once — its lower sets by their filtered ids. A
    /// pair whose items name no sequence is not indexed.
    fn last_level(&self, keep: Option<&Keep>) -> LastLevel {
        let n = self.levels[0].rows.ends.len();
        let lower = &self.levels[..self.k - 1];
        let prev = lower.last();
        let key_space = if prev.is_some() { self.next_key_space() } else { self.n_ext };
        let mut last = LastLevel {
            lower: lower.len(),
            narrow: key_space <= NULL,
            rows: SourceRows::default(),
            classes: SigInterner::default(),
            class_loop: Vec::new(),
        };
        let shift = emission_shift(n, key_space);
        let (mut emitted, mut items, mut words) = (Vec::new(), Vec::new(), Vec::new());
        // Per lower level: the next unread position of `v`'s row, and its
        // end.
        let mut at = [0usize; MAX_SEQ_LEN];
        let mut end = [0usize; MAX_SEQ_LEN];
        for v in 0..n {
            self.emit(prev, shift, keep, v, &mut emitted);
            for (i, level) in lower.iter().enumerate() {
                (at[i], end[i]) = (level.rows.row(v).start, level.rows.row(v).end);
            }
            let mut e = 0;
            loop {
                // The smallest target under any cursor is the next pair.
                let mut u = emitted.get(e).map(|&x| target_of(x, shift));
                for (i, level) in lower.iter().enumerate() {
                    if at[i] < end[i] {
                        let t = level.rows.targets[at[i]];
                        u = Some(u.map_or(t, |u| u.min(t)));
                    }
                }
                let Some(u) = u else { break };
                items.clear();
                for (i, level) in lower.iter().enumerate() {
                    if at[i] < end[i] && level.rows.targets[at[i]] == u {
                        let b = level.rows.values[at[i]];
                        items.push(level.filtered.get(b as usize).map_or(b, |&f| f) as u64);
                        at[i] += 1;
                    } else {
                        items.push(NULL);
                    }
                }
                while let Some(&x) = emitted.get(e).filter(|&&x| target_of(x, shift) == u) {
                    items.push(key_of(x, shift));
                    e += 1;
                }
                if items.len() == lower.len() && items.iter().all(|&b| b == NULL) {
                    continue;
                }
                let p = Pair::new(v as u32, u);
                let c = last.intern(p.is_loop(), &items, &mut words);
                last.rows.push(p, c);
            }
        }
        last.rows.close(n);
        last
    }

    /// Writes out every class's `L≤k` — its lower levels' sets, then its
    /// level-k keys, each named by its position among the keys met — and
    /// counting-sorts the pairs into class-major rows.
    fn into_partition(mut self, mut last: LastLevel) -> Partition {
        // What only the walk read goes first.
        for level in &mut self.levels {
            level.rows = SourceRows::default();
        }
        last.classes.drop_table();
        let mut items = Vec::new();
        // The keys met, and every class's set size.
        let mut memo = KeyMemo::default();
        let mut id_count = 0;
        for c in 0..last.class_count() {
            let (lower, keys) = last.items(c, &mut items);
            memo.insert_all(keys);
            id_count += keys.len() + self.lower_sets(lower).map(<[u32]>::len).sum::<usize>();
        }
        let met = memo.rank();
        let first_key = self.seqs.len();
        let named: Vec<LabelSeq> = met.iter().map(|&key| self.key_seq(key)).collect();

        let mut seq_ids: Vec<SeqId> = Vec::with_capacity(id_count);
        let mut seq_ends = Vec::with_capacity(last.class_count() as usize);
        for c in 0..last.class_count() {
            let (lower, keys) = last.items(c, &mut items);
            for (start, set) in self.starts.iter().zip(self.lower_sets(lower)) {
                seq_ids.extend(set.iter().map(|&r| seq_id(start + r as usize)));
            }
            seq_ids.extend(keys.iter().map(|&key| seq_id(first_key + memo.position(key) as usize)));
            seq_ends.push(seq_ids.len());
        }
        let LastLevel { rows, classes, class_loop, .. } = last;
        drop((classes, memo, self.levels));
        self.seqs.extend(named);

        let mut partition =
            Partition { class_loop, seq_ids, seq_ends, seqs: self.seqs, ..Partition::default() };
        partition.fill_rows(&rows.values, rows.pairs());
        partition
    }

    /// The sets a class's lower set ids name, level by level; a level that
    /// does not hold the class's pairs ([`NULL`]) names none.
    fn lower_sets<'a>(&'a self, lower: &'a [u64]) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.levels
            .iter()
            .zip(lower)
            .map(|(level, &b)| if b == NULL { &[][..] } else { level.set(b as u32) })
    }
}

/// The last level's walk: every pair of `P≤k` valued with its class, and
/// the classes, each interned as its items `(⟨b₁,…,b_{k−1}⟩, L₌ₖ keys)`
/// under its loop flag — a lower level that does not hold the pair reads
/// [`NULL`].
struct LastLevel {
    /// The number of lower set ids a class's items start with: k − 1.
    lower: usize,
    /// Whether every key is below [`NULL`], so that the items pack two to
    /// a word, low first, with a [`NULL`] after an odd last one: the
    /// lower ids' count is fixed and no key is [`NULL`], so the packing is
    /// injective. Otherwise each item is a word.
    narrow: bool,
    rows: SourceRows,
    classes: SigInterner,
    class_loop: Vec<bool>,
}

impl LastLevel {
    fn class_count(&self) -> ClassId {
        self.class_loop.len() as ClassId
    }

    /// The class of `(is_loop, items)`, registering it under the next id
    /// if it is new; `words` is the reused encoding buffer.
    fn intern(&mut self, is_loop: bool, items: &[u64], words: &mut Vec<u64>) -> ClassId {
        let words = if self.narrow {
            words.clear();
            words.extend(
                items.chunks(2).map(|two| two.get(1).copied().unwrap_or(NULL) << 32 | two[0]),
            );
            &words[..]
        } else {
            items
        };
        let c = self.classes.intern(is_loop, words);
        if c == self.class_count() {
            self.class_loop.push(is_loop);
        }
        c
    }

    /// Class `c`'s lower set ids and level-k keys, unpacked into `items`.
    fn items<'a>(&self, c: ClassId, items: &'a mut Vec<u64>) -> (&'a [u64], &'a [u64]) {
        let words = self.classes.words(c);
        items.clear();
        if self.narrow {
            items.extend(words.iter().flat_map(|&w| [w & NULL, w >> 32]));
            if items.len() > self.lower && items.last() == Some(&NULL) {
                items.pop();
            }
        } else {
            items.extend_from_slice(words);
        }
        items.split_at(self.lower)
    }
}

/// The keys a level met, each with its position among them in key order:
/// an open-addressing table (linear probing, load ≤ ½) sized by the
/// distinct keys, never by the key space.
#[derive(Default)]
struct KeyMemo {
    /// `(key, position)`; [`KeyMemo::EMPTY`] keys an empty slot. Positions
    /// are set by [`KeyMemo::rank`].
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl KeyMemo {
    /// Above every key: a key is below `u32::MAX · n_ext`, under 2⁴⁸.
    const EMPTY: u64 = u64::MAX;

    /// The slot `key` is in, or the empty slot where it would go.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.slots[at].0 != key && self.slots[at].0 != Self::EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    fn insert_all(&mut self, keys: &[u64]) {
        for &key in keys {
            if (self.len + 1) * 2 > self.slots.len() {
                let cap = (self.slots.len() * 2).max(64);
                let old = std::mem::replace(&mut self.slots, vec![(Self::EMPTY, 0); cap]);
                for (key, _) in old.into_iter().filter(|e| e.0 != Self::EMPTY) {
                    let at = self.slot(key);
                    self.slots[at].0 = key;
                }
            }
            let at = self.slot(key);
            if self.slots[at].0 == Self::EMPTY {
                self.slots[at].0 = key;
                self.len += 1;
            }
        }
    }

    /// Gives every key its position in key order, and returns the keys in
    /// that order.
    fn rank(&mut self) -> Vec<u64> {
        let mut keys: Vec<u64> =
            self.slots.iter().map(|e| e.0).filter(|&key| key != Self::EMPTY).collect();
        keys.sort_unstable();
        u32::try_from(keys.len()).expect("more than u32::MAX sequences of one length");
        for (position, &key) in (0..).zip(&keys) {
            let at = self.slot(key);
            self.slots[at].1 = position;
        }
        keys
    }

    /// `key`'s position in key order; `key` must have been met.
    #[inline]
    fn position(&self, key: u64) -> u32 {
        let (met, position) = self.slots[self.slot(key)];
        debug_assert_eq!(met, key, "a key never met");
        position
    }
}

/// A dictionary position as a [`SeqId`].
fn seq_id(at: usize) -> SeqId {
    SeqId::try_from(at).expect("more than u32::MAX sequences")
}

/// Level 1: one sweep over the sorted `(pair, label)` entries of every
/// extended label; as a pair's run ends, its label set is interned and the
/// id is the pair's set. A set's ranks are its labels.
fn build_level1(g: &Graph) -> Level {
    let mut entries: Vec<(Pair, u16)> = Vec::new();
    for l in g.ext_labels() {
        entries.extend(g.edge_pairs(l).iter().map(|p| (p, l.0)));
    }
    entries.sort_unstable();

    let mut sets = SigInterner::default();
    let mut level = Level::default();
    let mut labels: Vec<u64> = Vec::new();
    for of_pair in entries.chunk_by(|a, b| a.0 == b.0) {
        labels.clear();
        labels.extend(of_pair.iter().map(|&(_, l)| l as u64));
        level.rows.push(of_pair[0].0, sets.intern(false, &labels));
    }
    level.rows.close(g.vertex_count() as usize);
    level.record_sets(&sets, |l| l as u32);
    level
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

    /// A CSR's pairs with their values, after checking its shape: one end
    /// per vertex, ascending, and targets strictly ascending within each
    /// source.
    fn csr_pairs(rows: &SourceRows, n: usize) -> Vec<(Pair, u32)> {
        assert_eq!(rows.ends.len(), n, "one row per vertex");
        assert!(rows.ends.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rows.ends.last().copied().unwrap_or(0), rows.targets.len());
        assert_eq!(rows.values.len(), rows.targets.len());
        let mut out = Vec::new();
        for v in 0..n {
            let row = &rows.targets[rows.row(v)];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of {v} unsorted");
            out.extend(rows.pairs_of(v).map(|(u, b)| (Pair::new(v as u32, u), b)));
        }
        assert!(rows.pairs().eq(out.iter().map(|e| e.0)), "pairs() walks the CSR in order");
        out
    }

    /// The sequences set `b` of level `i` (1-based) names.
    fn level_set(lower: &LowerLevels<'_>, i: usize, b: u32) -> Vec<LabelSeq> {
        let ranks = lower.levels[i - 1].set(b).iter().map(|&r| r as usize);
        match i {
            1 => ranks.map(|l| LabelSeq::single(ExtLabel(l as u16))).collect(),
            _ => ranks.map(|r| lower.seqs[lower.starts[i - 1] + r]).collect(),
        }
    }

    /// Every pair of `g` with an exact-length-`i` path, with the sorted
    /// set of those paths' label sequences.
    fn exact_sets(g: &Graph, i: usize) -> Vec<(Pair, Vec<LabelSeq>)> {
        g.vertices()
            .flat_map(|v| g.vertices().map(move |u| Pair::new(v, u)))
            .map(|p| {
                let seqs = label_seqs_between(g, p.src(), p.dst(), i);
                (p, seqs.into_iter().filter(|s| s.len() == i).collect::<Vec<_>>())
            })
            .filter(|(_, seqs)| !seqs.is_empty())
            .collect()
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
    /// self-loops — at k = 1, 2 and 3. Every level below the last holds
    /// exactly the pairs with an exact-length-i path, each valued with the
    /// set of those paths' sequences; the last level's walk holds `P≤k`
    /// in order, the pairs the partition's rows cover.
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
            for k in 1..=3 {
                let mut lower = LowerLevels::new(&g, build_level1(&g), k);
                for _ in 2..k {
                    lower.refine(None);
                }
                assert_eq!(lower.levels.len(), k.max(2) - 1);
                for i in 1..=lower.levels.len() {
                    let pairs = csr_pairs(&lower.levels[i - 1].rows, n);
                    let sets: Vec<_> =
                        pairs.iter().map(|&(p, b)| (p, level_set(&lower, i, b))).collect();
                    assert_eq!(sets, exact_sets(&g, i), "level {i} at k = {k}");
                }
                let last = lower.last_level(None);
                let walked: Vec<Pair> = csr_pairs(&last.rows, n).into_iter().map(|e| e.0).collect();
                let p = check_invariants(&g, k);
                let mut covered = p.rows.clone();
                covered.sort_unstable();
                assert_eq!(walked, covered, "the last level's walk holds P≤{k} in order");
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

    /// Level 1 on its own: its set ids partition the edge-connected pairs
    /// exactly by label set, set `b`'s ranks are that set's labels, and
    /// ids count up by first occurrence along the pair list. At k = 1 the
    /// classes then split those groups by the loop flag, and only by it.
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
            let lower = LowerLevels::new(&g, build_level1(&g), 2);
            let pair_sets = csr_pairs(&lower.levels[0].rows, g.vertex_count() as usize);
            assert!(pair_sets.iter().map(|&(p, _)| p).eq(expected.keys().copied()));
            let mut by_set = std::collections::HashMap::new();
            for &(p, b) in &pair_sets {
                assert_eq!(level_set(&lower, 1, b), expected[&p], "label set of {p:?}");
                let next = by_set.len() as u32;
                let first = *by_set.entry(&expected[&p]).or_insert(next);
                assert_eq!(b, first, "{p:?}: one id per label set, by first occurrence");
            }
            assert_eq!(by_set.len(), lower.levels[0].rank_ends.len());

            let p = check_invariants(&g, 1);
            let mut by_sig = std::collections::HashMap::new();
            for (c, row) in rows(&p) {
                for pair in row {
                    let first = *by_sig.entry((pair.is_loop(), &expected[pair])).or_insert(c);
                    assert_eq!(c, first, "{pair:?}: one class per (loop flag, label set)");
                }
            }
            assert_eq!(by_sig.len(), p.class_count());
        }
    }

    /// Two pairs whose length-2 paths run through different level-1 sets
    /// — `{f}` then `{g, h}`, against `{f}` then `{g}` and `{f}` then `{h}`
    /// — spell the same `L₌₂ = {fg, fh}`, so they share a class.
    #[test]
    fn equal_sets_reached_through_different_blocks_share_a_class() {
        let mut b = cpqx_graph::GraphBuilder::new();
        b.add_edge_named("v", "m", "f");
        b.add_edge_named("m", "u", "g");
        b.add_edge_named("m", "u", "h");
        b.add_edge_named("x", "m1", "f");
        b.add_edge_named("x", "m2", "f");
        b.add_edge_named("m1", "y", "g");
        b.add_edge_named("m2", "y", "h");
        let (vu, xy) =
            (Pair::new(b.vertex("v"), b.vertex("u")), Pair::new(b.vertex("x"), b.vertex("y")));
        let p = check_invariants(&b.build(), 2);
        let class_of = |pair| rows(&p).find(|(_, row)| row.contains(&pair)).unwrap().0;
        assert_eq!(class_of(vu), class_of(xy));
    }

    /// A `(target, key)` emission fits a `u64` exactly when a vertex id
    /// and a key do, and reads back as packed.
    #[test]
    fn emissions_pack_while_target_and_key_fit_a_word() {
        assert_eq!(u64_shift(1 << 32, 1 << 32), Some(32));
        assert_eq!(u64_shift(1 << 32, (1 << 32) + 1), None);
        assert_eq!(u64_shift(3, 1 << 62), Some(62));
        assert_eq!(u64_shift(5, 1 << 62), None);
        assert_eq!(u64_shift(1, 1), Some(0));
        for (n, key_space) in [(1 << 32, 1 << 32), (3, 1 << 62), (40, 1024 * 1024)] {
            let shift = u64_shift(n, key_space).unwrap();
            let (target, key) = ((n - 1) as u32, key_space - 1);
            let e = pack(target, key, shift);
            assert_eq!((target_of(e, shift), key_of(e, shift)), (target, key));
            assert!(pack(target, 0, shift) > pack(target.saturating_sub(1), key, shift));
        }
    }

    /// A class's items — lower set ids, [`NULL`] among them, then keys —
    /// read back as interned, packed two to a word or one to a word, and
    /// distinct item lists get distinct classes.
    #[test]
    fn class_items_read_back_in_either_encoding() {
        for narrow in [true, false] {
            for lower in 0..3 {
                let mut last = LastLevel {
                    lower,
                    narrow,
                    rows: SourceRows::default(),
                    classes: SigInterner::default(),
                    class_loop: Vec::new(),
                };
                let ids = [NULL, 0, 7];
                let prefixes: Vec<Vec<u64>> = match lower {
                    0 => vec![vec![]],
                    1 => ids.iter().map(|&b| vec![b]).collect(),
                    _ => ids.iter().flat_map(|&a| ids.iter().map(move |&b| vec![a, b])).collect(),
                };
                let key_lists: [&[u64]; 4] = [&[], &[0], &[3, 5], &[0, 1, NULL - 1]];
                let mut lists = Vec::new();
                for prefix in &prefixes {
                    for keys in key_lists {
                        lists.push([&prefix[..], keys].concat());
                    }
                }
                let (mut words, mut items) = (Vec::new(), Vec::new());
                for (c, list) in (0..).zip(&lists) {
                    assert_eq!(last.intern(false, list, &mut words), c, "{list:?} collides");
                }
                for (c, list) in (0..).zip(&lists) {
                    let (lower_ids, keys) = last.items(c, &mut items);
                    assert_eq!([lower_ids, keys].concat(), *list, "narrow {narrow}");
                    assert_eq!(lower_ids.len(), lower);
                }
            }
        }
    }

    /// At fig12's largest alphabet — 1024 extended labels — a length-2
    /// key reaches 1024² = 2²⁰, yet the build's dictionary holds the 1024
    /// labels and only the length-2 sequences the graph spells.
    #[test]
    fn keys_over_a_large_alphabet_name_only_the_sequences_met() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 512, 3));
        assert_eq!(g.ext_label_count(), 1024);
        let p = check_invariants(&g, 2);
        let mut spelled: Vec<LabelSeq> = (0..p.class_count() as ClassId)
            .flat_map(|c| p.class_seqs(c).filter(|s| s.len() == 2).collect::<Vec<_>>())
            .collect();
        spelled.sort_unstable();
        spelled.dedup();
        assert!(spelled.len() > 100, "the graph spells many length-2 sequences");
        assert_eq!(p.seqs.len(), 1024 + spelled.len(), "1024 labels + the sequences met");
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
