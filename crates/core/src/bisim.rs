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
//! Every grouping above runs through one mechanism, [`SigInterner`]: a
//! signature is interned the moment it is complete and the id it gets is
//! its block or class id. Nothing is buffered level-wide to be sorted into
//! groups afterwards:
//!
//! * level 1 sweeps the sorted `(pair, label)` entries once and interns each
//!   pair's label set as its run ends;
//! * the previous level's `(pair, block)` list is source-major, so level i
//!   streams **one source at a time** — that source's emissions fill a small
//!   reused buffer, are sorted there, and each target's run of combos is
//!   interned on the spot; the output comes out pair-sorted;
//! * class assembly **merges** the k pair-sorted level lists, builds each
//!   pair's block tuple inline and interns it; the first pair of a tuple
//!   derives the tuple's `L≤k` and interns *that* — so two block tuples
//!   that stand for the same `(is-loop, L≤k)` land in one class, and the
//!   partition is the coarsest the index invariant allows.
//!
//! Ids count up in first-occurrence order along the (sorted) pair list, at
//! every one of those steps. Class numbering is therefore a function of the
//! graph alone: a saved index is byte-identical across builds and
//! processes (the interner's hash has a fixed seed and decides nothing but
//! probe order).
//!
//! Sequence sets are never spelled out per block or class: a build keeps
//! one dictionary of the label sequences it meets, and every block's and
//! class's set is a flat list of [`SeqId`]s into it, ordered by the
//! sequences they name. Dictionary numbering is private to a build;
//! [`crate::CpqxIndex::from_partition`] renumbers the ids for the index.

use crate::intern::{id_words, SeqDict, SigInterner};
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair};

/// Identifier of a CPQk-equivalence class.
pub type ClassId = u32;

/// Identifier of a label sequence in a sequence dictionary (a
/// [`Partition`]'s `seqs`, or the index's).
pub type SeqId = u32;

/// The computed partition of `P≤k` (pairs connected by a non-trivial path
/// of length ≤ k; pure-identity pairs with no path are not materialized,
/// matching the index definition — `id` is answered by the executor).
#[derive(Default)]
pub struct Partition {
    /// `(pair, class)` sorted by pair.
    pub pair_classes: Vec<(Pair, ClassId)>,
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
        self.pair_classes.len()
    }

    /// The sequence ids of class `c`'s `L≤k`, in sequence order.
    pub(crate) fn class_seq_ids(&self, c: ClassId) -> &[SeqId] {
        &self.seq_ids[span(&self.seq_ends, c as usize)]
    }

    /// The sorted set `L≤k(v,u)` shared by all member pairs of class `c`.
    pub fn class_seqs(&self, c: ClassId) -> impl ExactSizeIterator<Item = LabelSeq> + '_ {
        self.class_seq_ids(c).iter().map(|&id| self.seqs[id as usize])
    }
}

/// The range the `i`-th list occupies, given the lists' end offsets.
fn span(ends: &[usize], i: usize) -> std::ops::Range<usize> {
    (if i == 0 { 0 } else { ends[i - 1] })..ends[i]
}

/// Per-level state: pairs holding an exact-length-i path, their block ids,
/// and each block's exact-length-i sequence set.
struct Level {
    /// `(pair, block)` sorted by pair.
    pair_blocks: Vec<(Pair, u32)>,
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
}

/// Computes the CPQk-equivalence classes of `g` (Algorithm 1 + the class
/// assignment of Algorithm 2): [`RefinementBase::new`], then
/// [`RefinementBase::partition`].
pub fn cpq_path_partition(g: &Graph, k: usize) -> Partition {
    RefinementBase::new(g).partition(k)
}

/// Level 1 of Algorithm 1: the level-1 partition, its adjacency form, and
/// the dictionary of the length-1 sequences its blocks name. Every later
/// refinement level only ever *reads* this state.
pub struct RefinementBase {
    level1: Level,
    /// For each vertex `m`, the `(target, b₁(m,u))` list of its outgoing
    /// extended edges.
    adj1: Vec<Vec<(u32, u32)>>,
    dict: SeqDict,
}

impl RefinementBase {
    /// Builds the level-1 state of `g`.
    pub fn new(g: &Graph) -> Self {
        let mut dict = SeqDict::default();
        let level1 = build_level1(g, &mut dict);
        let mut adj1: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.vertex_count() as usize];
        for &(p, b) in &level1.pair_blocks {
            adj1[p.src() as usize].push((p.dst(), b));
        }
        RefinementBase { level1, adj1, dict }
    }

    /// Runs the rest of Algorithm 1: refinement levels `2..=k`, then class
    /// assembly. The returned partition covers `P≤k`, grouped by
    /// `(cyclicity, L≤k)`, classes numbered by first occurrence along the
    /// pair list.
    pub fn partition(self, k: usize) -> Partition {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= cpqx_graph::MAX_SEQ_LEN, "k exceeds MAX_SEQ_LEN");

        let RefinementBase { level1, adj1, mut dict } = self;
        let mut levels: Vec<Level> = Vec::with_capacity(k.saturating_sub(1));
        for _ in 2..=k {
            let prev = levels.last().unwrap_or(&level1);
            let next = refine_level(prev, &level1, &adj1, &mut dict);
            levels.push(next);
        }

        let all: Vec<&Level> = std::iter::once(&level1).chain(&levels).collect();
        assemble_classes(&all, dict)
    }
}

/// Classes under construction, keyed by the index invariant `(cyclicity,
/// sequence set)`: the grouping step class assembly and the interest-aware
/// partition share. Sequence sets are id lists into one
/// dictionary, ordered by sequence, so equal sets are equal lists.
#[derive(Default)]
pub(crate) struct ClassTable {
    by_invariant: SigInterner,
    class_loop: Vec<bool>,
    seq_ids: Vec<SeqId>,
    seq_ends: Vec<usize>,
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
            self.seq_ids.extend_from_slice(ids);
            self.seq_ends.push(self.seq_ids.len());
        }
        c
    }

    /// The partition of `pair_classes` over these classes, whose ids name
    /// `seqs`.
    pub(crate) fn into_partition(
        self,
        pair_classes: Vec<(Pair, ClassId)>,
        seqs: Vec<LabelSeq>,
    ) -> Partition {
        let ClassTable { class_loop, seq_ids, seq_ends, .. } = self;
        Partition { pair_classes, class_loop, seq_ids, seq_ends, seqs }
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
    let mut pair_blocks: Vec<(Pair, u32)> = Vec::new();
    let mut labels: Vec<u64> = Vec::new();
    for of_pair in entries.chunk_by(|a, b| a.0 == b.0) {
        let p = of_pair[0].0;
        labels.clear();
        labels.extend(of_pair.iter().map(|&(_, l)| l as u64));
        pair_blocks.push((p, blocks.intern(p.is_loop(), &labels)));
    }

    // Label sets are sorted by label, which is their sequence order.
    let (mut seq_ids, mut seq_ends) = (Vec::new(), Vec::with_capacity(blocks.len()));
    for b in 0..blocks.len() as u32 {
        let singles = blocks.words(b).iter().map(|&l| LabelSeq::single(ExtLabel(l as u16)));
        seq_ids.extend(singles.map(|s| dict.intern(s)));
        seq_ends.push(seq_ids.len());
    }
    Level { pair_blocks, seq_ids, seq_ends }
}

/// Level i from level i−1: join exact-(i−1) pairs with edges, group by
/// `(is-loop, sorted (b_{i-1}, b₁) set)`. Block ids in the output index
/// into the returned level's sets only, whose sequences `dict` names (new
/// ones are added).
fn refine_level(
    prev: &Level,
    level1: &Level,
    adj1: &[Vec<(u32, u32)>],
    dict: &mut SeqDict,
) -> Level {
    let mut blocks = SigInterner::default();
    let mut pair_blocks: Vec<(Pair, u32)> = Vec::new();
    // One source's `(target, combo)` emissions, and one target's combos.
    let mut emitted: Vec<(u32, u64)> = Vec::new();
    let mut combos: Vec<u64> = Vec::new();
    // `prev_blocks` is source-major: every decomposition prefix·edge of a
    // pair `(v, ·)` comes from the run of `v`.
    for of_source in prev.pair_blocks.chunk_by(|a, b| a.0.src() == b.0.src()) {
        let v = of_source[0].0.src();
        emitted.clear();
        for &(vm, b_prev) in of_source {
            for &(u, b1) in &adj1[vm.dst() as usize] {
                emitted.push((u, ((b_prev as u64) << 32) | b1 as u64));
            }
        }
        emitted.sort_unstable();
        emitted.dedup();
        for of_target in emitted.chunk_by(|a, b| a.0 == b.0) {
            let u = of_target[0].0;
            combos.clear();
            combos.extend(of_target.iter().map(|&(_, c)| c));
            pair_blocks.push((Pair::new(v, u), blocks.intern(v == u, &combos)));
        }
    }

    // Each block's exact-length-i sequence set: union over its combos of
    // prev-block seqs × level-1 labels (memoized per block, not per pair —
    // see the module docs for why this equals the paper's per-pair loop),
    // sorted in one reused buffer and stored as ids.
    let (mut seq_ids, mut seq_ends) = (Vec::new(), Vec::with_capacity(blocks.len()));
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
        seq_ids.extend(seqs.iter().map(|&s| dict.intern(s)));
        seq_ends.push(seq_ids.len());
    }

    Level { pair_blocks, seq_ids, seq_ends }
}

/// Final class assignment over `k = levels.len()` pair-sorted level lists:
/// merge them, intern each pair's `(is-loop, ⟨b₁,…,b_k⟩)`, and map each
/// distinct block tuple to the class of the `(is-loop, L≤k)` it stands for
/// (derived once per tuple from the per-level block sequence sets, whose
/// ids `dict` names).
fn assemble_classes(levels: &[&Level], dict: SeqDict) -> Partition {
    const NULL: u64 = u32::MAX as u64;
    let k = levels.len();
    let mut cursors = [0usize; cpqx_graph::MAX_SEQ_LEN];
    let mut tuple = [NULL; cpqx_graph::MAX_SEQ_LEN];
    let mut tuples = SigInterner::default();
    // Per distinct block tuple: its class.
    let mut class_of_tuple: Vec<ClassId> = Vec::new();
    let mut classes = ClassTable::default();
    let mut ids: Vec<SeqId> = Vec::new();
    let mut pair_classes: Vec<(Pair, ClassId)> =
        Vec::with_capacity(levels.iter().map(|l| l.pair_blocks.len()).max().unwrap_or(0));

    // The smallest pair under any cursor is the next pair of the merge.
    while let Some(p) =
        levels.iter().zip(cursors).filter_map(|(l, at)| Some(l.pair_blocks.get(at)?.0)).min()
    {
        for (i, level) in levels.iter().enumerate() {
            tuple[i] = match level.pair_blocks.get(cursors[i]) {
                Some(&(q, b)) if q == p => {
                    cursors[i] += 1;
                    b as u64
                }
                _ => NULL,
            };
        }
        let t = tuples.intern(p.is_loop(), &tuple[..k]) as usize;
        if t == class_of_tuple.len() {
            ids.clear();
            for (level, &b) in levels.iter().zip(&tuple) {
                if b != NULL {
                    ids.extend_from_slice(level.block(b as u32));
                }
            }
            // Already in sequence order: each level's block set is, and
            // `LabelSeq` orders by length first.
            debug_assert!(ids.windows(2).all(|w| dict.seq(w[0]) < dict.seq(w[1])));
            class_of_tuple.push(classes.class_of(p.is_loop(), &ids));
        }
        pair_classes.push((p, class_of_tuple[t]));
    }
    classes.into_partition(pair_classes, dict.into_seqs())
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

    /// The invariant everything rests on: classes disjointly cover all
    /// non-trivially connected pairs, and all members of a class share
    /// cyclicity and the full label-sequence set `L≤k`.
    fn check_invariants(g: &Graph, k: usize) -> Partition {
        let p = cpq_path_partition(g, k);
        // Disjoint cover.
        let mut seen = std::collections::HashSet::new();
        for &(pair, c) in &p.pair_classes {
            assert!(seen.insert(pair), "pair {pair:?} in two classes");
            assert!((c as usize) < p.class_count());
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
        for &(pair, c) in &p.pair_classes {
            let expected = label_seqs_between(g, pair.src(), pair.dst(), k);
            assert_eq!(seq_set(&p, c), expected, "class {c} seqs wrong for pair {pair:?}");
            assert_eq!(p.class_loop[c as usize], pair.is_loop());
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
        for c in 0..p.class_count() {
            let members = p.pair_classes.iter().filter(|&&(_, cc)| cc as usize == c).count();
            assert_eq!(members, 6, "class {c} should contain one pair per vertex");
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
        for &(pair, c) in &p.pair_classes {
            assert_eq!(pair.is_loop(), p.class_loop[c as usize]);
        }
    }

    #[test]
    fn clique_has_uniform_classes() {
        let g = generate::clique(4, "f");
        let p = check_invariants(&g, 2);
        // All non-loop pairs are alike; all loop pairs are alike.
        assert_eq!(p.class_count(), 2);
    }

    /// Classes are numbered by first occurrence along the pair list, and no
    /// two of them share `(cyclicity, L≤k)`: the partition is the coarsest
    /// the index invariant allows.
    #[test]
    fn classes_are_minimal_and_numbered_by_first_occurrence() {
        for seed in 0..4 {
            let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 3, seed));
            let p = cpq_path_partition(&g, 2);
            let mut next = 0;
            for &(_, c) in &p.pair_classes {
                assert!(c <= next, "class {c} appears before class {next}");
                next = next.max(c + 1);
            }
            assert_eq!(next as usize, p.class_count());
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
            let pair_blocks = &level1.pair_blocks;
            assert!(pair_blocks.iter().map(|&(p, _)| p).eq(expected.keys().copied()));
            let mut by_sig = std::collections::HashMap::new();
            for &(p, b) in pair_blocks {
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
