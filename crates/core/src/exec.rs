//! Query processing with the index — the paper's Algorithms 3 and 4.
//!
//! Intermediate results are either **class-id sets** or normalized **pair
//! sets**. The executor keeps results at the class level as long as
//! possible: LOOKUP borrows the `Il2c` posting set; CONJUNCTION of two
//! class sets is a class-id intersection (the order-of-magnitude win of
//! Prop. 4.1 / Example 4.3). The root expands surviving classes through
//! `Ic2p`. Three rules cover everything else:
//!
//! 1. **A cycle is a conjunction with the inverse.** Every LOOKUP is
//!    exact, and `s` labels a path from `v` to `u` iff `s⁻¹` reversed
//!    labels one from `u` to `v`, so
//!    `(A ∘ B) ∩ id = {(v, v) | (v, u) ∈ A ∩ B⁻¹}` with `B⁻¹` the
//!    structural [`Plan::inverse`] of `B`. A fused `JOIN∩id` therefore
//!    runs as a CONJUNCTION — two lookups intersect as id lists and only
//!    the surviving classes are touched — whose sources are the answer.
//!    Only when an inverted sequence is not indexed (interest-aware
//!    indexes) does it run as Algorithm 4's pair-level `JOIN-ID`.
//! 2. **Joins emit in source order.** An open JOIN must materialize pairs
//!    (Algorithm 4), and does so in one pass over its source-sorted left
//!    operand ([`cpqx_query::ops`]): nothing is re-keyed or sorted
//!    globally, and a single-label operand is read from the graph's
//!    label-major edge store instead of being expanded from the index.
//!    Only a join of two multi-label operands expands both from the index.
//! 3. **Identity is a posting list.** Cyclicity is a property of the
//!    class (Sec. IV-D's third optimisation), and the index keeps each
//!    sequence's cyclic classes as a posting list of their own
//!    ([`CpqxIndex::lookup_cyclic`]). `LOOKUP∩id` borrows it, and since
//!    `(A ∩ B) ∩ id = (A ∩ id) ∩ (B ∩ id)`, a `CONJUNCTION∩id` over
//!    class-level operands pushes the identity down to its lookups and
//!    intersects cyclic postings only — at most |V| ids between them —
//!    never walking the full lists to test a flag per class.
//!
//! Class-id sets intersect by what they are ([`ClassIds`]), never decoded
//! to a list first. Two posting sets AND their containers window by
//! window ([`ClassSet::and`]: word AND of bitmaps, a bit test per array id
//! against a bitmap, a merge of arrays). An id list — a cyclic sub-list or
//! an earlier intersection — against a posting set tests each id's bit or
//! array entry (`ClassSet::and_ids`). Two id lists intersect by length
//! ([`intersect_ids`]): short or skewed lists merge or gallop, long
//! balanced ones mark the smaller in a bitmap and filter the larger. A
//! conjunction with an operand that is not class-level (a join, or `id`)
//! intersects pair sets instead.
//!
//! Every choice above is made by the plan in front of the executor, never
//! by an option: the executor has one configuration.

use crate::bisim::ClassId;
use crate::class_set::ClassSet;
use crate::index::CpqxIndex;
use cpqx_graph::pair::{self, GALLOP_RATIO};
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair};
use cpqx_query::ops;
use cpqx_query::ops::EvalContext;
use cpqx_query::plan::Plan;
use std::borrow::Cow;

/// An intermediate result: `C` or `P` in Algorithm 3's notation.
#[derive(Clone, Debug, PartialEq)]
pub enum Intermediate<'i> {
    /// Class ids — unions of whole equivalence classes.
    Classes(ClassIds<'i>),
    /// Normalized s-t pairs.
    Pairs(Vec<Pair>),
}

/// A class-level intermediate, kept in the form it was produced in.
#[derive(Clone, Debug, PartialEq)]
pub enum ClassIds<'i> {
    /// A bare LOOKUP's posting set, borrowed from the index.
    Posting(&'i ClassSet),
    /// Sorted, duplicate-free ids: a LOOKUP∩id's cyclic sub-list,
    /// borrowed, or an intersection's result, owned.
    List(Cow<'i, [ClassId]>),
}

/// Has no field: the executor has one configuration. Kept only because
/// the benchmark package builds its executor with
/// [`Executor::with_options`]; goes when a `benchmark` PR drops that call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecOptions {}

/// Work counters collected during one plan execution — the EXPLAIN-style
/// instrumentation behind Table III's pruning-power measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of `Il2c` lookups performed.
    pub lookups: usize,
    /// Class identifiers retrieved by those lookups. A lookup under a
    /// fused identity retrieves the sequence's *cyclic* posting list only
    /// — that is the pruning, not an accounting gap.
    pub classes_touched: usize,
    /// s-t pairs materialized from classes (`Ic2p` expansions).
    pub pairs_materialized: usize,
    /// Conjunctions resolved at the class level (Prop. 4.1) — closed
    /// cycles (`JOIN∩id` run as a conjunction with the inverse) included.
    pub class_conjunctions: usize,
    /// Conjunctions that had to intersect pair sets.
    pub pair_intersections: usize,
    /// Pair-level joins executed (a closed cycle is not one, nor is a
    /// join skipped because an operand was empty).
    pub joins: usize,
    /// Joins answered from the graph (a subset of `joins`): the
    /// single-label operand was read from the graph's label runs or
    /// label relation instead of expanding from the index. A join of two
    /// multi-label operands is not one — benches use this to tell cells
    /// where the graph read engaged from cells it cannot touch.
    pub csr_joins: usize,
}

/// Plan executor bound to an index and its graph.
pub struct Executor<'i, 'g> {
    index: &'i CpqxIndex,
    graph: &'g Graph,
    stats: std::cell::Cell<ExecStats>,
    /// Per-execution scratch shared by every join of a plan (the borrow
    /// is confined to each single join call, never held across the
    /// recursion).
    ctx: std::cell::RefCell<EvalContext>,
    /// Scratch bitmap shared by every class-set intersection of a plan.
    marks: std::cell::RefCell<ClassMarks>,
}

impl<'i, 'g> Executor<'i, 'g> {
    /// Creates an executor. The graph answers the bare `id` plan
    /// (`AllId`) and supplies single-label join operands; everything else
    /// is answered from the index.
    pub fn new(index: &'i CpqxIndex, graph: &'g Graph) -> Self {
        Executor {
            index,
            graph,
            stats: std::cell::Cell::new(ExecStats::default()),
            ctx: std::cell::RefCell::new(EvalContext::new()),
            marks: std::cell::RefCell::default(),
        }
    }

    /// [`Executor::new`]; see [`ExecOptions`] for why it is kept.
    pub fn with_options(index: &'i CpqxIndex, graph: &'g Graph, _: ExecOptions) -> Self {
        Self::new(index, graph)
    }

    /// Runs a plan and returns the answers together with the work counters
    /// of this execution.
    pub fn run_explained(&self, plan: &Plan) -> (Vec<Pair>, ExecStats) {
        self.stats.set(ExecStats::default());
        let out = self.run(plan);
        (out, self.stats.get())
    }

    #[inline]
    fn bump(&self, f: impl FnOnce(&mut ExecStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Runs a plan to a normalized pair set.
    pub fn run(&self, plan: &Plan) -> Vec<Pair> {
        self.pairs(self.eval(plan))
    }

    /// Runs a plan, returning only the first answer (ordered by class
    /// discovery for class-level results, pair order otherwise).
    pub fn run_first(&self, plan: &Plan) -> Option<Pair> {
        match self.eval(plan) {
            Intermediate::Pairs(p) => p.first().copied(),
            Intermediate::Classes(cs) => {
                let first = |c: ClassId| self.index.class_pairs(c).next();
                match cs {
                    ClassIds::Posting(set) => set.iter().find_map(first),
                    ClassIds::List(ids) => ids.iter().copied().find_map(first),
                }
            }
        }
    }

    /// Evaluates a plan node to an intermediate (Algorithm 3's recursion).
    pub fn eval(&self, plan: &Plan) -> Intermediate<'i> {
        self.eval_under(plan, false)
    }

    /// Evaluates `plan`, or `plan ∩ id` when an enclosing fused identity
    /// was pushed down to it (`under_id`).
    fn eval_under(&self, plan: &Plan, under_id: bool) -> Intermediate<'i> {
        match plan {
            Plan::AllId => Intermediate::Pairs(ops::all_loops(self.graph)),
            Plan::Lookup(seq) if !under_id => {
                debug_assert!(self.index.is_indexed(seq), "planner must split {seq:?}");
                Intermediate::Classes(ClassIds::Posting(self.lookup_counted(seq)))
            }
            Plan::Lookup(seq) | Plan::LookupId(seq) => {
                // Fused `⟦seq⟧ ∩ id`: the sequence's cyclic classes, kept
                // by the index as a posting list of their own (the paper's
                // "check the first s-t pair" — cyclicity is uniform per
                // class — done once, at build time).
                let looked = self.index.lookup_cyclic(seq);
                self.count_lookup(looked.len());
                Intermediate::Classes(ClassIds::List(Cow::Borrowed(looked)))
            }
            Plan::Join(a, b) => self.join(a, b, under_id),
            Plan::JoinId(a, b) => self.join(a, b, true),
            Plan::Conj(a, b) => self.conj(a, b, under_id),
            Plan::ConjId(a, b) => self.conj(a, b, true),
        }
    }

    /// `CONJUNCTION` / fused `CONJUNCTION-ID`: the class-level
    /// intersection of Prop. 4.1 when both operands are class sets — on
    /// the posting sets' containers where an operand is one (module docs)
    /// — a pair-set intersection otherwise. Under a fused identity, operands
    /// that stay at the class level are evaluated under it themselves
    /// (module docs, rule 3), so only cyclic postings meet.
    fn conj(&self, a: &Plan, b: &Plan, require_loop: bool) -> Intermediate<'i> {
        let push_id = require_loop && class_level_plan(a) && class_level_plan(b);
        match (self.eval_under(a, push_id), self.eval_under(b, push_id)) {
            (Intermediate::Classes(x), Intermediate::Classes(y)) => {
                // Only class-level plans evaluate to class sets.
                debug_assert!(push_id || !require_loop, "identity not pushed to a class set");
                self.bump(|s| s.class_conjunctions += 1);
                let both = match (&x, &y) {
                    (ClassIds::Posting(a), ClassIds::Posting(b)) => a.and(b),
                    (ClassIds::Posting(set), ClassIds::List(ids))
                    | (ClassIds::List(ids), ClassIds::Posting(set)) => set.and_ids(ids),
                    (ClassIds::List(a), ClassIds::List(b)) => {
                        self.marks.borrow_mut().intersect(a, b)
                    }
                };
                Intermediate::Classes(ClassIds::List(Cow::Owned(both)))
            }
            (x, y) => {
                let left = self.pairs(x);
                let right = self.pairs(y);
                self.bump(|s| s.pair_intersections += 1);
                let out = ops::intersect_pairs(&left, &right);
                Intermediate::Pairs(if require_loop { ops::filter_loops(&out) } else { out })
            }
        }
    }

    /// `JOIN` / fused `JOIN-ID` (Algorithm 4).
    ///
    /// A fused `JOIN-ID` closes a cycle, and runs as the conjunction
    /// `a ∩ b⁻¹` whenever `b⁻¹` is answerable (see [`indexed_inverse`] and
    /// the module docs) — counted as a conjunction, not a join.
    ///
    /// An open join — and a cycle the index cannot invert — materializes
    /// pairs. A single-label operand is read from the graph instead of
    /// being expanded from the index: a label *right* operand becomes a
    /// frontier expansion over the graph's per-vertex label runs
    /// ([`Graph::label_run`]), a label *left* operand streams the graph's
    /// source-major label relation. The `Il2c` lookup still runs (it is
    /// the emptiness check and keeps the EXPLAIN counters describing the
    /// same logical work), but its classes are not expanded. Two
    /// multi-label operands both expand from the index.
    fn join(&self, a: &Plan, b: &Plan, require_loop: bool) -> Intermediate<'i> {
        if require_loop {
            if let Some(inverse) = indexed_inverse(self.index, b) {
                return Intermediate::Pairs(self.source_loops(self.conj(a, &inverse, false)));
            }
        }
        // Label prefix: ⟦ℓ⟧ ⋈ P with the graph's relation as the left.
        if single_label(b).is_none() {
            if let Some((seq, l)) = single_label(a) {
                if self.lookup_counted(&seq).is_empty() {
                    return Intermediate::Pairs(Vec::new());
                }
                let right = self.pairs(self.eval(b));
                self.bump(|s| {
                    s.joins += 1;
                    s.csr_joins += 1;
                });
                let mut ctx = self.ctx.borrow_mut();
                return Intermediate::Pairs(ctx.join_label_left(
                    self.graph,
                    l,
                    &right,
                    require_loop,
                ));
            }
        }
        let left = self.pairs(self.eval(a));
        if left.is_empty() {
            return Intermediate::Pairs(Vec::new());
        }
        // Label suffix: P ⋈ ⟦ℓ⟧ over the graph's label runs.
        if let Some((seq, l)) = single_label(b) {
            if self.lookup_counted(&seq).is_empty() {
                return Intermediate::Pairs(Vec::new());
            }
            self.bump(|s| {
                s.joins += 1;
                s.csr_joins += 1;
            });
            return Intermediate::Pairs(if require_loop {
                ops::expand_adjacency_id(self.graph, &left, l)
            } else {
                ops::expand_adjacency(self.graph, &left, l)
            });
        }
        let right = self.pairs(self.eval(b));
        self.bump(|s| s.joins += 1);
        let mut ctx = self.ctx.borrow_mut();
        Intermediate::Pairs(if require_loop {
            ctx.join_pairs_id(&left, &right)
        } else {
            ctx.join_pairs(&left, &right)
        })
    }

    /// `{(v, v) | (v, u) ∈ im}` — the answer of a closed cycle, from the
    /// conjunction of one side with the other's inverse. Normalized.
    fn source_loops(&self, im: Intermediate<'i>) -> Vec<Pair> {
        let looped = |p: &Pair| Pair::new(p.src(), p.src());
        let mut out: Vec<Pair> = match im {
            // Source-major already: equal sources are adjacent.
            Intermediate::Pairs(pairs) => pairs.iter().map(looped).collect(),
            Intermediate::Classes(cs) => {
                let mut out = Vec::new();
                let mut add = |c: ClassId| {
                    let pairs = self.index.class_pairs(c);
                    self.bump(|s| s.pairs_materialized += pairs.len());
                    out.extend(pairs.map(|p| looped(&p)));
                };
                match cs {
                    ClassIds::Posting(set) => set.iter().for_each(add),
                    ClassIds::List(ids) => ids.iter().for_each(|&c| add(c)),
                }
                pair::sort_pairs(&mut out);
                out
            }
        };
        out.dedup();
        out
    }

    /// `Il2c` lookup that records the EXPLAIN counters.
    fn lookup_counted(&self, seq: &LabelSeq) -> &'i ClassSet {
        let cs = self.index.lookup(seq);
        self.count_lookup(cs.len());
        cs
    }

    /// Records one `Il2c` lookup that retrieved `classes` ids.
    fn count_lookup(&self, classes: usize) {
        self.bump(|s| {
            s.lookups += 1;
            s.classes_touched += classes;
        });
    }

    /// Materializes an intermediate to pairs.
    fn pairs(&self, im: Intermediate<'i>) -> Vec<Pair> {
        match im {
            Intermediate::Pairs(p) => p,
            Intermediate::Classes(cs) => self.expand(&cs),
        }
    }

    /// `⋃_{c} Ic2p(c)`, normalized. Classes are disjoint, so only a sort is
    /// needed.
    fn expand(&self, cs: &ClassIds<'_>) -> Vec<Pair> {
        let mut out = match cs {
            ClassIds::Posting(set) => self.index.gather_rows(set.iter()),
            ClassIds::List(ids) => self.index.gather_rows(ids.iter().copied()),
        };
        self.bump(|s| s.pairs_materialized += out.len());
        pair::sort_pairs(&mut out);
        out
    }
}

/// The plan's extended label if it is a bare single-label lookup.
fn single_label(p: &Plan) -> Option<(LabelSeq, ExtLabel)> {
    match p {
        Plan::Lookup(seq) if seq.len() == 1 => Some((*seq, seq.get(0))),
        _ => None,
    }
}

/// [`Plan::inverse`] of `b` if `index` can answer every lookup of it —
/// the condition under which `(a ∘ b) ∩ id` runs as the conjunction
/// `a ∩ b⁻¹`. Always `Some` on a full index; an interest-aware index may
/// hold a sequence without its inverse.
pub(crate) fn indexed_inverse(index: &CpqxIndex, b: &Plan) -> Option<Plan> {
    let inverse = b.inverse();
    inverse.lookup_seqs().iter().all(|s| index.is_indexed(s)).then_some(inverse)
}

/// Whether `p` evaluates to a class-id set: lookups and conjunctions of
/// such.
fn class_level_plan(p: &Plan) -> bool {
    match p {
        Plan::Lookup(_) | Plan::LookupId(_) => true,
        Plan::Conj(a, b) | Plan::ConjId(a, b) => class_level_plan(a) && class_level_plan(b),
        Plan::AllId | Plan::Join(..) | Plan::JoinId(..) => false,
    }
}

/// Below this many ids in the smaller list a merge is as fast as marking.
const MARK_MIN_LEN: usize = 32;

/// Id-list intersection with its scratch: a bitmap with one bit per
/// class slot, all zero between calls (it grows to the largest id marked
/// and is cleared by re-walking what was marked, so its cost follows the
/// operands, not the index).
#[derive(Default)]
struct ClassMarks {
    bits: Vec<u64>,
}

impl ClassMarks {
    /// The sorted intersection of two sorted, duplicate-free class-id
    /// lists, by the cheapest of three routes their lengths allow: a
    /// short smaller side merges, one ≥ 16× shorter than the other
    /// gallops ([`pair::intersect_sorted`] is both), and long balanced
    /// lists mark the smaller in the bitmap and filter the larger against
    /// it without a data-dependent branch.
    fn intersect(&mut self, a: &[ClassId], b: &[ClassId]) -> Vec<ClassId> {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::new();
        if small.len() < MARK_MIN_LEN || small.len().saturating_mul(GALLOP_RATIO) < large.len() {
            pair::intersect_sorted(small, large, &mut out);
            return out;
        }
        // Only the part of `large` inside `small`'s id range can match.
        let (lo, hi) = (small[0], small[small.len() - 1]);
        let large = &large[large.partition_point(|&c| c < lo)..];
        let large = &large[..large.partition_point(|&c| c <= hi)];
        let words = (hi as usize >> 6) + 1;
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        for &c in small {
            self.bits[c as usize >> 6] |= 1 << (c & 63);
        }
        // Every id is written at the cursor; a hit advances it.
        out.resize(small.len() + 1, 0);
        let mut kept = 0;
        for &c in large {
            out[kept] = c;
            kept += (self.bits[c as usize >> 6] >> (c & 63)) as usize & 1;
        }
        out.truncate(kept);
        for &c in small {
            self.bits[c as usize >> 6] = 0;
        }
        out
    }
}

/// One-shot sorted intersection of class-id lists (tests, cold paths);
/// an executor keeps the scratch across the intersections of a plan.
pub fn intersect_ids(a: &[ClassId], b: &[ClassId]) -> Vec<ClassId> {
    ClassMarks::default().intersect(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn id_intersection() {
        assert_eq!(intersect_ids(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_ids(&[], &[1]), Vec::<ClassId>::new());
    }

    /// Sorted distinct id lists: ids drawn from `0..universe`, so lists
    /// overlap; lengths from empty to far past [`MARK_MIN_LEN`].
    fn id_list(universe: u32) -> impl Strategy<Value = Vec<ClassId>> {
        let len = prop_oneof![0usize..4, 0usize..MARK_MIN_LEN * 2, 200usize..600];
        len.prop_flat_map(move |n| prop::collection::vec(0..universe, n..n + 1)).prop_map(
            |mut ids| {
                ids.sort_unstable();
                ids.dedup();
                ids
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every route of the class-set intersection — merge for short
        /// lists, gallop under ≥ 16× skew, bitmap for long balanced ones —
        /// equals the plain merge, on one scratch reused across calls whose
        /// ids reach past its current length, and leaves it all zero.
        #[test]
        fn class_set_intersection_matches_merge(
            lists in prop::collection::vec((id_list(700), id_list(700), 0u32..5000), 1..4),
        ) {
            let mut marks = ClassMarks::default();
            for (a, b, shift) in lists {
                // Later rounds may sit above everything marked so far.
                let a: Vec<ClassId> = a.iter().map(|c| c + shift).collect();
                let b: Vec<ClassId> = b.iter().map(|c| c + shift).collect();
                let expected: Vec<ClassId> =
                    a.iter().copied().filter(|c| b.binary_search(c).is_ok()).collect();
                prop_assert_eq!(marks.intersect(&a, &b), expected.clone());
                prop_assert_eq!(marks.intersect(&b, &a), expected);
                prop_assert!(marks.bits.iter().all(|&w| w == 0), "scratch left dirty");
            }
        }
    }

    #[test]
    fn intersection_routes_by_length() {
        let long: Vec<ClassId> = (0..4000).map(|i| i * 3).collect();
        let balanced: Vec<ClassId> = (0..3000).map(|i| i * 4 + 100_000 - 6000).collect();
        let skewed: Vec<ClassId> = (0..40).map(|i| i * 300).collect();
        let naive = |a: &[ClassId], b: &[ClassId]| -> Vec<ClassId> {
            a.iter().copied().filter(|c| b.binary_search(c).is_ok()).collect()
        };
        let mut marks = ClassMarks::default();
        // Skew ≥ 16×: gallop, the bitmap is never allocated.
        assert_eq!(marks.intersect(&skewed, &long), naive(&skewed, &long));
        assert!(marks.bits.is_empty());
        // Balanced: bitmap, grown to the smaller side's largest id only.
        let both = marks.intersect(&long, &balanced);
        assert_eq!(both, naive(&long, &balanced));
        assert_eq!(marks.bits.len(), (balanced[balanced.len() - 1] as usize >> 6) + 1);
        assert!(marks.bits.iter().all(|&w| w == 0));
        // An empty side is the short-list route.
        assert!(marks.intersect(&long, &[]).is_empty());
    }

    #[test]
    fn explain_counts_class_level_work() {
        use cpqx_graph::generate;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("(f . f) & f^-1", &g).unwrap();
        let (result, stats) = idx.explain(&g, &q);
        assert_eq!(result.len(), 3);
        assert_eq!(stats.lookups, 2, "two lookups: ⟨f,f⟩ and ⟨f⁻¹⟩");
        assert_eq!(stats.classes_touched, 6, "Example 4.3: 3 + 3 class ids");
        assert_eq!(stats.class_conjunctions, 1, "resolved without touching pairs");
        assert_eq!(stats.pair_intersections, 0);
        assert_eq!(stats.joins, 0);
        assert_eq!(stats.pairs_materialized, 3, "only the final triad expands");
    }

    #[test]
    fn explain_counts_join_work() {
        use cpqx_graph::generate;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("f . f . f", &g).unwrap();
        let (_, stats) = idx.explain(&g, &q);
        assert_eq!(stats.lookups, 2, "⟨f,f⟩ ⋈ ⟨f⟩ at k = 2");
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.class_conjunctions, 0);
    }

    /// Two multi-label operands: the join expands both from the index.
    #[test]
    fn explain_counts_index_expanded_join() {
        use cpqx_graph::generate;
        use cpqx_query::eval::eval_reference;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("f . f . f . f", &g).unwrap();
        let (result, stats) = idx.explain(&g, &q);
        assert_eq!(result, eval_reference(&g, &q));
        assert_eq!(stats.lookups, 2, "⟨f,f⟩ ⋈ ⟨f,f⟩ at k = 2");
        assert_eq!((stats.joins, stats.csr_joins), (1, 0), "no label operand to read");
    }

    /// A conjunction with a join operand is not class-level: it
    /// intersects pair sets.
    #[test]
    fn explain_counts_pair_level_intersection() {
        use cpqx_graph::generate;
        use cpqx_query::eval::eval_reference;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        let q = cpqx_query::parse_cpq("(f . f . f) & f", &g).unwrap();
        let (result, stats) = idx.explain(&g, &q);
        assert_eq!(result, eval_reference(&g, &q));
        assert_eq!((stats.pair_intersections, stats.class_conjunctions), (1, 0));
    }

    #[test]
    fn explain_counts_closed_cycles_as_conjunctions() {
        use cpqx_graph::generate;
        use cpqx_query::eval::eval_reference;
        let g = generate::gex();
        let idx = crate::CpqxIndex::build(&g, 2);
        // Ti = ⟨f,f⟩ ∩ ⟨f⁻¹⟩ (the lookups of Example 4.3's triad) and
        // Si = ⟨f,f⟩ ∩ ⟨f,f⟩, both closed at the class level.
        for (text, classes, pairs) in
            [("(f . f . f) & id", 6, 3), ("(f . f . f^-1 . f^-1) & id", 6, 11)]
        {
            let q = cpqx_query::parse_cpq(text, &g).unwrap();
            let (result, stats) = idx.explain(&g, &q);
            assert_eq!(result, eval_reference(&g, &q), "{text}");
            assert_eq!(stats.lookups, 2, "{text}");
            assert_eq!(stats.classes_touched, classes, "{text}");
            assert_eq!(stats.class_conjunctions, 1, "{text}: closed without a join");
            assert_eq!((stats.joins, stats.csr_joins, stats.pair_intersections), (0, 0, 0));
            assert_eq!(stats.pairs_materialized, pairs, "{text}: only surviving classes expand");
        }
    }

    #[test]
    fn uninvertible_cycle_falls_back_to_join_id() {
        use cpqx_graph::generate;
        use cpqx_query::eval::eval_reference;
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        // ⟨f,f⟩ is an interest, its inverse ⟨f⁻¹,f⁻¹⟩ is not: Si cannot
        // invert its right operand, Ti (single-label right) still can.
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let idx = crate::CpqxIndex::build_interest_aware(&g, 2, [ff]);
        let si = cpqx_query::parse_cpq("(f . f . f . f) & id", &g).unwrap();
        let (result, stats) = idx.explain(&g, &si);
        assert_eq!(result, eval_reference(&g, &si));
        assert_eq!((stats.joins, stats.class_conjunctions), (1, 0), "pair-level JOIN-ID");
        let ti = cpqx_query::parse_cpq("(f . f . f) & id", &g).unwrap();
        let (result, stats) = idx.explain(&g, &ti);
        assert_eq!(result, eval_reference(&g, &ti));
        assert_eq!((stats.joins, stats.class_conjunctions), (0, 1));
    }
}
