//! Query processing with the index — the paper's Algorithms 3 and 4.
//!
//! Intermediate results are either **class-id sets** ([`ClassSet`]s) or
//! normalized **pair sets**. The executor keeps results at the class level
//! as long as possible: LOOKUP borrows the `Il2c` posting set; CONJUNCTION
//! of two class sets is a class-id intersection (the order-of-magnitude
//! win of Prop. 4.1 / Example 4.3). The root expands surviving classes
//! through `Ic2p`. Three rules cover everything else:
//!
//! 1. **A cycle is a conjunction with the inverse.** Every LOOKUP is
//!    exact, and `s` labels a path from `v` to `u` iff `s⁻¹` reversed
//!    labels one from `u` to `v`, so
//!    `(A ∘ B) ∩ id = {(v, v) | (v, u) ∈ A ∩ B⁻¹}` with `B⁻¹` the
//!    structural [`Plan::inverse`] of `B`. A fused `JOIN∩id` therefore
//!    runs as a CONJUNCTION — two lookups intersect as class sets and
//!    only the surviving classes are touched — whose sources are the
//!    answer.
//!    Only when an inverted sequence is not indexed (interest-aware
//!    indexes) does it run as Algorithm 4's pair-level `JOIN-ID`.
//! 2. **Joins emit in source order.** An open JOIN must materialize pairs
//!    (Algorithm 4), and does so in one pass over its source-sorted left
//!    operand ([`cpqx_query::ops`]): nothing is re-keyed or sorted
//!    globally, and a single-label operand is read from the graph's
//!    label-major edge store instead of being expanded from the index.
//!    Only a join of two multi-label operands expands both from the index.
//! 3. **Identity is a posting set.** Cyclicity is a property of the class
//!    (Sec. IV-D's third optimisation), and the index keeps each
//!    sequence's cyclic classes as a class set of their own
//!    ([`CpqxIndex::lookup_cyclic`]). `LOOKUP∩id` borrows it, and since
//!    `(A ∩ B) ∩ id = (A ∩ id) ∩ (B ∩ id)`, a `CONJUNCTION∩id` over
//!    class-level operands pushes the identity down to its lookups and
//!    intersects cyclic sets only — at most |V| ids between them — never
//!    walking the full sets to test a flag per class.
//!
//! Every class-level intermediate is a [`ClassSet`] — a posting or cyclic
//! set borrowed from the index, or an owned AND result — so one kernel,
//! [`ClassSet::and`], intersects any two of them, window by window on
//! their containers, and its result is a set of the same form. A
//! conjunction with an operand that is not class-level (a join, or `id`)
//! intersects pair sets instead.
//!
//! Every choice above is made by the plan in front of the executor, never
//! by an option: the executor has one configuration.

use crate::class_set::ClassSet;
use crate::index::CpqxIndex;
use cpqx_graph::pair;
use cpqx_graph::{ExtLabel, Graph, LabelSeq, Pair};
use cpqx_query::ops;
use cpqx_query::ops::EvalContext;
use cpqx_query::plan::Plan;
use std::borrow::Cow;

/// An intermediate result: `C` or `P` in Algorithm 3's notation.
#[derive(Clone, Debug, PartialEq)]
pub enum Intermediate<'i> {
    /// Class ids — unions of whole equivalence classes: a LOOKUP's
    /// posting set or a LOOKUP∩id's cyclic set, borrowed from the index,
    /// or a conjunction's result, owned.
    Classes(Cow<'i, ClassSet>),
    /// Normalized s-t pairs.
    Pairs(Vec<Pair>),
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
    /// fused identity retrieves the sequence's *cyclic* set only
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
            Intermediate::Classes(cs) => cs.iter().find_map(|c| self.index.class_pairs(c).next()),
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
                Intermediate::Classes(Cow::Borrowed(self.lookup_counted(seq)))
            }
            Plan::Lookup(seq) | Plan::LookupId(seq) => {
                // Fused `⟦seq⟧ ∩ id`: the sequence's cyclic classes, kept
                // by the index as a class set of their own (the paper's
                // "check the first s-t pair" — cyclicity is uniform per
                // class — done once, at build time).
                let looked = self.index.lookup_cyclic(seq);
                self.count_lookup(looked.len());
                Intermediate::Classes(Cow::Borrowed(looked))
            }
            Plan::Join(a, b) => self.join(a, b, under_id),
            Plan::JoinId(a, b) => self.join(a, b, true),
            Plan::Conj(a, b) => self.conj(a, b, under_id),
            Plan::ConjId(a, b) => self.conj(a, b, true),
        }
    }

    /// `CONJUNCTION` / fused `CONJUNCTION-ID`: the class-level
    /// intersection of Prop. 4.1 when both operands are class sets — on
    /// their containers ([`ClassSet::and`]) — a pair-set intersection
    /// otherwise. Under a fused identity, operands that stay at the class
    /// level are evaluated under it themselves (module docs, rule 3), so
    /// only cyclic sets meet.
    fn conj(&self, a: &Plan, b: &Plan, require_loop: bool) -> Intermediate<'i> {
        let push_id = require_loop && class_level_plan(a) && class_level_plan(b);
        match (self.eval_under(a, push_id), self.eval_under(b, push_id)) {
            (Intermediate::Classes(x), Intermediate::Classes(y)) => {
                // Only class-level plans evaluate to class sets.
                debug_assert!(push_id || !require_loop, "identity not pushed to a class set");
                self.bump(|s| s.class_conjunctions += 1);
                Intermediate::Classes(Cow::Owned(x.and(&y)))
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
                for c in cs.iter() {
                    let pairs = self.index.class_pairs(c);
                    self.bump(|s| s.pairs_materialized += pairs.len());
                    out.extend(pairs.map(|p| looped(&p)));
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
    fn expand(&self, cs: &ClassSet) -> Vec<Pair> {
        let mut out = self.index.gather_rows(cs);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::ClassId;
    use proptest::prelude::*;

    /// Sorted distinct class ids below `universe`, so two lists often
    /// overlap; lengths from empty to a few, across the merge bound, and
    /// far past it.
    fn id_list(universe: u32) -> impl Strategy<Value = Vec<ClassId>> {
        let len = prop_oneof![0usize..4, 0usize..64, 200usize..600];
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

        /// The class-level conjunction (`ClassSet::and`, whichever of
        /// merge, gallop or mark it takes) equals the plain merge, both
        /// ways round, over rounds on one thread whose ids move about, so
        /// a scratch left dirty by one round would show in the next.
        #[test]
        fn class_set_intersection_matches_merge(
            lists in prop::collection::vec((id_list(700), id_list(700), 0u32..5000), 1..4),
        ) {
            for (a, b, shift) in lists {
                let a: Vec<ClassId> = a.iter().map(|c| c + shift).collect();
                let b: Vec<ClassId> = b.iter().map(|c| c + shift).collect();
                let expected: Vec<ClassId> =
                    a.iter().copied().filter(|c| b.binary_search(c).is_ok()).collect();
                let (x, y) = (ClassSet::from_sorted(&a), ClassSet::from_sorted(&b));
                let xy = x.and(&y);
                prop_assert_eq!(xy.check(), Ok(()));
                prop_assert_eq!(xy.iter().collect::<Vec<_>>(), expected.clone());
                prop_assert_eq!(y.and(&x).iter().collect::<Vec<_>>(), expected);
            }
        }
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
