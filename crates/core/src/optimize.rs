//! Cost-based plan optimization over index statistics.
//!
//! The paper derives its execution plan syntactically (Fig. 4) and notes
//! that "further query optimization is an interesting rich topic for future
//! research" (Sec. IV-D). This module implements that extension:
//!
//! * **selectivity-aware chain chunking** — a label run is split into
//!   `≤ k` LOOKUPs by dynamic programming over the estimated pair volume
//!   of every admissible chunk (the syntactic planner greedily takes the
//!   longest prefix). An empty chunk anywhere proves the chain empty and
//!   is preferred at zero cost.
//! * **join association** — the chunk relations of a chain are associated
//!   by a matrix-chain-style DP minimizing estimated intermediate sizes
//!   under a uniform-middle-vertex assumption, instead of always folding
//!   left-deep.
//! * **conjunct ordering** — conjuncts are evaluated cheapest-first, so
//!   the executor's empty-early-exit fires as soon as possible and sorted
//!   intersections are driven by the smallest operand.
//! * **cycles cost what they run as** — the executor closes `chain ∩ id`
//!   as a conjunction of one side of the root split with the other side's
//!   inverse (see [`crate::exec`]), so the root of such a chain is costed,
//!   and its split chosen, as a conjunction wherever the index can invert
//!   the right side.
//! * **identity costs what it reads** — lookups conjoined under `∩ id`
//!   read their cyclic sets only (the executor pushes the identity down
//!   to them), so they are costed, and ordered, by those.
//!
//! All rewrites are estimate-only: the produced plan evaluates through the
//! unmodified executor and returns identical answers (asserted by tests and
//! the `ablation_planner` bench).

use crate::bisim::ClassId;
use crate::class_set::ClassSet;
use crate::index::CpqxIndex;
use cpqx_graph::{ExtLabel, Graph, LabelSeq};
use cpqx_query::plan::Plan;
use cpqx_query::Cpq;

/// A plan annotated with its estimated result cardinality.
struct Costed {
    plan: Plan,
    /// Estimated number of result pairs.
    rows: f64,
    /// Estimated cumulative work (intermediate rows touched).
    cost: f64,
}

/// Optimizes `q` against `index` (statistics) and `g` (vertex count for
/// join-size estimates), returning a plan for the standard executor.
pub fn optimize_query(index: &CpqxIndex, g: &Graph, q: &Cpq) -> Plan {
    build(index, g, q).plan
}

/// Like [`optimize_query`] but also returns the plan's estimated
/// cumulative execution cost (intermediate rows touched), from the same
/// single optimization pass. The serving engine caches exactly this pair,
/// so the cost describes the plan that actually executes.
pub fn optimize_query_costed(index: &CpqxIndex, g: &Graph, q: &Cpq) -> (Plan, f64) {
    let costed = build(index, g, q);
    (costed.plan, costed.cost)
}

/// The estimated execution cost of `q`'s optimized plan (see
/// [`optimize_query_costed`]).
pub fn estimate_plan_cost(index: &CpqxIndex, g: &Graph, q: &Cpq) -> f64 {
    build(index, g, q).cost
}

/// Estimated pair volume of a class set. Exact for short sets;
/// extrapolated from a 32-class sample, every `len / 32`-th class by rank,
/// for long ones, so estimation cost stays negligible next to even the
/// cheapest query. The set is stepped through by rank ([`ClassSet::iter`]'s
/// `nth`): its bitmap words are passed by popcount, never its ids one by
/// one.
fn class_rows(index: &CpqxIndex, set: &ClassSet) -> f64 {
    const SAMPLE: usize = 32;
    let (len, classes) = (set.len(), set.iter());
    let rows = |c: ClassId| index.class_pairs(c).len();
    if len <= SAMPLE {
        classes.map(rows).sum::<usize>() as f64
    } else {
        let sampled: usize = classes.step_by(len / SAMPLE).take(SAMPLE).map(rows).sum();
        sampled as f64 / SAMPLE as f64 * len as f64
    }
}

/// Estimated pair volume of one lookup.
fn lookup_rows(index: &CpqxIndex, seq: &LabelSeq) -> f64 {
    class_rows(index, index.lookup(seq))
}

/// One LOOKUP, costed by the class ids it reads: the sequence's cyclic
/// set when a fused identity reaches it (`under_id`), its posting set
/// otherwise. A lookup's *work* is its class ids; the pairs are only
/// materialized if a join needs them (accounted there).
fn lookup_costed(index: &CpqxIndex, seq: LabelSeq, under_id: bool) -> Costed {
    let set = if under_id { index.lookup_cyclic(&seq) } else { index.lookup(&seq) };
    Costed { plan: Plan::Lookup(seq), rows: class_rows(index, set), cost: set.len() as f64 }
}

fn join_rows(left: f64, right: f64, g: &Graph) -> f64 {
    // Uniform middle vertex: |A ⋈ B| ≈ |A|·|B| / |V|.
    (left * right / (g.vertex_count().max(1) as f64)).min(left * right)
}

fn build(index: &CpqxIndex, g: &Graph, q: &Cpq) -> Costed {
    match q {
        Cpq::Id => Costed {
            plan: Plan::AllId,
            rows: g.vertex_count() as f64,
            cost: g.vertex_count() as f64,
        },
        Cpq::Label(l) => lookup_costed(index, LabelSeq::single(*l), false),
        Cpq::Conj(..) => {
            let mut conjuncts = Vec::new();
            flatten_conj(q, &mut conjuncts);
            let others = conjuncts.iter().filter(|c| !matches!(c, Cpq::Id)).count();
            let has_id = others < conjuncts.len();
            // A lone chain under `∩ id` is a cycle: its root closes as a
            // conjunction (`fuse_id` below marks it `JoinId`).
            let closes_cycle = has_id && others == 1;
            let mut costed: Vec<Costed> = Vec::new();
            for c in conjuncts {
                match c {
                    Cpq::Id => {}
                    Cpq::Join(..) if closes_cycle => costed.push(build_join(index, g, c, true)),
                    other => costed.push(build(index, g, other)),
                }
            }
            if costed.is_empty() {
                return Costed {
                    plan: Plan::AllId,
                    rows: g.vertex_count() as f64,
                    cost: g.vertex_count() as f64,
                };
            }
            // Lookups conjoined under `∩ id` each take the identity
            // themselves (see [`crate::exec`], rule 3).
            let pushed_id = has_id && costed.iter().all(|c| matches!(c.plan, Plan::Lookup(_)));
            if pushed_id {
                for c in &mut costed {
                    if let Plan::Lookup(seq) = c.plan {
                        *c = lookup_costed(index, seq, true);
                    }
                }
            }
            // Cheapest-first evaluation order.
            costed.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            let mut it = costed.into_iter();
            let first = it.next().unwrap();
            let (mut plan, mut rows, mut cost) = (first.plan, first.rows, first.cost);
            for next in it {
                rows = rows.min(next.rows);
                cost += next.cost + rows;
                plan = Plan::Conj(Box::new(plan), Box::new(next.plan));
            }
            if has_id {
                plan = fuse_id(plan);
                if !pushed_id {
                    rows /= (g.vertex_count().max(1) as f64).sqrt();
                }
            }
            Costed { plan, rows, cost }
        }
        Cpq::Join(..) => build_join(index, g, q, false),
    }
}

/// Costs the join chain `q`; with `closes_cycle` the chain sits directly
/// under `∩ id` and its root runs as a conjunction (see
/// [`associate_joins`]).
fn build_join(index: &CpqxIndex, g: &Graph, q: &Cpq, closes_cycle: bool) -> Costed {
    let mut factors = Vec::new();
    flatten_join(q, &mut factors);
    // Group consecutive labels into runs; build costed parts.
    let mut parts: Vec<Costed> = Vec::new();
    let mut run: Vec<ExtLabel> = Vec::new();
    for f in factors {
        match f {
            Cpq::Id => {}
            Cpq::Label(l) => run.push(*l),
            complex => {
                if !run.is_empty() {
                    parts.extend(chunk_run_optimal(index, &run));
                    run.clear();
                }
                parts.push(build(index, g, complex));
            }
        }
    }
    if !run.is_empty() {
        parts.extend(chunk_run_optimal(index, &run));
    }
    if parts.is_empty() {
        return Costed {
            plan: Plan::AllId,
            rows: g.vertex_count() as f64,
            cost: g.vertex_count() as f64,
        };
    }
    associate_joins(parts, index, g, closes_cycle)
}

/// Optimal chunking of a label run into indexed LOOKUPs of length ≤ k.
///
/// Every chunk boundary forces a join (which materializes pairs), so the
/// DP minimizes lexicographically: **fewest chunks first** — matching the
/// paper's longest-prefix rule — then the total estimated pair volume, so
/// selectivity breaks ties between equal-length chunkings (and an empty
/// chunk, which proves the chain empty, is preferred for free).
fn chunk_run_optimal(index: &CpqxIndex, run: &[ExtLabel]) -> Vec<Costed> {
    let n = run.len();
    let k = index.k().min(cpqx_graph::MAX_SEQ_LEN);
    // best[i] = (chunks, total rows, chunk length taken at i) from i to end.
    let mut best: Vec<(usize, f64, usize)> = vec![(usize::MAX, f64::INFINITY, 1); n + 1];
    best[n] = (0, 0.0, 0);
    for i in (0..n).rev() {
        for len in 1..=k.min(n - i) {
            let seq = LabelSeq::from_slice(&run[i..i + len]);
            if len > 1 && !index.is_indexed(&seq) {
                continue;
            }
            let rows = lookup_rows(index, &seq);
            let rest = best[i + len];
            let cand = (1 + rest.0, rows + rest.1);
            if cand.0 < best[i].0 || (cand.0 == best[i].0 && cand.1 < best[i].1) {
                best[i] = (cand.0, cand.1, len);
            }
        }
    }
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let len = best[i].2.max(1);
        out.push(lookup_costed(index, LabelSeq::from_slice(&run[i..i + len]), false));
        i += len;
    }
    out
}

/// Matrix-chain-style association of an ordered list of join operands.
///
/// With `closes_cycle` the whole chain is restricted to the identity, and
/// the executor runs its root as the conjunction of the left side with the
/// right side's inverse wherever the index can invert the right side: such
/// a root split costs — and yields — what a conjunction does, the smaller
/// side's rows, instead of a join's product.
fn associate_joins(parts: Vec<Costed>, index: &CpqxIndex, g: &Graph, closes_cycle: bool) -> Costed {
    let n = parts.len();
    if n == 1 {
        return parts.into_iter().next().unwrap();
    }
    // invertible_from[m]: the index answers the inverse of parts[m..].
    let mut invertible_from = vec![closes_cycle; n + 1];
    for (m, p) in parts.iter().enumerate().rev() {
        invertible_from[m] =
            invertible_from[m + 1] && crate::exec::indexed_inverse(index, &p.plan).is_some();
    }
    // dp[i][j] = best (cost, rows, split) for the subchain i..=j.
    let mut rows = vec![vec![0.0f64; n]; n];
    let mut cost = vec![vec![f64::INFINITY; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for (i, p) in parts.iter().enumerate() {
        rows[i][i] = p.rows;
        cost[i][i] = p.cost;
    }
    for span in 2..=n {
        for i in 0..=n - span {
            let j = i + span - 1;
            for m in i..j {
                let (left, right) = (rows[i][m], rows[m + 1][j]);
                let (r, c) = if span == n && invertible_from[m + 1] {
                    (left.min(right), cost[i][m] + cost[m + 1][j] + left.min(right))
                } else {
                    let r = join_rows(left, right, g);
                    (r, cost[i][m] + cost[m + 1][j] + left + right + r)
                };
                if c < cost[i][j] {
                    cost[i][j] = c;
                    rows[i][j] = r;
                    split[i][j] = m;
                }
            }
        }
    }
    fn rebuild(parts: &mut Vec<Option<Plan>>, split: &[Vec<usize>], i: usize, j: usize) -> Plan {
        if i == j {
            return parts[i].take().expect("each leaf used once");
        }
        let m = split[i][j];
        let left = rebuild(parts, split, i, m);
        let right = rebuild(parts, split, m + 1, j);
        Plan::Join(Box::new(left), Box::new(right))
    }
    let total_cost = cost[0][n - 1];
    let total_rows = rows[0][n - 1];
    let mut slots: Vec<Option<Plan>> = parts.into_iter().map(|p| Some(p.plan)).collect();
    let plan = rebuild(&mut slots, &split, 0, n - 1);
    Costed { plan, rows: total_rows, cost: total_cost }
}

fn flatten_conj<'q>(q: &'q Cpq, out: &mut Vec<&'q Cpq>) {
    match q {
        Cpq::Conj(a, b) => {
            flatten_conj(a, out);
            flatten_conj(b, out);
        }
        other => out.push(other),
    }
}

fn flatten_join<'q>(q: &'q Cpq, out: &mut Vec<&'q Cpq>) {
    match q {
        Cpq::Join(a, b) => {
            flatten_join(a, out);
            flatten_join(b, out);
        }
        other => out.push(other),
    }
}

fn fuse_id(plan: Plan) -> Plan {
    match plan {
        Plan::Lookup(s) => Plan::LookupId(s),
        Plan::Join(a, b) => Plan::JoinId(a, b),
        Plan::Conj(a, b) => Plan::ConjId(a, b),
        fused => fused,
    }
}

impl CpqxIndex {
    /// Evaluates `q` through the cost-based optimizer instead of the
    /// syntactic planner. Answers are identical; plans may differ.
    pub fn evaluate_optimized(&self, g: &Graph, q: &Cpq) -> Vec<cpqx_graph::Pair> {
        crate::exec::Executor::new(self, g).run(&optimize_query(self, g, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    #[test]
    fn optimized_plans_preserve_answers() {
        use cpqx_query::ast::Template;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for seed in 0..3u64 {
            let cfg = generate::RandomGraphConfig::social(60, 240, 3, seed);
            let g = generate::random_graph(&cfg);
            let idx = CpqxIndex::build(&g, 2);
            for t in Template::ALL {
                for _ in 0..3 {
                    let labels: Vec<ExtLabel> = (0..t.arity())
                        .map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count())))
                        .collect();
                    let q = t.instantiate(&labels);
                    assert_eq!(
                        idx.evaluate_optimized(&g, &q),
                        eval_reference(&g, &q),
                        "template {}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn chunking_prefers_empty_chunks() {
        // b·a has no match on a path graph; the optimizer must carve the
        // run so one chunk is the (empty) ⟨b,a⟩ lookup — total cost 0 —
        // instead of two non-empty singleton lookups.
        let g = generate::labeled_path(&["a", "b"]);
        let idx = CpqxIndex::build(&g, 2);
        let a = g.label_named("a").unwrap().fwd();
        let b = g.label_named("b").unwrap().fwd();
        let run = [b, a];
        let chunks = chunk_run_optimal(&idx, &run);
        assert_eq!(chunks.len(), 1, "one empty two-label chunk beats two lookups");
        assert_eq!(chunks[0].rows, 0.0);
    }

    #[test]
    fn conjuncts_are_reordered_cheapest_first() {
        // f is much larger than the (empty) v·v lookup; the optimizer must
        // put the empty side first so evaluation can exit early.
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let q = parse_cpq("f & (v . v)", &g).unwrap();
        let plan = optimize_query(&idx, &g, &q);
        match plan {
            Plan::Conj(left, _) => {
                // the cheap (empty) v·v lookup is evaluated first
                assert!(matches!(*left, Plan::Lookup(s) if s.len() == 2));
            }
            other => panic!("expected conjunction, got {other:?}"),
        }
        assert_eq!(idx.evaluate_optimized(&g, &q), eval_reference(&g, &q));
    }

    #[test]
    fn long_chain_association_is_valid() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        for text in ["f . f . f . f . f", "f . f^-1 . v . v^-1 . f . f"] {
            let q = parse_cpq(text, &g).unwrap();
            assert_eq!(idx.evaluate_optimized(&g, &q), eval_reference(&g, &q), "{text}");
        }
    }

    #[test]
    fn identity_still_fused() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let q = parse_cpq("(f . f^-1) & id", &g).unwrap();
        let plan = optimize_query(&idx, &g, &q);
        assert!(matches!(plan, Plan::LookupId(_)));
        assert_eq!(idx.evaluate_optimized(&g, &q), eval_reference(&g, &q));
    }

    #[test]
    fn identity_is_costed_by_cyclic_postings() {
        use cpqx_query::ast::Template;
        let g = generate::random_graph(&generate::RandomGraphConfig::social(80, 400, 3, 4));
        let idx = CpqxIndex::build(&g, 2);
        let labels: Vec<ExtLabel> = (0..3).map(|l| cpqx_graph::Label(l).fwd()).collect();
        // St = (ℓ0ℓ0⁻¹ ∩ ℓ1ℓ1⁻¹ ∩ ℓ2ℓ2⁻¹) ∩ id against the same star
        // without the identity: three lookups either way, but St's read
        // their cyclic postings only.
        let st = Template::St.instantiate(&labels);
        let Cpq::Conj(open_star, _) = &st else { panic!("St ends in ∩ id") };
        let (plan, cost) = optimize_query_costed(&idx, &g, &st);
        let legs = plan.lookup_seqs();
        let cyclic: f64 = legs.iter().map(|s| idx.lookup_cyclic(s).len() as f64).sum();
        let full: f64 = legs.iter().map(|s| idx.lookup(s).len() as f64).sum();
        assert!(cyclic < full, "the star's legs have acyclic classes too");
        assert!(cost >= cyclic && cost < full, "{cyclic} <= {cost} < {full}");
        assert!(cost < estimate_plan_cost(&idx, &g, open_star));
        // Conjunct order follows the lists that are read.
        let read: Vec<usize> = legs.iter().map(|s| idx.lookup_cyclic(s).len()).collect();
        assert!(read.windows(2).all(|w| w[0] <= w[1]), "cheapest cyclic posting first: {read:?}");
        assert_eq!(idx.evaluate_optimized(&g, &st), eval_reference(&g, &st));
        // The executor reads what was costed.
        let (_, stats) = crate::exec::Executor::new(&idx, &g).run_explained(&plan);
        assert_eq!(stats.classes_touched as f64, cyclic);
    }

    #[test]
    fn cost_estimates_order_queries_sensibly() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let cheap = parse_cpq("f", &g).unwrap();
        let pricey = parse_cpq("(f . f) & f^-1", &g).unwrap();
        let c0 = estimate_plan_cost(&idx, &g, &cheap);
        let c1 = estimate_plan_cost(&idx, &g, &pricey);
        assert!(c0.is_finite() && c0 >= 0.0);
        assert!(c1 > c0, "compound query must cost more: {c1} !> {c0}");
        // The estimate is deterministic: equal queries get equal costs.
        assert_eq!(c1, estimate_plan_cost(&idx, &g, &pricey));
    }

    #[test]
    fn closed_cycle_is_costed_as_a_conjunction() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 300, 2, 9));
        let idx = CpqxIndex::build(&g, 2);
        let cycle = parse_cpq("(l0 . l1 . l1 . l0) & id", &g).unwrap();
        let chain = parse_cpq("l0 . l1 . l1 . l0", &g).unwrap();
        assert!(matches!(optimize_query(&idx, &g, &cycle), Plan::JoinId(..)));
        // Two lookups and the smaller side's rows — what the executor
        // does — not both sides' rows plus a join product.
        let lookups: f64 = ["l0 . l1", "l1 . l0"]
            .iter()
            .map(|t| estimate_plan_cost(&idx, &g, &parse_cpq(t, &g).unwrap()))
            .sum();
        let rows = |t: &str| build(&idx, &g, &parse_cpq(t, &g).unwrap()).rows;
        let cost = estimate_plan_cost(&idx, &g, &cycle);
        assert_eq!(cost, lookups + rows("l0 . l1").min(rows("l1 . l0")));
        assert!(cost < estimate_plan_cost(&idx, &g, &chain));
        assert_eq!(idx.evaluate_optimized(&g, &cycle), eval_reference(&g, &cycle));
        // An index that cannot invert the right side runs — and costs —
        // the cycle as the join it is.
        let l = |i: u16| cpqx_graph::Label(i).fwd();
        let interests = [LabelSeq::from_slice(&[l(0), l(1)]), LabelSeq::from_slice(&[l(1), l(0)])];
        let ia = CpqxIndex::build_interest_aware(&g, 2, interests);
        assert_eq!(estimate_plan_cost(&ia, &g, &cycle), estimate_plan_cost(&ia, &g, &chain));
        assert_eq!(ia.evaluate_optimized(&g, &cycle), eval_reference(&g, &cycle));
    }

    #[test]
    fn interest_aware_optimization() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let idx =
            CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[f.fwd(), f.fwd()])]);
        // A chain whose only indexed 2-chunk is ⟨f,f⟩.
        let q = parse_cpq("f . f . v", &g).unwrap();
        let plan = optimize_query(&idx, &g, &q);
        let seqs = plan.lookup_seqs();
        assert!(seqs.iter().all(|s| idx.is_indexed(s)));
        assert_eq!(idx.evaluate_optimized(&g, &q), eval_reference(&g, &q));
    }
}
