//! Index-free CPQ evaluation: the reference oracle and the BFS baseline.

use crate::ast::Cpq;
use crate::ops;
use cpqx_graph::{Graph, Pair};
use std::collections::{HashMap, HashSet};

/// Naive reference evaluator — the correctness oracle for every engine.
///
/// Implements the denotational semantics of Sec. III-B directly on hash
/// sets, sharing no code with the optimized engines, so agreement between
/// this and an engine is meaningful evidence of correctness. Returns a
/// normalized (sorted, deduplicated) pair vector.
pub fn eval_reference(g: &Graph, q: &Cpq) -> Vec<Pair> {
    let set = eval_ref_set(g, q);
    let mut out: Vec<Pair> = set.into_iter().map(|(v, u)| Pair::new(v, u)).collect();
    out.sort_unstable();
    out
}

fn eval_ref_set(g: &Graph, q: &Cpq) -> HashSet<(u32, u32)> {
    match q {
        Cpq::Id => g.vertices().map(|v| (v, v)).collect(),
        Cpq::Label(l) => g.edge_pairs(*l).iter().map(|p| (p.src(), p.dst())).collect(),
        Cpq::Join(a, b) => {
            let left = eval_ref_set(g, a);
            let right = eval_ref_set(g, b);
            let mut by_src: HashMap<u32, Vec<u32>> = HashMap::new();
            for (m, y) in right {
                by_src.entry(m).or_default().push(y);
            }
            let mut out = HashSet::new();
            for (v, m) in left {
                if let Some(ys) = by_src.get(&m) {
                    for &y in ys {
                        out.insert((v, y));
                    }
                }
            }
            out
        }
        Cpq::Conj(a, b) => {
            let left = eval_ref_set(g, a);
            let right = eval_ref_set(g, b);
            left.intersection(&right).copied().collect()
        }
    }
}

/// The paper's index-free **BFS** baseline (Sec. VI, "Methods").
///
/// Evaluates the query bottom-up on normalized pair vectors, using frontier
/// expansion over the adjacency lists whenever a join's right operand is a
/// single edge label (breadth-first chain traversal) and sorted-merge
/// operators otherwise. No index is consulted.
#[derive(Debug, Default, Clone, Copy)]
pub struct BfsEngine;

impl BfsEngine {
    /// Evaluates `q` on `g`, returning a normalized pair set. One
    /// [`ops::EvalContext`] scratch buffer serves every join of the
    /// recursion.
    pub fn evaluate(&self, g: &Graph, q: &Cpq) -> Vec<Pair> {
        self.eval_ctx(g, q, &mut ops::EvalContext::new())
    }

    fn eval_ctx(&self, g: &Graph, q: &Cpq, ctx: &mut ops::EvalContext) -> Vec<Pair> {
        match q {
            Cpq::Id => ops::all_loops(g),
            Cpq::Label(l) => g.edge_pairs(*l).to_vec(),
            Cpq::Join(a, b) => match &**b {
                // BFS frontier expansion for chain suffixes (the graph's
                // label runs).
                Cpq::Label(l) => {
                    let left = self.eval_ctx(g, a, ctx);
                    ops::expand_adjacency(g, &left, *l)
                }
                _ => {
                    let left = self.eval_ctx(g, a, ctx);
                    if left.is_empty() {
                        return Vec::new();
                    }
                    let right = self.eval_ctx(g, b, ctx);
                    ctx.join_pairs(&left, &right)
                }
            },
            Cpq::Conj(a, b) => {
                let left = self.eval_ctx(g, a, ctx);
                if left.is_empty() {
                    return Vec::new();
                }
                let right = self.eval_ctx(g, b, ctx);
                ops::intersect_pairs(&left, &right)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Template;
    use crate::parser::parse_cpq;
    use cpqx_graph::generate;
    use cpqx_graph::{ExtLabel, Label};

    #[test]
    fn triad_query_on_gex() {
        // The introduction's example: ﬀ ∩ f⁻¹ finds the follows-triad
        // {(sue, zoe), (joe, sue), (zoe, joe)}.
        let g = generate::gex();
        let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
        let named: std::collections::BTreeSet<(&str, &str)> = eval_reference(&g, &q)
            .iter()
            .map(|p| (g.vertex_name(p.src()), g.vertex_name(p.dst())))
            .collect();
        let expected: std::collections::BTreeSet<(&str, &str)> =
            [("sue", "zoe"), ("joe", "sue"), ("zoe", "joe")].into_iter().collect();
        assert_eq!(named, expected);
    }

    #[test]
    fn identity_semantics() {
        let g = generate::cycle(3, "f");
        let q = parse_cpq("id", &g).unwrap();
        assert_eq!(eval_reference(&g, &q).len(), 3);
        // fff on a 3-cycle is the identity on all vertices.
        let q = parse_cpq("(f . f . f) & id", &g).unwrap();
        assert_eq!(eval_reference(&g, &q).len(), 3);
        // ff is not.
        let q = parse_cpq("(f . f) & id", &g).unwrap();
        assert!(eval_reference(&g, &q).is_empty());
    }

    #[test]
    fn join_with_identity_is_noop() {
        let g = generate::gex();
        let a = eval_reference(&g, &parse_cpq("f . id", &g).unwrap());
        let b = eval_reference(&g, &parse_cpq("f", &g).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn inverse_label_swaps_pairs() {
        let g = generate::gex();
        let fwd = eval_reference(&g, &parse_cpq("f", &g).unwrap());
        let inv = eval_reference(&g, &parse_cpq("f^-1", &g).unwrap());
        let mut swapped: Vec<Pair> = fwd.iter().map(|p| p.swap()).collect();
        swapped.sort_unstable();
        assert_eq!(inv, swapped);
    }

    #[test]
    fn bfs_agrees_with_reference_on_templates() {
        let g = generate::gex();
        let labels: Vec<ExtLabel> = vec![
            Label(0).fwd(),
            Label(1).fwd(),
            Label(0).inv(),
            Label(1).inv(),
            Label(0).fwd(),
            Label(1).fwd(),
            Label(0).inv(),
        ];
        let bfs = BfsEngine;
        for t in Template::ALL {
            let q = t.instantiate(&labels[..t.arity()]);
            assert_eq!(bfs.evaluate(&g, &q), eval_reference(&g, &q), "template {}", t.name());
        }
    }

    #[test]
    fn bfs_agrees_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for seed in 0..5u64 {
            let cfg = cpqx_graph::generate::RandomGraphConfig::social(60, 240, 3, seed);
            let g = generate::random_graph(&cfg);
            let bfs = BfsEngine;
            for t in Template::ALL {
                let labels: Vec<ExtLabel> = (0..t.arity())
                    .map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count())))
                    .collect();
                let q = t.instantiate(&labels);
                assert_eq!(
                    bfs.evaluate(&g, &q),
                    eval_reference(&g, &q),
                    "seed {seed} template {}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn empty_on_missing_structure() {
        let g = generate::labeled_path(&["a", "b"]);
        let q = parse_cpq("b . a", &g).unwrap();
        assert!(eval_reference(&g, &q).is_empty());
        assert!(BfsEngine.evaluate(&g, &q).is_empty());
    }
}
