//! The pair-set operators against definitions that share nothing with
//! them: nested loops over `BTreeSet`s. Every engine, the BFS baseline
//! and the differential harnesses run on `cpqx_query::ops`, so a join bug
//! there would be invisible to all of them at once.
//!
//! The generators aim at the shapes the source-major joins branch on:
//! empty sides, one hub source carrying most pairs, fan-in that produces
//! the same `(v, y)` through several middles, and vertex ids at the top of
//! the `u32` range (scratch must be sized by the operands, not the ids).

use cpqx_graph::{ExtLabel, Graph, GraphBuilder, Label, Pair};
use cpqx_query::ops;
use proptest::prelude::*;
use std::collections::BTreeSet;

type Set = BTreeSet<(u32, u32)>;

/// A small id universe stretched over the whole `u32` range: ids collide
/// often (joins have matches) and include `0` and `u32::MAX`.
const IDS: [u32; 8] = [0, 1, 2, 3, 7, 1 << 31, u32::MAX - 1, u32::MAX];

/// Pair sets over `IDS`, skewed so source `IDS[hub]` carries about half
/// of the pairs; the range starts at 0, so empty sets occur.
fn pair_set() -> impl Strategy<Value = Set> {
    (0usize..8, prop::collection::vec((0usize..16, 0usize..8), 0..40)).prop_map(|(hub, raw)| {
        raw.into_iter().map(|(s, t)| (IDS[if s < 8 { s } else { hub }], IDS[t])).collect()
    })
}

fn normalized(set: &Set) -> Vec<Pair> {
    set.iter().map(|&(v, u)| Pair::new(v, u)).collect()
}

fn as_set(pairs: &[Pair]) -> Set {
    assert!(pairs.windows(2).all(|w| w[0] < w[1]), "operator output must be normalized");
    pairs.iter().map(|p| (p.src(), p.dst())).collect()
}

fn naive_join(left: &Set, right: &Set) -> Set {
    let mut out = Set::new();
    for &(v, u) in left {
        for &(m, y) in right {
            if u == m {
                out.insert((v, y));
            }
        }
    }
    out
}

fn loops_of(set: &Set) -> Set {
    set.iter().copied().filter(|(v, u)| v == u).collect()
}

/// A graph over vertices `0..n` with two labels from raw edge triples.
fn graph_of(n: u32, edges: &[(u32, u32, u16)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    b.ensure_labels(2);
    for &(v, u, l) in edges {
        b.add_edge(v % n, u % n, Label(l % 2));
    }
    // A tiny chunk weight puts chunk boundaries inside the data, so the
    // label relation arrives as several segments.
    b.build_with_chunk_weight(8)
}

fn relation(g: &Graph, l: ExtLabel) -> Set {
    g.edge_pairs(l).iter().map(|p| (p.src(), p.dst())).collect()
}

/// Pair sets over the vertices of an `n`-vertex graph, hub-skewed.
fn vertex_pairs(n: u32) -> impl Strategy<Value = Set> {
    (0..n, prop::collection::vec((0..2 * n, 0..n), 0..60)).prop_map(move |(hub, raw)| {
        raw.into_iter().map(|(s, t)| (if s < n { s } else { hub }, t)).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn joins_match_nested_loops(left in pair_set(), right in pair_set()) {
        let (l, r) = (normalized(&left), normalized(&right));
        let want = naive_join(&left, &right);
        prop_assert_eq!(as_set(&ops::join_pairs(&l, &r)), want.clone());
        prop_assert_eq!(as_set(&ops::join_pairs_id(&l, &r)), loops_of(&want));
        // One context serving joins of different shapes back to back.
        let mut ctx = ops::EvalContext::new();
        prop_assert_eq!(as_set(&ctx.join_pairs(&r, &l)), naive_join(&right, &left));
        prop_assert_eq!(as_set(&ctx.join_pairs(&l, &r)), want.clone());
        prop_assert_eq!(as_set(&ctx.join_pairs_id(&l, &l)), loops_of(&naive_join(&left, &left)));
    }

    #[test]
    fn intersection_matches_set_intersection(a in pair_set(), b in pair_set()) {
        let want: Set = a.intersection(&b).copied().collect();
        prop_assert_eq!(as_set(&ops::intersect_pairs(&normalized(&a), &normalized(&b))), want);
    }

    #[test]
    fn graph_joins_match_nested_loops(
        edges in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u16>()), 0..80),
        pairs in vertex_pairs(24),
    ) {
        let g = graph_of(24, &edges);
        let p = normalized(&pairs);
        for l in g.ext_labels() {
            let rel = relation(&g, l);
            let suffix = naive_join(&pairs, &rel);
            prop_assert_eq!(as_set(&ops::expand_adjacency(&g, &p, l)), suffix.clone());
            prop_assert_eq!(as_set(&ops::expand_adjacency_id(&g, &p, l)), loops_of(&suffix));
            let prefix = naive_join(&rel, &pairs);
            let mut ctx = ops::EvalContext::new();
            prop_assert_eq!(as_set(&ctx.join_label_left(&g, l, &p, false)), prefix.clone());
            prop_assert_eq!(as_set(&ctx.join_label_left(&g, l, &p, true)), loops_of(&prefix));
        }
    }
}

/// Fan-in at scale: every one of 300 middles reaches the same 300
/// targets, so each source's buffer holds 90 000 entries of which 300 are
/// distinct — the per-source dedup is what keeps the output a set.
#[test]
fn duplicate_producing_fan_in_is_deduplicated() {
    let left: Vec<Pair> =
        (0..3u32).flat_map(|v| (1000..1300u32).map(move |m| Pair::new(v, m))).collect();
    let right: Vec<Pair> =
        (1000..1300u32).flat_map(|m| (0..300u32).map(move |y| Pair::new(m, y))).collect();
    let out = ops::join_pairs(&left, &right);
    assert_eq!(out.len(), 3 * 300);
    assert!(out.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        ops::join_pairs_id(&left, &right),
        vec![Pair::new(0, 0), Pair::new(1, 1), Pair::new(2, 2)]
    );
}
