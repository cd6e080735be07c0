//! One write path: a transaction ([`apply_ops`]) validates its whole op
//! list before it mutates anything, gathers each op's candidates on the
//! graph as that op leaves it, and refreshes the index once.
//!
//! - Soundness: candidates gathered after *all* edits would miss pairs
//!   that only an intermediate graph connects.
//! - Atomicity: a rejected list leaves the graph and the index untouched.
//! - Equivalence: a list applied as one transaction and as one transaction
//!   per op answers alike, and the single transaction creates no more
//!   classes.

use cpqx_core::maintain::{apply_ops, DeltaError, DeltaOp, OpOutcome};
use cpqx_core::CpqxIndex;
use cpqx_graph::{generate, Graph, GraphBuilder, Label, LabelSeq, Pair};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};
use proptest::prelude::*;

fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).expect("writing to a Vec");
    bytes
}

/// a -l1-> v -l2-> b, and c -l1-> v so that v keeps an edge.
fn chain() -> (Graph, [u32; 4], [Label; 2]) {
    let mut b = GraphBuilder::new();
    b.add_edge_named("a", "v", "l1");
    b.add_edge_named("v", "b", "l2");
    b.add_edge_named("c", "v", "l1");
    let g = b.build();
    let id = |name: &str| g.vertex_named(name).unwrap();
    let ids = [id("a"), id("v"), id("b"), id("c")];
    let labels = [g.label_named("l1").unwrap(), g.label_named("l2").unwrap()];
    (g, ids, labels)
}

/// After `ops`, `(a, b)` no longer carries ⟨l1 l2⟩: the index validates
/// and answers `l1 . l2` like the oracle.
fn assert_chain_broken(ops: &[DeltaOp]) {
    let (mut g, [a, _, b, _], [l1, l2]) = chain();
    let mut idx = CpqxIndex::build(&g, 2);
    let l1l2 = LabelSeq::from_slice(&[l1.fwd(), l2.fwd()]);
    let carries = |idx: &CpqxIndex| {
        idx.class_of(Pair::new(a, b)).is_some_and(|c| idx.class_sequences(c).any(|s| s == l1l2))
    };
    assert!(carries(&idx));
    apply_ops(&mut g, &mut idx, ops).expect("valid ops");
    assert!(!carries(&idx), "(a, b) still carries ⟨l1 l2⟩ after {ops:?}");
    assert_eq!(idx.validate(&g), Ok(()), "{ops:?}");
    let q = Cpq::label(l1).join(Cpq::label(l2));
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "{ops:?}");
}

#[test]
fn candidates_are_gathered_per_op_not_after_all_edits() {
    let (_, [a, v, b, _], [l1, l2]) = chain();
    // In the final graph a and b are isolated, far from v: only the
    // graph between the two deletions puts (a, b) among the candidates.
    assert_chain_broken(&[
        DeltaOp::DeleteEdge { src: a, dst: v, label: l1 },
        DeltaOp::DeleteEdge { src: v, dst: b, label: l2 },
    ]);
    assert_chain_broken(&[DeltaOp::DeleteVertex { vertex: v }]);
}

#[test]
fn a_rejected_list_mutates_nothing() {
    let g0 = generate::random_graph(&generate::RandomGraphConfig::social(30, 100, 3, 4));
    let (v, u, l) = g0.base_edges().next().unwrap();
    let n = g0.vertex_count();
    for interest_aware in [false, true] {
        let mut g = g0.clone();
        let mut idx = if interest_aware {
            CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[l.fwd(), l.inv()])])
        } else {
            CpqxIndex::build(&g, 2)
        };
        let (edges, bytes) = (g.base_edges().collect::<Vec<_>>(), saved(&idx));
        let ops = [
            DeltaOp::DeleteEdge { src: v, dst: u, label: l },
            DeltaOp::AddVertex { name: "fresh".into() },
            DeltaOp::InsertEdge { src: n + 1, dst: v, label: l },
        ];
        let err = apply_ops(&mut g, &mut idx, &ops).expect_err("vertex n + 1 does not exist");
        assert_eq!(err.op_index, 2, "{err}");
        assert_eq!((g.vertex_count(), g.edge_count()), (n, edges.len()));
        assert_eq!(g.base_edges().collect::<Vec<_>>(), edges);
        assert!(saved(&idx) == bytes, "the rejected list changed the index");
        assert!(!idx.has_pair_map(), "the rejected list wrote to the index");

        // An out-of-range label and interest label are rejected alike; a
        // vertex an earlier `AddVertex` created is in range.
        let bad_label = [DeltaOp::InsertEdge { src: v, dst: u, label: Label(3) }];
        assert!(matches!(
            apply_ops(&mut g, &mut idx, &bad_label),
            Err(DeltaError { op_index: 0, .. })
        ));
        let bad_seq = LabelSeq::from_slice(&[l.fwd(), Label(3).fwd()]);
        let bad_interest = [
            DeltaOp::DeleteEdge { src: v, dst: u, label: l },
            DeltaOp::InsertInterest { seq: bad_seq },
        ];
        assert!(matches!(
            apply_ops(&mut g, &mut idx, &bad_interest),
            Err(DeltaError { op_index: 1, .. })
        ));
        assert_eq!(g.edge_count(), edges.len());
        let grown = [
            DeltaOp::AddVertex { name: "fresh".into() },
            DeltaOp::InsertEdge { src: n, dst: v, label: l },
        ];
        assert_eq!(
            apply_ops(&mut g, &mut idx, &grown),
            Ok(vec![OpOutcome::VertexAdded(n), OpOutcome::Applied])
        );
        assert_eq!(idx.validate(&g), Ok(()));
    }
}

#[test]
fn a_round_trip_within_one_transaction_changes_no_class() {
    let mut g = generate::random_graph(&generate::RandomGraphConfig::social(30, 100, 3, 9));
    let mut idx = CpqxIndex::build(&g, 2);
    let (bytes, slots) = (saved(&idx), idx.class_slots());
    let (v, u, l) = g.base_edges().nth(7).unwrap();
    let ops = [
        DeltaOp::DeleteEdge { src: v, dst: u, label: l },
        DeltaOp::InsertEdge { src: v, dst: u, label: l },
    ];
    assert_eq!(apply_ops(&mut g, &mut idx, &ops), Ok(vec![OpOutcome::Applied; 2]));
    assert_eq!(idx.class_slots(), slots);
    assert_eq!(idx.fragmentation().refreshed_pairs, 0);
    assert!(saved(&idx) == bytes, "a round trip moved a pair");
    assert_eq!(idx.validate(&g), Ok(()));
}

/// Length-2 interests the random lists register and drop.
fn interests() -> [LabelSeq; 4] {
    let (a, b, c) = (Label(0), Label(1), Label(2));
    [
        LabelSeq::from_slice(&[a.fwd(), b.fwd()]),
        LabelSeq::from_slice(&[b.inv(), c.fwd()]),
        LabelSeq::from_slice(&[c.fwd(), a.inv()]),
        LabelSeq::from_slice(&[a.fwd(), a.fwd()]),
    ]
}

/// Lowers raw picks onto `g`: vertices modulo the live count (each
/// `AddVertex` raises it for later ops), deletes aimed at `g`'s edges so
/// that most of them hit.
fn lower(raw: &[(u8, u32, u32, u16)], g: &Graph) -> Vec<DeltaOp> {
    let edges: Vec<_> = g.base_edges().collect();
    let labels = g.base_label_count();
    let mut vertices = g.vertex_count();
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, a, b, l))| {
            let (src, dst, label) = (a % vertices, b % vertices, Label(l % labels));
            let (es, ed, el) = edges[a as usize % edges.len()];
            let seq = interests()[b as usize % 4];
            match kind {
                0 => DeltaOp::InsertEdge { src, dst, label },
                1 => DeltaOp::DeleteEdge { src: es, dst: ed, label: el },
                2 => DeltaOp::ChangeEdgeLabel { src: es, dst: ed, from: el, to: label },
                3 => {
                    vertices += 1;
                    DeltaOp::AddVertex { name: format!("v{i}") }
                }
                4 => DeltaOp::DeleteVertex { vertex: src },
                5 => DeltaOp::InsertInterest { seq },
                6 => DeltaOp::DeleteInterest { seq },
                _ => DeltaOp::InsertEdge { src: vertices - 1, dst, label },
            }
        })
        .collect()
}

fn workload(g: &Graph, seed: u64) -> Vec<Cpq> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, seed);
    Template::ALL.iter().flat_map(|&t| gen.queries(t, 2, &probe)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_transaction_answers_like_one_per_op(
        seed in 0u64..1_000,
        interest_aware in prop::bool::ANY,
        raw in prop::collection::vec((0u8..8, any::<u32>(), any::<u32>(), any::<u16>()), 1..14),
    ) {
        let g0 = generate::random_graph(&generate::RandomGraphConfig::social(30, 100, 3, seed));
        let idx0 = if interest_aware {
            CpqxIndex::build_interest_aware(&g0, 2, interests()[..2].to_vec())
        } else {
            CpqxIndex::build(&g0, 2)
        };
        let ops = lower(&raw, &g0);

        let (mut g_one, mut one) = (g0.clone(), idx0.clone());
        let outcomes = apply_ops(&mut g_one, &mut one, &ops).expect("lowered ops are valid");
        let (mut g_per, mut per) = (g0, idx0);
        for (i, op) in ops.iter().enumerate() {
            let outcome = apply_ops(&mut g_per, &mut per, std::slice::from_ref(op));
            prop_assert_eq!(outcome, Ok(vec![outcomes[i]]), "op {} {:?}", i, op);
        }

        prop_assert_eq!(g_one.base_edges().collect::<Vec<_>>(), g_per.base_edges().collect::<Vec<_>>());
        prop_assert_eq!(one.validate(&g_one), Ok(()), "one transaction: {:?}", ops);
        prop_assert_eq!(per.validate(&g_per), Ok(()), "one per op: {:?}", ops);
        for q in workload(&g_one, seed) {
            let expected = eval_reference(&g_one, &q);
            prop_assert_eq!(&one.evaluate(&g_one, &q), &expected, "one transaction: {:?}", q);
            prop_assert_eq!(&per.evaluate(&g_per, &q), &expected, "one per op: {:?}", q);
        }
        prop_assert!(
            one.class_slots() <= per.class_slots(),
            "one transaction made {} classes, one per op {}: {:?}",
            one.class_slots(),
            per.class_slots(),
            ops
        );
    }
}
