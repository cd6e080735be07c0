//! Degenerate and boundary inputs: empty graphs, isolated vertices,
//! self-loop-only graphs, k at its extremes, chains far beyond k, and
//! no-op maintenance.

use cpqx::graph::{GraphBuilder, Label, LabelSeq, Pair};
use cpqx::index::CpqxIndex;
use cpqx::pathindex::PathIndex;
use cpqx::query::eval::{eval_reference, BfsEngine};
use cpqx::query::{parse_cpq, Cpq};

fn edgeless_graph() -> cpqx::graph::Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(5);
    b.ensure_labels(2);
    b.build()
}

#[test]
fn empty_graph_builds_and_answers() {
    let g = edgeless_graph();
    let idx = CpqxIndex::build(&g, 2);
    assert_eq!(idx.pair_count(), 0);
    assert_eq!(idx.class_slots(), 0);
    // `id` is answered from the graph, not the index.
    let q = parse_cpq("id", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q).len(), 5);
    // Label queries are empty, not errors.
    let q = parse_cpq("l0 . l1", &g).unwrap();
    assert!(idx.evaluate(&g, &q).is_empty());
    assert!(idx.evaluate_first(&g, &q).is_none());
    let stats = idx.stats();
    assert_eq!(stats.gamma, 0.0);
    assert_eq!(stats.pairs, 0);
}

#[test]
fn empty_graph_maintenance_noops() {
    let mut g = edgeless_graph();
    let mut idx = CpqxIndex::build(&g, 2);
    assert!(!idx.delete_edge(&mut g, 0, 1, Label(0)), "deleting a missing edge is a no-op");
    assert!(idx.insert_edge(&mut g, 0, 1, Label(0)));
    let q = parse_cpq("l0", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), vec![Pair::new(0, 1)]);
}

#[test]
fn single_vertex_self_loop_all_k() {
    let mut b = GraphBuilder::new();
    b.add_edge_named("v", "v", "a");
    let g = b.build();
    for k in 1..=4 {
        let idx = CpqxIndex::build(&g, k);
        assert_eq!(idx.pair_count(), 1);
        for text in ["a", "a . a", "a & a^-1", "(a . a^-1) & id"] {
            let q = parse_cpq(text, &g).unwrap();
            assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "k={k} {text}");
        }
    }
}

#[test]
fn isolated_vertices_only_matter_for_id() {
    let mut b = GraphBuilder::new();
    b.add_edge_named("a", "b", "f");
    b.vertex("lonely1");
    b.vertex("lonely2");
    let g = b.build();
    let idx = CpqxIndex::build(&g, 2);
    let q = parse_cpq("id", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q).len(), 4);
    let q = parse_cpq("f . f^-1", &g).unwrap();
    let result = idx.evaluate(&g, &q);
    assert_eq!(result, eval_reference(&g, &q));
    assert!(result.iter().all(|p| p.src() < 2), "isolated vertices appear in no path answer");
}

#[test]
fn k_at_max_seq_len() {
    let g = cpqx::graph::generate::labeled_path(&["a", "b", "c", "d", "e", "f", "g", "h"]);
    let idx = CpqxIndex::build(&g, cpqx::graph::MAX_SEQ_LEN);
    // The full 8-chain is a single lookup at k = 8.
    let q = parse_cpq("a . b . c . d . e . f . g . h", &g).unwrap();
    let plan = idx.plan(&q);
    assert_eq!(plan.lookup_count(), 1);
    assert_eq!(idx.evaluate(&g, &q), vec![Pair::new(0, 8)]);
}

#[test]
#[should_panic(expected = "MAX_SEQ_LEN")]
fn k_beyond_max_rejected() {
    let g = cpqx::graph::generate::gex();
    let _ = CpqxIndex::build(&g, cpqx::graph::MAX_SEQ_LEN + 1);
}

#[test]
fn chains_far_beyond_k() {
    let g = cpqx::graph::generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    // Diameter 12 on a k=2 index: 6 lookups, 5 joins.
    let f = g.label_named("f").unwrap();
    let labels: Vec<_> = (0..12).map(|i| if i % 2 == 0 { f.fwd() } else { f.inv() }).collect();
    let q = Cpq::chain(&labels);
    let plan = idx.plan(&q);
    assert_eq!(plan.lookup_count(), 6);
    assert_eq!(plan.join_count(), 5);
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
    assert_eq!(BfsEngine.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn repeated_label_star() {
    // St with all three legs on the same label degenerates to one leg.
    let g = cpqx::graph::generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    let q = parse_cpq("((f . f^-1) & (f . f^-1)) & ((f . f^-1) & id)", &g).unwrap();
    let simple = parse_cpq("(f . f^-1) & id", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), idx.evaluate(&g, &simple));
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn conjunction_of_disjoint_labels_is_empty() {
    let g = cpqx::graph::generate::labeled_path(&["a", "b"]);
    let idx = CpqxIndex::build(&g, 2);
    let q = parse_cpq("a & b", &g).unwrap();
    assert!(idx.evaluate(&g, &q).is_empty());
    let path = PathIndex::build(&g, 2);
    assert!(path.evaluate(&g, &q).is_empty());
}

#[test]
fn delete_isolated_vertex_is_noop() {
    let mut b = GraphBuilder::new();
    b.add_edge_named("a", "b", "f");
    b.vertex("lonely");
    let mut g = b.build();
    let mut idx = CpqxIndex::build(&g, 2);
    let lonely = g.vertex_named("lonely").unwrap();
    let before = idx.pair_count();
    idx.delete_vertex(&mut g, lonely);
    assert_eq!(idx.pair_count(), before);
    let q = parse_cpq("f", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn interest_operations_rejected_outside_ia_mode() {
    let mut g = cpqx::graph::generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let f = g.label_named("f").unwrap();
    let seq = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
    assert!(!idx.insert_interest(&mut g, seq), "full index has no interest set");
    assert!(!idx.delete_interest(&seq));
}

#[test]
fn interest_length_bounds() {
    let mut g = cpqx::graph::generate::gex();
    let f = g.label_named("f").unwrap();
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, std::iter::empty::<LabelSeq>());
    // Length-1: implicitly indexed, registration refused.
    assert!(!idx.insert_interest(&mut g, LabelSeq::single(f.fwd())));
    // Longer than k: refused (callers must normalize first).
    let long = LabelSeq::from_slice(&[f.fwd(), f.fwd(), f.fwd()]);
    assert!(!idx.insert_interest(&mut g, long));
    // Within bounds: accepted.
    assert!(idx.insert_interest(&mut g, LabelSeq::from_slice(&[f.fwd(), f.fwd()])));
}

#[test]
fn parallel_edges_with_different_labels() {
    let mut b = GraphBuilder::new();
    b.add_edge_named("x", "y", "a");
    b.add_edge_named("x", "y", "b");
    b.add_edge_named("x", "y", "c");
    let g = b.build();
    let idx = CpqxIndex::build(&g, 2);
    // One pair, one class, three length-1 sequences (plus 2-step returns).
    let p = Pair::new(g.vertex_named("x").unwrap(), g.vertex_named("y").unwrap());
    let c = idx.class_of(p).unwrap();
    let singles = idx.class_sequences(c).filter(|s| s.len() == 1).count();
    assert_eq!(singles, 3);
    for text in ["a & b", "a & (b & c)", "(a . a^-1) & id"] {
        let q = parse_cpq(text, &g).unwrap();
        assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "{text}");
    }
}

#[test]
fn bfs_and_reference_on_empty_graph() {
    let g = edgeless_graph();
    let q = parse_cpq("l0 & id", &g).unwrap();
    assert!(eval_reference(&g, &q).is_empty());
    assert!(BfsEngine.evaluate(&g, &q).is_empty());
}
