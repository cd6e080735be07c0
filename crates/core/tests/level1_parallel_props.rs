//! Property tests for the parallel level-1 pass: at every thread count,
//! `RefinementBase::with_threads` must produce `pair_blocks`/`block_seqs`
//! **equal** to the sequential `RefinementBase::new` — structural
//! identity — across random graphs of both
//! generator topologies, plus the degenerate shapes the balancer treats
//! specially (empty, edgeless, single-vertex self-loop graphs).

use cpqx_core::RefinementBase;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn assert_structurally_equal(g: &Graph, ctx: &str) {
    let seq = RefinementBase::new(g);
    for &threads in &THREAD_COUNTS {
        let (par, parallel_time) = RefinementBase::with_threads_timed(g, threads);
        assert_eq!(
            seq.level1_pair_blocks(),
            par.level1_pair_blocks(),
            "pair_blocks diverge at {threads} threads ({ctx})"
        );
        assert_eq!(
            seq.level1_block_seqs(),
            par.level1_block_seqs(),
            "block_seqs diverge at {threads} threads ({ctx})"
        );
        assert_eq!(seq.vertex_count(), par.vertex_count());
        assert_eq!(seq.level1_pair_count(), par.level1_pair_count());
        if threads == 1 {
            assert_eq!(
                parallel_time,
                std::time::Duration::ZERO,
                "single-threaded builds must take the sequential path"
            );
        }
        // The downstream shard refinement sees identical state: a full
        // partition over the parallel base equals one over the sequential
        // base, class ids included (both walk the same signatures).
        let n = g.vertex_count();
        let ps = seq.partition_range(2, 0..n.max(1));
        let pp = par.partition_range(2, 0..n.max(1));
        assert_eq!(ps.pair_classes, pp.pair_classes, "{threads} threads ({ctx})");
        assert_eq!(ps.class_loop, pp.class_loop);
        assert_eq!(ps.class_seqs, pp.class_seqs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn social_graphs(seed in 0u64..100_000, vertices in 2u32..80, edge_factor in 1u32..6) {
        let edges = vertices * edge_factor;
        let g = random_graph(&RandomGraphConfig::social(vertices, edges as usize, 3, seed));
        assert_structurally_equal(&g, &format!("social seed={seed} v={vertices} e={edges}"));
    }

    #[test]
    fn uniform_graphs(seed in 0u64..100_000, labels in 1u16..5) {
        let g = random_graph(&RandomGraphConfig::uniform(60, 240, labels, seed));
        assert_structurally_equal(&g, &format!("uniform seed={seed} labels={labels}"));
    }
}

#[test]
fn degenerate_graphs() {
    assert_structurally_equal(&GraphBuilder::new().build(), "empty");

    let mut b = GraphBuilder::new();
    b.ensure_vertices(9);
    b.ensure_labels(2);
    assert_structurally_equal(&b.build(), "edgeless");

    let mut b = GraphBuilder::new();
    b.add_edge_named("a", "a", "f");
    assert_structurally_equal(&b.build(), "one self-loop");

    // More threads than vertices: the balancer caps the range count.
    let mut b = GraphBuilder::new();
    b.add_edge_named("a", "b", "f");
    b.add_edge_named("b", "a", "g");
    assert_structurally_equal(&b.build(), "two vertices");
}

#[test]
fn example_graph_all_ks_build_identically() {
    use cpqx_core::cpq_path_partition;
    let g = cpqx_graph::generate::gex();
    assert_structurally_equal(&g, "gex");
    // End to end: a partition assembled over the parallel base answers
    // exactly like the sequential Algorithm-1 pipeline.
    for k in 1..=3 {
        let seq = cpq_path_partition(&g, k);
        let par = RefinementBase::with_threads(&g, 8).partition_range(k, 0..g.vertex_count());
        assert_eq!(seq.pair_count(), par.pair_count(), "k={k}");
        assert_eq!(
            seq.pair_classes.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            par.pair_classes.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            "k={k}"
        );
    }
}
