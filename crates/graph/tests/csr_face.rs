//! Label-major reads on multi-chunk graphs: a vertex appended to a chunk
//! has its (empty) runs, and the skewed multi-segment `PairList` point
//! lookup regression. `view_consistency` checks every run against a model.

use cpqx_graph::{Graph, GraphBuilder, Pair};

/// A multi-chunk graph with a tiny chunk weight so chunk boundaries fall
/// inside the data.
fn chunky(n: u32, weight: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    let f = b.label("f");
    let v = b.label("v");
    for x in 0..n {
        b.add_edge(x, (x + 1) % n, f);
        b.add_edge(x, (x + 7) % n, f);
        if x % 3 == 0 {
            b.add_edge(x, (x + 2) % n, v);
        }
    }
    b.build_with_chunk_weight(weight)
}

/// A graph with one hub vertex carrying most of the edges — segments are
/// heavily skewed across chunks.
fn skewed(n: u32, weight: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n);
    let f = b.label("f");
    for x in 1..n {
        b.add_edge(0, x, f); // hub fan-out
        if x % 5 == 0 {
            b.add_edge(x, (x + 1) % n, f);
        }
    }
    b.build_with_chunk_weight(weight)
}

#[test]
fn appended_vertex_has_empty_runs() {
    let mut g = chunky(64, 8);
    assert!(g.topology_chunk_count() > 4, "chunk boundaries must fall inside the data");
    // A vertex appended to the last chunk gets a run per label, all empty,
    // and leaves its neighbours' runs as they were.
    let runs = |g: &Graph, n: u32| -> Vec<Vec<Pair>> {
        (0..n).flat_map(|v| g.ext_labels().map(move |l| g.label_run(v, l).to_vec())).collect()
    };
    let before = runs(&g, g.vertex_count());
    let d = g.add_vertex("extra");
    let after = runs(&g, d);
    assert_eq!(before, after);
    assert!(g.ext_labels().all(|l| g.label_run(d, l).is_empty()));
    assert_eq!(g.out_edges(d).count(), 0);
}

#[test]
fn skewed_multi_segment_pair_list_lookups() {
    // Regression for the linear-scan `PairList::contains`: a hub-skewed
    // relation spread over many chunks, probed at every pair and at points
    // past the chunk boundaries; answers must match the brute-force list.
    let g = skewed(96, 4);
    let f = g.label_named("f").unwrap();
    assert!(g.topology_chunk_count() > 6, "skew must span many chunks");
    let all = g.edge_pairs(f.fwd());
    let flat = all.to_vec();
    assert_eq!(all.len(), flat.len());
    for &p in &flat {
        assert!(all.contains(p), "{p:?} present");
    }
    for p in [Pair::new(0, 0), Pair::new(2, 3), Pair::new(95, 0), Pair::new(200, 1)] {
        assert_eq!(all.contains(p), flat.contains(&p), "{p:?} membership");
    }
}
