//! Label-major reads on multi-chunk graphs: every `(v, ℓ)` run agrees with
//! the adjacency row, a vertex appended to a chunk has its (empty) runs,
//! and the skewed multi-segment `PairList` point/range lookup regression.

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
fn forward_face_matches_adjacency_rows() {
    let mut g = chunky(64, 8);
    assert!(g.topology_chunk_count() > 4, "chunk boundaries must fall inside the data");
    // A vertex appended to the last chunk gets a run per label, all empty.
    let d = g.add_vertex("extra");
    for v in g.vertices() {
        for l in g.ext_labels() {
            let rows: Vec<Pair> = g.neighbors(v, l).iter().map(|&(_, t)| Pair::new(v, t)).collect();
            assert_eq!(g.label_run(v, l), rows.as_slice(), "run of ({v}, {l:?})");
        }
    }
    assert!(g.ext_labels().all(|l| g.label_run(d, l).is_empty()));
}

#[test]
fn skewed_multi_segment_pair_list_lookups() {
    // Regression for the linear-scan `PairList::contains`/`restrict_src`:
    // a hub-skewed relation spread over many chunks, probed at points,
    // boundaries, and ranges; answers must match the brute-force filter.
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
    for (lo, hi) in [(0, 1), (0, 96), (1, 96), (5, 6), (40, 41), (90, 200), (30, 30), (50, 40)] {
        let sub = all.restrict_src(lo, hi);
        let expect: Vec<Pair> =
            flat.iter().copied().filter(|p| p.src() >= lo && p.src() < hi).collect();
        assert_eq!(sub.len(), expect.len(), "restrict_src({lo}, {hi}) length");
        assert_eq!(sub.to_vec(), expect, "restrict_src({lo}, {hi}) contents");
        for &p in &expect {
            assert!(sub.contains(p));
        }
        // Membership outside the window must be rejected by the bounds
        // check, not found via a stray segment.
        if let Some(&outside) = flat.iter().find(|p| p.src() < lo || p.src() >= hi) {
            assert!(!sub.contains(outside));
        }
        // Nested restriction composes.
        let nested = sub.restrict_src(lo.saturating_add(1), hi);
        let expect2: Vec<Pair> = expect.iter().copied().filter(|p| p.src() > lo).collect();
        assert_eq!(nested.to_vec(), expect2);
        assert_eq!(nested.len(), expect2.len());
    }
}
