//! Property test: the graph's two access paths — per-vertex adjacency and
//! per-label pair lists with their per-vertex runs — stay mutually
//! consistent under arbitrary insert/remove/isolate/add-vertex sequences,
//! across copy-on-write clones and a persistence round trip (maintenance
//! and the executor's joins depend on this invariant).

use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Graph, GraphBuilder, Label, Pair};
use proptest::prelude::*;

fn check_views(g: &Graph) {
    // Every adjacency entry appears in the label's pair list and vice versa.
    let mut from_adj: Vec<(u16, Pair)> = Vec::new();
    for v in g.vertices() {
        for &(l, t) in g.adjacency(v) {
            from_adj.push((l, Pair::new(v, t)));
        }
    }
    from_adj.sort_unstable();
    let mut from_pairs: Vec<(u16, Pair)> = Vec::new();
    for l in g.ext_labels() {
        let pairs = g.edge_pairs(l).to_vec();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pair list sorted+deduped");
        assert_eq!(pairs.len(), g.edge_pairs(l).len());
        for &p in &pairs {
            from_pairs.push((l.0, p));
        }
    }
    from_pairs.sort_unstable();
    assert_eq!(from_adj, from_pairs, "adjacency and pair views diverged");
    // Each (v, ℓ) run is the adjacency row's ℓ-slice, and a label's runs
    // in vertex order are its pair list.
    for l in g.ext_labels() {
        let mut runs = Vec::new();
        for v in g.vertices() {
            let run = g.label_run(v, l);
            assert!(run.iter().map(|p| (l.0, p.dst())).eq(g.neighbors(v, l).iter().copied()));
            assert!(run.iter().all(|p| p.src() == v), "run of ({v}, {l:?}) holds a foreign source");
            runs.extend_from_slice(run);
        }
        assert_eq!(runs, g.edge_pairs(l).to_vec(), "runs of {l:?} do not tile its pair list");
    }
    // Forward/inverse mirror property.
    for l in g.labels() {
        let fwd = g.edge_pairs(l.fwd());
        let inv = g.edge_pairs(l.inv());
        assert_eq!(fwd.len(), inv.len());
        for p in fwd.iter() {
            assert!(inv.contains(p.swap()), "missing inverse of {p:?}");
        }
    }
    // Edge count equals forward pairs.
    let forward_total: usize = g.labels().map(|l| g.edge_pairs(l.fwd()).len()).sum();
    assert_eq!(forward_total, g.edge_count());
}

/// `base`'s edges plus a hub fanning out of vertex 0 over the last label
/// (so one row dominates its chunk), rebuilt at the given chunk weight.
fn rechunked(base: &Graph, hub: bool, weight: usize) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(base.vertex_count());
    b.ensure_labels(base.base_label_count());
    for (v, u, l) in base.base_edges() {
        b.add_edge(v, u, l);
    }
    if hub {
        let l = Label(base.base_label_count() - 1);
        (1..base.vertex_count()).for_each(|u| b.add_edge(0, u, l));
    }
    b.build_with_chunk_weight(weight)
}

/// Runs an update script, checking the views of the result, of every
/// clone a write left behind, and of the persisted-and-reassembled graph.
fn run_script(mut g: Graph, script: &[(u32, u32, u16, u8)]) {
    check_views(&g);
    let mut snapshots = Vec::new();
    for &(v, u, l, op) in script {
        let v = v % g.vertex_count();
        let u = u % g.vertex_count();
        let l = Label(l % g.base_label_count());
        match op {
            0 => {
                g.insert_edge(v, u, l);
            }
            1 => {
                g.remove_edge(v, u, l);
            }
            2 => {
                g.isolate_vertex(v);
            }
            3 => {
                g.add_vertex(format!("n{}", g.vertex_count()));
            }
            // Clone, so later writes must copy the chunks they touch.
            _ => snapshots.push((g.clone(), g.base_edges().collect::<Vec<_>>())),
        }
    }
    check_views(&g);
    for (snapshot, edges) in &snapshots {
        assert!(snapshot.base_edges().eq(edges.iter().copied()), "a later write reached a clone");
        check_views(snapshot);
    }
    let topology = (0..g.topology_chunk_count()).map(|i| {
        let (start, adj) = g.topology_chunk(i);
        (start, adj.to_vec())
    });
    let names = (0..g.name_chunk_count()).map(|i| g.name_chunk(i).to_vec());
    let r = Graph::from_chunk_parts(g.label_names().to_vec(), topology.collect(), names.collect())
        .expect("a live graph's chunks are valid parts");
    check_views(&r);
    assert!(r.base_edges().eq(g.base_edges()));
}

/// A vertex chunk stops growing at 4096 rows (`CHUNK_SPLIT_ROWS`): the
/// script runs on a graph whose appended vertices fill one chunk past the
/// split and open the next.
#[test]
fn views_stay_consistent_across_a_chunk_split() {
    let mut g = rechunked(&random_graph(&RandomGraphConfig::social(30, 80, 3, 7)), true, 16);
    let chunks = g.topology_chunk_count();
    let n = 4096 + 40;
    for i in 0..n {
        g.add_vertex(format!("n{i}"));
    }
    assert_eq!(g.topology_chunk_count(), chunks + 1, "appends must open exactly one new chunk");
    // Per appended vertex v: insert twice, clone, remove, insert, isolate,
    // append — so every op meets rows of the grown and the fresh chunk.
    let last = g.vertex_count() - 1;
    let script: Vec<(u32, u32, u16, u8)> = (0..70u32)
        .map(|i| (i / 7, [0, 0, 4, 1, 0, 2, 3][i as usize % 7]))
        .map(|(k, op)| (last - (k * 457) % n, k * 31, (k % 3) as u16, op))
        .collect();
    run_script(g, &script);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn views_stay_consistent_under_updates(
        seed in 0u64..500,
        hub in any::<bool>(),
        weight_log2 in 1u32..10,
        script in prop::collection::vec((0u32..40, 0u32..40, 0u16..3, 0u8..5), 0..40),
    ) {
        let cfg = RandomGraphConfig::social(30, 80, 3, seed);
        run_script(rechunked(&random_graph(&cfg), hub, 1 << weight_log2), &script);
    }

    #[test]
    fn has_edge_agrees_with_pair_lists(seed in 0u64..200) {
        let cfg = RandomGraphConfig::uniform(25, 70, 2, seed);
        let g = random_graph(&cfg);
        for v in g.vertices() {
            for u in g.vertices() {
                for l in g.ext_labels() {
                    let via_adj = g.has_edge(v, u, l);
                    let via_pairs = g.edge_pairs(l).contains(Pair::new(v, u));
                    prop_assert_eq!(via_adj, via_pairs);
                }
            }
        }
    }

    #[test]
    fn neighbors_slice_is_exact(seed in 0u64..200) {
        let cfg = RandomGraphConfig::social(25, 70, 3, seed);
        let g = random_graph(&cfg);
        for v in g.vertices() {
            let mut total = 0;
            for l in g.ext_labels() {
                let slice = g.neighbors(v, l);
                prop_assert!(slice.iter().all(|&(ll, _)| ExtLabel(ll) == l));
                for &(_, t) in slice {
                    prop_assert!(g.has_edge(v, t, l));
                }
                total += slice.len();
            }
            prop_assert_eq!(total, g.ext_degree(v));
        }
    }
}
