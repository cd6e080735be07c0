//! Property test: the graph's label runs — the only record of its edges —
//! hold exactly the extended edges a model set says they should, and every
//! reader over them (per-label pair lists, per-`(v, ℓ)` runs, per-vertex
//! out-edges and incident edges, `has_edge`, degrees) agrees with that
//! model under arbitrary insert/remove/isolate/add-vertex sequences, across
//! copy-on-write clones and a persistence round trip (maintenance and the
//! executor's joins depend on this invariant).

use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Graph, GraphBuilder, Label, Pair, VertexId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The extended edges a graph should hold, as `(label, (src, dst))`.
type Model = BTreeSet<(ExtLabel, Pair)>;

/// Both halves of every base edge of `g`.
fn model_of(g: &Graph) -> Model {
    let mut m = Model::new();
    for (v, u, l) in g.base_edges() {
        add_edge(&mut m, v, u, l);
    }
    m
}

/// Adds both halves of `(v, u, ℓ)`; `false` if the edge was there.
fn add_edge(m: &mut Model, v: VertexId, u: VertexId, l: Label) -> bool {
    let fresh = m.insert((l.fwd(), Pair::new(v, u)));
    assert_eq!(fresh, m.insert((l.inv(), Pair::new(u, v))), "model halves diverged");
    fresh
}

/// Drops both halves of `(v, u, ℓ)`; `false` if the edge was absent.
fn drop_edge(m: &mut Model, v: VertexId, u: VertexId, l: Label) -> bool {
    let present = m.remove(&(l.fwd(), Pair::new(v, u)));
    assert_eq!(present, m.remove(&(l.inv(), Pair::new(u, v))), "model halves diverged");
    present
}

/// The model's base edges, in [`Graph::base_edges`] order.
fn base_edges(m: &Model) -> Vec<(VertexId, VertexId, Label)> {
    m.iter().filter(|(l, _)| !l.is_inverse()).map(|&(l, p)| (p.src(), p.dst(), l.base())).collect()
}

/// The model's base edges touching `v`, sorted.
fn touching(m: &Model, v: VertexId) -> Vec<(VertexId, VertexId, Label)> {
    let mut edges: Vec<_> =
        base_edges(m).into_iter().filter(|&(x, y, _)| x == v || y == v).collect();
    edges.sort_unstable();
    edges
}

fn check_views(g: &Graph, m: &Model) {
    let n = g.vertex_count();
    // Per vertex, the model's out-edges in `(label, target)` order.
    let mut out: Vec<Vec<(ExtLabel, VertexId)>> = vec![Vec::new(); n as usize];
    for &(l, p) in m {
        out[p.src() as usize].push((l, p.dst()));
    }
    for l in g.ext_labels() {
        let pairs = g.edge_pairs(l).to_vec();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pair list sorted+deduped");
        assert_eq!(pairs.len(), g.edge_pairs(l).len());
        let want = m.range((l, Pair::new(0, 0))..=(l, Pair::new(VertexId::MAX, VertexId::MAX)));
        assert!(pairs.iter().copied().eq(want.map(|&(_, p)| p)), "pair list of {l:?}");
    }
    // Each (v, ℓ) run is v's ℓ-slice of its out-edges, and a label's runs
    // in vertex order are its pair list.
    for l in g.ext_labels() {
        let mut runs = Vec::new();
        for v in g.vertices() {
            let run = g.label_run(v, l);
            assert!(run.iter().all(|p| p.src() == v), "run of ({v}, {l:?}) holds a foreign source");
            let row = g.out_edges(v).filter(|&(x, _)| x == l);
            assert!(run.iter().map(|p| (l, p.dst())).eq(row), "run of ({v}, {l:?})");
            runs.extend_from_slice(run);
        }
        assert_eq!(runs, g.edge_pairs(l).to_vec(), "runs of {l:?} do not tile its pair list");
    }
    for v in g.vertices() {
        let want = &out[v as usize];
        assert!(g.out_edges(v).eq(want.iter().copied()), "out-edges of {v}");
        assert_eq!(g.ext_degree(v), want.len(), "degree of {v}");
        let mut incident: Vec<_> = g.incident_edges(v).collect();
        incident.sort_unstable();
        assert_eq!(incident, touching(m, v), "incident edges of {v}, each once");
    }
    assert_eq!(g.max_degree(), out.iter().map(Vec::len).max().unwrap_or(0));
    // `has_edge` at every model edge and, on a stride of targets, at the
    // absent ones around it.
    let stride = if n <= 64 { 1 } else { n as usize / 16 };
    for &(l, p) in m {
        assert!(g.has_edge(p.src(), p.dst(), l), "{l:?} {p:?} present");
    }
    for v in g.vertices() {
        for l in g.ext_labels() {
            for u in (0..n).step_by(stride).chain([v]) {
                assert_eq!(g.has_edge(v, u, l), m.contains(&(l, Pair::new(v, u))), "({v}, {u})");
            }
        }
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
    assert!(g.base_edges().eq(base_edges(m)), "base edges");
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

/// Runs an update script on `g` and on a model of its edges, checking the
/// result, every clone a write left behind, and the persisted-and-
/// reassembled graph against the model.
fn run_script(mut g: Graph, script: &[(u32, u32, u16, u8)]) {
    let mut m = model_of(&g);
    check_views(&g, &m);
    let mut snapshots = Vec::new();
    for &(v, u, l, op) in script {
        let v = v % g.vertex_count();
        let u = u % g.vertex_count();
        let l = Label(l % g.base_label_count());
        match op {
            0 => assert_eq!(g.insert_edge(v, u, l), add_edge(&mut m, v, u, l)),
            1 => assert_eq!(g.remove_edge(v, u, l), drop_edge(&mut m, v, u, l)),
            2 => {
                let want = touching(&m, v);
                let mut removed = g.isolate_vertex(v);
                removed.sort_unstable();
                assert_eq!(removed, want, "isolating {v}");
                for (x, y, l) in want {
                    drop_edge(&mut m, x, y, l);
                }
            }
            3 => {
                g.add_vertex(format!("n{}", g.vertex_count()));
            }
            // Clone, so later writes must copy the chunks they touch.
            _ => snapshots.push((g.clone(), m.clone())),
        }
    }
    check_views(&g, &m);
    for (snapshot, model) in &snapshots {
        check_views(snapshot, model);
    }
    let rows = |v| g.out_edges(v).map(|(l, t)| (l.0, t)).collect();
    let topology = (0..g.topology_chunk_count())
        .map(|i| g.topology_chunk_range(i))
        .map(|r| (r.start, r.map(rows).collect()));
    let names = (0..g.name_chunk_count()).map(|i| g.name_chunk(i).to_vec());
    let r = Graph::from_chunk_parts(g.label_names().to_vec(), topology.collect(), names.collect())
        .expect("a live graph's chunks are valid parts");
    check_views(&r, &m);
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

/// Self-loops are one base edge held as two halves of one row: the script
/// inserts, clones, isolates and removes them.
#[test]
fn self_loops_stay_consistent() {
    let g = rechunked(&random_graph(&RandomGraphConfig::social(30, 80, 3, 3)), false, 8);
    let script: Vec<(u32, u32, u16, u8)> = (0..30u32)
        .flat_map(|v| [(v, v, (v % 3) as u16, 0), (v, v, 2, 0), (v, 0, 0, 4)])
        .chain((0..30u32).step_by(3).map(|v| (v, 0, 0, 2)))
        .chain((0..30u32).map(|v| (v, v, 2, 1)))
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
                    let via_runs = g.has_edge(v, u, l);
                    let via_pairs = g.edge_pairs(l).contains(Pair::new(v, u));
                    prop_assert_eq!(via_runs, via_pairs);
                }
            }
        }
    }

    #[test]
    fn out_edges_are_exact(seed in 0u64..200) {
        let cfg = RandomGraphConfig::social(25, 70, 3, seed);
        let g = random_graph(&cfg);
        for v in g.vertices() {
            let out: Vec<_> = g.out_edges(v).collect();
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted by (label, target)");
            for &(l, t) in &out {
                prop_assert!(g.has_edge(v, t, l));
            }
            let by_label: usize = g.ext_labels().map(|l| g.label_run(v, l).len()).sum();
            prop_assert_eq!(out.len(), by_label);
            prop_assert_eq!(out.len(), g.ext_degree(v));
        }
    }
}
