//! Build differential harness: random graphs + random interest sets are
//! replayed through the core builders (`CpqxIndex::build` /
//! `CpqxIndex::build_interest_aware`) and through the engine, which times
//! its own builds phase by phase (`Engine::with_options`,
//! `Engine::rebuild`), asserting:
//!
//! * the engine installs **the** core index: `save` writes the same
//!   bytes for its initial build and for a rebuild, full and
//!   interest-aware, and so does a second core build in the same process
//!   (no `RandomState` reaches class ids or chunk layout);
//! * every index built satisfies `CpqxIndex::validate` against the graph —
//!   the partition invariant itself, not just answers — and answers the
//!   benchmark query sets (YAGO2/LUBM/WatDiv translations) like the
//!   reference evaluator.

use cpqx_core::CpqxIndex;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::generate::{gex, random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, LabelSeq};
use cpqx_query::benchqueries::{lubm_queries, watdiv_queries, yago_queries, NamedQuery};
use cpqx_query::eval::eval_reference;
use proptest::prelude::*;

fn bench_workload(g: &Graph, seed: u64) -> Vec<NamedQuery> {
    let mut queries = yago_queries(g, seed);
    queries.extend(lubm_queries(g, seed + 1));
    queries.extend(watdiv_queries(g, seed + 2));
    queries
}

/// A deterministic interest set drawn from the graph's extended alphabet:
/// `picks` selects length-2 sequences by label index pair. Returns raw
/// (un-normalized) sequences, as a caller would supply them.
fn interest_set(g: &Graph, picks: &[(u16, u16)]) -> Vec<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    if labels.is_empty() {
        return Vec::new();
    }
    picks
        .iter()
        .map(|&(a, b)| {
            LabelSeq::from_slice(&[
                labels[a as usize % labels.len()],
                labels[b as usize % labels.len()],
            ])
        })
        .collect()
}

/// The full-coverage interest set: every length-2 sequence over the
/// graph's extended alphabet (at k=2 this makes iaCPQx index everything
/// CPQx does).
fn full_coverage_interests(g: &Graph) -> Vec<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    labels
        .iter()
        .flat_map(|&a| labels.iter().map(move |&b| LabelSeq::from_slice(&[a, b])))
        .collect()
}

/// The serialized form — the equality the harness holds builds to.
fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).expect("writing to a Vec");
    bytes
}

/// A just-built index must satisfy the partition invariant on its graph,
/// and holds no pair → class map (only a write builds one).
fn validated(g: &Graph, idx: CpqxIndex, what: &str) -> CpqxIndex {
    if let Err(e) = idx.validate(g) {
        panic!("{what}: {e}");
    }
    assert!(!idx.has_pair_map(), "{what} built the pair map");
    idx
}

/// The engine over `g`, as `with_options` builds it and after a rebuild:
/// the bytes its installed index saves, both times.
fn engine_builds(g: &Graph, k: usize, interests: Option<&[LabelSeq]>) -> [Vec<u8>; 2] {
    let options =
        EngineOptions { k, interests: interests.map(<[_]>::to_vec), ..EngineOptions::default() };
    let (engine, _) = Engine::with_options(g.clone(), options);
    let built = saved(engine.snapshot().index());
    engine.rebuild();
    [built, saved(engine.snapshot().index())]
}

/// Builds one index, checks it and its answers, and checks that a second
/// build and the engine's builds save the same bytes.
fn check_build(g: &Graph, k: usize, interests: Option<&[LabelSeq]>, queries: &[NamedQuery]) {
    let what = if interests.is_some() { "interest build" } else { "build" };
    let build = || match interests {
        None => CpqxIndex::build(g, k),
        Some(lq) => CpqxIndex::build_interest_aware(g, k, lq.iter().copied()),
    };
    let index = validated(g, build(), what);
    assert_eq!(index.is_interest_aware(), interests.is_some());
    let bytes = saved(&index);
    assert!(saved(&build()) == bytes, "two {what}s in one process differ (k={k})");
    for nq in queries {
        let q = &nq.query;
        assert_eq!(index.evaluate(g, q), eval_reference(g, q), "{what}: query {} (k={k})", nq.name);
    }
    let [engine, rebuilt] = engine_builds(g, k, interests);
    assert!(engine == bytes, "the engine's {what} differs (k={k})");
    assert!(rebuilt == bytes, "the engine's re-{what} differs (k={k})");
}

/// The tentpole assertion bundle: one graph + interest set, full and
/// interest-aware.
fn check_build_equivalence(g: &Graph, k: usize, interests: &[LabelSeq], seed: u64) {
    let queries = bench_workload(g, seed);
    assert!(!queries.is_empty());
    check_build(g, k, None, &queries);
    check_build(g, k, Some(interests), &queries);
}

#[test]
fn gex_across_k_and_interest_sets() {
    let g = gex();
    let labels: Vec<_> = g.ext_labels().collect();
    let ff = LabelSeq::from_slice(&[labels[0], labels[0]]);
    for k in 1..=3 {
        check_build_equivalence(&g, k, &[ff], 7);
    }
    check_build_equivalence(&g, 2, &[], 11);
    check_build_equivalence(&g, 2, &full_coverage_interests(&g), 13);
}

#[test]
fn empty_and_edgeless_graphs() {
    let empty = cpqx_graph::GraphBuilder::new().build();
    let mut b = cpqx_graph::GraphBuilder::new();
    b.ensure_vertices(6);
    b.ensure_labels(2);
    let edgeless = b.build();
    for g in [&empty, &edgeless] {
        check_build(g, 2, None, &[]);
        check_build(g, 2, Some(&[]), &[]);
        assert_eq!(CpqxIndex::build(g, 2).pair_count(), 0);
        assert_eq!(CpqxIndex::build_interest_aware(g, 2, []).pair_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The randomized tentpole property: random social graphs and random
    /// interest subsets (including the occasional empty pick list) replay
    /// identically through the core builders and the engine.
    #[test]
    fn random_graphs_and_interest_sets(
        graph_seed in 0u64..10_000,
        workload_seed in 0u64..10_000,
        picks in prop::collection::vec((0u16..8, 0u16..8), 0..5),
    ) {
        let g = random_graph(&RandomGraphConfig::social(60, 260, 3, graph_seed));
        let interests = interest_set(&g, &picks);
        check_build_equivalence(&g, 2, &interests, workload_seed);
    }

    /// Uniform topology with the full-coverage interest set, separate seed
    /// space.
    #[test]
    fn random_uniform_graphs(graph_seed in 0u64..10_000) {
        let g = random_graph(&RandomGraphConfig::uniform(80, 320, 3, graph_seed));
        let interests = full_coverage_interests(&g);
        check_build_equivalence(&g, 2, &interests, graph_seed);
    }
}
