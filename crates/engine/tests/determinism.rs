//! Build determinism: for every workload the repository ships — the
//! benchmark query sets (YAGO2/LUBM/WatDiv translations) and random
//! template workloads — a second build of the same graph and the engine's
//! build of it (the one a store's recovery runs) are *the* first build
//! (byte-identical `save` output) and answer exactly like it, on the
//! paper's example graph and on generated graphs of both topologies.

use cpqx_core::CpqxIndex;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::generate::{gex, random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, Label, LabelSeq};
use cpqx_query::benchqueries::{lubm_queries, watdiv_queries, yago_queries, NamedQuery};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};
use proptest::prelude::*;

fn bench_workload(g: &Graph, seed: u64) -> Vec<NamedQuery> {
    let mut queries = yago_queries(g, seed);
    queries.extend(lubm_queries(g, seed + 1));
    queries.extend(watdiv_queries(g, seed + 2));
    queries
}

fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).expect("writing to a Vec");
    bytes
}

/// The index [`Engine::with_options`] builds over `g` at `k`.
fn engine_built(g: &Graph, k: usize) -> CpqxIndex {
    let options = EngineOptions { k, ..EngineOptions::default() };
    Engine::with_options(g.clone(), options).0.snapshot().index().clone()
}

fn assert_build_equivalence(g: &Graph, k: usize, queries: &[(String, Cpq)]) {
    assert!(!queries.is_empty(), "workload must not be empty");
    let first = CpqxIndex::build(g, k);
    let bytes = saved(&first);
    for (what, other) in
        [("second build", CpqxIndex::build(g, k)), ("engine build", engine_built(g, k))]
    {
        assert!(saved(&other) == bytes, "{what} differs (k={k})");
        for (name, q) in queries {
            assert_eq!(
                other.evaluate(g, q),
                first.evaluate(g, q),
                "query {name} diverged on the {what} (k={k})"
            );
            assert_eq!(
                other.evaluate_first(g, q).is_some(),
                first.evaluate_first(g, q).is_some(),
                "first-answer emptiness diverged for {name} on the {what}"
            );
        }
    }
}

fn named(queries: Vec<NamedQuery>) -> Vec<(String, Cpq)> {
    queries.into_iter().map(|nq| (nq.name, nq.query)).collect()
}

#[test]
fn benchqueries_agree_on_gex() {
    let g = gex();
    for k in 1..=3 {
        assert_build_equivalence(&g, k, &named(bench_workload(&g, 7)));
    }
}

#[test]
fn benchqueries_agree_on_social_graph() {
    let g = random_graph(&RandomGraphConfig::social(150, 700, 4, 21));
    assert_build_equivalence(&g, 2, &named(bench_workload(&g, 5)));
}

#[test]
fn benchqueries_agree_on_uniform_graph() {
    let g = random_graph(&RandomGraphConfig::uniform(120, 500, 3, 33));
    assert_build_equivalence(&g, 2, &named(bench_workload(&g, 9)));
}

#[test]
fn template_workloads_agree() {
    let g = random_graph(&RandomGraphConfig::social(100, 450, 3, 5));
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 13);
    let queries: Vec<(String, Cpq)> = Template::ALL
        .iter()
        .flat_map(|&t| {
            gen.queries(t, 3, &probe)
                .into_iter()
                .enumerate()
                .map(move |(i, q)| (format!("{}#{i}", t.name()), q))
        })
        .collect();
    assert_build_equivalence(&g, 2, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property-tested over graph seeds and workload seeds: the bench
    /// workload generated for a random graph answers identically on a
    /// build and on the engine's build.
    #[test]
    fn random_graphs_and_workloads_agree(
        graph_seed in 0u64..200,
        workload_seed in 0u64..200,
    ) {
        let g = random_graph(&RandomGraphConfig::social(70, 300, 3, graph_seed));
        let built = CpqxIndex::build(&g, 2);
        let engine = engine_built(&g, 2);
        for nq in bench_workload(&g, workload_seed) {
            prop_assert_eq!(
                engine.evaluate(&g, &nq.query),
                built.evaluate(&g, &nq.query),
                "query {} diverged (graph seed {})",
                nq.name,
                graph_seed
            );
        }
    }
}

#[test]
fn stats_and_class_ids_match_the_sequential_build() {
    // Same partition, same numbering: the engine's index's stats agree
    // field for field and every pair sits in the same class id on both
    // sides.
    let g = random_graph(&RandomGraphConfig::social(90, 400, 3, 2));
    let mut sequential = CpqxIndex::build(&g, 2);
    let mut second = engine_built(&g, 2);
    assert_eq!(sequential.stats(), second.stats());
    // Every pair's class: one hash probe each once the maps are built.
    sequential.build_pair_map();
    second.build_pair_map();
    for v in g.vertices() {
        for u in g.vertices() {
            let p = cpqx_graph::Pair::new(v, u);
            assert_eq!(sequential.class_of(p), second.class_of(p), "pair {p:?}");
        }
    }
    for c in 0..sequential.class_slots() as u32 {
        assert!(sequential.class_sequences(c).eq(second.class_sequences(c)), "class {c}");
        assert_eq!(sequential.class_is_loop(c), second.class_is_loop(c), "class {c}");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// A fixed edge script applied through `idx`: delete every ninth base
/// edge, insert one edge at every eleventh vertex, then put every other
/// deleted edge back.
fn churn(g: &mut Graph, idx: &mut CpqxIndex) {
    let deleted: Vec<_> = g.base_edges().step_by(9).collect();
    for &(v, u, l) in &deleted {
        assert!(idx.delete_edge(g, v, u, l));
    }
    let n = g.vertex_count();
    for v in (0..n).step_by(11) {
        idx.insert_edge(g, v, (v * 7 + 3) % n, Label(v as u16 % 3));
    }
    for &(v, u, l) in deleted.iter().step_by(2) {
        idx.insert_edge(g, v, u, l);
    }
}

/// A full index after [`churn`].
fn maintained(mut g: Graph) -> CpqxIndex {
    let mut idx = CpqxIndex::build(&g, 2);
    churn(&mut g, &mut idx);
    assert_eq!(idx.validate(&g), Ok(()));
    idx
}

/// An iaCPQx whose interests are deleted, outlived by [`churn`], and
/// registered again.
fn interests_churned(mut g: Graph) -> CpqxIndex {
    let (a, b, c) = (Label(0), Label(1), Label(2));
    let lq = [
        LabelSeq::from_slice(&[a.fwd(), b.fwd()]),
        LabelSeq::from_slice(&[b.inv(), c.fwd()]),
        LabelSeq::from_slice(&[c.fwd(), a.inv()]),
    ];
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, lq);
    for s in &lq[..2] {
        assert!(idx.delete_interest(s));
    }
    churn(&mut g, &mut idx);
    for s in &lq[..2] {
        let carried = (0..idx.class_slots() as u32)
            .filter(|&c| idx.class_sequences(c).any(|t| t == *s) && idx.class_pairs(c).len() > 0)
            .count();
        assert!(carried > 0, "no class still carries the deleted {s:?}");
        assert!(idx.lookup(s).is_empty());
    }
    for &s in &lq[..2] {
        assert!(idx.insert_interest(&mut g, s));
    }
    assert_eq!(idx.validate(&g), Ok(()));
    idx
}

/// Class numbering pinned across commits, not just across builds: length
/// and FNV-1a of `save`, taken at commit `d85bc2b` for the two fresh
/// builds and at `c5189e1` for the two maintained indexes. A change that
/// renumbers classes or moves a saved byte must say so by updating these.
#[test]
fn saved_bytes_match_the_recorded_digests() {
    let social = || random_graph(&RandomGraphConfig::social(80, 400, 3, 7));
    let cases = [
        ("gex", CpqxIndex::build(&gex(), 2), 1_569, 0x19c9_22a3_319f_66fb),
        ("social", CpqxIndex::build(&social(), 2), 127_980, 0x370a_3f00_5e93_d773),
        ("social, churned", maintained(social()), 276_775, 0x34ca_6c5e_92a4_d2fd),
        ("social, iaCPQx churned", interests_churned(social()), 20_518, 0x4e4f_b401_bbd9_8c5f),
    ];
    for (what, idx, len, digest) in cases {
        let bytes = saved(&idx);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, digest), "{what}");
    }
}
