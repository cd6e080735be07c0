//! Build determinism: for every workload the repository ships — the
//! benchmark query sets (YAGO2/LUBM/WatDiv translations) and random
//! template workloads — a second build of the same graph and the index
//! `load` reads back from the first build's `save` output are *the* first
//! build (byte-identical `save` output) and answer exactly like it, on the
//! paper's example graph and on generated graphs of both topologies.

use cpqx_core::CpqxIndex;
use cpqx_graph::generate::{gex, random_graph, RandomGraphConfig};
use cpqx_graph::Graph;
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

/// The index `load` reads back from `idx`'s `save` output.
fn reloaded(idx: &CpqxIndex) -> CpqxIndex {
    CpqxIndex::load(saved(idx).as_slice()).expect("a saved index loads")
}

fn assert_build_equivalence(g: &Graph, k: usize, queries: &[(String, Cpq)]) {
    assert!(!queries.is_empty(), "workload must not be empty");
    let first = CpqxIndex::build(g, k);
    let bytes = saved(&first);
    for (what, other) in [("second build", CpqxIndex::build(g, k)), ("reload", reloaded(&first))] {
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
    /// build and on its reload.
    #[test]
    fn random_graphs_and_workloads_agree(
        graph_seed in 0u64..200,
        workload_seed in 0u64..200,
    ) {
        let g = random_graph(&RandomGraphConfig::social(70, 300, 3, graph_seed));
        let built = CpqxIndex::build(&g, 2);
        let loaded = reloaded(&built);
        for nq in bench_workload(&g, workload_seed) {
            prop_assert_eq!(
                loaded.evaluate(&g, &nq.query),
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
    // Same partition, same numbering: the reloaded index's stats agree
    // field for field and every pair sits in the same class id on both
    // sides.
    let g = random_graph(&RandomGraphConfig::social(90, 400, 3, 2));
    let mut sequential = CpqxIndex::build(&g, 2);
    let mut second = reloaded(&sequential);
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

/// Class numbering pinned across commits, not just across builds: length
/// and FNV-1a of `save`, taken at commit `d85bc2b`. A change that
/// renumbers classes or moves a saved byte must say so by updating these.
#[test]
fn saved_bytes_match_the_recorded_digests() {
    let cases = [
        (gex(), 1_569, 0x19c9_22a3_319f_66fb),
        (random_graph(&RandomGraphConfig::social(80, 400, 3, 7)), 127_980, 0x370a_3f00_5e93_d773),
    ];
    for (g, len, digest) in cases {
        let bytes = saved(&CpqxIndex::build(&g, 2));
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, digest));
    }
}
