//! The pair → class map is maintenance state, built by the first write:
//! no build (full or interest-aware) and no load makes it, a write builds
//! it in the index it writes to and nowhere else, and building it late or
//! up front ends in the same index.

use cpqx_core::{normalize_interests, CpqxIndex};
use cpqx_graph::generate::{random_graph, sample_edges, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Graph, Label, LabelSeq, Pair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 2;

fn graph(seed: u64) -> Graph {
    random_graph(&RandomGraphConfig::social(60, 260, 3, seed))
}

fn interests() -> Vec<LabelSeq> {
    vec![
        LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(2)]),
        LabelSeq::from_slice(&[ExtLabel(3), ExtLabel(1)]),
    ]
}

fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).expect("writing to a Vec");
    bytes
}

/// Every way an index comes into being without a write, by name.
fn unwritten_indexes(g: &Graph) -> Vec<(&'static str, CpqxIndex)> {
    let full = CpqxIndex::build(g, K);
    let lq = normalize_interests(interests(), K);
    let aware = CpqxIndex::build_interest_aware(g, K, interests());
    let loaded = CpqxIndex::load(saved(&full).as_slice()).expect("a saved index loads");
    let records = (0..aware.class_chunk_count())
        .map(|i| {
            let mut chunk = Vec::new();
            aware.save_class_chunk(i, &mut chunk).expect("writing to a Vec");
            CpqxIndex::load_class_chunk(K, chunk.as_slice()).expect("a saved chunk loads")
        })
        .collect();
    let reassembled = CpqxIndex::from_class_records(K, Some(lq), records).expect("valid records");
    vec![
        ("build", full),
        ("interest-aware build", aware),
        ("load", loaded),
        ("from_class_records", reassembled),
    ]
}

#[test]
fn builds_and_loads_leave_the_map_unbuilt() {
    let g = graph(3);
    for (what, idx) in unwritten_indexes(&g) {
        assert!(!idx.has_pair_map(), "{what} built the pair map");
        assert_eq!(idx.validate(&g), Ok(()), "{what}");
        let mut mapped = idx.clone();
        mapped.build_pair_map();
        mapped.build_pair_map(); // idempotent
        assert!(mapped.has_pair_map());
        assert_eq!(mapped.validate(&g), Ok(()), "{what}");
        assert_eq!(saved(&mapped), saved(&idx), "{what}: the map is never saved");
        // The map adds what it stores and nothing else: an 8-byte `(target,
        // class)` entry per pair, and per 256-source shard up to the largest
        // source, a 4-byte start offset per source and the entry count.
        let largest =
            (0..idx.class_slots() as u32).flat_map(|c| idx.class_pairs(c)).map(|p| p.src()).max();
        let shards = largest.map_or(0, |v| v as usize / 256 + 1);
        assert_eq!(mapped.chunk_count(), idx.chunk_count() + shards, "{what}");
        let map_bytes = idx.pair_count() * 8 + shards * 257 * 4;
        let (before, after) = (idx.stats(), mapped.stats());
        assert_eq!(after.total_bytes, before.total_bytes + map_bytes, "{what}");
        assert_eq!(
            cpqx_core::IndexStats { total_bytes: before.total_bytes, ..after },
            before,
            "{what}"
        );
        // Without the map, `class_of` searches the rows and agrees.
        for v in g.vertices() {
            for u in g.vertices().step_by(7) {
                let p = Pair::new(v, u);
                assert_eq!(idx.class_of(p), mapped.class_of(p), "{what}: {p:?}");
            }
        }
    }
}

#[test]
fn the_first_write_builds_the_map_in_that_clone_only() {
    let mut g = graph(5);
    for (what, original) in unwritten_indexes(&g) {
        let (bytes, stats) = (saved(&original), original.stats());
        let mut written = original.clone();
        let mut written_g = g.clone();
        let (v, u, l) = sample_edges(&g, 1, 11)[0];
        assert!(written.delete_edge(&mut written_g, v, u, l));
        assert!(written.has_pair_map(), "{what}: a write builds the map");
        assert_eq!(written.validate(&written_g), Ok(()), "{what}");

        assert!(!original.has_pair_map(), "{what}: the original gained a map");
        assert_eq!(original.stats(), stats, "{what}");
        assert!(saved(&original) == bytes, "{what}: the original's bytes moved");
        assert_eq!(original.validate(&g), Ok(()), "{what}");

        // The written index's clones share its map, shard for shard.
        let copy = written.clone();
        let diff = copy.cow_diff(&written);
        assert_eq!((diff.chunks_copied, diff.chunks_shared), (0, copy.chunk_count()), "{what}");
        assert!(copy.chunk_count() > copy.class_chunk_count(), "{what}: no map shards");
    }
    // A delete of a missing edge writes nothing, so builds nothing.
    let mut idx = CpqxIndex::build(&g, K);
    let absent = g
        .vertices()
        .find(|&v| !g.has_edge(v, v, Label(0).fwd()))
        .expect("a vertex without a 0-labelled self-loop");
    assert!(!idx.delete_edge(&mut g, absent, absent, Label(0)));
    assert!(!idx.has_pair_map());
}

/// One random update script against the current graph: edge inserts and
/// deletes, vertex deletions, and (on interest-aware indexes) interest
/// churn. The first op deletes an existing edge, so the script writes.
fn run_script(idx: &mut CpqxIndex, g: &mut Graph, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (v, u, l) = sample_edges(g, 1, seed)[0];
    assert!(idx.delete_edge(g, v, u, l));
    let labels = g.base_label_count();
    for _ in 0..40 {
        let v = rng.gen_range(0..g.vertex_count());
        let u = rng.gen_range(0..g.vertex_count());
        let l = Label(rng.gen_range(0..labels));
        match rng.gen_range(0u32..10) {
            0..=3 => {
                idx.insert_edge(g, v, u, l);
            }
            4..=6 => {
                idx.delete_edge(g, v, u, l);
            }
            7 => idx.delete_vertex(g, v),
            _ => {
                let s = interests()[rng.gen_range(0..2usize)];
                if rng.gen_bool(0.5) {
                    idx.delete_interest(&s);
                } else {
                    idx.insert_interest(g, s);
                }
            }
        }
    }
}

#[test]
fn a_late_map_and_an_early_map_end_in_the_same_index() {
    for seed in 0..6u64 {
        let g0 = graph(seed);
        for (what, lazy) in unwritten_indexes(&g0) {
            let mut eager = lazy.clone();
            eager.build_pair_map();
            let mut lazy = lazy;
            let (mut g_lazy, mut g_eager) = (g0.clone(), g0.clone());
            run_script(&mut lazy, &mut g_lazy, seed);
            run_script(&mut eager, &mut g_eager, seed);
            assert!(lazy.has_pair_map(), "{what}, seed {seed}");
            assert!(saved(&lazy) == saved(&eager), "{what}, seed {seed}: saved bytes differ");
            assert_eq!(lazy.stats(), eager.stats(), "{what}, seed {seed}");
            assert_eq!(lazy.validate(&g_lazy), Ok(()), "{what}, seed {seed}");
            assert_eq!(eager.validate(&g_eager), Ok(()), "{what}, seed {seed}");
        }
    }
}
