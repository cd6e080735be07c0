//! Incremental snapshots (`cpqx-store`) rewrite only the class chunks a
//! write copied and reuse the records of the chunks still shared with the
//! last persisted index. A chunk record holds each class's sequence set,
//! which is read off `Il2c`, not off the chunk — so reuse is sound only if
//! a class's set never changes after the class is created, whatever edge
//! updates and interest churn do to `Il2c`. These tests hold every chunk
//! still `class_chunk_shared_with` the index before a script to the record
//! it wrote then, byte for byte.

use cpqx_core::CpqxIndex;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, Label, LabelSeq};
use proptest::prelude::*;

const VERTICES: u32 = 120;

fn graph(seed: u64) -> Graph {
    random_graph(&RandomGraphConfig::social(VERTICES, 500, 3, seed))
}

/// Every length-2 sequence over the three labels: an interest-aware
/// index of them has as many classes as the full index, so it spans
/// several chunks.
fn interests() -> Vec<LabelSeq> {
    let ext: Vec<_> = (0..3).flat_map(|l| [Label(l).fwd(), Label(l).inv()]).collect();
    ext.iter().flat_map(|&a| ext.iter().map(move |&b| LabelSeq::from_slice(&[a, b]))).collect()
}

fn record(idx: &CpqxIndex, i: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save_class_chunk(i, &mut bytes).expect("writing to a Vec");
    bytes
}

/// Every chunk of `idx` still shared with `before` writes `before`'s
/// record; returns how many are shared.
fn shared_chunks_unchanged(
    idx: &CpqxIndex,
    before: &CpqxIndex,
    records: &[Vec<u8>],
) -> Result<usize, String> {
    let mut shared = 0;
    for (i, rec) in records.iter().enumerate() {
        if idx.class_chunk_shared_with(before, i) {
            shared += 1;
            if record(idx, i) != *rec {
                return Err(format!("shared chunk {i} writes other bytes"));
            }
        }
    }
    Ok(shared)
}

/// `(kind, a, b, label)`: an edge insert, the delete of an existing edge,
/// a relabel, a vertex delete, or an interest deleted or registered.
fn apply(g: &mut Graph, idx: &mut CpqxIndex, (kind, a, b, l): (u8, u32, u32, u16)) {
    match kind {
        0 => {
            idx.insert_edge(g, a, b, Label(l));
        }
        1 => {
            let edge = g.base_edges().nth(a as usize % g.edge_count().max(1));
            if let Some((v, u, l)) = edge {
                idx.delete_edge(g, v, u, l);
            }
        }
        2 => {
            idx.change_edge_label(g, a, b, Label(l), Label((l + 1) % 3));
        }
        3 => idx.delete_vertex(g, a),
        4 => {
            idx.delete_interest(&interests()[b as usize % 36]);
        }
        _ => {
            idx.insert_interest(g, interests()[b as usize % 36]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_chunks_write_the_records_they_wrote_before(
        seed in 0u64..1_000,
        interest_aware in prop::bool::ANY,
        ops in prop::collection::vec((0u8..6, 0u32..VERTICES, 0u32..VERTICES, 0u16..3), 1..10),
    ) {
        let mut g = graph(seed);
        let mut idx = if interest_aware {
            CpqxIndex::build_interest_aware(&g, 2, interests())
        } else {
            CpqxIndex::build(&g, 2)
        };
        let before = idx.clone();
        let records: Vec<Vec<u8>> =
            (0..before.class_chunk_count()).map(|i| record(&before, i)).collect();
        for (step, op) in ops.into_iter().enumerate() {
            apply(&mut g, &mut idx, op);
            let checked = shared_chunks_unchanged(&idx, &before, &records);
            prop_assert!(checked.is_ok(), "step {} ({:?}): {:?}", step, op, checked);
        }
        prop_assert_eq!(idx.validate(&g), Ok(()));
    }
}

/// The property is not vacuous: deleting an interest copies no chunk,
/// while an edge update and registering the interest again copy some
/// chunks and leave others shared — and the shared ones' records, whose
/// classes still carry the deleted interest, hold.
#[test]
fn interest_churn_and_an_edge_delete_leave_shared_chunks_as_they_were() {
    let mut g = graph(7);
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, interests());
    let before = idx.clone();
    let records: Vec<Vec<u8>> =
        (0..before.class_chunk_count()).map(|i| record(&before, i)).collect();
    assert!(records.len() >= 4, "{} chunks", records.len());

    let lq = interests()[1];
    assert!(idx.delete_interest(&lq));
    assert_eq!(shared_chunks_unchanged(&idx, &before, &records), Ok(records.len()));

    apply(&mut g, &mut idx, (1, 0, 0, 0));
    let shared = shared_chunks_unchanged(&idx, &before, &records).unwrap();
    assert!((1..records.len()).contains(&shared), "{shared} of {} chunks shared", records.len());

    assert!(idx.insert_interest(&mut g, lq));
    let shared = shared_chunks_unchanged(&idx, &before, &records).unwrap();
    assert!(shared > 0, "no chunk left shared");
    assert_eq!(idx.validate(&g), Ok(()));
}
