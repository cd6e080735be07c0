//! `Ic2p` rows are width-packed per class chunk: pair `(s, t)` is the key
//! `s << shift | t` in `⌈2·shift / 8⌉` bytes, `shift` the bit width of the
//! chunk's largest vertex id. These tests hold the packing to the rows it
//! encodes:
//!
//! * vertex ids at every width boundary, 1 to 8 bytes a key, read back
//!   exactly — built from records, through a chunk record (which keeps
//!   8-byte pairs) and through the whole-index stream — and cost the
//!   bytes their width says;
//! * on random graphs every class reads back its partition row, and
//!   evaluation answers as the reference semantics does;
//! * a write that brings a wider vertex id re-packs only the chunks it
//!   copies, and undoing it narrows them again (`validate` holds every
//!   chunk to the width its largest id needs; the chunk-level edit itself
//!   is pinned by the unit tests of `index.rs`);
//! * hostile records and record bytes are rejected or packed, never a
//!   panic;
//! * on the benchmark's Epinions stand-in at 10k edges — where a class
//!   carries more than 255 sequences and a chunk holds more than 65,535
//!   pairs, so a chunk's set sizes and row ends each take their wider
//!   width — the index validates and answers as the reference semantics
//!   does, before and after writes (the columns' own boundaries are pinned
//!   by the unit tests of `narrow_column.rs` and `index.rs`).

use cpqx_core::serialize::ClassRecord;
use cpqx_core::{cpq_path_partition, normalize_interests, CpqxIndex, RefinementBase};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Label, LabelSeq, Pair};
use cpqx_query::ast::Template;
use cpqx_query::eval::eval_reference;
use proptest::prelude::*;

/// The records of one chunk whose largest vertex id is `top`: a cyclic
/// class holding `(0, 0)` and `(top, top)`, and a non-cyclic one holding
/// `(0, top)` and `(top, 0)` — four pairs, or one when `top` is 0.
fn records(top: u32) -> Vec<ClassRecord> {
    let seq = |l| vec![LabelSeq::single(ExtLabel(l))];
    let mut loops = vec![Pair::new(0, 0), Pair::new(top, top)];
    loops.dedup();
    let mut others = vec![Pair::new(0, top), Pair::new(top, 0)];
    others.retain(|p| !p.is_loop());
    vec![(true, seq(0), loops), (false, seq(1), others)]
}

/// Every class's row, read through `class_pairs`.
fn rows(idx: &CpqxIndex) -> Vec<Vec<Pair>> {
    (0..idx.class_slots() as u32).map(|c| idx.class_pairs(c).collect()).collect()
}

#[test]
fn ids_at_every_width_boundary_round_trip() {
    for top in [0, 1, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24, u32::MAX] {
        let recs = records(top);
        let idx = CpqxIndex::from_class_records(2, None, vec![recs.clone()]).expect("valid");
        let expected: Vec<Vec<Pair>> = recs.iter().map(|r| r.2.clone()).collect();
        assert_eq!(rows(&idx), expected, "largest id {top}");
        for (c, row) in (0..).zip(&expected) {
            for &p in row {
                assert_eq!(idx.class_of(p), Some(c), "largest id {top}");
            }
        }
        assert_eq!(idx.class_of(Pair::new(1, 2)), None, "largest id {top}");

        // Through a chunk record and back: records carry 8-byte pairs.
        let mut bytes = Vec::new();
        idx.save_class_chunk(0, &mut bytes).expect("writing to a Vec");
        let loaded = CpqxIndex::load_class_chunk(2, bytes.as_slice()).expect("a saved chunk");
        assert_eq!(loaded, recs, "largest id {top}");
        let reloaded = CpqxIndex::from_class_records(2, None, vec![loaded]).expect("valid");
        assert_eq!(rows(&reloaded), expected, "largest id {top}");

        // And through the whole-index stream.
        let mut whole = Vec::new();
        idx.save(&mut whole).expect("writing to a Vec");
        let loaded = CpqxIndex::load(whole.as_slice()).expect("a saved index loads");
        assert_eq!(rows(&loaded), expected, "largest id {top}");
    }

    // The same four pairs at each key width: `Ic2p`, and so the core
    // bytes, grow by four bytes per key byte, from 1 byte at ids < 4 up to
    // 8 at ids of 32 bits.
    let core_bytes = |top| {
        let idx = CpqxIndex::from_class_records(2, None, vec![records(top)]).expect("valid");
        idx.stats().core_bytes
    };
    for (top, width) in [
        (1, 1),
        (15, 1),
        (16, 2),
        (255, 2),
        (256, 3),
        (4095, 3),
        (65_535, 4),
        (65_536, 5),
        ((1 << 24) - 1, 6),
        (1 << 24, 7),
        (u32::MAX, 8),
    ] {
        assert_eq!(core_bytes(top) - core_bytes(1), 4 * (width - 1), "largest id {top}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Graphs of 6 to 299 vertices pack at 1 to 3 bytes a key; full or
    /// interest-aware, every class reads back its partition row, and
    /// every template answers as the reference semantics does.
    #[test]
    fn packed_rows_are_the_partition_rows(
        vertices in 6u32..300,
        seed in 0u64..1_000,
        interest_aware in prop::bool::ANY,
    ) {
        let g = random_graph(&RandomGraphConfig::social(vertices, 3 * vertices as usize, 3, seed));
        let (idx, p) = if interest_aware {
            let lq = [LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(2)])];
            let partition = RefinementBase::new(&g).partition(2, Some(&normalize_interests(lq, 2)));
            (CpqxIndex::build_interest_aware(&g, 2, lq), partition)
        } else {
            (CpqxIndex::build(&g, 2), cpq_path_partition(&g, 2))
        };
        prop_assert_eq!(idx.class_slots(), p.class_count());
        for c in 0..p.class_count() as u32 {
            prop_assert!(idx.class_pairs(c).eq(p.row(c).iter().copied()), "class {}", c);
            prop_assert_eq!(idx.class_pairs(c).len(), p.row(c).len());
        }
        let mut rng = TestRng::new(seed);
        for t in Template::ALL {
            let labels: Vec<ExtLabel> = (0..t.arity())
                .map(|_| ExtLabel(rng.below(u64::from(g.ext_label_count())) as u16))
                .collect();
            let q = t.instantiate(&labels);
            prop_assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "{}", t.name());
        }
    }
}

/// On a 256-vertex graph every id fits 8 bits, 2 bytes a key. Vertex 256
/// needs 9 bits, 3 bytes: an edge to it re-packs the chunks the write
/// copies — each at its own largest id, which `validate` checks — and
/// leaves every other chunk shared, bytes and width unchanged. Deleting
/// the edge detaches the wide pairs, and the chunks they left narrow.
#[test]
fn a_wider_id_widens_only_the_chunks_that_hold_it() {
    let mut g = random_graph(&RandomGraphConfig::social(256, 900, 3, 11));
    let mut idx = CpqxIndex::build(&g, 2);
    idx.build_pair_map();
    let before = idx.clone();
    let shared = |idx: &CpqxIndex| {
        (0..before.class_chunk_count()).filter(|&i| idx.class_chunk_shared_with(&before, i)).count()
    };
    let wide = idx.add_vertex(&mut g, "wide");
    assert_eq!(wide, 256);
    assert!(idx.insert_edge(&mut g, 0, wide, Label(0)));
    assert_eq!(idx.validate(&g), Ok(()));
    let holds_wide = |idx: &CpqxIndex| {
        let span = CpqxIndex::class_chunk_span();
        (0..idx.class_chunk_count())
            .filter(|&i| {
                let classes = (i * span) as u32..(i * span + idx.class_chunk_len(i)) as u32;
                classes.flat_map(|c| idx.class_pairs(c)).any(|p| p.src().max(p.dst()) == wide)
            })
            .count()
    };
    let (wide_chunks, shared_chunks) = (holds_wide(&idx), shared(&idx));
    assert!(wide_chunks > 0, "no chunk holds the new vertex");
    assert!(shared_chunks > 0, "the write copied every chunk");
    assert!(wide_chunks + shared_chunks <= idx.class_chunk_count());
    assert!(idx.pair_count() > before.pair_count());

    assert!(idx.delete_edge(&mut g, 0, wide, Label(0)));
    assert_eq!(holds_wide(&idx), 0);
    assert_eq!(idx.validate(&g), Ok(()));
    assert_eq!(idx.pair_count(), before.pair_count());
}

/// A vertex id drawn to land on either side of every width boundary.
fn vertex() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..4, 250u32..260, 65_530u32..65_540, any::<u32>(), u32::MAX - 3..=u32::MAX]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary records — any ids, rows unsorted or repeated, flags that
    /// disagree with their pairs, pairs in two classes — are rejected, or
    /// packed so that every class reads back its record's row; and no
    /// byte flip or cut of a chunk record panics its decoder.
    #[test]
    fn hostile_records_are_rejected_or_read_back(
        classes in prop::collection::vec(
            (prop::bool::ANY, 0u16..3, prop::collection::vec((vertex(), vertex()), 0..5)),
            1..6,
        ),
        flip in any::<u64>(),
    ) {
        let records: Vec<ClassRecord> = classes
            .into_iter()
            .map(|(is_loop, l, pairs)| {
                let pairs = pairs.into_iter().map(|(s, t)| Pair::new(s, t)).collect();
                (is_loop, vec![LabelSeq::single(ExtLabel(l))], pairs)
            })
            .collect();
        let expected: Vec<Vec<Pair>> = records.iter().map(|r| r.2.clone()).collect();
        if let Ok(idx) = CpqxIndex::from_class_records(2, None, vec![records]) {
            prop_assert_eq!(rows(&idx), expected);
            let _ = idx.stats();
            let mut bytes = Vec::new();
            idx.save_class_chunk(0, &mut bytes).expect("writing to a Vec");
            let at = (flip % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (flip >> 61);
            for damaged in [&flipped[..], &bytes[..at]] {
                if let Ok(recs) = CpqxIndex::load_class_chunk(2, damaged) {
                    if let Ok(idx) = CpqxIndex::from_class_records(2, None, vec![recs.clone()]) {
                        let rows_read: Vec<Vec<Pair>> = recs.into_iter().map(|r| r.2).collect();
                        prop_assert_eq!(rows(&idx), rows_read);
                    }
                }
            }
        }
    }
}

/// Per class chunk, the pairs its rows hold; and per class, the `Il2c`
/// entries listing it — its set size (every sequence of length ≤ 2 is a
/// lookup key of a full index at k = 2).
fn chunk_pairs_and_set_sizes(g: &cpqx_graph::Graph, idx: &CpqxIndex) -> (Vec<usize>, Vec<usize>) {
    let span = CpqxIndex::class_chunk_span();
    let chunk_pairs = (0..idx.class_chunk_count())
        .map(|i| {
            let first = i * span;
            (first..first + idx.class_chunk_len(i)).map(|c| idx.class_pairs(c as u32).len()).sum()
        })
        .collect();
    let singles = g.ext_labels().map(LabelSeq::single);
    let doubles =
        g.ext_labels().flat_map(|a| g.ext_labels().map(move |b| LabelSeq::from_slice(&[a, b])));
    let mut set_sizes = vec![0; idx.class_slots()];
    for s in singles.chain(doubles) {
        for c in idx.lookup(&s) {
            set_sizes[c as usize] += 1;
        }
    }
    (chunk_pairs, set_sizes)
}

/// The Epinions stand-in of the benchmark's served workloads reaches both
/// width boundaries of a chunk's columns: a class with 256 or more
/// sequences (2-byte set sizes) and a chunk of 65,536 or more pairs
/// (4-byte row ends), beside chunks below both. Its index validates —
/// every column at its narrowest width — and every template answers as
/// the reference semantics does; so after edge deletions that drop pairs
/// from its heaviest chunk, and after re-inserting the edges.
#[test]
#[cfg_attr(debug_assertions, ignore = "a 10k-edge build and validate; run with --release")]
fn a_graph_past_both_column_boundaries_validates_and_answers() {
    let mut g = Dataset::Epinions.generate(10_000, 20220509);
    let mut idx = CpqxIndex::build(&g, 2);
    let (chunk_pairs, set_sizes) = chunk_pairs_and_set_sizes(&g, &idx);
    assert!(set_sizes.iter().any(|&n| n > 255), "no class carries 256 sequences");
    assert!(set_sizes.iter().any(|&n| n <= 255));
    let heavy = chunk_pairs.iter().position(|&n| n >= 65_536).expect("a chunk of 65,536 pairs");
    assert!(chunk_pairs.iter().any(|&n| n < 65_536));
    assert_eq!(idx.validate(&g), Ok(()));

    let answers_match = |idx: &CpqxIndex, g: &cpqx_graph::Graph, seed: u64| {
        let mut rng = TestRng::new(seed);
        for t in Template::ALL {
            let labels: Vec<ExtLabel> = (0..t.arity())
                .map(|_| ExtLabel(rng.below(u64::from(g.ext_label_count())) as u16))
                .collect();
            let q = t.instantiate(&labels);
            assert_eq!(idx.evaluate(g, &q), eval_reference(g, &q), "{}", t.name());
        }
    };
    answers_match(&idx, &g, 1);

    // Delete the edges of the source of the heavy chunk's first pair, so
    // the chunk holds fewer pairs, then put them back.
    let span = CpqxIndex::class_chunk_span() as u32;
    let heavy_classes = heavy as u32 * span..heavy as u32 * span + span;
    let source = heavy_classes.clone().find_map(|c| idx.class_pairs(c).next()).unwrap().src();
    let edges: Vec<(u32, u32, Label)> = g.incident_edges(source).collect();
    assert!(!edges.is_empty());
    for &(s, t, l) in &edges {
        assert!(idx.delete_edge(&mut g, s, t, l));
    }
    let (after, _) = chunk_pairs_and_set_sizes(&g, &idx);
    assert!(after[heavy] < chunk_pairs[heavy], "the deletions left the heavy chunk whole");
    assert_eq!(idx.validate(&g), Ok(()));
    answers_match(&idx, &g, 2);
    for &(s, t, l) in &edges {
        assert!(idx.insert_edge(&mut g, s, t, l));
    }
    assert_eq!(idx.validate(&g), Ok(()));
    answers_match(&idx, &g, 3);
}
