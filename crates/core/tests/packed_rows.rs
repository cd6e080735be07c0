//! `Ic2p` rows are width-packed per class chunk: pair `(s, t)` is the key
//! `s << shift | t` in `⌈2·shift / 8⌉` bytes, `shift` the bit width of the
//! chunk's largest vertex id. These tests hold the packing to the rows it
//! encodes:
//!
//! * on random graphs every class reads back its partition row, and
//!   evaluation answers as the reference semantics does;
//! * a write that brings a wider vertex id re-packs only the chunks it
//!   copies, and undoing it narrows them again (`validate` holds every
//!   chunk to the width its largest id needs; the chunk-level edit itself
//!   is pinned by the unit tests of `index.rs`, and so are vertex ids at
//!   every width boundary, 1 to 8 bytes a key);
//! * on the benchmark's Epinions stand-in at 10k edges — where a class
//!   carries more than 255 sequences and a chunk holds more than 65,535
//!   pairs, so a chunk's set sizes and row ends each take their wider
//!   width — the index validates and answers as the reference semantics
//!   does, before and after writes (the packed runs' own boundaries are
//!   pinned by the unit tests of `packed_keys.rs` and `index.rs`).

use cpqx_core::{cpq_path_partition, normalize_interests, CpqxIndex, RefinementBase};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{ExtLabel, Label, LabelSeq};
use cpqx_query::ast::Template;
use cpqx_query::eval::eval_reference;
use proptest::prelude::*;

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
