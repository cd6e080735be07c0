//! Regression: deleting an interest sequence and re-inserting it must
//! restore the full posting list. The lazy deletion keeps classes, and
//! the sequence's `Il2c` entry as a retained entry no lookup serves; on
//! re-insertion, pairs whose class already carries the sequence are
//! "unchanged" — but their classes still have to be served under the
//! re-added key, or single-lookup queries silently lose answers.

use cpqx_core::CpqxIndex;
use cpqx_graph::{generate, LabelSeq};
use cpqx_query::eval::eval_reference;
use cpqx_query::Cpq;

#[test]
fn delete_then_reinsert_restores_lookup() {
    let mut g = generate::gex();
    let f = g.label_named("f").unwrap();
    let seq = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, [seq]);
    let q = Cpq::ext(seq.get(0)).join(Cpq::ext(seq.get(1)));
    let expected = eval_reference(&g, &q);
    assert_eq!(idx.evaluate(&g, &q), expected, "fresh index");

    // Roundtrip the interest.
    assert!(idx.delete_interest(&seq));
    assert_eq!(idx.evaluate(&g, &q), expected, "after deletion (split lookups)");
    assert!(idx.insert_interest(&mut g, seq));
    assert!(idx.is_indexed(&seq));

    // The single-lookup path must see every pair again.
    let mut via_lookup = Vec::new();
    for c in idx.lookup(&seq) {
        via_lookup.extend(idx.class_pairs(c));
    }
    via_lookup.sort_unstable();
    assert_eq!(via_lookup, expected, "posting list incomplete after re-insertion");
    assert_eq!(idx.evaluate(&g, &q), expected, "query path after re-insertion");
}

#[test]
fn repeated_roundtrips_are_stable() {
    let cfg = generate::RandomGraphConfig::social(60, 260, 3, 4);
    let mut g = generate::random_graph(&cfg);
    let seqs = [
        LabelSeq::from_slice(&[cpqx_graph::ExtLabel(0), cpqx_graph::ExtLabel(1)]),
        LabelSeq::from_slice(&[cpqx_graph::ExtLabel(2), cpqx_graph::ExtLabel(0)]),
    ];
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, seqs);
    let queries: Vec<Cpq> =
        seqs.iter().map(|s| Cpq::ext(s.get(0)).join(Cpq::ext(s.get(1)))).collect();
    let expected: Vec<_> = queries.iter().map(|q| eval_reference(&g, q)).collect();
    for round in 0..5 {
        for s in &seqs {
            idx.delete_interest(s);
            idx.insert_interest(&mut g, *s);
        }
        for (q, exp) in queries.iter().zip(&expected) {
            assert_eq!(&idx.evaluate(&g, q), exp, "round {round}");
        }
    }
}
