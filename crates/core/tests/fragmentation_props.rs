//! Fragmentation properties of lazy maintenance (Prop. 4.2 / Table VII):
//! the lazy update procedures never *merge* classes — affected pairs are
//! detached into fresh classes — so between full builds the class-slot
//! count grows monotonically, pre-existing classes only ever lose
//! members, and `rebuild` restores exactly the minimal partition a fresh
//! build produces.

use cpqx_core::CpqxIndex;
use cpqx_graph::{generate, Label, LabelSeq, Pair};
use proptest::prelude::*;

/// `(kind, src, dst, label)` — a random maintenance op over a graph with
/// `vertices` vertices and `labels` base labels.
fn op_strategy(vertices: u32, labels: u16) -> impl Strategy<Value = (u8, u32, u32, u16)> {
    (0u8..4, 0u32..vertices, 0u32..vertices, 0u16..labels)
}

fn apply_op(g: &mut cpqx_graph::Graph, idx: &mut CpqxIndex, op: (u8, u32, u32, u16), labels: u16) {
    let (kind, a, b, l) = op;
    match kind {
        0 => {
            idx.insert_edge(g, a, b, Label(l));
        }
        1 => {
            idx.delete_edge(g, a, b, Label(l));
        }
        2 => {
            idx.change_edge_label(g, a, b, Label(l), Label((l + 1) % labels));
        }
        _ => idx.delete_vertex(g, a),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_maintenance_never_merges_classes(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(40, 3), 1..30),
    ) {
        let cfg = generate::RandomGraphConfig::uniform(40, 120, 3, seed);
        let mut g = generate::random_graph(&cfg);
        let mut idx = CpqxIndex::build(&g, 2);
        let baseline = idx.class_slots();
        prop_assert_eq!(idx.fragmentation().baseline_classes, baseline);
        prop_assert!((idx.fragmentation_ratio() - 1.0).abs() < 1e-12);
        for op in ops {
            let slots_before = idx.class_slots();
            let members_before: Vec<Vec<Pair>> =
                (0..slots_before).map(|c| idx.class_pairs(c as u32).collect::<Vec<_>>()).collect();
            apply_op(&mut g, &mut idx, op, 3);
            // Slots are monotone: classes are never merged or freed.
            prop_assert!(idx.class_slots() >= slots_before, "slots shrank under {op:?}");
            // Pre-existing classes only lose pairs; regrouped pairs land
            // in fresh classes exclusively.
            for (c, before) in members_before.iter().enumerate() {
                for p in idx.class_pairs(c as u32) {
                    prop_assert!(
                        before.binary_search(&p).is_ok(),
                        "class {c} gained pair {p:?} under {op:?}"
                    );
                }
            }
        }
        // Class count is monotone between rebuilds and the report is
        // internally consistent.
        let frag = idx.fragmentation();
        prop_assert!(frag.class_slots >= baseline);
        prop_assert!(frag.ratio() >= 1.0);
        prop_assert_eq!(frag.class_slots - frag.live_classes, frag.tombstones());
        prop_assert_eq!(
            frag.class_slots,
            baseline + frag.fresh_classes as usize,
            "every slot beyond the baseline must be accounted as a fresh class"
        );
    }

    #[test]
    fn rebuild_restores_the_minimal_partition(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(30, 3), 1..25),
    ) {
        let cfg = generate::RandomGraphConfig::uniform(30, 90, 3, seed);
        let mut g = generate::random_graph(&cfg);
        let mut idx = CpqxIndex::build(&g, 2);
        for op in ops {
            apply_op(&mut g, &mut idx, op, 3);
        }
        idx.rebuild(&g);
        let fresh = CpqxIndex::build(&g, 2);
        prop_assert_eq!(idx.class_slots(), fresh.class_slots());
        prop_assert_eq!(idx.live_class_count(), fresh.live_class_count());
        prop_assert_eq!(idx.pair_count(), fresh.pair_count());
        let frag = idx.fragmentation();
        prop_assert_eq!(frag.baseline_classes, idx.class_slots());
        prop_assert_eq!(frag.fresh_classes, 0);
        prop_assert_eq!(frag.refreshed_pairs, 0);
        prop_assert_eq!(frag.tombstones(), 0, "fresh builds have no tombstones");
        prop_assert!((frag.ratio() - 1.0).abs() < 1e-12);
    }

    /// Class sequence sets are read off `Il2c` in sequence order — the
    /// order `save` writes them in. Across both graph topologies, k = 1..3,
    /// full and interest-aware indexes (with interest churn), every set
    /// reads back strictly sorted and the index validates after every op.
    #[test]
    fn class_sequence_sets_stay_sorted_under_maintenance(
        seed in 0u64..1_000,
        k in 1usize..4,
        social in prop::bool::ANY,
        interest_aware in prop::bool::ANY,
        ops in prop::collection::vec(op_strategy(24, 3), 1..12),
    ) {
        let cfg = if social {
            generate::RandomGraphConfig::social(24, 70, 3, seed)
        } else {
            generate::RandomGraphConfig::uniform(24, 70, 3, seed)
        };
        let mut g = generate::random_graph(&cfg);
        let mut idx = if interest_aware {
            let (a, b, c) = (Label(0), Label(1), Label(2));
            CpqxIndex::build_interest_aware(&g, k, [
                LabelSeq::from_slice(&[a.fwd(), b.fwd()]),
                LabelSeq::from_slice(&[b.inv(), c.fwd(), a.fwd()]),
            ])
        } else {
            CpqxIndex::build(&g, k)
        };
        for (step, op) in ops.into_iter().enumerate() {
            apply_op(&mut g, &mut idx, op, 3);
            if interest_aware {
                let (_, a, b, l) = op;
                let seq = LabelSeq::from_slice(&[Label(l).fwd(), Label((b % 3) as u16).inv()]);
                if a % 2 == 0 {
                    idx.delete_interest(&seq);
                } else {
                    idx.insert_interest(&mut g, seq);
                }
            }
            for c in 0..idx.class_slots() as u32 {
                let seqs: Vec<LabelSeq> = idx.class_sequences(c).collect();
                prop_assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "class {c} after step {step}: {seqs:?}"
                );
            }
            prop_assert_eq!(idx.validate(&g), Ok(()), "step {}", step);
        }
    }

    #[test]
    fn interest_churn_never_merges_classes(
        seed in 0u64..500,
        picks in prop::collection::vec((0u16..3, 0u16..3, prop::bool::ANY, prop::bool::ANY), 1..12),
    ) {
        let cfg = generate::RandomGraphConfig::uniform(25, 80, 3, seed);
        let mut g = generate::random_graph(&cfg);
        let seed_interest = LabelSeq::from_slice(&[Label(0).fwd(), Label(1).fwd()]);
        let mut idx = CpqxIndex::build_interest_aware(&g, 2, [seed_interest]);
        for (l1, l2, inv, register) in picks {
            let a = if inv { Label(l1).inv() } else { Label(l1).fwd() };
            let seq = LabelSeq::from_slice(&[a, Label(l2).fwd()]);
            let slots_before = idx.class_slots();
            if register {
                idx.insert_interest(&mut g, seq);
            } else {
                idx.delete_interest(&seq);
            }
            prop_assert!(idx.class_slots() >= slots_before, "interest churn merged classes");
        }
        prop_assert!(idx.fragmentation().ratio() >= 1.0);
    }
}

/// Regression (empty-baseline misfire): an index built from a graph with
/// **no edges** has `baseline_classes == 0`. The ratio used to read as
/// `class_slots / max(1) = class_slots`, so the very first lazy insert on
/// an empty-seeded index looked instantly, maximally fragmented and could
/// trip a serving layer's auto-rebuild threshold into rebuild thrash. A
/// zero baseline must read as fresh (1.0) and re-baseline on first
/// growth.
#[test]
fn empty_baseline_reads_fresh_and_rebaselines() {
    let mut b = cpqx_graph::GraphBuilder::new();
    b.ensure_vertices(10);
    b.ensure_labels(2);
    let mut g = b.build();
    let mut idx = CpqxIndex::build(&g, 2);
    assert_eq!(idx.class_slots(), 0);
    assert_eq!(idx.baseline_class_count(), 0);
    assert!((idx.fragmentation_ratio() - 1.0).abs() < 1e-12, "empty build reads fresh");
    assert!((idx.fragmentation().ratio() - 1.0).abs() < 1e-12);

    // First growth: classes appear, and the baseline snaps to them
    // instead of staying 0 — the ratio stays 1.0, not `class_slots`.
    assert!(idx.insert_edge(&mut g, 0, 1, Label(0)));
    assert!(idx.class_slots() > 0);
    assert_eq!(idx.baseline_class_count(), idx.class_slots(), "re-baselined on first growth");
    assert!((idx.fragmentation_ratio() - 1.0).abs() < 1e-12);

    // Subsequent churn is measured against the new baseline as usual.
    assert!(idx.insert_edge(&mut g, 1, 2, Label(1)));
    assert!(idx.fragmentation_ratio() >= 1.0);
    assert!(idx.fragmentation_ratio() < idx.class_slots() as f64, "ratio must not equal slots");

    // Queries stay correct throughout.
    let pairs = idx.evaluate(&g, &cpqx_query::parse_cpq("l0 . l1", &g).unwrap());
    assert_eq!(pairs, vec![Pair::new(0, 2)]);
}
