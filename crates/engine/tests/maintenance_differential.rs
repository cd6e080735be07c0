//! Differential test harness for the typed delta write path
//! (model-based, in the style of RPQ-engine validation): random `Delta`
//! transactions stream through `Engine::apply_delta` (the lazy
//! maintenance path) while a reference copy of the graph receives the
//! same mutations and is **fully rebuilt** after every transaction —
//! the two must answer every workload query identically at every step,
//! and the maintained index must still satisfy the partition invariant
//! on its graph (`CpqxIndex::validate`), whatever fragmentation the lazy
//! path has accumulated and even when the auto-rebuild threshold fires
//! mid-sequence.
//!
//! All randomness comes from the deterministic proptest shim, so a CI
//! failure replays exactly (the shim prints the failing case number).

use cpqx_core::CpqxIndex;
use cpqx_engine::delta::{Delta, DeltaOp, OpOutcome};
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::{generate, Graph, Label, LabelSeq};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};
use proptest::prelude::*;

/// A raw op blueprint: mapped onto the *current* graph shape right
/// before each transaction, so vertex picks stay in range however many
/// vertices earlier transactions added.
type RawOp = (u8, u32, u32, u16);

fn raw_txn() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..6, any::<u32>(), any::<u32>(), any::<u16>()), 4..16)
}

/// Lowers raw ops onto the current graph: vertex/label picks taken
/// modulo the live counts, with `AddVertex` ops extending the range for
/// later ops of the same transaction (exercising the in-delta id
/// visibility rule).
fn lower(raw: &[RawOp], g: &Graph, txn: usize) -> Delta {
    let labels = g.base_label_count();
    let mut vertices = g.vertex_count();
    let mut ops = Vec::with_capacity(raw.len());
    for (i, &(kind, a, b, l)) in raw.iter().enumerate() {
        let src = a % vertices;
        let dst = b % vertices;
        let label = Label(l % labels);
        ops.push(match kind {
            0 => DeltaOp::InsertEdge { src, dst, label },
            1 => DeltaOp::DeleteEdge { src, dst, label },
            2 => DeltaOp::ChangeEdgeLabel { src, dst, from: label, to: Label((l + 1) % labels) },
            3 => {
                vertices += 1;
                DeltaOp::AddVertex { name: format!("t{txn}-v{i}") }
            }
            4 => DeltaOp::DeleteVertex { vertex: src },
            // Insert an edge incident to the newest vertex so AddVertex
            // ops are not dead weight.
            _ => DeltaOp::InsertEdge { src: vertices - 1, dst, label },
        });
    }
    Delta::from(ops)
}

/// Applies the same semantics to the reference graph, without any index.
fn apply_to_reference(delta: &Delta, g: &mut Graph) {
    for op in delta.ops() {
        match op {
            DeltaOp::InsertEdge { src, dst, label } => {
                g.insert_edge(*src, *dst, *label);
            }
            DeltaOp::DeleteEdge { src, dst, label } => {
                g.remove_edge(*src, *dst, *label);
            }
            DeltaOp::ChangeEdgeLabel { src, dst, from, to } => {
                if g.remove_edge(*src, *dst, *from) {
                    g.insert_edge(*src, *dst, *to);
                }
            }
            DeltaOp::AddVertex { name } => {
                g.add_vertex(name.clone());
            }
            DeltaOp::DeleteVertex { vertex } => {
                g.isolate_vertex(*vertex);
            }
            DeltaOp::InsertInterest { .. } | DeltaOp::DeleteInterest { .. } => {}
        }
    }
}

fn workload(g: &Graph, seed: u64) -> Vec<Cpq> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, seed);
    Template::ALL.iter().flat_map(|&t| gen.queries(t, 2, &probe)).collect()
}

proptest! {
    // 32 cases × 8 transactions = 256 differentially verified random
    // transactions (the acceptance floor for this harness).
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn apply_delta_matches_full_rebuild(
        seed in 0u64..10_000,
        txns in prop::collection::vec(raw_txn(), 8..9),
    ) {
        let g0 = generate::random_graph(&generate::RandomGraphConfig::social(
            60, 240, 3, seed,
        ));
        let queries = workload(&g0, seed ^ 0x51);
        prop_assert!(queries.len() >= 8, "workload too small to be meaningful");
        // A low-ish threshold so some sequences cross it and the
        // differential also covers the auto-rebuild path.
        let (engine, _) = Engine::with_options(
            g0.clone(),
            EngineOptions { k: 2, auto_rebuild_ratio: Some(1.5), ..EngineOptions::default() },
        );
        let mut reference = g0;
        for (t, raw) in txns.iter().enumerate() {
            let delta = lower(raw, engine.snapshot().graph(), t);
            let report = engine.apply_delta(&delta).expect("lowered deltas are valid");
            apply_to_reference(&delta, &mut reference);
            prop_assert_eq!(report.epoch, engine.epoch(), "sole writer pins the epoch");
            // Model check: the engine's graph and the reference evolved
            // identically.
            let snap = engine.snapshot();
            prop_assert_eq!(snap.graph().vertex_count(), reference.vertex_count());
            prop_assert_eq!(snap.graph().edge_count(), reference.edge_count());
            // Structural check: the maintained index is still a valid
            // partition of this graph's pairs.
            prop_assert_eq!(snap.index().validate(snap.graph()), Ok(()), "txn {}", t);
            // Differential check: lazy maintenance (possibly rebuilt by
            // the threshold) vs. a from-scratch build on the reference.
            let fresh = CpqxIndex::build(&reference, 2);
            for q in &queries {
                prop_assert_eq!(
                    &*engine.query(q),
                    &fresh.evaluate(&reference, q),
                    "txn {} diverged for {:?}",
                    t,
                    q
                );
            }
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.delta_transactions, txns.len() as u64);
        prop_assert!(stats.fragmentation_ratio >= 1.0);
    }

}

// The same harness over the interest-aware index, with interest
// registration/removal mixed into the transactions; the reference
// rebuild uses the engine's own current interest set.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interest_aware_apply_delta_matches_full_rebuild(
        seed in 0u64..10_000,
        txns in prop::collection::vec(raw_txn(), 4..5),
    ) {
        let g0 = generate::random_graph(&generate::RandomGraphConfig::uniform(
            40, 160, 3, seed,
        ));
        let labels = g0.base_label_count();
        let interests: Vec<LabelSeq> = (0..labels)
            .map(|l| LabelSeq::from_slice(&[Label(l).fwd(), Label((l + 1) % labels).fwd()]))
            .collect();
        let queries = workload(&g0, seed ^ 0x77);
        let (engine, _) = Engine::with_options(
            g0.clone(),
            EngineOptions { k: 2, interests: Some(interests), ..EngineOptions::default() },
        );
        let mut reference = g0;
        for (t, raw) in txns.iter().enumerate() {
            let mut delta = lower(raw, engine.snapshot().graph(), t);
            // Mix in interest churn derived from the raw ops.
            let (_, a, b, l) = raw[0];
            let seq = LabelSeq::from_slice(&[
                Label((l % labels) as u16).fwd(),
                if a % 2 == 0 { Label((b % labels as u32) as u16).fwd() } else {
                    Label((b % labels as u32) as u16).inv()
                },
            ]);
            delta = if a % 3 == 0 { delta.delete_interest(seq) } else { delta.insert_interest(seq) };
            let report = engine.apply_delta(&delta).expect("lowered deltas are valid");
            apply_to_reference(&delta, &mut reference);
            let snap = engine.snapshot();
            prop_assert_eq!(snap.index().validate(snap.graph()), Ok(()), "ia txn {}", t);
            let current_interests = snap
                .index()
                .interests()
                .expect("interest-aware engine")
                .iter()
                .copied()
                .collect::<Vec<_>>();
            let fresh =
                CpqxIndex::build_interest_aware(&reference, 2, current_interests);
            for q in &queries {
                prop_assert_eq!(
                    &*engine.query(q),
                    &fresh.evaluate(&reference, q),
                    "ia txn {} (epoch {}) diverged for {:?}",
                    t,
                    report.epoch,
                    q
                );
            }
        }
    }
}

/// A closed cycle across interest churn: `(a∘b∘c∘d) ∩ id` on an engine
/// whose interests hold `⟨c,d⟩` without its inverse runs as a pair-level
/// `JOIN-ID`; a delta that deletes edges and registers the inverse flips
/// it to a class-level conjunction; deleting `⟨c,d⟩` re-plans it over
/// single labels. Answers equal the oracle and the index validates at
/// every step.
#[test]
fn closed_cycles_follow_interest_churn() {
    use cpqx_query::eval::eval_reference;
    let g = generate::random_graph(&generate::RandomGraphConfig::social(80, 400, 3, 0xC1C));
    let (a, b, c, d) = (Label(0).fwd(), Label(1).fwd(), Label(2).fwd(), Label(0).inv());
    let (ab, cd) = (LabelSeq::from_slice(&[a, b]), LabelSeq::from_slice(&[c, d]));
    let si = Cpq::chain(&[a, b, c, d]).with_id();
    let ti = Cpq::chain(&[a, b, c]).with_id();
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, interests: Some(vec![ab, cd]), ..EngineOptions::default() },
    );
    // (conjunctions, joins) of the Si plan, after checking both cyclic
    // queries against the oracle on a validated snapshot.
    let check = |step: &str| {
        let snap = engine.snapshot();
        assert_eq!(snap.index().validate(snap.graph()), Ok(()), "{step}");
        for q in [&si, &ti] {
            assert_eq!(*engine.query(q), eval_reference(snap.graph(), q), "{step}: {q:?}");
        }
        let stats = snap.index().explain(snap.graph(), &si).1;
        (stats.class_conjunctions + stats.pair_intersections, stats.joins)
    };
    assert_eq!(check("built"), (0, 1), "⟨d⁻¹,c⁻¹⟩ is not indexed: JOIN-ID");

    let victims = generate::sample_edges(engine.snapshot().graph(), 12, 5);
    let mut delta = Delta::new();
    for &(v, u, l) in &victims {
        delta = delta.delete_edge(v, u, l);
    }
    engine.apply_delta(&delta.insert_interest(cd.reversed_inverse())).expect("valid delta");
    assert_eq!(check("inverse registered"), (1, 0), "closes as a conjunction");

    let (v, u, l) = victims[0];
    engine.apply_delta(&Delta::new().insert_edge(v, u, l).delete_interest(cd)).expect("valid");
    // ⟨a,b⟩ ⋈ ⟨c⟩ ⋈ ⟨d⟩ now: the root still closes (⟨d⁻¹⟩ is a single
    // label), over one open join.
    assert_eq!(check("interest deleted"), (1, 1));
}

/// The acceptance-scale scenario: on a 100k-edge generated graph, a
/// single 1 000-op delta transaction goes through the lazy path without
/// any full index rebuild (threshold not crossed), verified by the
/// engine's own counters, and serving answers still match a reference
/// evaluation.
#[test]
fn thousand_op_transaction_on_100k_edges_stays_lazy() {
    let g =
        generate::random_graph(&generate::RandomGraphConfig::uniform(50_000, 100_000, 8, 0xC0DE));
    assert_eq!(g.edge_count(), 100_000);
    let (engine, _) = Engine::with_options(
        g,
        EngineOptions { k: 2, auto_rebuild_ratio: Some(8.0), ..EngineOptions::default() },
    );
    let snap0 = engine.snapshot();
    // 500 existing edges, each deleted and re-inserted: 1 000 ops, all
    // of which are real (Applied) lazy updates.
    let victims = generate::sample_edges(snap0.graph(), 500, 7);
    let mut delta = Delta::new();
    for &(v, u, l) in &victims {
        delta = delta.delete_edge(v, u, l).insert_edge(v, u, l);
    }
    assert_eq!(delta.len(), 1_000);
    let report = engine.apply_delta(&delta).expect("valid transaction");
    assert_eq!(report.applied, 1_000);
    assert!(report.outcomes.iter().all(|o| *o == OpOutcome::Applied));
    assert!(!report.rebuilt, "below the threshold the transaction must stay lazy");
    assert_eq!(report.epoch, 1, "one install for the whole 1k-op transaction");

    let stats = engine.stats();
    assert_eq!(stats.delta_transactions, 1);
    assert_eq!(stats.lazy_update_ops, 1_000, "stats must count every lazy op");
    assert_eq!(stats.rebuilds, 0, "no full rebuild below the threshold");
    assert_eq!(stats.auto_rebuilds, 0);
    assert_eq!(stats.snapshot_swaps, 1);
    assert!(
        stats.fragmentation_ratio >= 1.0 && stats.fragmentation_ratio < 8.0,
        "churning 0.5% of edges must fragment mildly (got {})",
        stats.fragmentation_ratio
    );

    // Differential check without paying a second 100k-edge build: the
    // transaction deleted and re-inserted the same edges, so the final
    // graph equals the initial one and the (now fragmented) lazy index
    // must answer exactly like the untouched initial snapshot's index.
    let queries = workload(snap0.graph(), 3);
    assert!(queries.len() >= 6);
    for q in queries.iter().take(8) {
        assert_eq!(
            *engine.query(q),
            snap0.evaluate(q),
            "fragmented index disagrees with the pre-churn index for {q:?}"
        );
    }
}
