//! Concurrency: reader threads must serve correct, snapshot-consistent
//! answers while maintenance continuously installs new snapshots, and a
//! pinned snapshot must stay valid for as long as a reader holds it.

use cpqx_engine::{BatchOptions, Engine};
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, Label};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{Cpq, Template};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn test_graph(seed: u64) -> Graph {
    random_graph(&RandomGraphConfig::social(60, 260, 3, seed))
}

fn small_workload(g: &Graph, seed: u64) -> Vec<Cpq> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, seed);
    [Template::C2, Template::T, Template::C2i, Template::S]
        .iter()
        .flat_map(|&t| gen.queries(t, 2, &probe))
        .collect()
}

/// N reader threads hammer the engine while the writer applies edge
/// deletions and insertions. Every reader pins a snapshot per iteration
/// and checks the engine's answer for that snapshot against the naive
/// reference evaluated on that snapshot's graph — exact consistency, not
/// just absence of crashes.
#[test]
fn readers_stay_consistent_during_swaps() {
    const READERS: usize = 6;
    let g = test_graph(1);
    let queries = Arc::new(small_workload(&g, 11));
    assert!(!queries.is_empty());
    let engine = Arc::new(Engine::build(g, 2));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for r in 0..READERS {
            let engine = Arc::clone(&engine);
            let queries = Arc::clone(&queries);
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut served = 0u64;
                let mut epochs_seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let q = &queries[(served as usize + r) % queries.len()];
                    let snap = engine.snapshot();
                    epochs_seen.insert(snap.epoch());
                    let got = engine.query_on(&snap, q);
                    let expected = eval_reference(snap.graph(), q);
                    assert_eq!(*got, expected, "reader {r} diverged at epoch {}", snap.epoch());
                    served += 1;
                }
                (served, epochs_seen.len())
            }));
        }

        // Writer: churn edges sampled from the current snapshot, forcing
        // snapshot swaps under read load.
        let mut swaps = 0;
        for round in 0..30 {
            let snap = engine.snapshot();
            let g = snap.graph();
            let edges = cpqx_graph::generate::sample_edges(g, 3, round);
            for (v, u, l) in &edges {
                if engine.delete_edge(*v, *u, *l) {
                    swaps += 1;
                }
            }
            for (v, u, l) in &edges {
                if engine.insert_edge(*v, *u, *l) {
                    swaps += 1;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);

        let mut total_served = 0;
        let mut max_epochs = 0;
        for h in readers {
            let (served, epochs) = h.join().expect("reader panicked");
            total_served += served;
            max_epochs = max_epochs.max(epochs);
        }
        assert!(swaps > 0, "writer must actually install snapshots");
        assert_eq!(engine.epoch(), swaps as u64);
        assert!(total_served > 0, "readers must have served queries");
        assert!(
            max_epochs > 1,
            "at least one reader should observe multiple epochs ({total_served} served)"
        );
        assert_eq!(engine.stats().snapshot_swaps, swaps as u64);
    });
}

/// A pinned snapshot keeps answering with its own version even after many
/// later swaps (readers are never invalidated mid-flight).
#[test]
fn pinned_snapshot_survives_later_swaps() {
    let g = test_graph(2);
    let queries = small_workload(&g, 5);
    let engine = Engine::build(g, 2);
    let pinned = engine.snapshot();
    let before: Vec<_> = queries.iter().map(|q| pinned.evaluate(q)).collect();

    // Mutate heavily: delete a third of all edges.
    let snap = engine.snapshot();
    let edges: Vec<_> = snap.graph().base_edges().collect();
    for (i, &(v, u, l)) in edges.iter().enumerate() {
        if i % 3 == 0 {
            engine.delete_edge(v, u, l);
        }
    }
    assert!(engine.epoch() > 0);

    // The pinned snapshot still evaluates exactly as before…
    for (q, old) in queries.iter().zip(&before) {
        assert_eq!(pinned.evaluate(q), *old);
        assert_eq!(eval_reference(pinned.graph(), q), *old);
    }
    // …while the current snapshot reflects the deletions.
    let now = engine.snapshot();
    assert!(now.epoch() > pinned.epoch());
    for q in &queries {
        assert_eq!(*engine.query(q), eval_reference(now.graph(), q));
    }
}

/// Batches pin one snapshot: a concurrent writer cannot make a batch see
/// two different graph versions.
#[test]
fn batches_are_snapshot_consistent_under_writes() {
    let g = test_graph(3);
    let queries = small_workload(&g, 17);
    let engine = Arc::new(Engine::build(g, 2));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    for (v, u, l) in cpqx_graph::generate::sample_edges(snap.graph(), 2, round) {
                        engine.delete_edge(v, u, l);
                        engine.insert_edge(v, u, l);
                    }
                    round += 1;
                }
            })
        };

        for _ in 0..12 {
            let out = engine.evaluate_batch(&queries, BatchOptions { threads: Some(4) });
            // All answers must be the reference answers of ONE epoch's
            // graph. Recompute against the epoch the batch reports.
            let snap = engine.snapshot();
            if snap.epoch() == out.epoch {
                for (q, r) in queries.iter().zip(&out.results) {
                    assert_eq!(**r, eval_reference(snap.graph(), q));
                }
            }
            assert_eq!(out.results.len(), queries.len());
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer panicked");
    });
}

/// Concurrent writers serialize; no update is lost.
#[test]
fn concurrent_writers_serialize() {
    let mut b = cpqx_graph::GraphBuilder::new();
    b.ensure_vertices(64);
    b.ensure_labels(1);
    b.add_edge(1, 0, Label(0)); // outside the writers' (even, even+1) pattern
    let g = b.build();
    let engine = Arc::new(Engine::build(g, 2));

    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for i in 0..8u32 {
                    let v = 2 * (8 * w + i);
                    assert!(engine.insert_edge(v, v + 1, Label(0)));
                }
            });
        }
    });

    // 4 writers × 8 inserts, all distinct edges → 32 swaps + every edge
    // present in the final snapshot.
    assert_eq!(engine.epoch(), 32);
    let snap = engine.snapshot();
    assert_eq!(snap.graph().edge_count(), 33);
    for w in 0..4u32 {
        for i in 0..8u32 {
            let v = 2 * (8 * w + i);
            assert!(snap.graph().has_edge(v, v + 1, Label(0).fwd()), "lost edge {v}");
        }
    }
}
