//! The engine side of the durability seam, driven through a mock
//! [`DurabilitySink`]: write-ahead ordering (append before install, an
//! append failure aborts the transaction), the WAL-bytes checkpoint
//! trigger, and the stats gauges — contracts the `cpqx-store`
//! integration tests exercise only on the happy path.

use cpqx_core::CpqxIndex;
use cpqx_engine::{CheckpointReport, Delta, DeltaOp, DurabilitySink, Engine, EngineOptions};
use cpqx_graph::generate::gex;
use cpqx_graph::{Graph, Label};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Records every interaction; `fail_appends` makes the next append
/// return an I/O error.
#[derive(Default)]
struct MockSink {
    appends: Mutex<Vec<(usize, usize)>>, // (ops in txn, graph edge count at append)
    bytes: AtomicU64,
    fail_appends: AtomicBool,
    checkpoints: AtomicU64,
}

impl DurabilitySink for MockSink {
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> io::Result<u64> {
        if self.fail_appends.load(Ordering::Relaxed) {
            return Err(io::Error::other("disk on fire"));
        }
        self.appends.lock().unwrap().push((ops.len(), graph.edge_count()));
        let bytes = 10 * ops.len() as u64;
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(bytes)
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn checkpoint(&self, _graph: &Graph, _index: &CpqxIndex) -> io::Result<CheckpointReport> {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        Ok(CheckpointReport { chunks_written: 3, chunks_skipped: 7 })
    }
}

fn engine_with_sink(options: EngineOptions) -> (Engine, std::sync::Arc<MockSink>) {
    let (engine, _) = Engine::with_options(gex(), options);
    let sink = std::sync::Arc::new(MockSink::default());
    engine.attach_durability(sink.clone());
    (engine, sink)
}

#[test]
fn appends_carry_the_transaction_and_feed_the_gauges() {
    let (engine, sink) = engine_with_sink(EngineOptions { k: 2, ..EngineOptions::default() });
    let edges = engine.snapshot().graph().edge_count();

    // gex has no joe→sue follow edge, so 1→0 is a genuine insert.
    let delta = Delta::new().add_vertex("w").insert_edge(1, 0, Label(0));
    engine.apply_delta(&delta).expect("valid delta");

    // One append, carrying both ops, against the post-apply graph (the
    // record must describe the state the install will serve).
    assert_eq!(*sink.appends.lock().unwrap(), vec![(2, edges + 1)]);
    let stats = engine.stats();
    assert_eq!(stats.wal_appends, 1);
    assert_eq!(stats.wal_bytes, 20);
    assert_eq!(stats.snapshots_written, 0);

    // All-no-op transactions install nothing and must not be logged:
    // 0→1 (sue→joe) already exists in gex.
    let noop = Delta::new().insert_edge(0, 1, Label(0));
    let report = engine.apply_delta(&noop).expect("no-op delta is valid");
    assert_eq!(report.applied, 0);
    assert_eq!(engine.stats().wal_appends, 1);

    // Single-op convenience methods route through typed ops, so they
    // are durable too.
    assert!(engine.delete_edge(1, 0, Label(0)));
    assert_eq!(engine.stats().wal_appends, 2);
}

#[test]
fn append_failure_aborts_the_transaction() {
    let (engine, sink) = engine_with_sink(EngineOptions { k: 2, ..EngineOptions::default() });
    let before_epoch = engine.epoch();
    let before_edges = engine.snapshot().graph().edge_count();

    sink.fail_appends.store(true, Ordering::Relaxed);
    let err = engine
        .apply_delta(&Delta::new().insert_edge(1, 0, Label(0)))
        .expect_err("append failure must reject the delta");
    assert!(err.reason.contains("WAL append failed"), "got: {}", err.reason);

    // Nothing installed, nothing counted: the snapshot is exactly the
    // pre-delta one.
    assert_eq!(engine.epoch(), before_epoch);
    assert_eq!(engine.snapshot().graph().edge_count(), before_edges);
    assert_eq!(engine.stats().wal_appends, 0);

    // The engine stays writable once the sink recovers.
    sink.fail_appends.store(false, Ordering::Relaxed);
    engine.apply_delta(&Delta::new().insert_edge(1, 0, Label(0))).expect("sink healthy again");
    assert_eq!(engine.epoch(), before_epoch + 1);
}

#[test]
fn checkpoint_fires_on_the_wal_bytes_threshold() {
    let mut options = EngineOptions { k: 2, ..EngineOptions::default() };
    options.durability.checkpoint_wal_bytes = Some(25);
    let (engine, sink) = engine_with_sink(options);

    // 2 ops = 20 mock bytes: under the threshold, no checkpoint.
    engine.apply_delta(&Delta::new().add_vertex("a").add_vertex("b")).expect("valid delta");
    assert_eq!(sink.checkpoints.load(Ordering::Relaxed), 0);

    // Next transaction pushes past 25 bytes: checkpoint inside the txn,
    // report lands in the gauges.
    engine.apply_delta(&Delta::new().add_vertex("c")).expect("valid delta");
    assert_eq!(sink.checkpoints.load(Ordering::Relaxed), 1);
    let stats = engine.stats();
    assert_eq!(stats.snapshots_written, 1);
    assert_eq!(stats.snapshot_chunks_skipped, 7);
}
