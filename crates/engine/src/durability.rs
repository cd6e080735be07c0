//! The engine ⇄ durability-layer seam.
//!
//! The engine itself stays storage-free: it only knows a
//! [`DurabilitySink`] — attached via [`crate::Engine::attach_durability`]
//! — that it calls at two points of the write path:
//!
//! * **append**: under the writer lock, after a typed delta transaction
//!   applied cleanly to the transaction's clone and *before* the new
//!   snapshot installs — write-ahead ordering: a transaction is only
//!   acknowledged once it is on the log. An append failure aborts the
//!   transaction (nothing installs), so an acknowledged write is always
//!   a logged write.
//! * **checkpoint**: when the bytes appended since the last checkpoint
//!   exceed [`DurabilityOptions::checkpoint_wal_bytes`], mirroring the
//!   auto-rebuild trigger — the policy lives in the engine's options,
//!   the mechanism in the sink. Checkpoint failures are non-fatal (the
//!   WAL still covers every committed transaction; the next trigger
//!   retries), so a full disk degrades recovery time, not correctness.
//!
//! The concrete sink lives in the `cpqx-store` crate (WAL + one
//! self-contained snapshot file per checkpoint); this trait is the
//! dependency seam that lets the store depend on the engine (and on
//! `cpqx-net` for the record codec) without a cycle.

use crate::delta::DeltaOp;
use cpqx_core::CpqxIndex;
use cpqx_graph::Graph;

/// Engine-side durability policy knobs (the mechanism knobs — fsync
/// policy, directory layout, compaction — live with the sink
/// implementation).
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityOptions {
    /// Checkpoint trigger: when a write transaction leaves more than
    /// this many WAL bytes appended since the last checkpoint, the
    /// engine asks the sink to checkpoint (persist a snapshot and
    /// rotate the log) within the same transaction, before the install.
    /// `None` (the default) leaves checkpointing entirely to the caller.
    pub checkpoint_wal_bytes: Option<u64>,
}

/// What one checkpoint did. The engine counts successful checkpoints in
/// its `snapshots_written` gauge; the report's fields are for callers
/// that drive a sink directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Chunk records written to the snapshot: every chunk of the graph,
    /// since storage format version 3 writes each snapshot whole.
    pub chunks_written: u64,
    /// Chunk records reused from an earlier snapshot instead of written:
    /// always 0 since storage format version 3, whose snapshots are
    /// self-contained. Kept so callers that read it still compile.
    pub chunks_skipped: u64,
}

/// Where the engine logs committed write transactions (implemented by
/// `cpqx_store::Store`; see module docs for the call protocol).
pub trait DurabilitySink: Send + Sync {
    /// Appends one committed delta transaction to the log and returns
    /// the bytes appended. Called under the engine's writer lock, after
    /// `ops` applied cleanly to the transaction's clone and immediately
    /// before the resulting snapshot installs. `graph` is the
    /// *post-apply* state of that clone — label ids and (for
    /// `AddVertex`) vertex names resolve against it.
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> std::io::Result<u64>;

    /// Bytes appended since the last successful checkpoint — the gauge
    /// the engine compares against
    /// [`DurabilityOptions::checkpoint_wal_bytes`].
    fn wal_bytes_since_checkpoint(&self) -> u64;

    /// Persists a snapshot of `graph` (with `index`'s `k` and interests)
    /// covering every append so far, then rotates the log. Called under
    /// the writer lock with the exact state about to install.
    fn checkpoint(&self, graph: &Graph, index: &CpqxIndex) -> std::io::Result<CheckpointReport>;
}
