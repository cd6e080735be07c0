//! The [`Store`]: the concrete `DurabilitySink` tying the WAL and the
//! snapshot files together behind the engine's durability seam.

use crate::list_generations;
use crate::snapshot;
use crate::wal::{self, FsyncPolicy, WalWriter};
use cpqx_core::CpqxIndex;
use cpqx_engine::{CheckpointReport, DeltaOp, DurabilitySink};
use cpqx_graph::Graph;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Store-side durability knobs (the *policy* knob — when to checkpoint —
/// lives with the engine, in `EngineOptions::durability`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreOptions {
    /// When WAL appends are flushed to stable storage.
    pub fsync: FsyncPolicy,
}

struct Inner {
    wal: WalWriter,
    /// Current generation: the live snapshot's, and the active WAL
    /// segment's.
    gen: u64,
}

/// Durable storage for one engine: an append-only WAL plus one
/// self-contained snapshot file per checkpoint, under one directory.
/// Implements [`cpqx_engine::DurabilitySink`]; obtain one wired to a
/// recovered (or freshly seeded) engine via [`crate::durable_engine`].
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
    wal_bytes: AtomicU64,
    inner: Mutex<Inner>,
}

impl Store {
    /// Assembles a store over an already-recovered (or just
    /// bootstrapped) directory; `wal_committed` is the committed prefix
    /// of segment `gen` (a torn tail beyond it is truncated away here).
    pub(crate) fn open(
        dir: &Path,
        options: StoreOptions,
        gen: u64,
        wal_committed: u64,
        bytes_since_checkpoint: u64,
    ) -> io::Result<Store> {
        let wal = WalWriter::open(dir, gen, wal_committed)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            options,
            wal_bytes: AtomicU64::new(bytes_since_checkpoint),
            inner: Mutex::new(Inner { wal, gen }),
        })
    }

    /// Bootstraps a fresh directory: writes the generation-1 snapshot of
    /// `graph`, with `index`'s `k` and interests in its header (the WAL
    /// cannot reconstruct the seed state, so durability starts with a
    /// checkpoint) and opens segment 1 for appends.
    pub(crate) fn create(
        dir: &Path,
        options: StoreOptions,
        graph: &Graph,
        index: &CpqxIndex,
    ) -> io::Result<Store> {
        snapshot::write(dir, 1, graph, index)?;
        Store::open(dir, options, 1, 0, 0)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot generation (grows by one per checkpoint).
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().gen
    }

    /// Best-effort cleanup after generation `gen` installed: drops every
    /// snapshot, WAL segment and `.tmp` leftover of an older generation —
    /// the new snapshot holds the whole state. Failures are ignored:
    /// stale files cost disk, not correctness, and the next checkpoint
    /// retries.
    fn collect_garbage(&self, gen: u64) {
        for (prefix, suffix) in [("snap-", ".dat"), ("snap-", ".tmp"), ("wal-", ".log")] {
            for old in list_generations(&self.dir, prefix, suffix).unwrap_or_default() {
                if old < gen {
                    let _ = std::fs::remove_file(self.dir.join(format!("{prefix}{old}{suffix}")));
                }
            }
        }
    }
}

impl DurabilitySink for Store {
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> io::Result<u64> {
        let payload = wal::encode_ops(graph, ops);
        let mut inner = self.inner.lock().unwrap();
        let bytes = inner.wal.append(&payload, self.options.fsync)?;
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(bytes)
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    fn checkpoint(&self, graph: &Graph, index: &CpqxIndex) -> io::Result<CheckpointReport> {
        let mut inner = self.inner.lock().unwrap();
        // Everything appended so far must be on disk before the snapshot
        // that supersedes it claims coverage.
        inner.wal.sync()?;
        let gen = inner.gen + 1;
        let chunks_written = snapshot::write(&self.dir, gen, graph, index)?;
        // Rotate the log: replay after snapshot `gen` starts at segment
        // `gen`, which starts empty.
        inner.wal = WalWriter::open(&self.dir, gen, 0)?;
        inner.gen = gen;
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.collect_garbage(gen);
        Ok(CheckpointReport { chunks_written, chunks_skipped: 0 })
    }
}
