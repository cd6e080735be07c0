//! Crash recovery: latest valid snapshot + WAL tail → a serving engine.
//!
//! Recovery is graph replay, then one build:
//!
//! 1. **Load** the newest snapshot, `snap-<gen>.dat`: reassemble the
//!    graph from its topology/name chunk records
//!    ([`Graph::from_chunk_parts`] rebuilds the derived pair segments);
//!    its header holds `k` and the interest set. A snapshot that does not
//!    read back whole is a [`RecoverError::Corrupt`], never skipped for
//!    an older one (see [`durable_engine`]).
//! 2. **Replay** the WAL tail, segments `gen` and later, on the graph and
//!    the interests through [`edit_graph`], the write path's own rule; a
//!    record it rejects is a [`RecoverError::Replay`]. A torn or corrupt
//!    record ends the committed prefix; the rest is dropped, never fatal.
//! 3. **Build** the index once, the build [`Engine::with_options`] runs.
//!    The store persists no index: it is a function of the graph, `k` and
//!    the interests, so the recovered index is a fresh build's, byte for
//!    byte, without a pair → class map until the first write (see
//!    `STORAGE.md`). [`durable_engine`] installs it as epoch 0 and
//!    attaches a [`Store`] resuming at the recovered position.

use crate::snapshot;
use crate::store::{Store, StoreOptions};
use crate::wal;
use cpqx_core::maintain::edit_graph;
use cpqx_core::CpqxIndex;
use cpqx_engine::{Engine, EngineOptions};
use cpqx_graph::{Graph, LabelSeq};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Why recovery failed. Torn WAL tails are *not* errors (they are the
/// expected shape of a crash); these are genuine inconsistencies —
/// unreadable files, checksum-failing snapshot records, or a log that
/// contradicts the snapshot it should extend.
#[derive(Debug)]
pub enum RecoverError {
    /// An I/O error outside any record framing.
    Io(std::io::Error),
    /// A store file exists but its contents are invalid.
    Corrupt {
        /// The offending file.
        file: String,
        /// What was wrong with it.
        what: String,
    },
    /// A committed (checksum-valid) WAL transaction failed to decode or
    /// to apply to the graph of the snapshot it should extend.
    Replay {
        /// Zero-based index of the transaction in replay order.
        txn: usize,
        /// Why it failed.
        reason: String,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "i/o error during recovery: {e}"),
            RecoverError::Corrupt { file, what } => write!(f, "corrupt store file {file}: {what}"),
            RecoverError::Replay { txn, reason } => {
                write!(f, "WAL replay failed at transaction {txn}: {reason}")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery restored (see [`DurableStart::recovered`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// The snapshot generation the state was loaded from.
    pub generation: u64,
    /// Committed WAL transactions replayed on top of the snapshot.
    pub replayed_transactions: u64,
    /// Torn-tail bytes dropped from the end of the log (0 after a clean
    /// shutdown).
    pub dropped_wal_bytes: u64,
    /// Vertices in the recovered graph.
    pub vertex_count: u32,
    /// Base edges in the recovered graph.
    pub edge_count: u64,
    /// Wall-clock of locating the live snapshot, reading its file and
    /// decoding its header record (the name predates format version 3,
    /// whose snapshot file took over the manifest's role).
    pub manifest_time: std::time::Duration,
    /// Wall-clock of chunk decode, graph reassembly and the index build.
    pub chunks_time: std::time::Duration,
    /// Wall-clock of the WAL tail's replay on the graph.
    pub replay_time: std::time::Duration,
}

/// A durable engine, started: the engine (serving the recovered or
/// seeded state as epoch 0), the attached store, and what recovery
/// found.
pub struct DurableStart {
    /// The engine, with the store already attached as its durability
    /// sink.
    pub engine: Engine,
    /// The store persisting into the data directory (the same `Arc` the
    /// engine holds).
    pub store: Arc<Store>,
    /// `Some` when state was recovered from disk; `None` when the
    /// directory was fresh and the engine was built from the seed.
    pub recovered: Option<Recovered>,
}

/// What recovery reads off the directory before the build: the replayed
/// graph, `k` and interests, and the WAL resume position.
struct FullRecovery {
    graph: Graph,
    k: usize,
    interests: Option<BTreeSet<LabelSeq>>,
    active_wal_gen: u64,
    active_wal_committed: u64,
    bytes_since_checkpoint: u64,
    info: Recovered,
}

fn corrupt(path: &Path, what: impl Into<String>) -> RecoverError {
    RecoverError::Corrupt { file: path.display().to_string(), what: what.into() }
}

fn recover_full(dir: &Path) -> Result<Option<FullRecovery>, RecoverError> {
    let t_header = std::time::Instant::now();
    let Some(&gen) = snapshot::list(dir)?.last() else {
        if wal::list_segments(dir)?.is_empty() {
            return Ok(None);
        }
        return Err(corrupt(dir, "WAL segments present but no snapshot"));
    };
    let path = snapshot::snap_path(dir, gen);
    let bytes = std::fs::read(&path)?;
    let mut rest = &bytes[..];
    let header = snapshot::read_header(&mut rest).map_err(|e| corrupt(&path, e))?;
    let manifest_time = t_header.elapsed();

    // 1. Reassemble the graph chunk by chunk.
    let t_chunks = std::time::Instant::now();
    let mut graph = snapshot::read_graph(rest, &header).map_err(|e| corrupt(&path, e))?;
    let chunks_time = t_chunks.elapsed();

    // 2. Replay the committed WAL tail on the graph and the interests.
    let t_replay = std::time::Instant::now();
    let (k, mut interests) = (header.k, header.interests);
    let segments: Vec<u64> =
        wal::list_segments(dir)?.into_iter().filter(|&segment| segment >= gen).collect();
    let mut replayed = 0u64;
    let mut dropped = 0u64;
    let mut since_checkpoint = 0u64;
    let mut active = (gen, 0u64);
    for segment in segments {
        let scan = wal::scan_segment(&wal::segment_path(dir, segment))?;
        dropped += scan.dropped_bytes;
        for payload in &scan.records {
            let replay = |reason| RecoverError::Replay { txn: replayed as usize, reason };
            let ops = wal::decode_ops(&graph, payload).map_err(replay)?;
            edit_graph(&mut graph, interests.as_mut(), k, &ops)
                .map_err(|e| replay(e.to_string()))?;
            replayed += 1;
        }
        since_checkpoint += scan.valid_len;
        active = (segment, scan.valid_len);
    }

    let info = Recovered {
        generation: gen,
        replayed_transactions: replayed,
        dropped_wal_bytes: dropped,
        vertex_count: graph.vertex_count(),
        edge_count: graph.edge_count() as u64,
        manifest_time,
        chunks_time,
        replay_time: t_replay.elapsed(),
    };
    Ok(Some(FullRecovery {
        graph,
        k,
        interests,
        active_wal_gen: active.0,
        active_wal_committed: active.1,
        bytes_since_checkpoint: since_checkpoint,
        info,
    }))
}

/// Read-only recovery: loads the newest snapshot, replays the
/// committed WAL tail on its graph and builds the index once
/// ([`CpqxIndex::build`] / [`CpqxIndex::build_interest_aware`]) **without
/// opening anything for writing or truncating torn tails** — the state a
/// [`durable_engine`] call would serve, as a pure function of the
/// directory. `Ok(None)` means the directory holds no store. The crash
/// harness probes one directory at many simulated crash points with it.
pub fn recover_state(
    dir: impl AsRef<Path>,
) -> Result<Option<(Graph, CpqxIndex, Recovered)>, RecoverError> {
    let Some(r) = recover_full(dir.as_ref())? else { return Ok(None) };
    let t_build = std::time::Instant::now();
    let index = match r.interests {
        None => CpqxIndex::build(&r.graph, r.k),
        Some(lq) => CpqxIndex::build_interest_aware(&r.graph, r.k, lq),
    };
    let info = Recovered { chunks_time: r.info.chunks_time + t_build.elapsed(), ..r.info };
    Ok(Some((r.graph, index, info)))
}

/// Opens a durable engine on `dir`, creating the directory on first
/// use.
///
/// * If `dir` holds a store: recover (the WAL tail replayed on the
///   snapshot's graph, then one build through [`Engine::with_options`])
///   and install as epoch 0 — the seed closure is **not** called, and
///   `options.k` / `options.interests` are the recovered ones.
/// * If `dir` is fresh: build the engine from `seed()` under `options`,
///   then bootstrap the store with the generation-1 snapshot (the
///   WAL alone cannot reconstruct a seed state, so durability starts
///   with a checkpoint).
///
/// Either way the returned engine has the store attached: every
/// subsequent typed delta transaction is logged before it installs, and
/// checkpoints follow `options.durability.checkpoint_wal_bytes`.
///
/// A directory whose newest `snap-<gen>.dat` does not read back whole
/// (one of another format version, say), or that holds WAL segments but
/// no snapshot, is an error, not a fresh start — silently reseeding would
/// discard its data — and no older generation is tried instead: a
/// checkpoint deletes older generations with their WAL segments only
/// after its snapshot is installed, so an older snapshot can miss
/// committed transactions. Such a directory is left as it is: nothing in
/// it is rewritten. `snap-<gen>.tmp` files, the leftovers of a crash
/// inside a checkpoint, are ignored: a directory holding only those is
/// fresh.
pub fn durable_engine(
    dir: impl AsRef<Path>,
    store_options: StoreOptions,
    mut options: EngineOptions,
    seed: impl FnOnce() -> Graph,
) -> Result<DurableStart, RecoverError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    if let Some(r) = recover_full(dir)? {
        options.k = r.k;
        options.interests = r.interests.map(|lq| lq.into_iter().collect());
        let (engine, report) = Engine::with_options(r.graph, options);
        let info = Recovered { chunks_time: r.info.chunks_time + report.total, ..r.info };
        let store = Arc::new(Store::open(
            dir,
            store_options,
            r.active_wal_gen,
            r.active_wal_committed,
            r.bytes_since_checkpoint,
        )?);
        engine.attach_durability(store.clone());
        // Restart timings land in the recorder like any other pipeline,
        // so METRICS exposes recovery stages alongside serving stages.
        engine.obs().record_recovery(
            info.manifest_time,
            info.chunks_time,
            info.replay_time,
            engine.epoch(),
        );
        return Ok(DurableStart { engine, store, recovered: Some(info) });
    }
    let (engine, _report) = Engine::with_options(seed(), options);
    let snap = engine.snapshot();
    let store = Arc::new(Store::create(dir, store_options, snap.graph(), snap.index())?);
    drop(snap);
    engine.attach_durability(store.clone());
    Ok(DurableStart { engine, store, recovered: None })
}
