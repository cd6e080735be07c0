//! The [`Store`]: the concrete `DurabilitySink` tying WAL, snapshots
//! and manifest together behind the engine's durability seam.

use crate::manifest::{self, ChunkLoc, Manifest};
use crate::snapshot::{
    encode_header, encode_name_chunk, encode_topology_chunk, snap_path, SnapshotWriter,
};
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

/// The retained image of the last persisted generation: an `Arc`-sharing
/// clone of the graph as checkpointed, plus the generation's manifest,
/// which says where each chunk record landed. Because every engine
/// mutation goes through `Arc::make_mut` and this clone keeps each
/// chunk's refcount above one, a chunk that is still pointer-identical
/// at the next checkpoint is byte-identical on disk — the record
/// location can be reused.
pub(crate) struct Retained {
    pub(crate) graph: Graph,
    pub(crate) manifest: Manifest,
}

struct Inner {
    wal: WalWriter,
    /// Current generation: the live manifest's, and the active WAL
    /// segment's.
    gen: u64,
    last: Option<Retained>,
}

/// Durable storage for one engine: an append-only WAL plus incremental
/// chunked snapshots under one directory. Implements
/// [`cpqx_engine::DurabilitySink`]; obtain one wired to a recovered (or
/// freshly seeded) engine via [`crate::durable_engine`].
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
    pub(crate) fn resume(
        dir: &Path,
        options: StoreOptions,
        gen: u64,
        wal_committed: u64,
        bytes_since_checkpoint: u64,
        last: Option<Retained>,
    ) -> io::Result<Store> {
        let wal = WalWriter::open(dir, gen, wal_committed)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            options,
            wal_bytes: AtomicU64::new(bytes_since_checkpoint),
            inner: Mutex::new(Inner { wal, gen, last }),
        })
    }

    /// Bootstraps a fresh directory: writes a full generation-1
    /// snapshot of `graph`, with `index`'s `k` and interests in its
    /// header (the WAL cannot reconstruct the seed state, so durability
    /// starts with a checkpoint) and opens segment 1 for appends.
    pub(crate) fn create(
        dir: &Path,
        options: StoreOptions,
        graph: &Graph,
        index: &CpqxIndex,
    ) -> io::Result<Store> {
        let (retained, _report) = write_generation(dir, 1, graph, index, None)?;
        Store::resume(dir, options, 1, 0, 0, Some(retained))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot generation (grows by one per checkpoint).
    pub fn generation(&self) -> u64 {
        self.inner.lock().unwrap().gen
    }

    /// Best-effort cleanup after a checkpoint: drops WAL segments,
    /// manifests and snapshot files the new generation no longer
    /// references. Failures are ignored — stale files cost disk, not
    /// correctness, and the next checkpoint retries.
    fn collect_garbage(&self, m: &Manifest) {
        let referenced: std::collections::BTreeSet<u64> = std::iter::once(m.header.gen)
            .chain(m.topo.iter().map(|l| l.gen))
            .chain(m.names.iter().map(|l| l.gen))
            .collect();
        if let Ok(gens) = wal::list_segments(&self.dir) {
            for gen in gens {
                if gen < m.wal_gen {
                    let _ = std::fs::remove_file(wal::segment_path(&self.dir, gen));
                }
            }
        }
        if let Ok(gens) = manifest::list(&self.dir) {
            for gen in gens {
                if gen < m.gen {
                    let _ = std::fs::remove_file(self.dir.join(format!("manifest-{gen}")));
                }
            }
        }
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(rest) = name.strip_prefix("snap-").and_then(|r| r.strip_suffix(".dat"))
                {
                    if let Ok(gen) = rest.parse::<u64>() {
                        if gen < m.gen && !referenced.contains(&gen) {
                            let _ = std::fs::remove_file(snap_path(&self.dir, gen));
                        }
                    }
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
        let (retained, report) =
            write_generation(&self.dir, gen, graph, index, inner.last.as_ref())?;
        // Rotate the log: the new manifest points replay at segment
        // `gen`, which starts empty.
        inner.wal = WalWriter::open(&self.dir, gen, 0)?;
        inner.gen = gen;
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.collect_garbage(&retained.manifest);
        inner.last = Some(retained);
        Ok(report)
    }
}

/// Writes generation `gen`: a snapshot file holding the header record
/// (which carries `index`'s `k` and interests, all recovery needs to
/// build the index again) plus every graph chunk record *not* reusable
/// from `last`, and the manifest tying the generation together (WAL
/// coverage starts at segment `gen`, offset 0). Returns the retained
/// image for the next increment and the written/skipped tally.
fn write_generation(
    dir: &Path,
    gen: u64,
    graph: &Graph,
    index: &CpqxIndex,
    last: Option<&Retained>,
) -> io::Result<(Retained, CheckpointReport)> {
    let mut w = SnapshotWriter::create(dir, gen)?;
    let header = w.write_record(&encode_header(graph, index))?;
    let mut report = CheckpointReport::default();
    let mut chunk = |w: &mut SnapshotWriter,
                     reuse: Option<ChunkLoc>,
                     encode: &dyn Fn() -> Vec<u8>|
     -> io::Result<ChunkLoc> {
        if let Some(loc) = reuse {
            report.chunks_skipped += 1;
            Ok(loc)
        } else {
            report.chunks_written += 1;
            w.write_record(&encode())
        }
    };
    let mut topo = Vec::with_capacity(graph.topology_chunk_count());
    for i in 0..graph.topology_chunk_count() {
        let reuse = last
            .filter(|r| graph.topology_chunk_shared_with(&r.graph, i))
            .and_then(|r| r.manifest.topo.get(i).copied());
        topo.push(chunk(&mut w, reuse, &|| encode_topology_chunk(graph, i))?);
    }
    let mut names = Vec::with_capacity(graph.name_chunk_count());
    for i in 0..graph.name_chunk_count() {
        let reuse = last
            .filter(|r| graph.name_chunk_shared_with(&r.graph, i))
            .and_then(|r| r.manifest.names.get(i).copied());
        names.push(chunk(&mut w, reuse, &|| encode_name_chunk(graph, i))?);
    }
    w.finish()?;
    let manifest = Manifest { gen, wal_gen: gen, wal_offset: 0, header, topo, names };
    manifest::install(dir, &manifest)?;
    Ok((Retained { graph: graph.clone(), manifest }, report))
}
