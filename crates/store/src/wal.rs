//! The append-only write-ahead log.
//!
//! One WAL *segment* (`wal-<gen>.log`) holds the delta transactions
//! committed since the snapshot of the same generation; a checkpoint
//! rotates to a fresh segment. Each record is one transaction:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is [`crate::crc32`] over the payload and the payload is
//! the wire protocol's DELTA request frame
//! ([`cpqx_net::proto::encode_request`] of `Request::Delta`) — the one
//! codec the project already has for typed delta ops, so the log format
//! inherits the protocol's tests. Labels travel as names (resolved
//! against the graph on replay); vertex ids are literal, which is sound
//! because the engine logs ops *post-validation* under its writer lock.
//!
//! Recovery scans a segment front to back and stops at the first
//! truncated or checksum-failing record: everything before it is the
//! committed prefix, everything after is a torn tail from a crash
//! mid-append and is dropped (never an error).

use crate::crc32;
use cpqx_engine::DeltaOp;
use cpqx_graph::{Graph, LabelSeq};
use cpqx_net::proto::{decode_request, encode_request, Request, WireOp, WireSeqLabel};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// When the WAL file is flushed to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — every acknowledged transaction
    /// survives power loss. The default, and the slowest.
    #[default]
    Always,
    /// `fsync` every `n`-th append: bounded loss window, most of the
    /// throughput of [`FsyncPolicy::Never`].
    EveryN(u64),
    /// Never `fsync` on append (the OS flushes when it pleases; a
    /// checkpoint still syncs). For benchmarks and tests.
    Never,
}

/// Bound on a single WAL record payload. A scanned length prefix above
/// it is treated as tail corruption, not an allocation request; mirrors
/// the wire protocol's default frame bound.
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// `dir/wal-<gen>.log`.
pub(crate) fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

/// The generations of every WAL segment present in `dir`, ascending.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("wal-").and_then(|r| r.strip_suffix(".log")) {
            if let Ok(gen) = rest.parse::<u64>() {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// The open, appendable tail segment of the log.
pub(crate) struct WalWriter {
    file: File,
    appends_since_sync: u64,
}

impl WalWriter {
    /// Opens segment `gen` for appending, truncating it to
    /// `committed_len` first (dropping a torn tail found by recovery).
    pub(crate) fn open(dir: &Path, gen: u64, committed_len: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(segment_path(dir, gen))?;
        file.set_len(committed_len)?;
        let mut w = WalWriter { file, appends_since_sync: 0 };
        use std::io::Seek;
        w.file.seek(io::SeekFrom::End(0))?;
        Ok(w)
    }

    /// Appends one framed record and applies the fsync policy. Returns
    /// the bytes written (framing included).
    pub(crate) fn append(&mut self, payload: &[u8], fsync: FsyncPolicy) -> io::Result<u64> {
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        self.file.write_all(&rec)?;
        self.appends_since_sync += 1;
        match fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.appends_since_sync >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(rec.len() as u64)
    }

    /// Forces the segment to stable storage.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.appends_since_sync = 0;
        self.file.sync_data()
    }
}

/// What scanning one WAL segment found.
pub(crate) struct WalScan {
    /// The payloads of every intact record, in append order.
    pub(crate) records: Vec<Vec<u8>>,
    /// File length of the committed prefix (where appends may resume).
    pub(crate) valid_len: u64,
    /// Bytes past the committed prefix — a torn tail from a crash
    /// mid-append (or trailing corruption), dropped by recovery.
    pub(crate) dropped_bytes: u64,
}

/// Scans a segment front to back, stopping at the first truncated or
/// checksum-failing record (committed-prefix semantics). A missing file
/// reads as an empty segment: rotation creates segments lazily, so a
/// crash between manifest install and first append is indistinguishable
/// from "no transactions yet".
pub(crate) fn scan_segment(path: &Path) -> io::Result<WalScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD {
            break;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len as usize) else { break };
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        at += 8 + len as usize;
    }
    Ok(WalScan { records, valid_len: at as u64, dropped_bytes: (bytes.len() - at) as u64 })
}

/// Encodes one committed transaction as a WAL record payload: the wire
/// DELTA frame of `ops` with labels resolved to names against `graph`
/// (the post-apply state, so every label the ops reference is present).
pub fn encode_ops(graph: &Graph, ops: &[DeltaOp]) -> Vec<u8> {
    let name = |l: cpqx_graph::Label| graph.label_names()[l.0 as usize].clone();
    let seq = |s: &LabelSeq| {
        s.iter()
            .map(|l| WireSeqLabel { inverse: l.is_inverse(), label: name(l.base()) })
            .collect::<Vec<_>>()
    };
    let wire = ops
        .iter()
        .map(|op| match op {
            DeltaOp::InsertEdge { src, dst, label } => {
                WireOp::InsertEdge { src: *src, dst: *dst, label: name(*label) }
            }
            DeltaOp::DeleteEdge { src, dst, label } => {
                WireOp::DeleteEdge { src: *src, dst: *dst, label: name(*label) }
            }
            DeltaOp::ChangeEdgeLabel { src, dst, from, to } => {
                WireOp::ChangeEdgeLabel { src: *src, dst: *dst, from: name(*from), to: name(*to) }
            }
            DeltaOp::AddVertex { name } => WireOp::AddVertex { name: name.clone() },
            DeltaOp::DeleteVertex { vertex } => WireOp::DeleteVertex { vertex: *vertex },
            DeltaOp::InsertInterest { seq: s } => WireOp::InsertInterest { seq: seq(s) },
            DeltaOp::DeleteInterest { seq: s } => WireOp::DeleteInterest { seq: seq(s) },
        })
        .collect();
    encode_request(&Request::Delta(wire))
}

/// Decodes a WAL record payload back into typed delta ops, resolving
/// label names against `graph`. Replay applies transactions in log
/// order, and deltas never create labels, so resolving against the
/// snapshot's label table is sound for the whole tail.
pub fn decode_ops(graph: &Graph, payload: &[u8]) -> Result<Vec<DeltaOp>, String> {
    let req = decode_request(payload).map_err(|e| format!("bad DELTA frame: {e:?}"))?;
    let Request::Delta(wire) = req else {
        return Err("WAL record is not a DELTA frame".into());
    };
    cpqx_net::resolve_ops(graph, &wire).map_err(|e| format!("{} in WAL record", e.reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate::gex;
    use cpqx_graph::Label;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpqx-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<Vec<DeltaOp>> {
        vec![
            vec![
                DeltaOp::InsertEdge { src: 0, dst: 3, label: Label(0) },
                DeltaOp::DeleteEdge { src: 1, dst: 2, label: Label(1) },
            ],
            vec![DeltaOp::AddVertex { name: "n9".into() }],
            vec![
                DeltaOp::ChangeEdgeLabel { src: 2, dst: 0, from: Label(0), to: Label(1) },
                DeltaOp::DeleteVertex { vertex: 4 },
                DeltaOp::InsertInterest {
                    seq: LabelSeq::from_slice(&[Label(0).fwd(), Label(1).inv()]),
                },
                DeltaOp::DeleteInterest { seq: LabelSeq::single(Label(1).fwd()) },
            ],
        ]
    }

    #[test]
    fn ops_roundtrip_through_record_payload() {
        let g = gex();
        for ops in sample_ops() {
            let payload = encode_ops(&g, &ops);
            assert_eq!(decode_ops(&g, &payload).unwrap(), ops);
        }
    }

    #[test]
    fn decode_rejects_foreign_labels_and_frames() {
        let g = gex();
        let other = {
            let mut b = cpqx_graph::GraphBuilder::new();
            b.add_edge_named("a", "b", "x");
            b.build()
        };
        let payload =
            encode_ops(&other, &[DeltaOp::InsertEdge { src: 0, dst: 1, label: Label(0) }]);
        // `x` is not a label of gex(): replay against the wrong graph
        // must fail loudly, not mis-resolve.
        assert!(decode_ops(&g, &payload).unwrap_err().contains("unknown label"));
        assert!(decode_ops(&g, &encode_request(&Request::Ping)).is_err());
        assert!(decode_ops(&g, b"garbage").is_err());
    }

    #[test]
    fn segment_roundtrip_and_torn_tail() {
        let dir = tmp("torn");
        let g = gex();
        let payloads: Vec<Vec<u8>> = sample_ops().iter().map(|ops| encode_ops(&g, ops)).collect();
        let mut w = WalWriter::open(&dir, 1, 0).unwrap();
        let mut total = 0;
        for p in &payloads {
            total += w.append(p, FsyncPolicy::EveryN(2)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.valid_len, total);
        assert_eq!(scan.dropped_bytes, 0);

        // Truncate mid-record: the last record becomes a torn tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records, payloads[..2].to_vec());
        assert!(scan.dropped_bytes > 0);

        // Reopening at the committed prefix drops the tail and appends
        // resume cleanly.
        let mut w = WalWriter::open(&dir, 1, scan.valid_len).unwrap();
        w.append(&payloads[0], FsyncPolicy::Always).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2], payloads[0]);

        // A flipped byte in the middle ends the committed prefix there.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap();
        assert!(scan.records.len() < 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_scans_empty() {
        let dir = tmp("missing");
        let scan = scan_segment(&segment_path(&dir, 7)).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
