//! Chunk-per-record snapshot files.
//!
//! A snapshot file (`snap-<gen>.dat`) is a sequence of framed records —
//! the same `[len][crc][payload]` framing as the WAL — each persisting
//! one copy-on-write unit of the engine state:
//!
//! * a **header** record: the graph's label table, the index's `k` and
//!   mode (full / interest-aware with its interest set), and the two
//!   chunk counts;
//! * one record per graph **topology chunk** (each vertex's out-edges,
//!   written from the label runs, which
//!   [`cpqx_graph::Graph::from_chunk_parts`] rebuilds on load);
//! * one record per vertex-**name chunk**.
//!
//! The index has no record: it is a function of the graph, `k` and the
//! interest set, and recovery builds it from them.
//!
//! Because the persisted unit *is* the copy-on-write unit, an
//! incremental snapshot writes only records for chunks whose `Arc`
//! changed since the previous generation and points the manifest at the
//! previous generation's records for the rest.

use crate::crc32;
use crate::manifest::ChunkLoc;
use crate::recover::RecoverError;
use cpqx_core::CpqxIndex;
use cpqx_graph::{Graph, LabelSeq, VertexId, MAX_SEQ_LEN};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Record kinds (first payload byte).
const KIND_HEADER: u8 = 0;
const KIND_TOPOLOGY: u8 = 1;
const KIND_NAMES: u8 = 2;

/// Bound on a single snapshot record payload (a corrupt length prefix
/// must not become an allocation request).
const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// `dir/snap-<gen>.dat`.
pub(crate) fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen}.dat"))
}

/// Appends framed records to a new generation's snapshot file.
pub(crate) struct SnapshotWriter {
    file: File,
    gen: u64,
    offset: u64,
}

impl SnapshotWriter {
    /// Creates `snap-<gen>.dat` (truncating a leftover from an earlier
    /// crashed checkpoint of the same generation, which no manifest can
    /// reference).
    pub(crate) fn create(dir: &Path, gen: u64) -> io::Result<SnapshotWriter> {
        Ok(SnapshotWriter { file: File::create(snap_path(dir, gen))?, gen, offset: 0 })
    }

    /// Appends one framed record, returning where it landed.
    pub(crate) fn write_record(&mut self, payload: &[u8]) -> io::Result<ChunkLoc> {
        let loc = ChunkLoc { gen: self.gen, offset: self.offset };
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(loc)
    }

    /// Forces the file to stable storage (must happen before the
    /// manifest referencing its records installs).
    pub(crate) fn finish(self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Reads and checksum-verifies the record at `loc`.
pub(crate) fn read_record(dir: &Path, loc: ChunkLoc) -> Result<Vec<u8>, RecoverError> {
    let path = snap_path(dir, loc.gen);
    let corrupt = |what: &str| RecoverError::Corrupt {
        file: path.display().to_string(),
        what: format!("{what} (record at offset {})", loc.offset),
    };
    let mut f = File::open(&path)?;
    f.seek(io::SeekFrom::Start(loc.offset))?;
    let mut header = [0u8; 8];
    f.read_exact(&mut header).map_err(|_| corrupt("truncated record framing"))?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_RECORD {
        return Err(corrupt("record length out of range"));
    }
    let mut payload = vec![0u8; len as usize];
    f.read_exact(&mut payload).map_err(|_| corrupt("truncated record payload"))?;
    if crc32(&payload) != crc {
        return Err(corrupt("record checksum mismatch"));
    }
    Ok(payload)
}

// ------------------------------------------------------ payload codecs --

/// Bounds-checked little-endian reader over one checksummed payload — a
/// snapshot record here, the manifest body in `manifest.rs`; `what` names
/// it in error texts.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Cur { buf, at: 0, what }
    }

    fn record(buf: &'a [u8]) -> Self {
        Cur::new(buf, "snapshot record")
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s =
            self.buf.get(self.at..self.at + n).ok_or_else(|| format!("truncated {}", self.what))?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn count(&mut self) -> Result<usize, String> {
        // Any count prefixes at least one byte per element; a count
        // larger than the bytes left is self-inconsistent.
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(format!("self-inconsistent count in {}", self.what));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.count()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "non-UTF-8 string".into())
    }

    fn kind(&mut self, expected: u8) -> Result<(), String> {
        let k = self.u8()?;
        if k != expected {
            return Err(format!("record kind {k}, expected {expected}"));
        }
        Ok(())
    }

    fn done(self) -> Result<(), String> {
        if self.at != self.buf.len() {
            return Err(format!("trailing bytes in {}", self.what));
        }
        Ok(())
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_seq(out: &mut Vec<u8>, s: &LabelSeq) {
    out.push(s.len() as u8);
    for l in s.iter() {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
}

fn get_seq(c: &mut Cur<'_>) -> Result<LabelSeq, String> {
    let n = c.u8()? as usize;
    if n > MAX_SEQ_LEN {
        return Err("interest sequence too long".into());
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(cpqx_graph::ExtLabel(c.u16()?));
    }
    Ok(LabelSeq::from_slice(&labels))
}

/// The decoded header record.
pub(crate) struct Header {
    pub(crate) k: usize,
    pub(crate) interests: Option<BTreeSet<LabelSeq>>,
    pub(crate) label_names: Vec<String>,
    pub(crate) topo_chunks: usize,
    pub(crate) name_chunks: usize,
}

/// Encodes the header record for the state `(graph, index)`.
pub(crate) fn encode_header(graph: &Graph, index: &CpqxIndex) -> Vec<u8> {
    let mut out = vec![KIND_HEADER];
    out.extend_from_slice(&(index.k() as u32).to_le_bytes());
    match index.interests() {
        None => out.push(0),
        Some(lq) => {
            out.push(1);
            out.extend_from_slice(&(lq.len() as u32).to_le_bytes());
            for s in lq {
                put_seq(&mut out, s);
            }
        }
    }
    let labels = graph.label_names();
    out.extend_from_slice(&(labels.len() as u32).to_le_bytes());
    for name in labels {
        put_str(&mut out, name);
    }
    out.extend_from_slice(&(graph.topology_chunk_count() as u32).to_le_bytes());
    out.extend_from_slice(&(graph.name_chunk_count() as u32).to_le_bytes());
    out
}

/// Decodes a header record.
pub(crate) fn decode_header(payload: &[u8]) -> Result<Header, String> {
    let mut c = Cur::record(payload);
    c.kind(KIND_HEADER)?;
    let k = c.u32()? as usize;
    if k == 0 || k > MAX_SEQ_LEN {
        return Err(format!("k = {k} out of range in snapshot header"));
    }
    let interests = match c.u8()? {
        0 => None,
        1 => {
            let n = c.count()?;
            let mut lq = BTreeSet::new();
            for _ in 0..n {
                lq.insert(get_seq(&mut c)?);
            }
            Some(lq)
        }
        _ => return Err("bad mode byte in snapshot header".into()),
    };
    let nl = c.count()?;
    let label_names = (0..nl).map(|_| c.str()).collect::<Result<Vec<_>, _>>()?;
    let h = Header {
        k,
        interests,
        label_names,
        topo_chunks: c.u32()? as usize,
        name_chunks: c.u32()? as usize,
    };
    c.done()?;
    Ok(h)
}

/// Encodes topology chunk `i` of `graph`: one row per vertex of the
/// chunk's range, its [`Graph::out_edges`] in `(label, target)` order.
pub(crate) fn encode_topology_chunk(graph: &Graph, i: usize) -> Vec<u8> {
    let range = graph.topology_chunk_range(i);
    let mut out = vec![KIND_TOPOLOGY];
    out.extend_from_slice(&(i as u32).to_le_bytes());
    out.extend_from_slice(&range.start.to_le_bytes());
    out.extend_from_slice(&(range.end - range.start).to_le_bytes());
    for v in range {
        let at = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        let mut n = 0u32;
        for (ext, tgt) in graph.out_edges(v) {
            out.extend_from_slice(&ext.0.to_le_bytes());
            out.extend_from_slice(&tgt.to_le_bytes());
            n += 1;
        }
        out[at..at + 4].copy_from_slice(&n.to_le_bytes());
    }
    out
}

/// Decodes a topology chunk record into
/// `(chunk index, start vertex, out-edge rows)`.
pub(crate) type TopologyChunk = (usize, VertexId, Vec<Vec<(u16, VertexId)>>);

/// Decodes a topology chunk record (see [`encode_topology_chunk`]).
pub(crate) fn decode_topology_chunk(payload: &[u8]) -> Result<TopologyChunk, String> {
    let mut c = Cur::record(payload);
    c.kind(KIND_TOPOLOGY)?;
    let i = c.u32()? as usize;
    let start = c.u32()?;
    let nrows = c.count()?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let n = c.count()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            let ext = c.u16()?;
            let tgt = c.u32()?;
            row.push((ext, tgt));
        }
        rows.push(row);
    }
    c.done()?;
    Ok((i, start, rows))
}

/// Encodes vertex-name chunk `i` of `graph`.
pub(crate) fn encode_name_chunk(graph: &Graph, i: usize) -> Vec<u8> {
    let names = graph.name_chunk(i);
    let mut out = vec![KIND_NAMES];
    out.extend_from_slice(&(i as u32).to_le_bytes());
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        put_str(&mut out, name);
    }
    out
}

/// Decodes a name chunk record into `(chunk index, names)`.
pub(crate) fn decode_name_chunk(payload: &[u8]) -> Result<(usize, Vec<String>), String> {
    let mut c = Cur::record(payload);
    c.kind(KIND_NAMES)?;
    let i = c.u32()? as usize;
    let n = c.count()?;
    let names = (0..n).map(|_| c.str()).collect::<Result<Vec<_>, _>>()?;
    c.done()?;
    Ok((i, names))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate::gex;

    #[test]
    fn payload_codecs_roundtrip() {
        let g = gex();
        let idx = CpqxIndex::build(&g, 2);
        let h = decode_header(&encode_header(&g, &idx)).unwrap();
        assert_eq!(h.k, 2);
        assert_eq!(h.interests, None);
        assert_eq!(h.label_names, g.label_names());
        assert_eq!(h.topo_chunks, g.topology_chunk_count());
        assert_eq!(h.name_chunks, g.name_chunk_count());

        // An interest-aware index's header carries its interest set, which
        // recovery builds the index with; a `k` no build accepts is refused.
        let f = g.label_named("f").unwrap();
        let seq = LabelSeq::from_slice(&[f.fwd(), f.inv()]);
        let aware = CpqxIndex::build_interest_aware(&g, 2, [seq]);
        let header = encode_header(&g, &aware);
        assert_eq!(decode_header(&header).unwrap().interests.as_ref(), aware.interests());
        for k in [0u32, MAX_SEQ_LEN as u32 + 1] {
            let mut bad = header.clone();
            bad[1..5].copy_from_slice(&k.to_le_bytes());
            assert!(decode_header(&bad).is_err(), "k = {k}");
        }

        for i in 0..g.topology_chunk_count() {
            let (ci, start, rows) = decode_topology_chunk(&encode_topology_chunk(&g, i)).unwrap();
            let range = g.topology_chunk_range(i);
            assert_eq!((ci, start, rows.len()), (i, range.start, range.len()));
            for (v, row) in range.zip(rows) {
                assert!(row.into_iter().eq(g.out_edges(v).map(|(l, t)| (l.0, t))), "row of {v}");
            }
        }
        for i in 0..g.name_chunk_count() {
            let (ci, names) = decode_name_chunk(&encode_name_chunk(&g, i)).unwrap();
            assert_eq!(ci, i);
            assert_eq!(names, g.name_chunk(i));
        }
    }

    /// Length and FNV-1a of every TOPOLOGY record of `g`, in chunk order.
    fn topology_digest(g: &Graph) -> (usize, u64) {
        let bytes: Vec<u8> =
            (0..g.topology_chunk_count()).flat_map(|i| encode_topology_chunk(g, i)).collect();
        let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        (bytes.len(), bytes.iter().fold(0xcbf2_9ce4_8422_2325, fnv))
    }

    /// The TOPOLOGY record bytes pinned across commits, for a fresh
    /// multi-chunk graph and for the same graph after a fixed
    /// insert/self-loop/remove/add-vertex/isolate script. A change to how a
    /// graph stores its edges must leave these bytes alone: recovery reads
    /// records written by earlier builds.
    #[test]
    fn topology_records_keep_their_bytes() {
        use cpqx_graph::generate::{random_graph, RandomGraphConfig};
        use cpqx_graph::Label;
        let mut g = random_graph(&RandomGraphConfig::social(300, 1_500, 4, 11));
        assert!(g.topology_chunk_count() > 4, "the graph must span several chunks");
        assert_eq!(topology_digest(&g), (19_278, 0x94ed_c793_e943_e1a8), "fresh");
        let n = g.vertex_count();
        for v in (0..n).step_by(7) {
            g.insert_edge(v, (v * 13 + 5) % n, Label(v as u16 % 4));
            g.insert_edge(v, v, Label(3));
        }
        let doomed: Vec<_> = g.base_edges().step_by(5).collect();
        for (v, u, l) in doomed {
            assert!(g.remove_edge(v, u, l));
        }
        for i in 0..30 {
            let x = g.add_vertex(format!("x{i}"));
            g.insert_edge(x, (i * 17) % n, Label(i as u16 % 4));
            g.insert_edge((i * 29) % n, x, Label(1));
        }
        for v in (3..n).step_by(41) {
            g.isolate_vertex(v);
        }
        assert_eq!(topology_digest(&g), (16_386, 0xcfd3_f11d_6840_2611), "scripted");
    }

    #[test]
    fn record_io_verifies_checksums() {
        let dir = std::env::temp_dir().join(format!("cpqx-snaprec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut w = SnapshotWriter::create(&dir, 3).unwrap();
        let a = w.write_record(b"first record").unwrap();
        let b = w.write_record(b"second record, longer").unwrap();
        w.finish().unwrap();
        assert_eq!(read_record(&dir, a).unwrap(), b"first record");
        assert_eq!(read_record(&dir, b).unwrap(), b"second record, longer");

        // Flip a payload byte of the second record: its read fails, the
        // first record is unaffected.
        let path = snap_path(&dir, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = b.offset as usize + 8;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_record(&dir, b), Err(RecoverError::Corrupt { .. })));
        assert_eq!(read_record(&dir, a).unwrap(), b"first record");

        // A dangling location past the end of the file.
        let past = ChunkLoc { gen: 3, offset: bytes.len() as u64 + 100 };
        assert!(read_record(&dir, past).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
