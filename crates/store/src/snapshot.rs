//! Snapshot files: one self-contained file per checkpoint.
//!
//! A snapshot file (`snap-<gen>.dat`) is a sequence of framed records —
//! the same `[len][crc][payload]` framing as the WAL — read front to
//! back:
//!
//! * a **header** record: magic `CPQS` and the format version, the
//!   index's `k` and mode (full / interest-aware with its interest set),
//!   the graph's label table, and the two chunk counts;
//! * one record per graph **topology chunk**, in chunk order (each
//!   vertex's out-edges, written from the label runs, which
//!   [`cpqx_graph::Graph::from_chunk_parts`] rebuilds on load);
//! * one record per vertex-**name chunk**, in chunk order.
//!
//! The index has no record: it is a function of the graph, `k` and the
//! interest set, and recovery builds it from them. Every checkpoint
//! writes the whole graph: the file is written as `snap-<gen>.tmp`,
//! synced and renamed into place, so a `snap-<gen>.dat` is complete or
//! absent.

use crate::{list_generations, read_frame, write_frame};
use cpqx_core::CpqxIndex;
use cpqx_graph::{Graph, LabelSeq, VertexId, MAX_SEQ_LEN};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Record kinds (first payload byte).
const KIND_HEADER: u8 = 0;
const KIND_TOPOLOGY: u8 = 1;
const KIND_NAMES: u8 = 2;

/// The header record's magic, right after its kind byte.
const MAGIC: &[u8; 4] = b"CPQS";
/// The on-disk format version (`STORAGE.md`), right after the magic.
const VERSION: u32 = 3;

/// Bound on a single snapshot record payload (a corrupt length prefix
/// must not become an allocation request).
const MAX_RECORD: u32 = 256 * 1024 * 1024;

/// `dir/snap-<gen>.dat`.
pub(crate) fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen}.dat"))
}

/// The generations of every installed snapshot in `dir`, ascending
/// (`snap-<gen>.tmp` files are not installed and not listed).
pub(crate) fn list(dir: &Path) -> io::Result<Vec<u64>> {
    list_generations(dir, "snap-", ".dat")
}

/// Writes generation `gen`'s snapshot of `graph`, with `index`'s `k` and
/// interests in its header (all recovery needs to build the index again):
/// the records go to `snap-<gen>.tmp` (truncating a leftover of a crashed
/// checkpoint), which is synced, renamed to `snap-<gen>.dat`, and made
/// durable by syncing the directory. Returns the chunk records written.
pub(crate) fn write(dir: &Path, gen: u64, graph: &Graph, index: &CpqxIndex) -> io::Result<u64> {
    let tmp = dir.join(format!("snap-{gen}.tmp"));
    let mut w = BufWriter::new(File::create(&tmp)?);
    write_frame(&mut w, &encode_header(graph, index), MAX_RECORD)?;
    for i in 0..graph.topology_chunk_count() {
        write_frame(&mut w, &encode_topology_chunk(graph, i), MAX_RECORD)?;
    }
    for i in 0..graph.name_chunk_count() {
        write_frame(&mut w, &encode_name_chunk(graph, i), MAX_RECORD)?;
    }
    w.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
    std::fs::rename(&tmp, snap_path(dir, gen))?;
    // Make the rename durable; directory fsync can be unsupported on
    // some filesystems, in which case the rename is still atomic, merely
    // not yet on stable storage.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok((graph.topology_chunk_count() + graph.name_chunk_count()) as u64)
}

/// The next record of a snapshot file; any bad frame is corruption.
fn next_record<'a>(rest: &mut &'a [u8], what: impl std::fmt::Display) -> Result<&'a [u8], String> {
    read_frame(rest, MAX_RECORD).map_err(|e| format!("{what}: {e}"))
}

/// Reads the header record at the front of a snapshot file's bytes.
pub(crate) fn read_header(rest: &mut &[u8]) -> Result<Header, String> {
    decode_header(next_record(rest, "header")?)
}

/// Reads the chunk records that follow the header — exactly the header's
/// counts, each chunk at its index, and nothing after them — and
/// reassembles the graph.
pub(crate) fn read_graph(mut rest: &[u8], header: &Header) -> Result<Graph, String> {
    // Each record takes at least its 8-byte framing: a count above that
    // is refused by the reads below, not allocated for.
    let capacity = |n: usize| n.min(rest.len() / 8);
    let mut topology = Vec::with_capacity(capacity(header.topo_chunks));
    for i in 0..header.topo_chunks {
        let at = format!("topology chunk {i}");
        let (ci, start, rows) = decode_topology_chunk(next_record(&mut rest, &at)?)?;
        if ci != i {
            return Err(format!("{at}: the record is chunk {ci}'s"));
        }
        topology.push((start, rows));
    }
    let mut names = Vec::with_capacity(capacity(header.name_chunks));
    for i in 0..header.name_chunks {
        let at = format!("name chunk {i}");
        let (ci, chunk) = decode_name_chunk(next_record(&mut rest, &at)?)?;
        if ci != i {
            return Err(format!("{at}: the record is chunk {ci}'s"));
        }
        names.push(chunk);
    }
    if !rest.is_empty() {
        return Err(format!("{} bytes past the last chunk record", rest.len()));
    }
    Graph::from_chunk_parts(header.label_names.clone(), topology, names)
        .map_err(|e| format!("graph reassembly failed: {e}"))
}

// ------------------------------------------------------ payload codecs --

/// Bounds-checked little-endian reader over one checksummed record
/// payload.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self.buf.get(self.at..self.at + n).ok_or("truncated snapshot record")?;
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn count(&mut self) -> Result<usize, String> {
        // Any count prefixes at least one byte per element; a count
        // larger than the bytes left is self-inconsistent.
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err("self-inconsistent count in snapshot record".into());
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
            return Err("trailing bytes in snapshot record".into());
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
fn encode_header(graph: &Graph, index: &CpqxIndex) -> Vec<u8> {
    let mut out = vec![KIND_HEADER];
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
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
fn decode_header(payload: &[u8]) -> Result<Header, String> {
    let mut c = Cur::new(payload);
    c.kind(KIND_HEADER)?;
    if c.take(4)? != MAGIC {
        return Err("no CPQS magic in the header record (a store before format version 3?)".into());
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(format!("snapshot format version {version}, expected {VERSION}"));
    }
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
fn encode_topology_chunk(graph: &Graph, i: usize) -> Vec<u8> {
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
type TopologyChunk = (usize, VertexId, Vec<Vec<(u16, VertexId)>>);

/// Decodes a topology chunk record (see [`encode_topology_chunk`]).
fn decode_topology_chunk(payload: &[u8]) -> Result<TopologyChunk, String> {
    let mut c = Cur::new(payload);
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
fn encode_name_chunk(graph: &Graph, i: usize) -> Vec<u8> {
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
fn decode_name_chunk(payload: &[u8]) -> Result<(usize, Vec<String>), String> {
    let mut c = Cur::new(payload);
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
        // recovery builds the index with; a `k` no build accepts, another
        // format version and a missing magic are refused.
        let f = g.label_named("f").unwrap();
        let seq = LabelSeq::from_slice(&[f.fwd(), f.inv()]);
        let aware = CpqxIndex::build_interest_aware(&g, 2, [seq]);
        let header = encode_header(&g, &aware);
        assert_eq!(decode_header(&header).unwrap().interests.as_ref(), aware.interests());
        for k in [0u32, MAX_SEQ_LEN as u32 + 1] {
            let mut bad = header.clone();
            bad[9..13].copy_from_slice(&k.to_le_bytes());
            assert!(decode_header(&bad).is_err(), "k = {k}");
        }
        let mut bad = header.clone();
        bad[5..9].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_header(&bad).err().unwrap(), "snapshot format version 2, expected 3");
        bad[1] = b'X';
        assert!(decode_header(&bad).err().unwrap().contains("no CPQS magic"));

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

    /// A written snapshot reads back as the graph it was written from; a
    /// flipped byte, a cut, a missing or a misplaced chunk record and
    /// trailing bytes are each refused, naming the record.
    #[test]
    fn record_io_verifies_checksums() {
        use cpqx_graph::generate::{random_graph, RandomGraphConfig};
        let dir = std::env::temp_dir().join(format!("cpqx-snaprec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let g = random_graph(&RandomGraphConfig::social(300, 1_500, 4, 11));
        let idx = CpqxIndex::build(&g, 2);
        let chunks = write(&dir, 3, &g, &idx).unwrap();
        assert_eq!(chunks, (g.topology_chunk_count() + g.name_chunk_count()) as u64);
        assert_eq!(list(&dir).unwrap(), vec![3]);
        assert!(!dir.join("snap-3.tmp").exists(), "the temporary file was renamed");

        let read = |bytes: &[u8]| {
            let mut rest = bytes;
            let header = read_header(&mut rest)?;
            read_graph(rest, &header)
        };
        let bytes = std::fs::read(snap_path(&dir, 3)).unwrap();
        let back = read(&bytes).unwrap();
        assert!(back.base_edges().eq(g.base_edges()));
        assert_eq!(back.vertex_count(), g.vertex_count());

        // Record boundaries: the header's, then the first chunk's.
        let mut rest = &bytes[..];
        read_header(&mut rest).unwrap();
        let first = bytes.len() - rest.len();
        read_frame(&mut rest, MAX_RECORD).unwrap();
        let second = bytes.len() - rest.len();

        let mut flipped = bytes.clone();
        flipped[first + 12] ^= 0x01;
        let err = read(&flipped).unwrap_err();
        assert_eq!(err, "topology chunk 0: record checksum mismatch");
        let err = read(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.ends_with("truncated record payload"), "{err}");
        let err = read(&bytes[..first]).unwrap_err();
        assert_eq!(err, "topology chunk 0: truncated record framing");
        let mut swapped = bytes[..first].to_vec();
        swapped.extend_from_slice(&bytes[second..]);
        let err = read(&swapped).unwrap_err();
        assert_eq!(err, "topology chunk 0: the record is chunk 1's");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(read(&trailing).unwrap_err(), "1 bytes past the last chunk record");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
