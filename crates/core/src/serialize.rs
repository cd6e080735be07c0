//! Binary persistence for the index.
//!
//! A production deployment builds the index once (Table IV's IT is minutes
//! to hours at paper scale) and reloads it across restarts. The format
//! stores the partition — per class: loop flag, sequence set, pair list —
//! plus the mode header, so the file holds each fact exactly once. `Il2c`
//! is reconstructed on load; the pair→class inverted index is not, since
//! only maintenance reads it: the first write after a load builds it.
//!
//! In memory it is the other way round: `Il2c` is the only record of which
//! sequences a class carries. Class records' sequence sets are written by
//! transposing `Il2c` over a range of class chunks
//! (`CpqxIndex::class_seq_sets`: entries walked in sequence order, each
//! posting set from its first class in the range), retained entries of
//! deleted interests included, so the records are the bytes a class-major
//! store would write. Pair rows are the other difference: in memory they are
//! width-packed per class chunk, in a record every pair takes 8 bytes, so
//! a record's bytes do not depend on the chunk's width. A load packs each
//! chunk's rows afresh.
//!
//! Layout (little-endian): magic `CPQX`, format version, `k`, mode byte
//! (full / interest-aware + interest list), class count, then the classes.

use crate::bisim::ClassId;
use crate::index::{ClassChunk, CpqxIndex, PostingsBuilder, SeqSets};
use crate::intern::SeqDict;
use cpqx_graph::pair::sort_pairs;
use cpqx_graph::{ExtLabel, LabelSeq, Pair};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CPQX";
const VERSION: u32 = 1;

/// Chunk positions whose class sets one transposition of `Il2c` covers
/// (16 384 classes). A transposition costs a search per posting set
/// besides the entries it moves, so a window spreads those searches
/// over up to this many records while bounding the sets held at once.
const RECORD_WINDOW: usize = 64;

/// Errors while reading a persisted index (or any of the store's framed
/// files, which reuse this type so corruption reports look the same
/// everywhere): every corruption variant pinpoints the byte offset, so a
/// damaged file is diagnosable without a hex dump.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure (anything but a clean end-of-stream, which
    /// reports as [`LoadError::Truncated`]).
    Io(std::io::Error),
    /// The stream does not start with the `CPQX` magic.
    BadMagic,
    /// Format-version mismatch: the file declares `found`, this build
    /// reads `expected`.
    BadVersion {
        /// Version number the file declares.
        found: u32,
        /// Version number this build understands.
        expected: u32,
    },
    /// The stream ended in the middle of a field.
    Truncated {
        /// Byte offset at which the stream ran out.
        offset: u64,
    },
    /// Structurally invalid payload.
    Corrupt {
        /// Byte offset of the offending field.
        offset: u64,
        /// What was wrong with it.
        what: &'static str,
    },
    /// A checksummed record failed verification (used by the framed
    /// record formats in `cpqx-store`; the version-1 index stream itself
    /// carries no checksums).
    Checksum {
        /// Byte offset of the record whose checksum failed.
        offset: u64,
        /// Checksum stored in the file.
        expected: u32,
        /// Checksum computed over the payload actually read.
        actual: u32,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => write!(f, "not a CPQx index file"),
            LoadError::BadVersion { found, expected } => {
                write!(f, "unsupported format version {found} (this build reads {expected})")
            }
            LoadError::Truncated { offset } => {
                write!(f, "truncated at byte {offset}")
            }
            LoadError::Corrupt { offset, what } => {
                write!(f, "corrupt at byte {offset}: {what}")
            }
            LoadError::Checksum { offset, expected, actual } => {
                write!(
                    f,
                    "checksum mismatch for record at byte {offset}: \
                     stored {expected:#010x}, computed {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Reader adapter that counts consumed bytes, so every decode error can
/// name the offset it happened at.
struct Counted<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> Counted<R> {
    fn new(inner: R) -> Self {
        Counted { inner, offset: 0 }
    }

    /// Reads exactly `buf.len()` bytes; a clean end-of-stream reports as
    /// [`LoadError::Truncated`] at the current offset.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), LoadError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(LoadError::Truncated { offset: self.offset })
            }
            Err(e) => Err(LoadError::Io(e)),
        }
    }
}

fn write_u32(w: &mut impl Write, x: u32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_u64(w: &mut impl Write, x: u64) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_seq(w: &mut impl Write, s: &LabelSeq) -> std::io::Result<()> {
    w.write_all(&[s.len() as u8])?;
    for l in s.iter() {
        w.write_all(&l.0.to_le_bytes())?;
    }
    Ok(())
}

fn read_u8<R: Read>(r: &mut Counted<R>) -> Result<u8, LoadError> {
    let mut b = [0u8; 1];
    r.fill(&mut b)?;
    Ok(b[0])
}

fn read_u16<R: Read>(r: &mut Counted<R>) -> Result<u16, LoadError> {
    let mut b = [0u8; 2];
    r.fill(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut Counted<R>) -> Result<u32, LoadError> {
    let mut b = [0u8; 4];
    r.fill(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut Counted<R>) -> Result<u64, LoadError> {
    let mut b = [0u8; 8];
    r.fill(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_seq<R: Read>(r: &mut Counted<R>) -> Result<LabelSeq, LoadError> {
    let at = r.offset;
    let len = read_u8(r)? as usize;
    if len > cpqx_graph::MAX_SEQ_LEN {
        return Err(LoadError::Corrupt { offset: at, what: "label sequence too long" });
    }
    let mut s = LabelSeq::empty();
    for _ in 0..len {
        s = s.appended(ExtLabel(read_u16(r)?));
    }
    Ok(s)
}

/// One persisted class: loop flag, sorted `L≤k` sequence set, sorted
/// pair row — the unit of both the whole-index stream and the
/// chunk-per-record snapshot layout.
pub type ClassRecord = (bool, Vec<LabelSeq>, Vec<Pair>);

fn write_class(
    w: &mut impl Write,
    is_loop: bool,
    seqs: impl ExactSizeIterator<Item = LabelSeq>,
    pairs: impl ExactSizeIterator<Item = Pair>,
) -> std::io::Result<()> {
    w.write_all(&[is_loop as u8])?;
    write_u32(w, seqs.len() as u32)?;
    for s in seqs {
        write_seq(w, &s)?;
    }
    write_u32(w, pairs.len() as u32)?;
    for p in pairs {
        write_u64(w, p.0)?;
    }
    Ok(())
}

/// Most elements a decoder preallocates for on the strength of a count
/// field alone: a hostile count then costs a few KiB, not an abort, and
/// the vector grows only as items actually decode.
const PREALLOC_MAX: usize = 4096;

/// Reads and structurally validates one class body (the per-class layout
/// shared by [`CpqxIndex::load`] and [`CpqxIndex::load_class_chunk`]).
fn read_class<R: Read>(r: &mut Counted<R>, k: usize) -> Result<ClassRecord, LoadError> {
    let class_at = r.offset;
    let is_loop = match read_u8(r)? {
        0 => false,
        1 => true,
        _ => return Err(LoadError::Corrupt { offset: class_at, what: "bad loop flag" }),
    };
    let ns = read_u32(r)? as usize;
    let mut seqs = Vec::with_capacity(ns.min(PREALLOC_MAX));
    for _ in 0..ns {
        let at = r.offset;
        let s = read_seq(r)?;
        if s.is_empty() || s.len() > k {
            return Err(LoadError::Corrupt {
                offset: at,
                what: "class sequence length out of range",
            });
        }
        seqs.push(s);
    }
    if seqs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(LoadError::Corrupt { offset: class_at, what: "class sequences not sorted" });
    }
    let pairs_at = r.offset;
    let np = read_u32(r)? as usize;
    let mut pairs = Vec::with_capacity(np.min(PREALLOC_MAX));
    for _ in 0..np {
        pairs.push(Pair(read_u64(r)?));
    }
    if pairs.windows(2).any(|w| w[0] >= w[1]) {
        return Err(LoadError::Corrupt { offset: pairs_at, what: "class pairs not sorted" });
    }
    if pairs.iter().any(|p| p.is_loop() != is_loop) {
        return Err(LoadError::Corrupt {
            offset: pairs_at,
            what: "pair cyclicity disagrees with class flag",
        });
    }
    Ok((is_loop, seqs, pairs))
}

impl CpqxIndex {
    /// Serializes the index to a writer.
    pub fn save(&self, mut w: impl Write) -> std::io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(&mut w, VERSION)?;
        write_u32(&mut w, self.k as u32)?;
        match &self.interests {
            None => w.write_all(&[0u8])?,
            Some(lq) => {
                w.write_all(&[1u8])?;
                write_u32(&mut w, lq.len() as u32)?;
                for s in lq {
                    write_seq(&mut w, s)?;
                }
            }
        }
        write_u32(&mut w, self.class_slots() as u32)?;
        let all: Vec<usize> = (0..self.class_chunk_count()).collect();
        self.with_chunk_sets(&all, |i, sets| self.write_chunk_classes(i, sets, &mut w))
    }

    /// Serializes the classes of one class chunk (`[count: u32]` then
    /// `count` class bodies in [`CpqxIndex::save`]'s per-class layout) —
    /// the payload of a snapshot's index-chunk record. Chunk `i` covers
    /// classes `i · span .. i · span + len` (see
    /// [`CpqxIndex::class_chunk_span`]). A snapshot writer rewriting many
    /// chunks calls [`CpqxIndex::save_class_chunks`] instead.
    pub fn save_class_chunk(&self, i: usize, mut w: impl Write) -> std::io::Result<()> {
        self.save_class_chunks(&[i], |_, record| w.write_all(record))
    }

    /// [`CpqxIndex::save_class_chunk`] for each chunk of `chunks`, handing
    /// `write` the chunk and its payload.
    ///
    /// # Panics
    /// If `chunks` is not ascending.
    ///
    /// The sequence sets are read off `Il2c` (see the module docs), for
    /// the requested chunks of up to [`RECORD_WINDOW`] consecutive chunk
    /// positions at a time, so rewriting most chunks costs about one pass
    /// over `Il2c` rather than one per chunk. A class's set never changes
    /// after the class is created, so a chunk still
    /// [`CpqxIndex::class_chunk_shared_with`] an earlier index writes the
    /// same bytes as it did there — what incremental snapshots rely on.
    pub fn save_class_chunks(
        &self,
        chunks: &[usize],
        mut write: impl FnMut(usize, &[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut record = Vec::new();
        self.with_chunk_sets(chunks, |i, sets| {
            record.clear();
            write_u32(&mut record, self.class_chunk_len(i) as u32)?;
            self.write_chunk_classes(i, sets, &mut record)?;
            write(i, &record)
        })
    }

    /// Calls `f` for each chunk of `chunks` (ascending) with the sequence
    /// sets of a class range covering it, transposed out of `Il2c` once
    /// per window of [`RECORD_WINDOW`] chunk positions — from the window's
    /// first requested chunk to its last.
    fn with_chunk_sets(
        &self,
        chunks: &[usize],
        mut f: impl FnMut(usize, &SeqSets) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        assert!(chunks.is_sorted(), "class chunks must be requested in ascending order");
        let order = self.seq_order();
        let span = Self::class_chunk_span();
        for window in chunks.chunk_by(|a, b| a / RECORD_WINDOW == b / RECORD_WINDOW) {
            let (head, tail) = (window[0], window[window.len() - 1]);
            let first = (head * span) as ClassId;
            let end = (tail * span + self.class_chunk_len(tail)) as ClassId;
            let sets = self.class_seq_sets(&order, first..end);
            for &i in window {
                f(i, &sets)?;
            }
        }
        Ok(())
    }

    /// Writes the class bodies of class chunk `i`, given the sequence sets
    /// of a class range covering it.
    fn write_chunk_classes(
        &self,
        i: usize,
        sets: &SeqSets,
        w: &mut impl Write,
    ) -> std::io::Result<()> {
        let first = (i * Self::class_chunk_span()) as ClassId;
        for c in first..first + self.class_chunk_len(i) as ClassId {
            let seqs = sets.get(c).iter().map(|&id| self.seqs.seq(id));
            write_class(w, self.class_is_loop(c), seqs, self.class_pairs(c))?;
        }
        Ok(())
    }

    /// Decodes one chunk written by [`CpqxIndex::save_class_chunk`],
    /// validating each class body structurally. Offsets in errors are
    /// relative to the chunk payload; callers add the record's file
    /// position.
    pub fn load_class_chunk(k: usize, r: impl Read) -> Result<Vec<ClassRecord>, LoadError> {
        let mut r = Counted::new(r);
        let at = r.offset;
        let n = read_u32(&mut r)? as usize;
        if n > Self::class_chunk_span() {
            return Err(LoadError::Corrupt { offset: at, what: "class chunk over-full" });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read_class(&mut r, k)?);
        }
        Ok(out)
    }

    /// Reassembles an index from per-chunk class records (the inverse of
    /// [`CpqxIndex::save_class_chunk`] over all chunks), rebuilding the
    /// derived structures query evaluation reads (the sequence dictionary,
    /// `Il2c` with its cyclic sets) — the one reassembly routine
    /// behind both [`CpqxIndex::load`] and the store's chunk records. The
    /// pair → class map is left to the first write
    /// ([`CpqxIndex::build_pair_map`]); a pair recorded in two classes is
    /// still rejected, found by one sort of all the records' pairs. The
    /// formats store only the Def. 4.3 structures, so the result starts a
    /// new fragmentation epoch: the restored class count is the baseline.
    ///
    /// `Il2c` lists a class under every sequence of its record. A sequence
    /// that is not indexed *now* ([`CpqxIndex::is_indexed`]) — a deleted
    /// interest classes still carry (see `delete_interest`) — gets a
    /// retained entry, as on the live index: no lookup key, on the live
    /// index or a reloaded one.
    ///
    /// Every chunk but the last must hold exactly
    /// [`CpqxIndex::class_chunk_span`] classes, so the rebuilt chunk
    /// boundaries bit-match the persisted index and incremental
    /// snapshotting stays positionally aligned across restarts.
    pub fn from_class_records(
        k: usize,
        interests: Option<BTreeSet<LabelSeq>>,
        chunks: Vec<Vec<ClassRecord>>,
    ) -> Result<Self, &'static str> {
        if k == 0 || k > cpqx_graph::MAX_SEQ_LEN {
            return Err("k out of range");
        }
        let span = Self::class_chunk_span();
        for (i, ch) in chunks.iter().enumerate() {
            let full = i + 1 < chunks.len();
            if full && ch.len() != span {
                return Err("non-terminal class chunk not full");
            }
            if !full && (ch.is_empty() || ch.len() > span) {
                return Err("terminal class chunk empty or over-full");
            }
        }
        let nc: usize = chunks.iter().map(Vec::len).sum();
        let mut idx = CpqxIndex {
            k,
            interests,
            seqs: Default::default(),
            il2c: Vec::new(),
            classes: Vec::new(),
            class_count: 0,
            p2c: None,
            pair_count: 0,
            frag: crate::index::FragCounters { baseline_classes: nc, ..Default::default() },
        };
        let mut all_pairs = Vec::with_capacity(chunks.iter().flatten().map(|r| r.2.len()).sum());
        // The dictionary numbers sequences by first occurrence along the
        // classes, as a fresh build does; each gets an entry, laid out by
        // the build's `PostingsBuilder`.
        let mut dict = SeqDict::default();
        let mut postings = PostingsBuilder::default();
        for records in chunks {
            // Each chunk is laid out at its exact size, like a fresh build's,
            // and its rows are packed once, from their run in `all_pairs`.
            let rows_from = all_pairs.len();
            let pairs = records.iter().map(|r| r.2.len()).sum();
            let largest_set = records.iter().map(|r| r.1.len()).max().unwrap_or(0);
            let mut chunk = ClassChunk::with_capacity(records.len(), pairs, largest_set);
            for (is_loop, seqs, pairs) in records {
                let c = (idx.class_count + chunk.len()) as ClassId;
                if pairs.iter().any(|p| p.is_loop() != is_loop) {
                    return Err("pair cyclicity disagrees with class flag");
                }
                all_pairs.extend_from_slice(&pairs);
                if seqs.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("class sequences not sorted");
                }
                for &s in &seqs {
                    postings.list(dict.intern(s) as usize, c, is_loop);
                }
                chunk.push(is_loop, seqs.len(), pairs.len());
            }
            chunk.set_rows(&all_pairs[rows_from..]);
            idx.class_count += chunk.len();
            idx.classes.push(Arc::new(chunk));
        }
        // The rows must be disjoint: sorted, no pair may follow itself.
        sort_pairs(&mut all_pairs);
        if all_pairs.windows(2).any(|w| w[0] == w[1]) {
            return Err("pair assigned to two classes");
        }
        idx.pair_count = all_pairs.len();
        idx.seqs = Arc::new(dict);
        idx.il2c = postings.finish();
        Ok(idx)
    }

    /// Loads an index written by [`CpqxIndex::save`], reconstructing
    /// `Il2c`; the pair→class map waits for the first write (see
    /// [`CpqxIndex::from_class_records`]).
    pub fn load(r: impl Read) -> Result<Self, LoadError> {
        let mut r = Counted::new(r);
        let mut magic = [0u8; 4];
        r.fill(&mut magic)?;
        if &magic != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(LoadError::BadVersion { found: version, expected: VERSION });
        }
        let at = r.offset;
        let k = read_u32(&mut r)? as usize;
        if k == 0 || k > cpqx_graph::MAX_SEQ_LEN {
            return Err(LoadError::Corrupt { offset: at, what: "k out of range" });
        }
        let mode_at = r.offset;
        let interests = match read_u8(&mut r)? {
            0 => None,
            1 => {
                let n = read_u32(&mut r)? as usize;
                let mut lq = BTreeSet::new();
                for _ in 0..n {
                    lq.insert(read_seq(&mut r)?);
                }
                Some(lq)
            }
            _ => return Err(LoadError::Corrupt { offset: mode_at, what: "bad mode byte" }),
        };
        // The class section regroups into the chunk records the store
        // persists one by one, so a single reassembly routine
        // ([`CpqxIndex::from_class_records`]) serves both layouts.
        let classes_at = r.offset;
        let nc = read_u32(&mut r)? as usize;
        let span = Self::class_chunk_span();
        let mut chunks = Vec::new();
        let mut chunk = Vec::new();
        for _ in 0..nc {
            chunk.push(read_class(&mut r, k)?);
            if chunk.len() == span {
                chunks.push(std::mem::take(&mut chunk));
            }
        }
        if !chunk.is_empty() {
            chunks.push(chunk);
        }
        Self::from_class_records(k, interests, chunks)
            .map_err(|what| LoadError::Corrupt { offset: classes_at, what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    fn roundtrip(idx: &CpqxIndex) -> CpqxIndex {
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        CpqxIndex::load(std::io::Cursor::new(&buf)).unwrap()
    }

    #[test]
    fn full_index_roundtrip() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let loaded = roundtrip(&idx);
        assert_eq!(loaded.k(), idx.k());
        assert_eq!(loaded.pair_count(), idx.pair_count());
        assert_eq!(loaded.class_slots(), idx.class_slots());
        for text in ["(f . f) & f^-1", "f . v", "(v . v^-1) & id"] {
            let q = parse_cpq(text, &g).unwrap();
            assert_eq!(loaded.evaluate(&g, &q), idx.evaluate(&g, &q), "{text}");
        }
    }

    #[test]
    fn interest_aware_roundtrip_keeps_mode() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let seq = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let idx = CpqxIndex::build_interest_aware(&g, 2, [seq]);
        let loaded = roundtrip(&idx);
        assert!(loaded.is_interest_aware());
        assert!(loaded.is_indexed(&seq));
        assert_eq!(loaded.interests(), idx.interests());
        let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
        assert_eq!(loaded.evaluate(&g, &q), eval_reference(&g, &q));
    }

    #[test]
    fn loaded_index_is_maintainable() {
        let mut g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut loaded = roundtrip(&idx);
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        let f = g.label_named("f").unwrap();
        loaded.delete_edge(&mut g, sue, joe, f);
        let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
        assert_eq!(loaded.evaluate(&g, &q), eval_reference(&g, &q));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = CpqxIndex::load(std::io::Cursor::new(b"NOPE....")).unwrap_err();
        assert!(matches!(err, LoadError::BadMagic));
    }

    /// Disassembles through the chunk-granular surface and reassembles.
    fn chunk_roundtrip(idx: &CpqxIndex) -> CpqxIndex {
        let chunks: Vec<_> = (0..idx.class_chunk_count())
            .map(|i| {
                let mut buf = Vec::new();
                idx.save_class_chunk(i, &mut buf).unwrap();
                CpqxIndex::load_class_chunk(idx.k(), std::io::Cursor::new(&buf)).unwrap()
            })
            .collect();
        CpqxIndex::from_class_records(idx.k(), idx.interests().cloned(), chunks).unwrap()
    }

    #[test]
    fn class_chunk_roundtrip_matches_whole_stream() {
        let g = generate::gex();
        for idx in [
            CpqxIndex::build(&g, 2),
            CpqxIndex::build_interest_aware(
                &g,
                2,
                [LabelSeq::from_slice(&[
                    g.label_named("f").unwrap().fwd(),
                    g.label_named("f").unwrap().fwd(),
                ])],
            ),
        ] {
            let rebuilt = chunk_roundtrip(&idx);
            assert_eq!(rebuilt.k(), idx.k());
            assert_eq!(rebuilt.pair_count(), idx.pair_count());
            assert_eq!(rebuilt.class_slots(), idx.class_slots());
            assert_eq!(rebuilt.class_chunk_count(), idx.class_chunk_count());
            assert_eq!(rebuilt.interests(), idx.interests());
            for c in 0..idx.class_slots() as u32 {
                assert!(rebuilt.class_pairs(c).eq(idx.class_pairs(c)));
                assert!(rebuilt.class_sequences(c).eq(idx.class_sequences(c)));
                assert_eq!(rebuilt.class_is_loop(c), idx.class_is_loop(c));
            }
            for text in ["(f . f) & f^-1", "f . v"] {
                let q = parse_cpq(text, &g).unwrap();
                assert_eq!(rebuilt.evaluate(&g, &q), idx.evaluate(&g, &q), "{text}");
            }
        }
    }

    #[test]
    fn class_chunk_loader_rejects_corruption() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut buf = Vec::new();
        idx.save_class_chunk(0, &mut buf).unwrap();
        // Truncations never panic and report positions inside the payload.
        for cut in [0, 2, buf.len() / 2, buf.len() - 1] {
            let err =
                CpqxIndex::load_class_chunk(2, std::io::Cursor::new(&buf[..cut])).unwrap_err();
            match err {
                LoadError::Truncated { offset } | LoadError::Corrupt { offset, .. } => {
                    assert!(offset <= cut as u64)
                }
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // A pair assigned to two classes is caught on reassembly.
        let records = CpqxIndex::load_class_chunk(2, std::io::Cursor::new(&buf)).unwrap();
        let dup = records.iter().find(|r| !r.2.is_empty()).unwrap().clone();
        let mut chunks = vec![records];
        chunks[0].push(dup);
        assert!(chunks[0].len() <= CpqxIndex::class_chunk_span(), "gex stays in one chunk");
        assert_eq!(
            CpqxIndex::from_class_records(2, None, chunks).err(),
            Some("pair assigned to two classes")
        );
    }

    #[test]
    fn truncation_reported_with_offset() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        for cut in [3usize, 9, 16, buf.len() / 2, buf.len() - 1] {
            let err = CpqxIndex::load(std::io::Cursor::new(&buf[..cut])).unwrap_err();
            // A hand-truncated stream must be diagnosed as truncation at a
            // plausible offset — not as a panic or a generic I/O error.
            // (Very short cuts may also surface as a corrupt count field.)
            match err {
                LoadError::Truncated { offset } => {
                    assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
                }
                LoadError::Corrupt { offset, .. } => {
                    assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
                }
                other => panic!("truncation at {cut} reported as {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_counts_error_instead_of_allocating() {
        // A count field of u32::MAX used to size a `Vec::with_capacity`
        // directly and abort the process; it must fail like any other
        // damage, through both entry points and for both count fields.
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut whole = Vec::new();
        idx.save(&mut whole).unwrap();
        let mut chunk = Vec::new();
        idx.save_class_chunk(0, &mut chunk).unwrap();
        // Class 0's sequence count follows the 17-byte stream header (or
        // the chunk's 4-byte class count) and the loop flag; its pair
        // count follows the sequence list.
        let seq_bytes: usize = idx.class_sequences(0).map(|s| 1 + 2 * s.len()).sum();
        type Load = fn(&[u8]) -> Option<LoadError>;
        let entry_points: [(&[u8], usize, Load); 2] = [
            (&whole, 18, |b| CpqxIndex::load(b).err()),
            (&chunk, 5, |b| CpqxIndex::load_class_chunk(2, b).err()),
        ];
        for (buf, seq_count_at, load) in entry_points {
            for count_at in [seq_count_at, seq_count_at + 4 + seq_bytes] {
                let mut hostile = buf.to_vec();
                hostile[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let err = load(&hostile).expect("a hostile count must not load");
                assert!(
                    matches!(err, LoadError::Truncated { .. } | LoadError::Corrupt { .. }),
                    "count at byte {count_at} reported as {err:?}"
                );
            }
        }
    }

    #[test]
    fn bitflip_in_pair_detected_or_benign() {
        // Flipping a pair byte either corrupts sortedness/cyclicity (error)
        // or produces a structurally valid different index — never a panic.
        // When it errors, the reported offset must lie within the file.
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        for i in (buf.len().saturating_sub(64)..buf.len()).step_by(7) {
            let mut corrupted = buf.clone();
            corrupted[i] ^= 0xFF;
            match CpqxIndex::load(std::io::Cursor::new(&corrupted)) {
                Ok(_) => {}
                Err(LoadError::Corrupt { offset, .. }) | Err(LoadError::Truncated { offset }) => {
                    assert!(offset <= buf.len() as u64, "offset {offset} out of file")
                }
                Err(other) => panic!("flip at {i} reported as {other:?}"),
            }
        }
    }

    #[test]
    fn bitflip_in_header_reports_field() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        // k lives at bytes 8..12; zeroing it must name that offset.
        let mut corrupted = buf.clone();
        corrupted[8..12].copy_from_slice(&[0; 4]);
        let err = CpqxIndex::load(std::io::Cursor::new(&corrupted)).unwrap_err();
        assert!(
            matches!(err, LoadError::Corrupt { offset: 8, what: "k out of range" }),
            "got {err:?}"
        );
        // The mode byte follows k; an invalid one names its own offset.
        let mut corrupted = buf.clone();
        corrupted[12] = 7;
        let err = CpqxIndex::load(std::io::Cursor::new(&corrupted)).unwrap_err();
        assert!(matches!(err, LoadError::Corrupt { offset: 12, what: "bad mode byte" }));
    }

    #[test]
    fn version_mismatch_reported() {
        let g = generate::gex();
        let idx = CpqxIndex::build(&g, 2);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        buf[4] = 0xFF; // mangle version
        let err = CpqxIndex::load(std::io::Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, LoadError::BadVersion { found: 0xFF, expected: 1 }), "got {err:?}");
    }

    #[test]
    fn error_display_carries_detail() {
        let e = LoadError::Checksum { offset: 96, expected: 0xDEAD_BEEF, actual: 0x0BAD_F00D };
        let s = e.to_string();
        assert!(s.contains("96") && s.contains("0xdeadbeef") && s.contains("0x0badf00d"), "{s}");
        let e = LoadError::Truncated { offset: 7 };
        assert!(e.to_string().contains("byte 7"));
    }
}
