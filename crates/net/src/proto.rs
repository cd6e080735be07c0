//! The cpqx wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian payload
//! length followed by the payload. The first payload byte is the opcode;
//! the rest is the opcode's body, encoded with the primitives below
//! (big-endian integers, `u32`-length-prefixed UTF-8 strings, and
//! counted lists: a `u8`, `u16` or `u32` count, then that many items). A connection starts with a handshake —
//! the client sends [`Request::Hello`] carrying the [`MAGIC`] bytes and
//! its protocol version, the server answers [`Response::HelloAck`] or an
//! [`ErrorCode::UnsupportedVersion`] error frame — after which requests
//! may be pipelined: the server answers frames strictly in arrival order,
//! so a client may write several requests before reading any response.
//!
//! Queries travel as CPQ *text* (the [`cpqx_query::parse_cpq`] syntax)
//! and are resolved against the label table of the snapshot that serves
//! them; answers travel as packed [`Pair`] words plus the epoch of the
//! snapshot they were evaluated on, so a client can correlate every
//! answer with one graph version even while the server applies
//! maintenance. Malformed queries come back as typed error frames
//! ([`ErrorCode::Parse`] / [`ErrorCode::UnknownLabel`]) carrying the byte
//! position reported by the parser.
//!
//! Codec functions ([`encode_request`]/[`decode_request`],
//! [`encode_response`]/[`decode_response`]) are pure byte-slice
//! transformations; [`read_frame`]/[`write_frame`] do the I/O. Decoding
//! never panics on adversarial input — every failure is a typed
//! [`DecodeError`]. Every counted list is written by one list writer and
//! read by one list reader, which refuses a count its payload cannot
//! hold before allocating and caps what it reserves up front. Frames
//! above the caller's size bound are rejected before any allocation
//! ([`FrameError::TooLarge`]), by the one header rule [`read_frame`] and
//! [`FrameAssembler`] share.
//!
//! See `PROTOCOL.md` at the repository root for the normative frame
//! layout tables.

use cpqx_graph::Pair;
use cpqx_obs::{HistogramSnapshot, Op as ObsOp, Span, Stage, Trace, TraceKind};
use cpqx_query::{ParseError, ParseErrorKind};
use std::borrow::Borrow;
use std::io::{self, Read, Write};

/// Handshake magic carried by the HELLO frame (`b"CPQX"`).
pub const MAGIC: [u8; 4] = *b"CPQX";

/// The protocol version this build speaks. The handshake requires an
/// exact match (pre-release protocol: no cross-version compatibility
/// promise). Version 7 retired the UPDATE (`0x05`) and STATS (`0x06`)
/// opcodes: DELTA is the only write frame, and METRICS carries every
/// engine and front-end counter as one named list. `PROTOCOL.md` keeps
/// the full version history.
pub const PROTOCOL_VERSION: u16 = 7;

/// Default bound on accepted payload sizes (16 MiB). Servers apply it to
/// requests, clients to responses; both sides make it configurable.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

// Request opcodes (client → server).
const OP_HELLO: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
// 0x05 (UPDATE) and 0x06 (STATS) were retired in protocol 7 and stay
// unassigned: a v7 server answers them with an UNKNOWN_OPCODE error.
const OP_DELTA: u8 = 0x07;
const OP_METRICS: u8 = 0x08;

// Response opcodes (server → client): request opcode | 0x80.
const OP_HELLO_ACK: u8 = 0x81;
const OP_PONG: u8 = 0x82;
const OP_RESULT: u8 = 0x83;
const OP_BATCH_RESULT: u8 = 0x84;
const OP_DELTA_ACK: u8 = 0x87;
const OP_METRICS_RESULT: u8 = 0x88;
const OP_ERROR: u8 = 0xFF;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Handshake opener: magic + the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Evaluate one CPQ, given in the text syntax of
    /// [`cpqx_query::parse_cpq`].
    Query(String),
    /// Evaluate several CPQs against one consistent snapshot.
    Batch(Vec<String>),
    /// Apply an atomic typed delta transaction — the only write frame:
    /// every op lands in one engine write transaction, acknowledged with
    /// per-op outcomes by [`Response::DeltaAck`]. While a connection has
    /// a DELTA in flight the server dispatches nothing further from it,
    /// so pipelined frames take effect in arrival order.
    Delta(Vec<WireOp>),
    /// Fetch the server's observability report: every engine and
    /// front-end counter, per-opcode and per-stage latency histograms,
    /// the slow-query ring, and observed-workload key counts.
    Metrics,
}

/// One typed maintenance op inside a [`Request::Delta`] frame. Labels
/// travel as names and are resolved against the snapshot current when
/// the server applies the transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Insert the base edge `(src, dst, label)`.
    InsertEdge {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Base label name.
        label: String,
    },
    /// Delete the base edge `(src, dst, label)`.
    DeleteEdge {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Base label name.
        label: String,
    },
    /// Relabel the base edge `(src, dst, from)` to `to`.
    ChangeEdgeLabel {
        /// Source vertex id.
        src: u32,
        /// Target vertex id.
        dst: u32,
        /// Current base label name.
        from: String,
        /// New base label name.
        to: String,
    },
    /// Add an isolated vertex; its id comes back as
    /// [`WireOutcome::VertexAdded`] and later ops of the same delta may
    /// reference it.
    ///
    /// The wire has no symbolic reference for a not-yet-allocated id,
    /// so a later op can only name it by *predicting* the id (the
    /// vertex count at apply time). That prediction is reliable only
    /// for a sole writer: under concurrent writers another delta may
    /// allocate the predicted id first, silently wiring your edges to
    /// *its* vertex. Multi-writer clients must treat the id in the ack
    /// as authoritative and send dependent edges in a follow-up delta.
    AddVertex {
        /// Display name of the new vertex.
        name: String,
    },
    /// Remove all edges incident to a vertex (the id stays allocated).
    DeleteVertex {
        /// The vertex id.
        vertex: u32,
    },
    /// iaCPQx only: register an interest label sequence.
    InsertInterest {
        /// The sequence, one direction-aware label per step.
        seq: Vec<WireSeqLabel>,
    },
    /// iaCPQx only: drop an interest label sequence.
    DeleteInterest {
        /// The sequence, one direction-aware label per step.
        seq: Vec<WireSeqLabel>,
    },
}

/// One step of a wire-encoded interest sequence: a base label name plus
/// a traversal direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSeqLabel {
    /// `true` for the inverse direction (`ℓ⁻¹`).
    pub inverse: bool,
    /// Base label name.
    pub label: String,
}

/// What one op of an acknowledged delta did (see
/// `cpqx_engine::OpOutcome`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The op changed the graph/index.
    Applied,
    /// The op was valid but changed nothing.
    Noop,
    /// An `AddVertex` op allocated this vertex id.
    VertexAdded(u32),
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted at the given version.
    HelloAck {
        /// The version the connection will speak.
        version: u16,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    Result {
        /// Epoch of the snapshot the query was evaluated on.
        epoch: u64,
        /// The sorted, deduplicated answer set.
        pairs: Vec<Pair>,
    },
    /// Answer to [`Request::Batch`]: per-query answers in request order,
    /// all evaluated on one snapshot.
    BatchResult {
        /// Epoch of the snapshot every answer reflects.
        epoch: u64,
        /// Per-query answer sets, in request order.
        results: Vec<Vec<Pair>>,
    },
    /// Answer to [`Request::Delta`]: the transaction committed as one
    /// snapshot install (or changed nothing), with per-op outcomes in op
    /// order. Rejected deltas come back as [`ErrorCode::BadUpdate`]
    /// error frames instead, naming the offending op.
    DeltaAck {
        /// The engine epoch whose snapshot reflects the whole
        /// transaction.
        epoch: u64,
        /// Whether the fragmentation threshold triggered a defragmenting
        /// rebuild inside this transaction.
        rebuilt: bool,
        /// Per-op outcomes, in op order.
        outcomes: Vec<WireOutcome>,
    },
    /// Answer to [`Request::Metrics`] (boxed — the histograms and
    /// slow-query ring dominate every other response's size).
    Metrics(Box<WireMetrics>),
    /// Any request can fail with a typed error frame.
    Error(WireError),
}

/// Typed failure classes carried by error frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake version (or magic) not accepted.
    UnsupportedVersion,
    /// The frame payload did not decode as a known message.
    BadFrame,
    /// The opcode byte is not assigned.
    UnknownOpcode,
    /// The query text is not a well-formed CPQ.
    Parse,
    /// The query is well-formed but names a label the graph lacks.
    UnknownLabel,
    /// The update names an unknown label or an out-of-range vertex.
    BadUpdate,
    /// The server failed internally.
    Internal,
    /// The server is at its connection capacity (protocol ≥ 6): sent
    /// best-effort before an over-capacity connection is closed, so
    /// clients can tell overload from a crashed server.
    Busy,
    /// The connection timed out mid-frame (protocol ≥ 6): the stream is
    /// desynchronized and the server drops it after this final frame. An
    /// *idle* timeout — no partial frame buffered — closes cleanly
    /// without an error frame.
    Timeout,
}

/// Every [`ErrorCode`] in wire order: a code travels as its index + 1.
const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::UnsupportedVersion,
    ErrorCode::BadFrame,
    ErrorCode::UnknownOpcode,
    ErrorCode::Parse,
    ErrorCode::UnknownLabel,
    ErrorCode::BadUpdate,
    ErrorCode::Internal,
    ErrorCode::Busy,
    ErrorCode::Timeout,
];

impl ErrorCode {
    fn to_u8(self) -> u8 {
        ERROR_CODES.iter().position(|&c| c == self).map_or(0, |i| i as u8 + 1)
    }

    fn from_u8(b: u8) -> Result<Self, DecodeError> {
        ERROR_CODES
            .get(usize::from(b).wrapping_sub(1))
            .copied()
            .ok_or(DecodeError::BadValue("error code"))
    }
}

/// An error frame: code, optional byte position (for parse errors) and a
/// human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What class of failure this is.
    pub code: ErrorCode,
    /// Byte offset into the offending query text, when meaningful.
    pub position: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Convenience constructor for position-less errors.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError { code, position: None, message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.position {
            Some(p) => write!(f, "{:?} at byte {}: {}", self.code, p, self.message),
            None => write!(f, "{:?}: {}", self.code, self.message),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError {
            code: match e.kind {
                ParseErrorKind::Syntax => ErrorCode::Parse,
                ParseErrorKind::UnknownLabel => ErrorCode::UnknownLabel,
            },
            position: Some(e.position.min(u32::MAX as usize) as u32),
            message: e.message,
        }
    }
}

/// The observability report the METRICS frame carries: every engine
/// and front-end counter as one named list, per-opcode and per-stage
/// latency histograms in the sparse log-bucketed form of
/// [`HistogramSnapshot`], the slow-query ring, and the canonical-key
/// workload counts that feed index advisor tooling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Current engine epoch.
    pub epoch: u64,
    /// Per-opcode latency histograms, tag order; histograms with no
    /// samples are omitted.
    pub ops: Vec<(ObsOp, HistogramSnapshot)>,
    /// Per-stage latency histograms, tag order; histograms with no
    /// samples are omitted.
    pub stages: Vec<(Stage, HistogramSnapshot)>,
    /// Every engine counter and gauge
    /// ([`cpqx_engine::StatsReport::counters`]) followed by every
    /// front-end one ([`crate::NetStats::counters`]), as `(name, value)`.
    /// Names ending in `_total` only ever grow; the rest are gauges. The
    /// codec carries the list opaquely, so a new counter needs no
    /// protocol change.
    pub counters: Vec<(String, u64)>,
    /// Slow-query ring contents, oldest first.
    pub slow: Vec<Trace>,
    /// Slow queries observed in total (entries evicted from the ring
    /// included).
    pub slow_total: u64,
    /// Canonical-key workload counts, most frequent first.
    pub workload: Vec<(String, u64)>,
    /// Distinct canonical keys not counted because the workload table
    /// was full.
    pub workload_dropped: u64,
}

impl WireMetrics {
    /// The value reported under `name` (`None` if the server does not
    /// export that counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The latency histogram recorded for `op` (`None` if no traffic
    /// landed under that opcode).
    pub fn op_histogram(&self, op: ObsOp) -> Option<&HistogramSnapshot> {
        self.ops.iter().find(|(o, _)| *o == op).map(|(_, h)| h)
    }

    /// The latency histogram recorded for `stage` (`None` if the stage
    /// never ran).
    pub fn stage_histogram(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages.iter().find(|(s, _)| *s == stage).map(|(_, h)| h)
    }
}

/// Why a payload failed to decode. Strictly recoverable: the frame
/// boundary is intact, so a server can answer with an error frame and
/// keep the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message ended.
    Trailing,
    /// The opcode byte is not assigned.
    UnknownOpcode(u8),
    /// A HELLO frame without the [`MAGIC`] bytes.
    BadMagic,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field held an out-of-domain value (context in the payload).
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::Trailing => write!(f, "trailing bytes after message"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadMagic => write!(f, "bad handshake magic"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::BadValue(what) => write!(f, "out-of-domain value for {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        let code = match e {
            DecodeError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            DecodeError::BadMagic => ErrorCode::UnsupportedVersion,
            _ => ErrorCode::BadFrame,
        };
        WireError::new(code, e.to_string())
    }
}

// ---------------------------------------------------------------- codec --

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The width of a list's count on the wire, in bytes.
#[derive(Clone, Copy)]
enum Width {
    U8 = 1,
    U16 = 2,
    U32 = 4,
}

/// Writes a list's count at `width`: `len`, clamped to the most the width
/// holds. Returns the count written, which is how many items follow.
fn put_count(out: &mut Vec<u8>, width: Width, len: usize) -> usize {
    let bytes = width as usize;
    let n = len.min((u32::MAX >> (32 - 8 * bytes)) as usize);
    out.extend_from_slice(&(n as u32).to_be_bytes()[4 - bytes..]);
    n
}

/// A counted list: the count at `width`, then exactly that many items,
/// each written by `put_item`.
fn put_list<T>(
    out: &mut Vec<u8>,
    width: Width,
    items: &[T],
    mut put_item: impl FnMut(&mut Vec<u8>, &T),
) {
    let n = put_count(out, width, items.len());
    for item in &items[..n] {
        put_item(out, item);
    }
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[Pair]) {
    out.reserve(4 + 8 * pairs.len());
    let n = put_count(out, Width::U32, pairs.len());
    // One resize, then a fixed-stride byte swap the compiler vectorizes.
    let start = out.len();
    out.resize(start + 8 * n, 0);
    for (word, p) in out[start..].chunks_exact_mut(8).zip(pairs) {
        word.copy_from_slice(&p.0.to_be_bytes());
    }
}

/// The most items a list reader reserves up front. A count that fits the
/// payload can still promise far more memory than its bytes (a 2-byte
/// DELTA op decodes to a whole `WireOp`), so a longer list grows as it
/// decodes.
const LIST_PREALLOC: usize = 1024;

/// Bounds-checked big-endian reader over a payload slice.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.at..end).ok_or(DecodeError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    /// `take(N)` as a fixed array; the length mismatch arm is
    /// unreachable but still surfaces as `Truncated` rather than a
    /// panic.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| DecodeError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.take_arr()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take_arr()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take_arr()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take_arr()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue("bool")),
        }
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn op(&mut self) -> Result<WireOp, DecodeError> {
        Ok(match self.u8()? {
            OPTAG_INSERT_EDGE => {
                WireOp::InsertEdge { src: self.u32()?, dst: self.u32()?, label: self.str()? }
            }
            OPTAG_DELETE_EDGE => {
                WireOp::DeleteEdge { src: self.u32()?, dst: self.u32()?, label: self.str()? }
            }
            OPTAG_CHANGE_EDGE_LABEL => WireOp::ChangeEdgeLabel {
                src: self.u32()?,
                dst: self.u32()?,
                from: self.str()?,
                to: self.str()?,
            },
            OPTAG_ADD_VERTEX => WireOp::AddVertex { name: self.str()? },
            OPTAG_DELETE_VERTEX => WireOp::DeleteVertex { vertex: self.u32()? },
            OPTAG_INSERT_INTEREST => WireOp::InsertInterest { seq: self.seq()? },
            OPTAG_DELETE_INTEREST => WireOp::DeleteInterest { seq: self.seq()? },
            _ => return Err(DecodeError::BadValue("delta op tag")),
        })
    }

    fn seq(&mut self) -> Result<Vec<WireSeqLabel>, DecodeError> {
        // Sequences are bounded structurally (they must fit a LabelSeq),
        // so a longer count is refused on its value, before any step.
        let n = self.count(Width::U8, 0)?;
        if n > cpqx_graph::MAX_SEQ_LEN {
            return Err(DecodeError::BadValue("interest sequence length"));
        }
        (0..n).map(|_| Ok(WireSeqLabel { inverse: self.bool()?, label: self.str()? })).collect()
    }

    fn outcome(&mut self) -> Result<WireOutcome, DecodeError> {
        Ok(match self.u8()? {
            0 => WireOutcome::Noop,
            1 => WireOutcome::Applied,
            2 => WireOutcome::VertexAdded(self.u32()?),
            _ => return Err(DecodeError::BadValue("op outcome")),
        })
    }

    /// A list's count at `width`, refused as [`DecodeError::Truncated`]
    /// when that many items of at least `min_item_len` bytes cannot fit in
    /// the rest of the payload, so a hostile count allocates nothing.
    fn count(&mut self, width: Width, min_item_len: usize) -> Result<usize, DecodeError> {
        let n = self.take(width as usize)?.iter().fold(0, |n, &b| n << 8 | usize::from(b));
        if self_inconsistent_count(n, min_item_len, self.remaining()) {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A counted list: its `count`, then that many items, each decoded by
    /// `item`, into a vector that reserves at most `LIST_PREALLOC` up front.
    fn list<T>(
        &mut self,
        width: Width,
        min_item_len: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(width, min_item_len)?;
        let mut items = Vec::with_capacity(n.min(LIST_PREALLOC));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A RESULT's answer: a list of packed pairs, decoded as one block.
    fn pairs(&mut self) -> Result<Vec<Pair>, DecodeError> {
        let n = self.count(Width::U32, 8)?;
        // The count check bounds `8 × n` by the payload, so one `take`
        // covers the block and the conversion is a fixed-stride loop into
        // an exactly sized vector.
        let words = self.take(8 * n)?;
        Ok(words
            .chunks_exact(8)
            .map(|word| {
                let mut be = [0u8; 8];
                be.copy_from_slice(word);
                Pair(u64::from_be_bytes(be))
            })
            .collect())
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn hist(&mut self) -> Result<HistogramSnapshot, DecodeError> {
        let (total, sum, max) = (self.u64()?, self.u64()?, self.u64()?);
        // Each non-zero bucket is (u16 index, u64 count) = 10 bytes.
        let nonzero = self.list(Width::U16, 10, |c| Ok((c.u16()?, c.u64()?)))?;
        // from_parts rejects out-of-range bucket indices and count
        // overflow — both only reachable from hostile payloads.
        HistogramSnapshot::from_parts(total, sum, max, &nonzero)
            .ok_or(DecodeError::BadValue("histogram bucket"))
    }

    fn trace(&mut self) -> Result<Trace, DecodeError> {
        Ok(Trace {
            kind: TraceKind::from_u8(self.u8()?).ok_or(DecodeError::BadValue("trace kind"))?,
            key: self.str()?,
            epoch: self.u64()?,
            total_us: self.u64()?,
            // Each span is (u8 stage, u64 start, u64 dur, u8 depth) = 18 bytes.
            spans: self.list(Width::U16, 18, |c| {
                Ok(Span {
                    stage: Stage::from_u8(c.u8()?).ok_or(DecodeError::BadValue("span stage"))?,
                    start_us: c.u64()?,
                    dur_us: c.u64()?,
                    depth: c.u8()?,
                })
            })?,
        })
    }

    fn metrics(&mut self) -> Result<WireMetrics, DecodeError> {
        // The op and stage lists are u8-counted (their tag spaces bound
        // them), so they skip the length check and a bad tag reports as
        // such even in a short payload.
        Ok(WireMetrics {
            epoch: self.u64()?,
            ops: self.list(Width::U8, 0, |c| {
                let op = ObsOp::from_u8(c.u8()?).ok_or(DecodeError::BadValue("metrics op tag"))?;
                Ok((op, c.hist()?))
            })?,
            stages: self.list(Width::U8, 0, |c| {
                let stage =
                    Stage::from_u8(c.u8()?).ok_or(DecodeError::BadValue("metrics stage tag"))?;
                Ok((stage, c.hist()?))
            })?,
            counters: self.named_counts()?,
            slow_total: self.u64()?,
            // Smallest trace on the wire: tag + empty key + epoch + total +
            // an empty span count.
            slow: self.list(Width::U16, 23, Cur::trace)?,
            workload_dropped: self.u64()?,
            workload: self.named_counts()?,
        })
    }

    /// A `u32`-counted list of `(string, u64)` entries — the layout of
    /// both the METRICS counter list and its workload table.
    fn named_counts(&mut self) -> Result<Vec<(String, u64)>, DecodeError> {
        // Smallest entry: empty string (u32 len) + u64 value.
        self.list(Width::U32, 12, |c| Ok((c.str()?, c.u64()?)))
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.at != self.buf.len() {
            return Err(DecodeError::Trailing);
        }
        Ok(())
    }
}

/// Encodes a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello { version } => {
            out.push(OP_HELLO);
            out.extend_from_slice(&MAGIC);
            put_u16(&mut out, *version);
        }
        Request::Ping => out.push(OP_PING),
        Request::Query(text) => {
            out.push(OP_QUERY);
            put_str(&mut out, text);
        }
        Request::Batch(texts) => {
            out.push(OP_BATCH);
            put_list(&mut out, Width::U32, texts, |out, t| put_str(out, t));
        }
        Request::Delta(ops) => {
            out.push(OP_DELTA);
            put_list(&mut out, Width::U32, ops, put_op);
        }
        Request::Metrics => out.push(OP_METRICS),
    }
    out
}

// Delta op tags (first byte of each op inside a DELTA frame).
const OPTAG_INSERT_EDGE: u8 = 1;
const OPTAG_DELETE_EDGE: u8 = 2;
const OPTAG_CHANGE_EDGE_LABEL: u8 = 3;
const OPTAG_ADD_VERTEX: u8 = 4;
const OPTAG_DELETE_VERTEX: u8 = 5;
const OPTAG_INSERT_INTEREST: u8 = 6;
const OPTAG_DELETE_INTEREST: u8 = 7;

fn put_op(out: &mut Vec<u8>, op: &WireOp) {
    match op {
        WireOp::InsertEdge { src, dst, label } => {
            out.push(OPTAG_INSERT_EDGE);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, label);
        }
        WireOp::DeleteEdge { src, dst, label } => {
            out.push(OPTAG_DELETE_EDGE);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, label);
        }
        WireOp::ChangeEdgeLabel { src, dst, from, to } => {
            out.push(OPTAG_CHANGE_EDGE_LABEL);
            put_u32(out, *src);
            put_u32(out, *dst);
            put_str(out, from);
            put_str(out, to);
        }
        WireOp::AddVertex { name } => {
            out.push(OPTAG_ADD_VERTEX);
            put_str(out, name);
        }
        WireOp::DeleteVertex { vertex } => {
            out.push(OPTAG_DELETE_VERTEX);
            put_u32(out, *vertex);
        }
        WireOp::InsertInterest { seq } => {
            out.push(OPTAG_INSERT_INTEREST);
            put_seq(out, seq);
        }
        WireOp::DeleteInterest { seq } => {
            out.push(OPTAG_DELETE_INTEREST);
            put_seq(out, seq);
        }
    }
}

fn put_seq(out: &mut Vec<u8>, seq: &[WireSeqLabel]) {
    put_list(out, Width::U8, seq, |out, step| {
        out.push(u8::from(step.inverse));
        put_str(out, &step.label);
    });
}

/// Decodes a frame payload into a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut c = Cur::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_HELLO => {
            if c.take(4)? != MAGIC {
                return Err(DecodeError::BadMagic);
            }
            Request::Hello { version: c.u16()? }
        }
        OP_PING => Request::Ping,
        OP_QUERY => Request::Query(c.str()?),
        OP_BATCH => Request::Batch(c.list(Width::U32, 4, Cur::str)?),
        // Smallest op on the wire: tag + an empty interest sequence.
        OP_DELTA => Request::Delta(c.list(Width::U32, 2, Cur::op)?),
        OP_METRICS => Request::Metrics,
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// `n` items of at least `min_item_len` bytes cannot fit in `remaining`.
fn self_inconsistent_count(n: usize, min_item_len: usize, remaining: usize) -> bool {
    n.checked_mul(min_item_len).is_none_or(|need| need > remaining)
}

/// Encodes a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_response(&mut out, resp);
    out
}

/// Builds one complete frame — length prefix and payload — in a single
/// buffer sized for `payload_hint` payload bytes: what the server's
/// producers hand to a connection's write queue.
fn frame(payload_hint: usize, put_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload_hint);
    out.extend_from_slice(&[0; 4]);
    put_payload(&mut out);
    let len = out.len() - 4;
    debug_assert!(len <= u32::MAX as usize);
    out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    out
}

/// `resp` as a complete frame: the bytes [`write_frame`] puts on the wire
/// for [`encode_response`]'s payload.
pub(crate) fn response_frame(resp: &Response) -> Vec<u8> {
    frame(64, |out| put_response(out, resp))
}

/// The RESULT frame of `pairs` at `epoch`, encoded straight from the
/// borrowed answer (no [`Response`] in between).
pub(crate) fn result_frame(epoch: u64, pairs: &[Pair]) -> Vec<u8> {
    frame(1 + 8 + 4 + 8 * pairs.len(), |out| put_result(out, epoch, pairs))
}

/// The BATCH_RESULT frame of `results` at `epoch`, encoded straight from
/// the borrowed answers.
pub(crate) fn batch_result_frame<R: Borrow<Vec<Pair>>>(epoch: u64, results: &[R]) -> Vec<u8> {
    let pairs: usize = results.iter().map(|r| r.borrow().len()).sum();
    frame(1 + 8 + 4 + 4 * results.len() + 8 * pairs, |out| put_batch_result(out, epoch, results))
}

fn put_result(out: &mut Vec<u8>, epoch: u64, pairs: &[Pair]) {
    out.push(OP_RESULT);
    put_u64(out, epoch);
    put_pairs(out, pairs);
}

/// `R` is `Vec<Pair>` (a decoded [`Response`]) or `Arc<Vec<Pair>>` (the
/// engine's shared answers).
fn put_batch_result<R: Borrow<Vec<Pair>>>(out: &mut Vec<u8>, epoch: u64, results: &[R]) {
    out.push(OP_BATCH_RESULT);
    put_u64(out, epoch);
    put_list(out, Width::U32, results, |out, r| put_pairs(out, r.borrow()));
}

fn put_response(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::HelloAck { version } => {
            out.push(OP_HELLO_ACK);
            put_u16(out, *version);
        }
        Response::Pong => out.push(OP_PONG),
        Response::Result { epoch, pairs } => put_result(out, *epoch, pairs),
        Response::BatchResult { epoch, results } => put_batch_result(out, *epoch, results),
        Response::DeltaAck { epoch, rebuilt, outcomes } => {
            out.push(OP_DELTA_ACK);
            put_u64(out, *epoch);
            out.push(u8::from(*rebuilt));
            put_list(out, Width::U32, outcomes, |out, o| match o {
                WireOutcome::Noop => out.push(0),
                WireOutcome::Applied => out.push(1),
                WireOutcome::VertexAdded(v) => {
                    out.push(2);
                    put_u32(out, *v);
                }
            });
        }
        Response::Metrics(m) => {
            out.push(OP_METRICS_RESULT);
            put_metrics(out, m);
        }
        Response::Error(e) => {
            out.push(OP_ERROR);
            out.push(e.code.to_u8());
            put_u32(out, e.position.unwrap_or(u32::MAX));
            put_str(out, &e.message);
        }
    }
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(out, h.count());
    put_u64(out, h.sum());
    put_u64(out, h.max());
    // Sparse bucket form: histograms have cpqx_obs::BUCKETS (< u16::MAX)
    // buckets total, so the non-zero count always fits a u16.
    let nonzero: Vec<(u16, u64)> = h.nonzero().collect();
    put_list(out, Width::U16, &nonzero, |out, &(index, count)| {
        put_u16(out, index);
        put_u64(out, count);
    });
}

fn put_trace(out: &mut Vec<u8>, t: &Trace) {
    out.push(t.kind as u8);
    put_str(out, &t.key);
    put_u64(out, t.epoch);
    put_u64(out, t.total_us);
    put_list(out, Width::U16, &t.spans, |out, s| {
        out.push(s.stage as u8);
        put_u64(out, s.start_us);
        put_u64(out, s.dur_us);
        out.push(s.depth);
    });
}

fn put_metrics(out: &mut Vec<u8>, m: &WireMetrics) {
    put_u64(out, m.epoch);
    // Op/stage lists are bounded by their tag spaces (≤ OP_COUNT /
    // STAGE_COUNT entries), so a u8 count suffices.
    put_list(out, Width::U8, &m.ops, |out, (op, h)| {
        out.push(*op as u8);
        put_hist(out, h);
    });
    put_list(out, Width::U8, &m.stages, |out, (stage, h)| {
        out.push(*stage as u8);
        put_hist(out, h);
    });
    put_named_counts(out, &m.counters);
    put_u64(out, m.slow_total);
    put_list(out, Width::U16, &m.slow, put_trace);
    put_u64(out, m.workload_dropped);
    put_named_counts(out, &m.workload);
}

fn put_named_counts(out: &mut Vec<u8>, entries: &[(String, u64)]) {
    put_list(out, Width::U32, entries, |out, (name, value)| {
        put_str(out, name);
        put_u64(out, *value);
    });
}

/// Decodes a frame payload into a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut c = Cur::new(payload);
    let op = c.u8()?;
    let resp = match op {
        OP_HELLO_ACK => Response::HelloAck { version: c.u16()? },
        OP_PONG => Response::Pong,
        OP_RESULT => Response::Result { epoch: c.u64()?, pairs: c.pairs()? },
        OP_BATCH_RESULT => {
            Response::BatchResult { epoch: c.u64()?, results: c.list(Width::U32, 4, Cur::pairs)? }
        }
        OP_DELTA_ACK => Response::DeltaAck {
            epoch: c.u64()?,
            rebuilt: c.bool()?,
            outcomes: c.list(Width::U32, 1, Cur::outcome)?,
        },
        OP_METRICS_RESULT => Response::Metrics(Box::new(c.metrics()?)),
        OP_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?)?;
            let position = match c.u32()? {
                u32::MAX => None,
                p => Some(p),
            };
            Response::Error(WireError { code, position, message: c.str()? })
        }
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(resp)
}

// ------------------------------------------------------------- frame I/O --

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The announced payload length exceeds the caller's bound. The
    /// stream is no longer synchronized; the connection must be dropped.
    TooLarge {
        /// The announced length.
        len: usize,
        /// The caller's bound.
        max: usize,
    },
    /// The connection failed mid-frame (including read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= u32::MAX as usize);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload, enforcing `max_len`. A clean peer close
/// *before the first header byte* is [`FrameError::Closed`]; EOF anywhere
/// later is an [`FrameError::Io`] of kind `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let got = match r.read(&mut header)? {
        0 => return Err(FrameError::Closed),
        n => n,
    };
    // `got` is 1..=4, so the tail slice always exists; `get_mut` keeps
    // this decode path free of panic-capable indexing regardless.
    if let Some(rest) = header.get_mut(got..) {
        r.read_exact(rest)?;
    }
    let len = payload_len(header, max_len)?;
    // Read into spare capacity instead of zero-filling `len` bytes first.
    // `payload_len` bounds `len` by `max_len` (the `min` restates it for
    // the cpqx-analyze allocation rule).
    let mut payload = Vec::with_capacity(len.min(max_len));
    if r.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(payload)
}

/// The payload length a frame header announces, refused above `max_len`:
/// the one header rule of [`read_frame`] and [`FrameAssembler`].
fn payload_len(header: [u8; 4], max_len: usize) -> Result<usize, FrameError> {
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        return Err(FrameError::TooLarge { len, max: max_len });
    }
    Ok(len)
}

/// Incremental frame reassembly for nonblocking sockets.
///
/// [`read_frame`] needs a blocking `Read`; a readiness-driven server
/// instead feeds whatever bytes `read` returned into this buffer with
/// [`FrameAssembler::extend`] and pops complete payloads with
/// [`FrameAssembler::next_frame`]. The announced length is checked
/// against the bound as soon as the 4-byte header is buffered, so a
/// hostile header is refused before its payload is ever allocated —
/// buffered data therefore never exceeds `max_len` plus one read chunk.
#[derive(Debug)]
pub struct FrameAssembler {
    /// Raw bytes as received; `at..` is the unparsed tail.
    buf: Vec<u8>,
    /// Parse offset: bytes before it belong to already-popped frames.
    at: usize,
    /// Per-connection payload bound (the server's `max_frame_len`).
    max_len: usize,
}

/// Compact the buffer once the consumed prefix passes this size, so a
/// long-lived connection does not accrete every frame it ever received.
const ASSEMBLER_COMPACT: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler enforcing `max_len` on announced payloads.
    pub fn new(max_len: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), at: 0, max_len }
    }

    /// Appends bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unparsed bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// `true` when a frame is partially buffered — a timeout now leaves
    /// the stream desynchronized (versus a clean idle close at a frame
    /// boundary).
    pub fn mid_frame(&self) -> bool {
        self.at < self.buf.len()
    }

    /// Pops the next complete frame payload, `Ok(None)` when more bytes
    /// are needed. [`FrameError::TooLarge`] means the stream is
    /// desynchronized and the connection must be dropped; the assembler
    /// keeps returning it for the same frame.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(&header) = self.buf.get(self.at..).and_then(<[u8]>::first_chunk) else {
            return Ok(None);
        };
        let len = payload_len(header, self.max_len)?;
        let start = self.at + 4;
        let Some(payload) = self.buf.get(start..start + len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.at = start + len;
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at >= ASSEMBLER_COMPACT {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Ping,
            Request::Query("(f . f) & f^-1".into()),
            Request::Query(String::new()),
            Request::Batch(vec![]),
            Request::Batch(vec!["f".into(), "f . f".into(), "id".into()]),
            Request::Metrics,
            Request::Delta(vec![]),
            Request::Delta(vec![
                WireOp::AddVertex { name: "newbie".into() },
                WireOp::InsertEdge { src: 14, dst: 0, label: "f".into() },
                WireOp::DeleteEdge { src: 1, dst: 2, label: "v".into() },
                WireOp::ChangeEdgeLabel { src: 3, dst: 4, from: "f".into(), to: "v".into() },
                WireOp::DeleteVertex { vertex: 9 },
                WireOp::InsertInterest {
                    seq: vec![
                        WireSeqLabel { inverse: false, label: "f".into() },
                        WireSeqLabel { inverse: true, label: "f".into() },
                    ],
                },
                WireOp::DeleteInterest {
                    seq: vec![WireSeqLabel { inverse: false, label: "v".into() }],
                },
            ]),
        ]
    }

    fn sample_metrics() -> WireMetrics {
        let hist = |nonzero: &[(u16, u64)], total, sum, max| {
            HistogramSnapshot::from_parts(total, sum, max, nonzero).unwrap()
        };
        WireMetrics {
            epoch: 5,
            ops: vec![
                (ObsOp::Query, hist(&[(0, 3), (12, 2)], 5, 90, 40)),
                (ObsOp::Delta, hist(&[(20, 1)], 1, 300, 300)),
            ],
            stages: vec![
                (Stage::Plan, hist(&[(2, 5)], 5, 10, 2)),
                (Stage::Eval, hist(&[(9, 4)], 4, 36, 11)),
            ],
            counters: vec![
                ("queries_total".into(), 5),
                ("query_requests_total".into(), 5),
                ("open_connections".into(), 2),
            ],
            slow: vec![Trace {
                kind: TraceKind::Query,
                key: "((f.f)&f^-1)".into(),
                epoch: 5,
                total_us: 900,
                spans: vec![
                    Span { stage: Stage::Parse, start_us: 0, dur_us: 10, depth: 0 },
                    Span { stage: Stage::Eval, start_us: 12, dur_us: 880, depth: 1 },
                ],
            }],
            slow_total: 3,
            workload: vec![("((f.f)&f^-1)".into(), 9), ("f".into(), 1)],
            workload_dropped: 2,
        }
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::HelloAck { version: PROTOCOL_VERSION },
            Response::Pong,
            Response::Result { epoch: 0, pairs: vec![] },
            Response::Result { epoch: 42, pairs: vec![Pair::new(1, 2), Pair::new(3, 3)] },
            Response::BatchResult { epoch: 9, results: vec![] },
            Response::BatchResult {
                epoch: 9,
                results: vec![vec![Pair::new(0, 0)], vec![], vec![Pair::new(5, 6)]],
            },
            Response::DeltaAck { epoch: 0, rebuilt: false, outcomes: vec![] },
            Response::DeltaAck {
                epoch: 17,
                rebuilt: true,
                outcomes: vec![
                    WireOutcome::Applied,
                    WireOutcome::Noop,
                    WireOutcome::VertexAdded(4096),
                ],
            },
            Response::Metrics(Box::default()),
            Response::Metrics(Box::new(sample_metrics())),
            Response::Error(WireError {
                code: ErrorCode::Parse,
                position: Some(4),
                message: "unknown label \"nosuch\"".into(),
            }),
            Response::Error(WireError::new(ErrorCode::Internal, "boom")),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "roundtrip of {req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "roundtrip of {resp:?}");
        }
    }

    #[test]
    fn truncation_never_panics() {
        for req in all_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert_eq!(decode_request(&bytes[..cut]), Err(DecodeError::Truncated), "{req:?}");
            }
        }
        for resp in all_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert_eq!(decode_response(&bytes[..cut]), Err(DecodeError::Truncated), "{resp:?}");
            }
        }
    }

    /// Each counted list with its count at the width's maximum and nothing
    /// after it (hex, spaces between fields). The u32 and u16 counts fail
    /// the count-consistency check; the u8 ones run out of payload on their
    /// first item, or (an interest sequence) exceed the longest sequence a
    /// `LabelSeq` holds.
    #[test]
    fn every_counted_list_refuses_a_count_past_its_payload() {
        let unhex = |h: &str| -> Vec<u8> {
            let h: String = h.split_whitespace().collect();
            (0..h.len()).step_by(2).map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap()).collect()
        };
        let requests = [
            ("04 ffffffff", DecodeError::Truncated),
            ("07 ffffffff", DecodeError::Truncated),
            ("07 00000001 06 ff", DecodeError::BadValue("interest sequence length")),
        ];
        for (h, kind) in requests {
            assert_eq!(decode_request(&unhex(h)), Err(kind), "{h}");
        }
        // A METRICS_RESULT starts with its opcode and epoch.
        let metrics = "88 0000000000000000";
        let responses = [
            "83 0000000000000000 ffffffff".to_string(),
            "84 0000000000000000 ffffffff".into(),
            "87 0000000000000000 00 ffffffff".into(),
            format!("{metrics} ff"),
            format!("{metrics} 00 ff"),
            format!("{metrics} 01 01 {} ffff", "00".repeat(24)),
            format!("{metrics} 00 00 ffffffff"),
            format!("{metrics} 00 00 00000000 0000000000000000 ffff"),
            format!(
                "{metrics} 00 00 00000000 0000000000000000 0001 00 00000000 {} ffff",
                "00".repeat(16)
            ),
            format!("{metrics} 00 00 00000000 0000000000000000 0000 0000000000000000 ffffffff"),
        ];
        for h in responses {
            assert_eq!(decode_response(&unhex(&h)), Err(DecodeError::Truncated), "{h}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Trailing));
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert_eq!(decode_request(&[0x7E]), Err(DecodeError::UnknownOpcode(0x7E)));
        assert_eq!(decode_response(&[0x10]), Err(DecodeError::UnknownOpcode(0x10)));
        // The opcodes protocol 7 retired (UPDATE, STATS and their
        // answers) are unassigned, whatever body follows.
        for op in [0x05u8, 0x06] {
            assert_eq!(decode_request(&[op, 1, 0, 0]), Err(DecodeError::UnknownOpcode(op)));
            let ack = op | 0x80;
            assert_eq!(decode_response(&[ack, 1, 0, 0]), Err(DecodeError::UnknownOpcode(ack)));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_request(&Request::Hello { version: 1 });
        bytes[1] = b'X';
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A BATCH claiming 2^31 strings in a 9-byte payload must fail
        // fast on the count-consistency check.
        let mut bytes = vec![OP_BATCH];
        bytes.extend_from_slice(&0x8000_0000u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Truncated));
        // Same for a RESULT claiming 2^30 pairs.
        let mut bytes = vec![OP_RESULT];
        bytes.extend_from_slice(&7u64.to_be_bytes());
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn a_result_count_must_agree_with_the_frame_length() {
        let pairs = vec![Pair::new(1, 2), Pair::new(3, 4), Pair::new(5, 6)];
        let good = encode_response(&Response::Result { epoch: 7, pairs: pairs.clone() });
        assert_eq!(decode_response(&good).unwrap(), Response::Result { epoch: 7, pairs });
        // The count sits after the opcode and the epoch.
        let with_count = |n: u32| {
            let mut bytes = good.clone();
            bytes[9..13].copy_from_slice(&n.to_be_bytes());
            bytes
        };
        // One more than sent: the block would run past the payload.
        assert_eq!(decode_response(&with_count(4)), Err(DecodeError::Truncated));
        // One fewer: a whole pair is left over.
        assert_eq!(decode_response(&with_count(2)), Err(DecodeError::Trailing));
        // Right count, but the block is not a whole number of pairs.
        let mut ragged = good.clone();
        ragged.extend_from_slice(&[0; 4]);
        assert_eq!(decode_response(&ragged), Err(DecodeError::Trailing));
        ragged.truncate(good.len() - 4);
        assert_eq!(decode_response(&ragged), Err(DecodeError::Truncated));
        // The same disagreement inside a BATCH_RESULT's second answer.
        let batch = Response::BatchResult {
            epoch: 1,
            results: vec![vec![Pair::new(0, 0)], vec![Pair::new(9, 9)]],
        };
        let mut bytes = encode_response(&batch);
        let at = 1 + 8 + 4 + (4 + 8);
        bytes[at..at + 4].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_bools_and_codes_are_rejected() {
        // The `rebuilt` flag of a DELTA_ACK follows the opcode and epoch.
        let mut ack =
            encode_response(&Response::DeltaAck { epoch: 1, rebuilt: true, outcomes: vec![] });
        ack[9] = 9;
        assert_eq!(decode_response(&ack), Err(DecodeError::BadValue("bool")));
        let mut err = encode_response(&Response::Error(WireError::new(ErrorCode::Internal, "x")));
        err[1] = 0xEE;
        assert_eq!(decode_response(&err), Err(DecodeError::BadValue("error code")));
    }

    #[test]
    fn bad_delta_payloads_are_rejected() {
        // Unknown op tag.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&[0xEE, 0x00]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadValue("delta op tag")));
        // Hostile op count in a tiny payload fails the consistency check.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::Truncated));
        // An interest sequence longer than a LabelSeq can hold.
        let mut bytes = vec![OP_DELTA];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(OPTAG_INSERT_INTEREST);
        bytes.push(cpqx_graph::MAX_SEQ_LEN as u8 + 1);
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(decode_request(&bytes), Err(DecodeError::BadValue("interest sequence length")));
        // Bad outcome tag in an ack.
        let mut bytes = vec![OP_DELTA_ACK];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.push(9);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("op outcome")));
    }

    #[test]
    fn bad_metrics_payloads_are_rejected() {
        // Unknown op tag in the per-opcode histogram list.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(1);
        bytes.push(99);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("metrics op tag")));
        // Unknown stage tag in the per-stage list.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(0);
        bytes.push(1);
        bytes.push(200);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("metrics stage tag")));
        // Out-of-range histogram bucket index: patch the first non-zero
        // bucket of a valid encoding (offset: opcode 1 + epoch 8 +
        // op-count 1 + op tag 1 + total/sum/max 24 + nz-count 2).
        let one_op = WireMetrics {
            ops: vec![(ObsOp::Query, HistogramSnapshot::from_parts(1, 9, 9, &[(3, 1)]).unwrap())],
            ..WireMetrics::default()
        };
        let mut bytes = encode_response(&Response::Metrics(Box::new(one_op)));
        bytes[37..39].copy_from_slice(&(cpqx_obs::BUCKETS as u16).to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("histogram bucket")));
        // Bad trace kind in the slow-query ring.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(0);
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_be_bytes()); // no counters
        bytes.extend_from_slice(&0u64.to_be_bytes()); // slow_total
        bytes.extend_from_slice(&1u16.to_be_bytes()); // one trace ...
        bytes.push(7); // ... of a kind that does not exist
        bytes.extend_from_slice(&[0u8; 32]);
        assert_eq!(decode_response(&bytes), Err(DecodeError::BadValue("trace kind")));
        // Hostile slow-trace and workload counts fail fast on the
        // count-consistency check.
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(0);
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_be_bytes()); // no counters
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
        let mut bytes = vec![OP_METRICS_RESULT];
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.push(0);
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_be_bytes()); // no counters
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&0u16.to_be_bytes()); // no slow traces
        bytes.extend_from_slice(&0u64.to_be_bytes()); // workload_dropped
        bytes.extend_from_slice(&0x4000_0000u32.to_be_bytes());
        assert_eq!(decode_response(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn parse_errors_map_to_typed_codes() {
        use cpqx_graph::generate::gex;
        let g = gex();
        let e = cpqx_query::parse_cpq("f . nosuch", &g).unwrap_err();
        let w = WireError::from(e);
        assert_eq!(w.code, ErrorCode::UnknownLabel);
        assert_eq!(w.position, Some(4));
        let e = cpqx_query::parse_cpq("(f", &g).unwrap_err();
        assert_eq!(WireError::from(e).code, ErrorCode::Parse);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = all_requests().iter().map(encode_request).collect();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut r = io::Cursor::new(wire);
        for p in &payloads {
            assert_eq!(&read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), p);
        }
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge { max: 1024, .. }));
    }

    #[test]
    fn eof_mid_frame_is_io_not_closed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        wire.truncate(3); // cut inside the header
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)));
    }

    #[test]
    fn eof_inside_the_payload_is_io_and_nothing_is_returned() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Query("f . f".into()))).unwrap();
        for cut in 4..wire.len() {
            let err = read_frame(&mut io::Cursor::new(&wire[..cut]), 1024).unwrap_err();
            assert!(
                matches!(&err, FrameError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err:?}"
            );
        }
    }

    /// What `write_frame` puts on the wire for a payload.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    #[test]
    fn every_response_frame_is_the_public_codec_framed() {
        for resp in all_responses() {
            assert_eq!(response_frame(&resp), framed(&encode_response(&resp)), "{resp:?}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `all_requests()`, encoded.
    const GOLDEN_REQUESTS: [&str; 9] = [
        "01435051580007",
        "02",
        "030000000e2866202e206629202620665e2d31",
        "0300000000",
        "0400000000",
        "040000000300000001660000000566202e2066000000026964",
        "08",
        "0700000000",
        concat!(
            "070000000704000000066e6577626965010000000e0000000000000001660200000001000000",
            "0200000001760300000003000000040000000166000000017605000000090602000000000166",
            "0100000001660701000000000176",
        ),
    ];

    /// `all_responses()`, encoded.
    const GOLDEN_RESPONSES: [&str; 12] = [
        "810007",
        "82",
        "83000000000000000000000000",
        "83000000000000002a0000000200000001000000020000000300000003",
        "84000000000000000900000000",
        "8400000000000000090000000300000001000000000000000000000000000000010000000500000006",
        "8700000000000000000000000000",
        "870000000000000011010000000301000200001000",
        "88000000000000000000000000000000000000000000000000000000000000000000000000",
        concat!(
            "88000000000000000502010000000000000005000000000000005a0000000000000028000200",
            "000000000000000003000c0000000000000002030000000000000001000000000000012c0000",
            "00000000012c00010014000000000000000102010000000000000005000000000000000a0000",
            "0000000000020001000200000000000000050300000000000000040000000000000024000000",
            "000000000b000100090000000000000004000000030000000d717565726965735f746f74616c",
            "00000000000000050000001471756572795f72657175657374735f746f74616c000000000000",
            "0005000000106f70656e5f636f6e6e656374696f6e7300000000000000020000000000000003",
            "0001000000000c2828662e662926665e2d312900000000000000050000000000000384000200",
            "0000000000000000000000000000000a0003000000000000000c000000000000037001000000",
            "0000000002000000020000000c2828662e662926665e2d312900000000000000090000000166",
            "0000000000000001",
        ),
        "ff040000000400000016756e6b6e6f776e206c6162656c20226e6f7375636822",
        "ff07ffffffff00000004626f6f6d",
    ];

    /// The exact bytes of every sample and of the frames the server builds
    /// straight from borrowed answers. A layout change made to encoder and
    /// decoder together still round-trips; it fails here.
    #[test]
    fn every_sample_encodes_to_its_pinned_bytes() {
        let requests: Vec<String> =
            all_requests().iter().map(|r| hex(&encode_request(r))).collect();
        assert_eq!(requests, GOLDEN_REQUESTS);
        let responses = all_responses();
        let encoded: Vec<String> = responses.iter().map(|r| hex(&encode_response(r))).collect();
        assert_eq!(encoded, GOLDEN_RESPONSES);
        for (resp, golden) in responses.iter().zip(GOLDEN_RESPONSES) {
            let header = format!("{:08x}", golden.len() / 2);
            assert_eq!(hex(&response_frame(resp)), header + golden, "{resp:?}");
        }
        assert_eq!(
            hex(&result_frame(42, &[Pair::new(1, 2), Pair::new(3, 3)])),
            "0000001d83000000000000002a0000000200000001000000020000000300000003"
        );
        let results = [vec![Pair::new(0, 0)], vec![], vec![Pair::new(5, 6)]];
        assert_eq!(
            hex(&batch_result_frame(9, &results)),
            concat!(
                "00000029840000000000000009000000030000000100000000000000000000000000000001",
                "0000000500000006",
            )
        );
    }

    mod bytes_are_the_contract {
        use super::*;
        use proptest::prelude::*;
        use std::sync::Arc;

        fn answer() -> impl Strategy<Value = Vec<Pair>> {
            prop::collection::vec(any::<u64>().prop_map(Pair), 0..300)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // The frame a worker encodes from the engine's borrowed pairs,
            // and the frame a hit sends from the cache entry's memoized
            // copy of it, are the bytes of the public codec for the
            // `Response` a client decodes.
            #[test]
            fn query_answers(epoch in any::<u64>(), pairs in answer()) {
                let public = framed(&encode_response(&Response::Result {
                    epoch,
                    pairs: pairs.clone(),
                }));
                let worker = result_frame(epoch, &pairs);
                prop_assert_eq!(worker.capacity(), worker.len(), "presized exactly");
                prop_assert_eq!(&worker, &public);
                let memoized: Arc<[u8]> = worker.into();
                prop_assert_eq!(&memoized[..], &public[..]);
                prop_assert_eq!(
                    decode_response(&memoized[4..]).unwrap(),
                    Response::Result { epoch, pairs }
                );
            }

            #[test]
            fn batch_answers(
                epoch in any::<u64>(),
                results in prop::collection::vec(answer(), 0..6),
            ) {
                let shared: Vec<Arc<Vec<Pair>>> =
                    results.iter().cloned().map(Arc::new).collect();
                let worker = batch_result_frame(epoch, &shared);
                prop_assert_eq!(worker.capacity(), worker.len(), "presized exactly");
                let resp = Response::BatchResult { epoch, results };
                prop_assert_eq!(&worker, &framed(&encode_response(&resp)));
                prop_assert_eq!(&worker, &response_frame(&resp));
            }

            #[test]
            fn error_frames(
                code in 1u8..=9,
                position in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
                message in prop_oneof![
                    Just(String::new()),
                    Just("unknown label \"héldIn\"".to_string()),
                    Just("x".repeat(300)),
                ],
            ) {
                // `u32::MAX` is the wire's spelling of "no position".
                let position = position.filter(|&p| p != u32::MAX);
                let code = ErrorCode::from_u8(code).unwrap();
                let resp = Response::Error(WireError { code, position, message });
                let frame = response_frame(&resp);
                prop_assert_eq!(&frame, &framed(&encode_response(&resp)));
                prop_assert_eq!(decode_response(&frame[4..]).unwrap(), resp);
            }
        }
    }

    #[test]
    fn assembler_matches_read_frame_byte_at_a_time() {
        let payloads: Vec<Vec<u8>> = all_requests().iter().map(encode_request).collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // Feed the whole stream one byte at a time: every frame must pop
        // exactly when its last byte arrives, never earlier.
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for b in &wire {
            asm.extend(std::slice::from_ref(b));
            while let Some(frame) = asm.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads);
        assert!(!asm.mid_frame());
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_pops_pipelined_frames_from_one_chunk() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Metrics)).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Query("f".into()))).unwrap();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        asm.extend(&wire);
        let mut got = Vec::new();
        while let Some(frame) = asm.next_frame().unwrap() {
            got.push(decode_request(&frame).unwrap());
        }
        assert_eq!(got, vec![Request::Ping, Request::Metrics, Request::Query("f".into())]);
    }

    #[test]
    fn assembler_tracks_mid_frame_state() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
        assert!(!asm.mid_frame()); // empty = clean boundary
        asm.extend(&wire[..3]); // partial header counts as mid-frame
        assert!(asm.mid_frame());
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&wire[3..]);
        assert!(asm.next_frame().unwrap().is_some());
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_refuses_oversized_headers_before_payload() {
        let mut asm = FrameAssembler::new(1024);
        asm.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(asm.next_frame(), Err(FrameError::TooLarge { max: 1024, .. })));
        // The error is sticky: the stream cannot resynchronize.
        assert!(matches!(asm.next_frame(), Err(FrameError::TooLarge { .. })));
    }
}
