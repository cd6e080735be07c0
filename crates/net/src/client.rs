//! A blocking client for the cpqx wire protocol.
//!
//! [`Client::connect`] dials the server, performs the version handshake,
//! and then exposes one method per request opcode. The client is strictly
//! request/response (one outstanding request); for pipelining, open more
//! clients — the server handles each connection independently — or speak
//! the frame layer of [`crate::proto`] directly.
//!
//! Server-reported failures surface as [`ClientError::Server`] carrying
//! the typed [`WireError`] (e.g. a parse error with its byte position);
//! transport failures as [`ClientError::Io`]; protocol violations (a
//! response of the wrong type) as [`ClientError::Protocol`].

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, DecodeError, FrameError, Request,
    Response, WireError, WireMetrics, WireOp, WireOutcome, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cpqx_graph::Pair;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client construction knobs.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Maximum accepted response payload size. Default
    /// [`DEFAULT_MAX_FRAME`]; raise it for huge answer sets.
    pub max_frame_len: usize,
    /// Read timeout while waiting for a response. Default 30 s.
    pub read_timeout: Option<Duration>,
    /// Write timeout. Default 30 s.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            max_frame_len: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes timeouts and closed connections).
    Io(io::Error),
    /// The server answered with an error frame.
    Server(WireError),
    /// The server violated the protocol (undecodable or mistyped
    /// response, oversized frame, version mismatch).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Closed => ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            too_large @ FrameError::TooLarge { .. } => ClientError::Protocol(too_large.to_string()),
        }
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// One query's answer.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryReply {
    /// Epoch of the snapshot the answer reflects.
    pub epoch: u64,
    /// The sorted, deduplicated answer set.
    pub pairs: Vec<Pair>,
}

/// A batch's answers: all evaluated on one snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReply {
    /// Epoch of the snapshot every answer reflects.
    pub epoch: u64,
    /// Per-query answer sets, in request order.
    pub results: Vec<Vec<Pair>>,
}

/// A delta transaction's outcome: the transaction committed atomically
/// (rejected deltas surface as [`ClientError::Server`] instead, with
/// the offending op named in the message).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReply {
    /// The engine epoch whose snapshot reflects the whole transaction.
    pub epoch: u64,
    /// Whether the server's fragmentation threshold triggered a
    /// defragmenting rebuild inside this transaction.
    pub rebuilt: bool,
    /// Per-op outcomes, in op order.
    pub outcomes: Vec<WireOutcome>,
}

impl DeltaReply {
    /// Ops that changed the graph/index.
    pub fn applied(&self) -> usize {
        self.outcomes.iter().filter(|o| !matches!(o, WireOutcome::Noop)).count()
    }
}

/// A connected, handshaken client (see module docs).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_len: usize,
}

impl Client {
    /// Connects with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connects, configures timeouts, and performs the handshake.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: ClientOptions,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(opts.read_timeout)?;
        stream.set_write_timeout(opts.write_timeout)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client { reader, writer, max_frame_len: opts.max_frame_len };
        match client.roundtrip(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::HelloAck { version: PROTOCOL_VERSION } => Ok(client),
            Response::HelloAck { version } => {
                Err(ClientError::Protocol(format!("server acknowledged alien version {version}")))
            }
            other => Err(ClientError::Protocol(format!("expected HELLO_ACK, got {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(mistyped("PONG", &other)),
        }
    }

    /// Evaluates one CPQ given in text syntax (see
    /// [`cpqx_query::parse_cpq`]).
    pub fn query(&mut self, text: &str) -> Result<QueryReply, ClientError> {
        match self.roundtrip(&Request::Query(text.to_string()))? {
            Response::Result { epoch, pairs } => Ok(QueryReply { epoch, pairs }),
            other => Err(mistyped("RESULT", &other)),
        }
    }

    /// Evaluates several CPQs against one consistent server snapshot.
    pub fn batch<S: AsRef<str>>(&mut self, texts: &[S]) -> Result<BatchReply, ClientError> {
        let texts: Vec<String> = texts.iter().map(|s| s.as_ref().to_string()).collect();
        match self.roundtrip(&Request::Batch(texts))? {
            Response::BatchResult { epoch, results } => Ok(BatchReply { epoch, results }),
            other => Err(mistyped("BATCH_RESULT", &other)),
        }
    }

    /// Inserts a base edge: a one-op [`Client::apply_delta`] (the edge
    /// already existed iff [`DeltaReply::applied`] is 0).
    pub fn insert_edge(
        &mut self,
        src: u32,
        dst: u32,
        label: &str,
    ) -> Result<DeltaReply, ClientError> {
        self.apply_delta(vec![WireOp::InsertEdge { src, dst, label: label.to_string() }])
    }

    /// Deletes a base edge: a one-op [`Client::apply_delta`] (the edge
    /// did not exist iff [`DeltaReply::applied`] is 0).
    pub fn delete_edge(
        &mut self,
        src: u32,
        dst: u32,
        label: &str,
    ) -> Result<DeltaReply, ClientError> {
        self.apply_delta(vec![WireOp::DeleteEdge { src, dst, label: label.to_string() }])
    }

    /// Applies an atomic typed delta transaction (see
    /// [`crate::proto::WireOp`]): one engine write transaction for the
    /// whole op list, acknowledged with per-op outcomes. A rejected
    /// delta (unknown label, out-of-range vertex, …) changes nothing
    /// server-side and surfaces as [`ClientError::Server`] with
    /// [`crate::ErrorCode::BadUpdate`].
    pub fn apply_delta(&mut self, ops: Vec<WireOp>) -> Result<DeltaReply, ClientError> {
        // The server refuses a frame holding an over-long interest
        // sequence as a whole (BAD_FRAME); fail before framing instead,
        // with a typed error that names the op.
        for (i, op) in ops.iter().enumerate() {
            if let WireOp::InsertInterest { seq } | WireOp::DeleteInterest { seq } = op {
                if seq.len() > cpqx_graph::MAX_SEQ_LEN {
                    return Err(ClientError::Protocol(format!(
                        "delta op {i}: interest sequence of {} steps exceeds the wire bound of {}",
                        seq.len(),
                        cpqx_graph::MAX_SEQ_LEN
                    )));
                }
            }
        }
        match self.roundtrip(&Request::Delta(ops))? {
            Response::DeltaAck { epoch, rebuilt, outcomes } => {
                Ok(DeltaReply { epoch, rebuilt, outcomes })
            }
            other => Err(mistyped("DELTA_ACK", &other)),
        }
    }

    /// Fetches the server's observability report: every engine and
    /// front-end counter, per-opcode and per-stage latency histograms,
    /// the slow-query ring, and canonical-key workload counts.
    pub fn metrics(&mut self) -> Result<WireMetrics, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            other => Err(mistyped("METRICS_RESULT", &other)),
        }
    }

    /// Sends one request and reads one response, unwrapping error frames
    /// into [`ClientError::Server`].
    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &encode_request(req))?;
        let payload = read_frame(&mut self.reader, self.max_frame_len)?;
        match decode_response(&payload)? {
            Response::Error(e) => Err(ClientError::Server(e)),
            resp => Ok(resp),
        }
    }
}

fn mistyped(expected: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {expected}, got {got:?}"))
}
