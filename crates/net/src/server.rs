//! The event-driven TCP front-end over [`cpqx_engine::Engine`].
//!
//! Architecture: one **event-loop** thread owns the nonblocking
//! listener and every connection socket, multiplexed through raw
//! level-triggered `epoll` ([`crate::sys`]). The loop accepts, reads,
//! reassembles frames ([`crate::proto::FrameAssembler`]), answers on the
//! spot what costs a lookup — cheap requests and result-cache hits — and
//! hands evaluation work (a QUERY that is not such a hit, BATCH, DELTA)
//! to a fixed **worker pool**; completions return over a shared list
//! plus an eventfd wake and are written out by the loop in strict
//! per-connection arrival order (see `crate::event` and
//! `crate::conn`). An idle connection therefore costs two buffers, not
//! a parked thread — thousands of idle clients coexist with a handful
//! of workers.
//!
//! **A hit is a lookup and a write; a response is encoded once.**
//! `serve` is the one place a response is produced, and it returns the
//! finished frame: a worker encodes its answer straight from the
//! engine's borrowed pairs, and nothing downstream (completion list, slot
//! queue, write queue) encodes or copies it again. The first time a
//! cached answer is hit over the wire, the worker stores that frame in
//! the cache entry ([`cpqx_engine::CachedAnswer`]); every later request
//! with the same text is answered by the event loop from the entry —
//! the same bytes, shared, never re-encoded — without visiting the pool.
//!
//! Backpressure: per-connection pipeline and write-backlog bounds pause
//! reading from a peer that overruns the server, and a global
//! [`ServerOptions::max_connections`] cap rejects new connections with
//! a best-effort BUSY error frame (counted in
//! [`NetStats::rejected_connections`]).
//!
//! Consistency: every QUERY pins one engine snapshot for parse *and*
//! evaluation, and every BATCH parses and evaluates all its queries on
//! one pinned snapshot, so answers always carry the epoch they reflect —
//! maintenance running concurrently (via DELTA frames or in-process
//! writers) never produces a torn read. A connection with a DELTA in
//! flight dispatches nothing further until it completes, so one
//! connection's pipelined frames take effect in arrival order.
//!
//! Shutdown: [`Server::shutdown`] flips a stop flag, signals the
//! event-loop's wake eventfd, and joins every thread; the loop shuts
//! down every connection socket on its way out (accepted-but-unserved
//! ones included), so a peer blocked in a read observes EOF.

use crate::conn::Frame;
use crate::event::{event_loop, worker_loop, Completion, Job};
use crate::proto::{
    batch_result_frame, response_frame, result_frame, ErrorCode, Request, Response, WireError,
    WireMetrics, WireOp, WireOutcome, WireSeqLabel, DEFAULT_MAX_FRAME,
};
use crate::sys::EventFd;
use cpqx_engine::delta::{Delta, DeltaError, DeltaOp, OpOutcome};
use cpqx_engine::{BatchOptions, Engine};
use cpqx_graph::{Graph, LabelSeq, MAX_SEQ_LEN};
use cpqx_obs::{Op as ObsOp, Stage, TraceKind};
use cpqx_query::parse_cpq;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads evaluating queries and deltas. Default: the
    /// machine's available parallelism, capped at 8. Workers never
    /// touch sockets, so this bounds CPU, not concurrency.
    pub workers: usize,
    /// Global cap on concurrently open connections; beyond it new
    /// connections get a best-effort BUSY error frame and are closed.
    /// Default 10 000.
    pub max_connections: usize,
    /// Per-connection bound on requests in flight (decoded, response
    /// not yet flushed). Past it the loop stops reading from that
    /// connection until responses drain. Default 128.
    pub max_pipeline: usize,
    /// Maximum accepted request payload size. Default
    /// [`DEFAULT_MAX_FRAME`].
    pub max_frame_len: usize,
    /// Per-connection idle timeout: a connection with no request in
    /// flight and no bytes arriving past it is closed — cleanly at a
    /// frame boundary, with a final TIMEOUT error frame if it dies
    /// mid-frame (the stream is desynchronized either way). Default
    /// 30 s; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout: a peer that accepts no response
    /// bytes for this long is dropped. Default 30 s.
    pub write_timeout: Option<Duration>,
    /// Worker threads each BATCH frame fans out over (see
    /// [`Engine::evaluate_batch_on`]); `None` uses the engine default.
    /// Default `Some(2)` so concurrent connections don't oversubscribe
    /// the host.
    pub batch_threads: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            max_connections: 10_000,
            max_pipeline: 128,
            max_frame_len: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            batch_threads: Some(2),
        }
    }
}

/// Point-in-time front-end counters (see [`Server::net_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and registered with the event loop.
    pub connections: u64,
    /// Connections refused at the [`ServerOptions::max_connections`]
    /// cap (each got a best-effort BUSY error frame).
    pub rejected_connections: u64,
    /// Connections currently open (a gauge, not a counter).
    pub open_connections: u64,
    /// PING requests served.
    pub ping_requests: u64,
    /// QUERY requests served, on the event loop or by a worker.
    pub query_requests: u64,
    /// QUERY requests answered on the event loop from the result cache's
    /// memoized frame (the rest of `query_requests` was dispatched to the
    /// worker pool).
    pub query_inline_hits: u64,
    /// BATCH requests served.
    pub batch_requests: u64,
    /// DELTA requests served.
    pub delta_requests: u64,
    /// METRICS requests served.
    pub metrics_requests: u64,
    /// Error frames sent (BUSY rejections included).
    pub error_responses: u64,
}

impl NetStats {
    /// Every front-end counter and gauge as `(name, value)` — the net
    /// half of the METRICS counter list (the engine half is
    /// [`cpqx_engine::StatsReport::counters`]). Names ending in `_total`
    /// only ever grow; the rest are gauges. Exporting a new field takes
    /// one line here.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("connections_total", self.connections),
            ("rejected_connections_total", self.rejected_connections),
            ("open_connections", self.open_connections),
            ("ping_requests_total", self.ping_requests),
            ("query_requests_total", self.query_requests),
            ("query_inline_hits_total", self.query_inline_hits),
            ("batch_requests_total", self.batch_requests),
            ("delta_requests_total", self.delta_requests),
            ("metrics_requests_total", self.metrics_requests),
            ("error_responses_total", self.error_responses),
        ]
    }
}

#[derive(Default)]
pub(crate) struct NetCounters {
    pub(crate) connections: AtomicU64,
    pub(crate) rejected_connections: AtomicU64,
    /// Gauge: incremented on register, decremented on close.
    pub(crate) open: AtomicU64,
    pub(crate) ping: AtomicU64,
    pub(crate) query: AtomicU64,
    pub(crate) query_inline_hits: AtomicU64,
    pub(crate) batch: AtomicU64,
    pub(crate) delta: AtomicU64,
    pub(crate) metrics: AtomicU64,
    pub(crate) errors: AtomicU64,
}

impl NetCounters {
    fn report(&self) -> NetStats {
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
            ping_requests: self.ping.load(Ordering::Relaxed),
            query_requests: self.query.load(Ordering::Relaxed),
            query_inline_hits: self.query_inline_hits.load(Ordering::Relaxed),
            batch_requests: self.batch.load(Ordering::Relaxed),
            delta_requests: self.delta.load(Ordering::Relaxed),
            metrics_requests: self.metrics.load(Ordering::Relaxed),
            error_responses: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the event loop, the workers and the handle.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) opts: ServerOptions,
    /// Shutdown publication edge: set once with `AcqRel`, observed with
    /// `Acquire` (classified by the cpqx-analyze atomic-ordering rule).
    pub(crate) stop: AtomicBool,
    /// Evaluation work queued for the pool (event loop → workers).
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) jobs_cv: Condvar,
    /// Finished evaluations awaiting the loop (workers → event loop).
    pub(crate) done: Mutex<Vec<Completion>>,
    /// Wakes the event loop out of `epoll_wait` (completions posted,
    /// shutdown requested).
    pub(crate) waker: EventFd,
    pub(crate) counters: NetCounters,
}

/// A running TCP front-end. Threads start in [`Server::bind`] and stop in
/// [`Server::shutdown`] (or on drop).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the event-loop and worker threads.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            opts: opts.clone(),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
            waker: EventFd::new()?,
            counters: NetCounters::default(),
        });
        let workers = (0..opts.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cpqx-net-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn worker")
            })
            .collect();
        let event = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cpqx-net-event".into())
                .spawn(move || event_loop(&s, listener))
                .expect("spawn event loop")
        };
        Ok(Server { shared, local_addr, event: Some(event), workers })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Current front-end counters.
    pub fn net_stats(&self) -> NetStats {
        self.shared.counters.report()
    }

    /// Stops accepting, closes every connection (queued work included),
    /// and joins every thread. Idempotent with drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // AcqRel, not SeqCst: `stop` is a plain publication edge
        // (Release the set, Acquire at every load) — nothing here needs
        // a single total order across atomics (see the cpqx-analyze
        // atomic-ordering rule).
        self.shared.stop.swap(true, Ordering::AcqRel);
        // Wake the event loop out of epoll_wait and the workers out of
        // their condvar; the loop shuts down every connection socket
        // (even ones accepted but never yet served) before exiting.
        self.shared.waker.signal();
        self.shared.jobs_cv.notify_all();
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One produced response: its frame, and whether it is an error frame
/// (the loop counts those when it queues them).
pub(crate) struct Reply {
    pub(crate) frame: Frame,
    pub(crate) is_error: bool,
}

impl Reply {
    /// Encodes `resp` — for the responses that exist as a [`Response`]
    /// first (everything but query answers).
    pub(crate) fn of(resp: &Response) -> Reply {
        Reply {
            frame: Frame::Owned(response_frame(resp)),
            is_error: matches!(resp, Response::Error(_)),
        }
    }
}

/// Serves one decoded request and encodes the response, once. Pure with
/// respect to the connection: all socket I/O stays on the event loop
/// ([`crate::event`]), which calls this itself for the cheap requests and
/// leaves the rest to the workers.
pub(crate) fn serve(s: &Shared, req: Request) -> Reply {
    match req {
        Request::Hello { .. } => Reply::of(&Response::Error(WireError::new(
            ErrorCode::BadFrame,
            "HELLO after handshake".to_string(),
        ))),
        Request::Ping => {
            s.counters.ping.fetch_add(1, Ordering::Relaxed);
            let t0 = s.engine.obs().timer();
            if let Some(t0) = t0 {
                s.engine.obs().record_op(ObsOp::Ping, t0.elapsed());
            }
            Reply::of(&Response::Pong)
        }
        Request::Query(text) => {
            s.counters.query.fetch_add(1, Ordering::Relaxed);
            // The server owns the whole-request trace so the span tree
            // covers parse as well as the engine's plan/cache/eval
            // stages (query_entry records into the same builder).
            let obs = s.engine.obs();
            let mut trace = obs.begin(TraceKind::Query);
            // One snapshot for parse + evaluation: the answer's epoch is
            // exactly the version the label names were resolved against.
            let snap = s.engine.snapshot();
            let parse_timer = obs.timer();
            let parsed = parse_cpq(&text, snap.graph());
            obs.stage(Stage::Parse, parse_timer, trace.as_mut());
            let reply = match parsed {
                Ok(q) => {
                    let (answer, hit) =
                        s.engine.query_entry(&snap, &q, Some(&text), trace.as_mut());
                    let encode = || result_frame(answer.epoch(), answer.pairs());
                    // A hit means the answer is being asked for again:
                    // keep its frame with the entry, where the event loop
                    // finds it by text from now on. A first answer is
                    // encoded for this response alone.
                    let frame = if hit {
                        Frame::Shared(Arc::clone(answer.wire_or_encode(|| encode().into())))
                    } else {
                        Frame::Owned(encode())
                    };
                    Reply { frame, is_error: false }
                }
                Err(e) => Reply::of(&Response::Error(WireError::from(e))),
            };
            if let Some(tb) = trace {
                obs.finish(tb);
            }
            reply
        }
        Request::Batch(texts) => {
            s.counters.batch.fetch_add(1, Ordering::Relaxed);
            let snap = s.engine.snapshot();
            let mut queries = Vec::with_capacity(texts.len());
            for (i, text) in texts.iter().enumerate() {
                match parse_cpq(text, snap.graph()) {
                    Ok(q) => queries.push(q),
                    Err(e) => {
                        let mut w = WireError::from(e);
                        w.message = format!("batch query {i}: {}", w.message);
                        return Reply::of(&Response::Error(w));
                    }
                }
            }
            let opts = BatchOptions { threads: s.opts.batch_threads };
            let out = s.engine.evaluate_batch_on(&snap, &queries, opts);
            Reply {
                frame: Frame::Owned(batch_result_frame(out.epoch, &out.results)),
                is_error: false,
            }
        }
        Request::Delta(ops) => {
            s.counters.delta.fetch_add(1, Ordering::Relaxed);
            Reply::of(&match apply_wire_delta(s, &ops) {
                Ok(report) => Response::DeltaAck {
                    epoch: report.epoch,
                    rebuilt: report.rebuilt,
                    outcomes: report.outcomes.iter().map(wire_outcome).collect(),
                },
                Err(e) => Response::Error(e),
            })
        }
        Request::Metrics => {
            s.counters.metrics.fetch_add(1, Ordering::Relaxed);
            let t0 = s.engine.obs().timer();
            let reply = Reply::of(&Response::Metrics(Box::new(wire_metrics(s))));
            // This request's own latency lands in the *next* report —
            // the snapshot above must not be mutated after it is taken.
            if let Some(t0) = t0 {
                s.engine.obs().record_op(ObsOp::Metrics, t0.elapsed());
            }
            reply
        }
    }
}

/// Resolves wire ops against the current snapshot's label table and
/// applies them as one atomic engine transaction. Unknown labels,
/// over-long interests and engine-side rejections (e.g. out-of-range
/// vertices) all come back as [`ErrorCode::BadUpdate`] error frames
/// naming the offending op; nothing is applied in that case.
fn apply_wire_delta(s: &Shared, ops: &[WireOp]) -> Result<cpqx_engine::DeltaReport, WireError> {
    // Label ids are append-only, so resolving against the snapshot
    // current *now* stays valid when the engine applies the delta to a
    // possibly newer clone under its writer lock.
    let snap = s.engine.snapshot();
    let bad_update = |e: DeltaError| {
        WireError::new(ErrorCode::BadUpdate, format!("delta op {}: {}", e.op_index, e.reason))
    };
    let delta = Delta::from(resolve_ops(snap.graph(), ops).map_err(bad_update)?);
    s.engine.apply_delta(&delta).map_err(bad_update)
}

/// Resolves wire ops into typed delta ops against `g`'s label table —
/// the one `WireOp → DeltaOp` mapping, shared by the server's DELTA
/// handler and the store's WAL replay. The error names the offending op
/// and says why (an unknown label, an over-long interest sequence).
/// Vertex ids pass through unchecked: the engine's transaction validates
/// them against the graph it mutates.
pub fn resolve_ops(g: &Graph, ops: &[WireOp]) -> Result<Vec<DeltaOp>, DeltaError> {
    let reject = |i: usize, reason: String| DeltaError { op_index: i, reason };
    let label = |name: &str, i: usize| {
        g.label_named(name).ok_or_else(|| reject(i, format!("unknown label {name:?}")))
    };
    let seq = |steps: &[WireSeqLabel], i: usize| -> Result<LabelSeq, DeltaError> {
        if steps.len() > MAX_SEQ_LEN {
            return Err(reject(i, format!("interest sequence of length {}", steps.len())));
        }
        steps
            .iter()
            .map(|s| label(&s.label, i).map(|l| if s.inverse { l.inv() } else { l.fwd() }))
            .collect::<Result<Vec<_>, _>>()
            .map(|ls| LabelSeq::from_slice(&ls))
    };
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            Ok(match op {
                WireOp::InsertEdge { src, dst, label: l } => {
                    DeltaOp::InsertEdge { src: *src, dst: *dst, label: label(l, i)? }
                }
                WireOp::DeleteEdge { src, dst, label: l } => {
                    DeltaOp::DeleteEdge { src: *src, dst: *dst, label: label(l, i)? }
                }
                WireOp::ChangeEdgeLabel { src, dst, from, to } => DeltaOp::ChangeEdgeLabel {
                    src: *src,
                    dst: *dst,
                    from: label(from, i)?,
                    to: label(to, i)?,
                },
                WireOp::AddVertex { name } => DeltaOp::AddVertex { name: name.clone() },
                WireOp::DeleteVertex { vertex } => DeltaOp::DeleteVertex { vertex: *vertex },
                WireOp::InsertInterest { seq: s } => DeltaOp::InsertInterest { seq: seq(s, i)? },
                WireOp::DeleteInterest { seq: s } => DeltaOp::DeleteInterest { seq: seq(s, i)? },
            })
        })
        .collect()
}

fn wire_outcome(o: &OpOutcome) -> WireOutcome {
    match o {
        OpOutcome::Applied => WireOutcome::Applied,
        OpOutcome::Noop => WireOutcome::Noop,
        OpOutcome::VertexAdded(v) => WireOutcome::VertexAdded(*v),
    }
}

fn wire_metrics(s: &Shared) -> WireMetrics {
    let obs = s.engine.obs();
    // One list, engine counters first: both sides name their own fields,
    // nothing here (or in the codec) knows any of them.
    let counters = s
        .engine
        .stats()
        .counters()
        .into_iter()
        .chain(s.counters.report().counters())
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    // Empty histograms are omitted: the common deployment exercises a
    // handful of opcodes/stages, and the sparse form keeps the frame
    // proportional to actual traffic.
    let mut ops = Vec::new();
    for op in ObsOp::ALL {
        let h = obs.op_snapshot(op);
        if h.count() > 0 {
            ops.push((op, h));
        }
    }
    let mut stages = Vec::new();
    for stage in Stage::ALL {
        let h = obs.stage_snapshot(stage);
        if h.count() > 0 {
            stages.push((stage, h));
        }
    }
    WireMetrics {
        epoch: s.engine.epoch(),
        ops,
        stages,
        counters,
        slow: obs.slow_queries(),
        slow_total: obs.slow_query_count(),
        workload: obs.workload_counts(),
        workload_dropped: obs.workload_dropped(),
    }
}
