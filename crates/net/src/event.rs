//! The event loop: readiness-based serving on raw `epoll`.
//!
//! One thread owns the nonblocking listener and every connection socket
//! with its deadline, and multiplexes them through [`crate::sys`]'s
//! level-triggered epoll wrapper. Workers never see a socket, and the
//! loop never evaluates: it decodes frames and answers on the spot what
//! costs a lookup — PING/METRICS, the handshake, decode errors, and
//! **result-cache hits**. **A hit is a lookup and a write**: the loop
//! asks the engine for the request text ([`Engine::cached_wire`] — one
//! hash under the result-cache lock, never the parser) and, when the
//! answer is cached with its wire form, puts that shared frame in the
//! connection's next slot. Everything else (a QUERY that is not such a
//! hit, BATCH, DELTA) goes to the pool as a [`Job`]; the worker encodes
//! its own response, and the finished [`Completion`] — a frame, not a
//! `Response` — comes back over a mutex'd list plus an eventfd wake. The
//! loop releases frames through each connection's ordered slot queue —
//! so per-connection arrival order survives any worker interleaving, a
//! hit never waits behind another connection's evaluation or DELTA, and
//! an idle connection costs two buffers instead of a parked thread.
//!
//! [`Engine::cached_wire`]: cpqx_engine::Engine::cached_wire
//!
//! Ordering of effects: workers pop jobs in any order, so a connection
//! with a DELTA in flight dispatches nothing further until that slot
//! completes — its later frames wait in the assembler, hits included.
//! One connection's writes therefore apply in arrival order, and every
//! request behind a write observes it (the install that completed the
//! write also emptied the result cache).
//!
//! Backpressure has three rungs: a per-connection pipeline bound (reads
//! pause while too many requests are in flight), a write-backlog bound
//! (reads pause while the peer is not draining responses), and a global
//! connection cap (new connections get a best-effort
//! [`ErrorCode::Busy`] error frame, then close).
//!
//! Timeouts are the loop's, not socket options: a connection's deadline
//! (idle or write-progress) follows from its state, and once per tick the
//! loop checks every connection's (at most `max_connections` of them). A
//! write timeout closes hard; an idle timeout at a frame boundary closes
//! cleanly; one that lands mid-frame means the stream is desynchronized,
//! so the connection gets the PROTOCOL.md-promised final
//! [`ErrorCode::Timeout`] error frame before the close.

use crate::conn::{Conn, ConnState, Frame, ReadStatus, READ_CHUNK};
use crate::proto::{
    decode_request, response_frame, ErrorCode, Request, Response, WireError, PROTOCOL_VERSION,
};
use crate::server::{serve, Reply, Shared};
use crate::sys::{Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use cpqx_obs::Stage;
use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wake-up eventfd.
const TOKEN_WAKER: u64 = 1;
/// First connection token.
const TOKEN_BASE: u64 = 2;

/// Pause reading from a connection while this many response bytes sit
/// unsent in its write queue (the peer is not draining its side).
const WBUF_PAUSE: usize = 1 << 20;

/// One evaluation request handed to the worker pool.
pub(crate) struct Job {
    /// Connection token the response slot belongs to.
    conn: u64,
    /// Reserved slot in that connection's response queue.
    seq: u64,
    req: Request,
    /// Enqueue instant (when obs is enabled) — the Evaluate stage
    /// includes queue wait, so the histogram shows client-experienced
    /// evaluation latency.
    queued: Option<Instant>,
}

/// One finished evaluation travelling back to the event loop, already
/// encoded by the worker that produced it.
pub(crate) struct Completion {
    conn: u64,
    seq: u64,
    reply: Reply,
}

/// Spawned once per server: owns the listener and every connection.
pub(crate) fn event_loop(s: &Shared, listener: TcpListener) {
    if run_loop(s, listener).is_err() {
        // A failed epoll/eventfd setup (or a fatal wait error) means the
        // server cannot serve; flip the stop flag so workers and
        // `shutdown` don't hang waiting for a loop that already exited.
        s.stop.swap(true, Ordering::AcqRel);
        s.jobs_cv.notify_all();
    }
}

/// Everything the loop body threads through its helpers.
struct Loop<'a> {
    s: &'a Shared,
    epoll: Epoll,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

fn run_loop(s: &Shared, listener: TcpListener) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    let epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(s.waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;

    // Tick granularity: fine enough that a timeout fires within ~1/4 of
    // the configured bound, bounded to [5ms, 1s] so short test timeouts
    // stay accurate and production defaults don't busy-wake.
    let shortest = [s.opts.read_timeout, s.opts.write_timeout]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Duration::from_secs(30));
    let tick = (shortest / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
    let timers_armed = s.opts.read_timeout.is_some() || s.opts.write_timeout.is_some();

    let mut lp = Loop { s, epoll, conns: HashMap::new(), next_token: TOKEN_BASE };
    let mut events = Vec::new();
    let mut chunk = Box::new([0u8; READ_CHUNK]);
    let mut next_scan = Instant::now() + tick;

    loop {
        events.clear();
        let timeout = if timers_armed && !lp.conns.is_empty() { Some(tick) } else { None };
        lp.epoll.wait(&mut events, timeout)?;
        if s.stop.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_burst(&mut lp, &listener, now),
                TOKEN_WAKER => s.waker.drain(),
                token => {
                    let keep =
                        on_conn_event(&mut lp, token, ev.readable, ev.closed, &mut chunk, now);
                    if !keep {
                        close_conn(&mut lp, token);
                    }
                }
            }
        }
        drain_completions(&mut lp, now);
        if timers_armed && now >= next_scan {
            next_scan = now + tick;
            expire(&mut lp, now);
        }
    }

    // Shutdown: close every connection's socket explicitly, so a peer
    // blocked in a read observes EOF instead of a silent leak (including
    // connections accepted but never yet served — the old thread-pool
    // core dropped those without a shutdown).
    for (_, conn) in lp.conns.drain() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        s.counters.open.fetch_sub(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Accepts until `WouldBlock`; over-capacity connections get a
/// best-effort BUSY error frame before the close.
fn accept_burst(lp: &mut Loop<'_>, listener: &TcpListener, now: Instant) {
    use std::os::unix::io::AsRawFd;
    let obs = lp.s.engine.obs();
    let t0 = obs.timer();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if lp.conns.len() >= lp.s.opts.max_connections {
                    reject_busy(lp.s, &stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue; // dropped: closes the socket
                }
                let _ = stream.set_nodelay(true);
                let token = lp.next_token;
                lp.next_token += 1;
                let fd = stream.as_raw_fd();
                let mut conn = Conn::new(stream, lp.s.opts.max_frame_len, now);
                conn.interest = EPOLLIN | EPOLLRDHUP;
                if lp.epoll.add(fd, conn.interest, token).is_err() {
                    continue;
                }
                lp.s.counters.connections.fetch_add(1, Ordering::Relaxed);
                lp.s.counters.open.fetch_add(1, Ordering::Relaxed);
                lp.conns.insert(token, conn);
                if !pump(lp, token, now) {
                    close_conn(lp, token);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off briefly instead of spinning the loop.
                std::thread::sleep(Duration::from_millis(10));
                break;
            }
        }
    }
    obs.stage(Stage::Accept, t0, None);
}

/// Sends one best-effort BUSY error frame and closes. The write is a
/// single nonblocking attempt: the frame is ~60 bytes and a fresh
/// socket's send buffer always holds it unless the peer already died —
/// in which case nobody is reading anyway.
fn reject_busy(s: &Shared, stream: &TcpStream) {
    s.counters.rejected_connections.fetch_add(1, Ordering::Relaxed);
    s.counters.errors.fetch_add(1, Ordering::Relaxed);
    let frame = response_frame(&Response::Error(WireError::new(
        ErrorCode::Busy,
        "server at connection capacity; retry later",
    )));
    let _ = stream.set_nonblocking(true);
    let _ = (&*stream).write(&frame);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handles one readiness event for a connection. Returns `false` when
/// the connection should close.
fn on_conn_event(
    lp: &mut Loop<'_>,
    token: u64,
    readable: bool,
    closed: bool,
    chunk: &mut [u8; READ_CHUNK],
    now: Instant,
) -> bool {
    let obs = lp.s.engine.obs();
    let t0 = obs.timer();
    let Some(conn) = lp.conns.get_mut(&token) else {
        return true; // already closed this batch
    };
    if readable && conn.state != ConnState::Draining {
        match conn.read_some(chunk) {
            Ok((n, status)) => {
                if n > 0 {
                    conn.last_activity = now;
                }
                if status == ReadStatus::PeerClosed {
                    conn.peer_eof = true;
                }
            }
            Err(_) => return false,
        }
    } else if closed {
        // Error/hang-up edge with nothing to read: the peer's write
        // half is gone. In-flight responses still get a delivery
        // attempt (pump closes once everything drains, or the write
        // fails fast on a truly dead socket).
        conn.peer_eof = true;
    }
    let keep = pump(lp, token, now);
    obs.stage(Stage::Readiness, t0, None);
    keep
}

/// The per-connection driver: pops buffered frames (respecting the
/// pipeline bound and the write-in-flight hold), flushes completed
/// responses, writes, and reconciles epoll interest. Returns `false` to
/// close.
///
/// Nothing but this function ever looks at the assembler, so it must not
/// return with a complete frame buffered unless something is certain to
/// call it again. Slots filled on the loop (hits, PINGs) have no
/// completion to do that: a read holding more of them than the pipeline
/// bound is served in rounds of dispatch → flush → write until the
/// assembler runs dry or the connection is held by something that does
/// come back — a slot at a worker (its completion) or a write backlog
/// the socket refused (its writable edge).
fn pump(lp: &mut Loop<'_>, token: u64, now: Instant) -> bool {
    let s = lp.s;
    let Some(conn) = lp.conns.get_mut(&token) else {
        return true;
    };
    let ran_dry = loop {
        // 1. Decode and dispatch buffered frames.
        let mut ran_dry = false;
        while conn.state != ConnState::Draining && !conn.saturated(s.opts.max_pipeline) {
            match conn.assembler.next_frame() {
                Ok(Some(frame)) => process_frame(s, conn, token, &frame),
                Ok(None) => {
                    ran_dry = true;
                    break;
                }
                Err(too_large) => {
                    // Desynchronized: PROTOCOL.md promises one final
                    // error frame before the drop.
                    let error = WireError::new(ErrorCode::BadFrame, too_large.to_string());
                    queue_error(s, conn, error);
                    conn.state = ConnState::Draining;
                }
            }
        }
        // 2. Release completed responses to the write queue and push
        // bytes.
        if conn.flush_ready() > 0 {
            conn.last_activity = now;
        }
        if conn.unsent() > 0 {
            let obs = s.engine.obs();
            let t0 = obs.timer();
            let drained = match conn.write_some(now) {
                Ok(drained) => drained,
                Err(_) => return false,
            };
            obs.stage(Stage::Write, t0, None);
            if drained && conn.state == ConnState::Draining {
                return false; // final frame delivered
            }
        } else if conn.state == ConnState::Draining {
            return false; // nothing left to drain
        }
        // Another round only if the bound, not the assembler, stopped the
        // dispatch, and the flush lifted it.
        if ran_dry || conn.state == ConnState::Draining || held(s, conn) {
            break ran_dry;
        }
    };
    // Peer EOF with every buffered request served and flushed: close (at
    // most a truncated tail is left in the assembler).
    if conn.peer_eof && ran_dry && conn.pending_len() == 0 && conn.unsent() == 0 {
        return false;
    }
    // 3. Reconcile epoll interest.
    let paused = held(s, conn);
    let mut want = 0u32;
    // An EOF'd socket stays readable forever under level-triggered
    // epoll; dropping read interest once EOF is seen keeps the loop
    // from spinning while responses are still in flight.
    if conn.state != ConnState::Draining && !paused && !conn.peer_eof {
        want |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.unsent() > 0 {
        want |= EPOLLOUT;
    }
    if want != conn.interest {
        use std::os::unix::io::AsRawFd;
        let fd = conn.stream.as_raw_fd();
        // `interest == 0` ⇔ the fd is deregistered. Keeping a
        // zero-interest fd registered is not an option: level-triggered
        // ERR/HUP edges are delivered regardless of the mask and would
        // spin the loop (e.g. a reset peer whose request is still at a
        // worker).
        let ok = if conn.interest == 0 {
            lp.epoll.add(fd, want, token).is_ok()
        } else if want == 0 {
            lp.epoll.del(fd).is_ok()
        } else {
            lp.epoll.modify(fd, want, token).is_ok()
        };
        if !ok {
            return false;
        }
        conn.interest = want;
    }
    true
}

/// `true` while the connection takes no further requests, buffered or
/// from the socket: its pipeline is full or behind a write, or the peer
/// is not draining its responses. Each of those ends in a call to
/// [`pump`] (a completion, a writable edge).
fn held(s: &Shared, conn: &Conn) -> bool {
    conn.saturated(s.opts.max_pipeline) || conn.unsent() > WBUF_PAUSE
}

/// The connection's deadline: idle timeout while no request is in
/// flight, write timeout while bytes are unsent.
fn deadline_of(s: &Shared, conn: &Conn) -> Option<Instant> {
    let idle = if conn.pending_len() == 0 {
        s.opts.read_timeout.map(|t| conn.last_activity + t)
    } else {
        None // evaluation time is not idle time (matches the old core)
    };
    let write = if conn.unsent() > 0 {
        s.opts.write_timeout.map(|t| conn.last_write_progress + t)
    } else {
        None
    };
    match (idle, write) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Times out every connection whose deadline has passed.
fn expire(lp: &mut Loop<'_>, now: Instant) {
    let s = lp.s;
    let expired: Vec<u64> = lp
        .conns
        .iter()
        .filter(|(_, conn)| deadline_of(s, conn).is_some_and(|deadline| deadline <= now))
        .map(|(&token, _)| token)
        .collect();
    for token in expired {
        time_out(lp, token, now);
    }
}

/// Closes an expired connection, after a final TIMEOUT frame when it
/// expired mid-frame.
fn time_out(lp: &mut Loop<'_>, token: u64, now: Instant) {
    let s = lp.s;
    let Some(conn) = lp.conns.get_mut(&token) else {
        return;
    };
    let write_expired = conn.unsent() > 0
        && s.opts.write_timeout.is_some_and(|t| now.duration_since(conn.last_write_progress) >= t);
    if write_expired {
        // The peer stopped draining responses: nothing can be delivered,
        // including an error frame. Hard close.
        close_conn(lp, token);
        return;
    }
    if conn.assembler.mid_frame() && conn.state != ConnState::Draining {
        // Timed out mid-frame: the stream is desynchronized. Send the
        // promised final error frame, then drain and close.
        queue_error(
            s,
            conn,
            WireError::new(
                ErrorCode::Timeout,
                "read timed out mid-frame; dropping desynchronized connection",
            ),
        );
        conn.state = ConnState::Draining;
        if !pump(lp, token, now) {
            close_conn(lp, token);
        }
    } else {
        // Idle at a frame boundary: clean close, no error frame.
        close_conn(lp, token);
    }
}

/// Decodes and routes one frame according to the connection state.
fn process_frame(s: &Shared, conn: &mut Conn, token: u64, frame: &[u8]) {
    match conn.state {
        ConnState::Handshake => match decode_request(frame) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                queue_inline(s, conn, Reply::of(&Response::HelloAck { version }));
                conn.state = ConnState::Serving;
            }
            Ok(Request::Hello { version }) => {
                queue_error(
                    s,
                    conn,
                    WireError::new(
                        ErrorCode::UnsupportedVersion,
                        format!("server speaks protocol {PROTOCOL_VERSION}, client sent {version}"),
                    ),
                );
                conn.state = ConnState::Draining;
            }
            Ok(other) => {
                queue_error(
                    s,
                    conn,
                    WireError::new(ErrorCode::BadFrame, format!("expected HELLO, got {other:?}")),
                );
                conn.state = ConnState::Draining;
            }
            Err(e) => {
                queue_error(s, conn, WireError::from(e));
                conn.state = ConnState::Draining;
            }
        },
        ConnState::Serving => match decode_request(frame) {
            // Decode failures leave the frame boundary intact, so the
            // connection survives them.
            Err(e) => queue_error(s, conn, WireError::from(e)),
            // Cheap requests complete inline on the event loop; only
            // evaluation work visits the pool.
            Ok(req @ (Request::Hello { .. } | Request::Ping | Request::Metrics)) => {
                let reply = serve(s, req);
                queue_inline(s, conn, reply);
            }
            Ok(Request::Query(text)) => match s.engine.cached_wire(&text) {
                // A hit is a lookup and a write: the cache's own frame
                // goes into the slot, shared, and the engine has already
                // counted the query.
                Some(frame) => {
                    s.counters.query.fetch_add(1, Ordering::Relaxed);
                    s.counters.query_inline_hits.fetch_add(1, Ordering::Relaxed);
                    conn.push_inline(Frame::Shared(frame));
                }
                None => dispatch(s, conn, token, Request::Query(text)),
            },
            Ok(req) => dispatch(s, conn, token, req),
        },
        ConnState::Draining => {} // unreachable: pump stops popping
    }
}

/// Reserves the request's slot and hands it to the worker pool.
fn dispatch(s: &Shared, conn: &mut Conn, token: u64, req: Request) {
    let seq = match req {
        Request::Delta(_) => conn.reserve_write_slot(),
        _ => conn.reserve_slot(),
    };
    let queued = s.engine.obs().timer();
    s.jobs.lock().unwrap().push_back(Job { conn: token, seq, req, queued });
    s.jobs_cv.notify_one();
}

/// Queues a response produced on the loop, keeping the error counter
/// exact.
fn queue_inline(s: &Shared, conn: &mut Conn, reply: Reply) {
    if reply.is_error {
        s.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    conn.push_inline(reply.frame);
}

fn queue_error(s: &Shared, conn: &mut Conn, error: WireError) {
    queue_inline(s, conn, Reply::of(&Response::Error(error)));
}

/// Moves finished evaluations into their connections' slot queues and
/// pumps every touched connection.
fn drain_completions(lp: &mut Loop<'_>, now: Instant) {
    let completed = std::mem::take(&mut *lp.s.done.lock().unwrap());
    if completed.is_empty() {
        return;
    }
    let mut touched = Vec::new();
    for c in completed {
        if c.reply.is_error {
            lp.s.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(conn) = lp.conns.get_mut(&c.conn) {
            conn.complete_slot(c.seq, c.reply.frame);
            if !touched.contains(&c.conn) {
                touched.push(c.conn);
            }
        }
        // else: the connection closed while the worker ran — the work
        // is done (deltas committed), only the acknowledgment is moot.
    }
    for token in touched {
        if !pump(lp, token, now) {
            close_conn(lp, token);
        }
    }
}

/// Deregisters, shuts down and forgets one connection.
fn close_conn(lp: &mut Loop<'_>, token: u64) {
    use std::os::unix::io::AsRawFd;
    if let Some(conn) = lp.conns.remove(&token) {
        let _ = lp.epoll.del(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        lp.s.counters.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker-pool body: pop a job, evaluate it and encode the response,
/// post the completion, wake the loop. Exits when the stop flag is up and
/// the queue is empty.
pub(crate) fn worker_loop(s: &Shared) {
    loop {
        let job = {
            let mut jobs = s.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if s.stop.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = s.jobs_cv.wait_timeout(jobs, Duration::from_millis(200)).unwrap();
                jobs = guard;
            }
        };
        let Some(job) = job else {
            return;
        };
        let reply = serve(s, job.req);
        s.engine.obs().stage(Stage::Evaluate, job.queued, None);
        s.done.lock().unwrap().push(Completion { conn: job.conn, seq: job.seq, reply });
        s.waker.signal();
    }
}
