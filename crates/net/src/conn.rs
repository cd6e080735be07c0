//! Per-connection state for the event-driven server: a small state
//! machine (handshake → serving → draining) plus the read/write buffers
//! that replace a parked thread.
//!
//! A connection owns an incremental [`FrameAssembler`] on the read side
//! and an ordered **response slot queue** on the write side: every
//! decoded request reserves the next sequence slot, inline-handled
//! requests (PING/METRICS, handshake, decode errors) fill their
//! slot immediately, worker-evaluated requests fill it when the
//! completion comes back — and only the *completed prefix* of slots is
//! ever encoded into the write buffer, so responses leave in strict
//! arrival order no matter how the worker pool interleaves. Partial
//! writes park in the buffer and resume on the next writable-readiness
//! event.
//!
//! Nothing here does timeouts or epoll bookkeeping — the event loop
//! ([`crate::event`]) owns those; this module only exposes the state it
//! needs (buffered bytes, pending slots, last-activity instants).

use crate::proto::{encode_response, FrameAssembler, Response};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Read chunk size per `read` call (stack scratch in the event loop).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Cap on bytes consumed from one socket per readiness dispatch, so one
/// fire-hose client cannot monopolize the event loop; level-triggered
/// epoll re-reports the fd on the next tick.
const READ_BURST: usize = 256 * 1024;

/// Where a connection is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for the version-matching HELLO frame.
    Handshake,
    /// Handshake done; serving pipelined requests.
    Serving,
    /// A final frame (handshake refusal, desync error) is queued: flush
    /// the write buffer, then close. No more reads.
    Draining,
}

/// What a read burst observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadStatus {
    /// Socket drained to `WouldBlock` (or the burst cap); still open.
    Open,
    /// Peer closed its write half (EOF).
    PeerClosed,
}

/// One connection's entire server-side state.
pub(crate) struct Conn {
    /// The nonblocking socket. The event loop is the only reader/writer.
    pub(crate) stream: TcpStream,
    /// Incremental frame reassembly for the read side.
    pub(crate) assembler: FrameAssembler,
    /// Lifecycle state.
    pub(crate) state: ConnState,
    /// Encoded-but-unsent response bytes (`wpos..` is the unsent tail).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Arrival-ordered response slots: `Some` = completed, awaiting
    /// flush; `None` = at a worker.
    pending: VecDeque<(u64, Option<Response>)>,
    next_seq: u64,
    /// Slot of the DELTA currently at a worker, if any. While set, the
    /// connection dispatches nothing further (see [`Conn::saturated`]):
    /// workers pop jobs in any order, so this is what makes one
    /// connection's pipelined writes — and the requests behind them —
    /// take effect in arrival order.
    write_in_flight: Option<u64>,
    /// Last time the peer sent bytes or the last pending response was
    /// flushed — the anchor for the idle timeout.
    pub(crate) last_activity: Instant,
    /// Last time the socket accepted bytes — the anchor for the write
    /// timeout while the write buffer is nonempty.
    pub(crate) last_write_progress: Instant,
    /// The peer sent EOF (or an error/hang-up edge arrived). Buffered
    /// requests still get served and their responses flushed — parity
    /// with the old blocking core, where a client could pipeline, shut
    /// its write half, and read every answer — but once the pipeline
    /// and write buffer empty, the connection closes.
    pub(crate) peer_eof: bool,
    /// The timer-wheel tick this connection's token is filed under
    /// (`None` = not filed). The wheel is lazy: the filed tick may be
    /// earlier than the authoritative deadline, in which case the visit
    /// simply re-files.
    pub(crate) filed: Option<u64>,
    /// The epoll interest mask currently registered for the socket.
    pub(crate) interest: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_frame_len: usize, now: Instant) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(max_frame_len),
            state: ConnState::Handshake,
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            write_in_flight: None,
            last_activity: now,
            last_write_progress: now,
            peer_eof: false,
            filed: None,
            interest: 0,
        }
    }

    /// Reads until `WouldBlock`, EOF, or the per-dispatch burst cap,
    /// feeding everything into the assembler. Hard I/O errors bubble up
    /// and close the connection.
    pub(crate) fn read_some(
        &mut self,
        chunk: &mut [u8; READ_CHUNK],
    ) -> io::Result<(usize, ReadStatus)> {
        let mut total = 0usize;
        loop {
            match (&self.stream).read(chunk) {
                Ok(0) => return Ok((total, ReadStatus::PeerClosed)),
                Ok(n) => {
                    self.assembler.extend(&chunk[..n]);
                    total += n;
                    if total >= READ_BURST {
                        return Ok((total, ReadStatus::Open));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok((total, ReadStatus::Open));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reserves the next response slot and returns its sequence number.
    pub(crate) fn reserve_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, None));
        seq
    }

    /// Fills a previously reserved slot. Ignores unknown sequence
    /// numbers (a completion can race a connection teardown+id reuse
    /// only across connections, and ids are never reused; within one
    /// connection the slot always exists).
    pub(crate) fn complete_slot(&mut self, seq: u64, resp: Response) {
        if let Some(slot) = self.pending.iter_mut().find(|(s, _)| *s == seq) {
            slot.1 = Some(resp);
        }
        if self.write_in_flight == Some(seq) {
            self.write_in_flight = None;
        }
    }

    /// Reserves the slot of a write (DELTA) request and holds further
    /// dispatch until it completes.
    pub(crate) fn reserve_write_slot(&mut self) -> u64 {
        let seq = self.reserve_slot();
        self.write_in_flight = Some(seq);
        seq
    }

    /// `true` while the connection must not dispatch another request:
    /// the pipeline bound is reached or a write is in flight. Frames
    /// stay buffered in the assembler and the loop stops reading.
    pub(crate) fn saturated(&self, max_pipeline: usize) -> bool {
        self.pending.len() >= max_pipeline || self.write_in_flight.is_some()
    }

    /// Reserves a slot and completes it immediately (inline handling).
    pub(crate) fn push_inline(&mut self, resp: Response) {
        let seq = self.reserve_slot();
        self.complete_slot(seq, resp);
    }

    /// Requests currently in flight (reserved, not yet flushed).
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Encodes the completed prefix of the slot queue into the write
    /// buffer. Returns how many responses were staged.
    pub(crate) fn flush_ready(&mut self) -> usize {
        let mut staged = 0usize;
        while matches!(self.pending.front(), Some((_, Some(_)))) {
            let Some((_, Some(resp))) = self.pending.pop_front() else {
                break;
            };
            let payload = encode_response(&resp);
            self.wbuf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            self.wbuf.extend_from_slice(&payload);
            staged += 1;
        }
        staged
    }

    /// Bytes staged but not yet accepted by the socket.
    pub(crate) fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes the staged bytes until `WouldBlock` or the buffer empties.
    /// `Ok(true)` = buffer fully drained. Records write progress for the
    /// write-timeout clock and compacts the buffer when it drains.
    pub(crate) fn write_some(&mut self, now: Instant) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.last_write_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, read_frame, DEFAULT_MAX_FRAME};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn slots_flush_in_arrival_order_only_when_prefix_completes() {
        let (a, _b) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, now);
        let s0 = conn.reserve_slot();
        conn.push_inline(Response::Pong); // s1, completed immediately
        let s2 = conn.reserve_slot();
        // s0 still at a worker: nothing may flush.
        assert_eq!(conn.flush_ready(), 0);
        conn.complete_slot(s2, Response::Pong);
        assert_eq!(conn.flush_ready(), 0, "s2 done but s0 still gates the prefix");
        conn.complete_slot(s0, Response::Result { epoch: 9, pairs: vec![] });
        assert_eq!(conn.flush_ready(), 3, "whole prefix completes at once");
        assert_eq!(conn.pending_len(), 0);
        assert!(conn.unsent() > 0);
    }

    #[test]
    fn a_write_in_flight_holds_dispatch_until_its_slot_completes() {
        let (a, _b) = pair();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, Instant::now());
        let read = conn.reserve_slot();
        assert!(!conn.saturated(8), "reads only count against the pipeline bound");
        let write = conn.reserve_write_slot();
        assert!(conn.saturated(8));
        conn.complete_slot(read, Response::Pong);
        assert!(conn.saturated(8), "an earlier slot completing does not release the hold");
        conn.complete_slot(write, Response::Pong);
        assert!(!conn.saturated(8));
        assert!(conn.saturated(2), "the pipeline bound still applies");
    }

    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let (a, b) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, now);
        conn.stream.set_nonblocking(true).unwrap();
        conn.push_inline(Response::HelloAck { version: 7 });
        conn.push_inline(Response::Pong);
        conn.flush_ready();
        // Drain to the socket (loopback buffers easily hold two frames).
        assert!(conn.write_some(Instant::now()).unwrap());
        assert_eq!(conn.unsent(), 0);
        // The peer reads exactly the two frames, in order.
        let mut r = std::io::BufReader::new(b);
        let f0 = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        let f1 = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(decode_response(&f0).unwrap(), Response::HelloAck { version: 7 });
        assert_eq!(decode_response(&f1).unwrap(), Response::Pong);
    }

    #[test]
    fn read_some_reports_eof_and_feeds_the_assembler() {
        let (a, mut b) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, now);
        conn.stream.set_nonblocking(true).unwrap();
        b.write_all(&[0, 0, 0, 1, 0x02]).unwrap(); // a 1-byte PING frame
        drop(b);
        // Loopback delivery is immediate after the blocking write, but
        // poll briefly to be safe.
        let mut chunk = [0u8; READ_CHUNK];
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut saw_eof = false;
        let mut got = 0usize;
        while Instant::now() < deadline {
            let (n, status) = conn.read_some(&mut chunk).unwrap();
            got += n;
            if status == ReadStatus::PeerClosed {
                saw_eof = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(saw_eof);
        assert_eq!(got, 5);
        assert_eq!(conn.assembler.next_frame().unwrap().unwrap(), vec![0x02]);
    }
}
