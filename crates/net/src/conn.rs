//! Per-connection state for the event-driven server: a small state
//! machine (handshake → serving → draining), the read buffer, and the
//! two queues a response passes through — none of which ever encodes.
//!
//! **A response is encoded once, where it is produced, and arrives here
//! as a finished [`Frame`]**: bytes the producer owns (a worker's
//! freshly evaluated answer, an inline PONG) or bytes shared with the
//! result cache (a hit's memoized RESULT frame).
//!
//! Every decoded request reserves the next sequence slot of the ordered
//! **response slot queue**; a request answered on the event loop fills
//! its slot at once, a dispatched one when its completion comes back —
//! and only the *completed prefix* of slots moves on, so responses leave
//! in strict arrival order no matter how the worker pool interleaves.
//! Where they move to is the one **write queue**: the frames themselves,
//! in order, plus how much of the front one the socket has taken. It
//! drains with `write_vectored`, so a frame is never copied in user space
//! between its producer and the kernel; a partial write parks mid-frame
//! and resumes on the next writable-readiness event.
//!
//! Nothing here does timeouts or epoll bookkeeping — the event loop
//! ([`crate::event`]) owns those, checking each connection's deadline
//! once per tick; this module only exposes the state that deadline
//! follows from (unsent bytes, pending slots, last-activity instants).

use crate::proto::FrameAssembler;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Read chunk size per `read` call (stack scratch in the event loop).
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Cap on bytes consumed from one socket per readiness dispatch, so one
/// fire-hose client cannot monopolize the event loop; level-triggered
/// epoll re-reports the fd on the next tick.
const READ_BURST: usize = 256 * 1024;

/// Frames handed to one `write_vectored` call. A pipeline of small
/// responses (128 PONGs at the default bound) leaves in two calls; the
/// array lives on the stack.
const MAX_IOV: usize = 64;

/// One encoded response: length prefix and payload, ready for the socket.
pub(crate) enum Frame {
    /// Encoded for this response alone.
    Owned(Vec<u8>),
    /// The result cache's memoized encoding of a hit, shared by every
    /// connection currently sending it.
    Shared(Arc<[u8]>),
}

impl Frame {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Frame::Owned(bytes) => bytes,
            Frame::Shared(bytes) => bytes,
        }
    }
}

/// Where a connection is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for the version-matching HELLO frame.
    Handshake,
    /// Handshake done; serving pipelined requests.
    Serving,
    /// A final frame (handshake refusal, desync error) is queued: flush
    /// the write queue, then close. No more reads.
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
    /// The write queue: frames released by the slot queue, in order, not
    /// yet fully accepted by the socket.
    outbound: VecDeque<Frame>,
    /// Bytes of `outbound`'s front frame the socket already took.
    front_sent: usize,
    /// Bytes of `outbound` the socket has not taken yet.
    unsent: usize,
    /// Arrival-ordered response slots: `Some` = completed, awaiting
    /// flush; `None` = at a worker.
    pending: VecDeque<(u64, Option<Frame>)>,
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
    /// timeout while the write queue is nonempty.
    pub(crate) last_write_progress: Instant,
    /// The peer sent EOF (or an error/hang-up edge arrived). Buffered
    /// requests still get served and their responses flushed — parity
    /// with the old blocking core, where a client could pipeline, shut
    /// its write half, and read every answer — but once the pipeline
    /// and write queue empty, the connection closes.
    pub(crate) peer_eof: bool,
    /// The epoll interest mask currently registered for the socket.
    pub(crate) interest: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_frame_len: usize, now: Instant) -> Conn {
        Conn {
            stream,
            assembler: FrameAssembler::new(max_frame_len),
            state: ConnState::Handshake,
            outbound: VecDeque::new(),
            front_sent: 0,
            unsent: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            write_in_flight: None,
            last_activity: now,
            last_write_progress: now,
            peer_eof: false,
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
    pub(crate) fn complete_slot(&mut self, seq: u64, frame: Frame) {
        if let Some(slot) = self.pending.iter_mut().find(|(s, _)| *s == seq) {
            slot.1 = Some(frame);
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

    /// Reserves a slot and completes it immediately (a response produced
    /// on the event loop).
    pub(crate) fn push_inline(&mut self, frame: Frame) {
        let seq = self.reserve_slot();
        self.complete_slot(seq, frame);
    }

    /// Requests currently in flight (reserved, not yet flushed).
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Moves the completed prefix of the slot queue onto the write
    /// queue. Returns how many responses were released.
    pub(crate) fn flush_ready(&mut self) -> usize {
        let mut released = 0usize;
        while matches!(self.pending.front(), Some((_, Some(_)))) {
            let Some((_, Some(frame))) = self.pending.pop_front() else {
                break;
            };
            self.unsent += frame.bytes().len();
            self.outbound.push_back(frame);
            released += 1;
        }
        released
    }

    /// Bytes released to the write queue but not yet accepted by the
    /// socket.
    pub(crate) fn unsent(&self) -> usize {
        self.unsent
    }

    /// Writes queued frames until `WouldBlock` or the queue empties.
    /// `Ok(true)` = fully drained. Records write progress for the
    /// write-timeout clock.
    pub(crate) fn write_some(&mut self, now: Instant) -> io::Result<bool> {
        while !self.outbound.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut frames = 0usize;
            for (slot, frame) in iov.iter_mut().zip(&self.outbound) {
                let skip = if frames == 0 { self.front_sent } else { 0 };
                *slot = IoSlice::new(&frame.bytes()[skip..]);
                frames += 1;
            }
            match (&self.stream).write_vectored(&iov[..frames]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.last_write_progress = now;
                    self.mark_sent(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Accounts `n` bytes the socket took from the front of the queue,
    /// dropping every frame they complete.
    fn mark_sent(&mut self, mut n: usize) {
        self.unsent -= n;
        while let Some(front) = self.outbound.front() {
            let left = front.bytes().len() - self.front_sent;
            if n < left {
                self.front_sent += n;
                return;
            }
            n -= left;
            self.front_sent = 0;
            self.outbound.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        decode_response, read_frame, response_frame, result_frame, Response, DEFAULT_MAX_FRAME,
    };
    use cpqx_graph::Pair;
    use std::net::TcpListener;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    fn owned(resp: &Response) -> Frame {
        Frame::Owned(response_frame(resp))
    }

    #[test]
    fn slots_flush_in_arrival_order_only_when_prefix_completes() {
        let (a, _b) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, now);
        let s0 = conn.reserve_slot();
        conn.push_inline(owned(&Response::Pong)); // s1, completed immediately
        let s2 = conn.reserve_slot();
        // s0 still at a worker: nothing may flush.
        assert_eq!(conn.flush_ready(), 0);
        conn.complete_slot(s2, owned(&Response::Pong));
        assert_eq!(conn.flush_ready(), 0, "s2 done but s0 still gates the prefix");
        conn.complete_slot(s0, Frame::Owned(result_frame(9, &[])));
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
        conn.complete_slot(read, owned(&Response::Pong));
        assert!(conn.saturated(8), "an earlier slot completing does not release the hold");
        conn.complete_slot(write, owned(&Response::Pong));
        assert!(!conn.saturated(8));
        assert!(conn.saturated(2), "the pipeline bound still applies");
    }

    /// A small owned frame, then one 256 kB shared frame queued 40 times
    /// over (10 MB: more than loopback buffers take unread) with a small
    /// owned frame behind each, against a peer that takes 1 kB at a time:
    /// the socket accepts the queue in whatever pieces its buffers allow
    /// — mid-header, mid-frame, across frames — and every byte arrives
    /// once, in order. Unsent bytes stay visible to the loop throughout
    /// (they drive `WBUF_PAUSE` and the write timeout), and write
    /// progress is stamped only when bytes move.
    #[test]
    fn partial_writes_resume_where_they_stopped() {
        const COPIES: usize = 40;
        let (a, mut b) = pair();
        let t0 = Instant::now();
        let mut conn = Conn::new(a, DEFAULT_MAX_FRAME, t0);
        conn.stream.set_nonblocking(true).unwrap();
        let big: Vec<Pair> = (0..32 * 1024).map(|i| Pair::new(i, i ^ 0x5555)).collect();
        let shared: Arc<[u8]> = result_frame(7, &big).into();
        assert!(shared.len() > 256 * 1024);
        conn.push_inline(owned(&Response::HelloAck { version: 7 }));
        for _ in 0..COPIES {
            conn.push_inline(Frame::Shared(Arc::clone(&shared)));
            conn.push_inline(owned(&Response::Pong));
        }
        assert_eq!(conn.flush_ready(), 1 + 2 * COPIES);
        let total = conn.unsent();
        assert_eq!(total, 4 + 3 + COPIES * (shared.len() + 4 + 1));

        // Fill the socket: the queue cannot drain against a peer that is
        // not reading, and what is left is still accounted as unsent.
        let t1 = t0 + Duration::from_millis(1);
        assert!(!conn.write_some(t1).unwrap(), "10 MB cannot fit loopback buffers unread");
        let stuck = conn.unsent();
        assert!(stuck > 0 && stuck < total);
        assert_eq!(conn.last_write_progress, t1);
        // No progress, no stamp: the write-timeout clock keeps running.
        let t2 = t0 + Duration::from_millis(2);
        assert!(!conn.write_some(t2).unwrap());
        assert_eq!((conn.unsent(), conn.last_write_progress), (stuck, t1));

        // The peer drains 1 kB at a time; the writer resumes whenever the
        // socket has room, wherever in the queue it stopped.
        let mut received = Vec::with_capacity(total);
        let mut chunk = [0u8; 1024];
        b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resumes = 0usize;
        while received.len() < total {
            let n = b.read(&mut chunk).unwrap();
            assert!(n > 0, "peer saw EOF after {} of {total} bytes", received.len());
            received.extend_from_slice(&chunk[..n]);
            if conn.unsent() > 0 {
                let before = conn.unsent();
                let drained = conn.write_some(Instant::now()).unwrap();
                resumes += usize::from(conn.unsent() < before);
                assert_eq!(drained, conn.unsent() == 0);
            }
        }
        assert!(resumes > 1, "the queue must have gone out in several pieces");
        assert_eq!(conn.unsent(), 0);
        assert_eq!(Arc::strong_count(&shared), 1, "sent frames are released");

        // Exactly the queued frames, byte for byte, in order.
        let mut r = std::io::Cursor::new(received);
        let hello = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(decode_response(&hello).unwrap(), Response::HelloAck { version: 7 });
        for _ in 0..COPIES {
            assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), shared[4..]);
            let pong = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(decode_response(&pong).unwrap(), Response::Pong);
        }
        assert_eq!(r.position() as usize, total);
        assert_eq!(
            decode_response(&shared[4..]).unwrap(),
            Response::Result { epoch: 7, pairs: big }
        );
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
