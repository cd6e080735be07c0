//! Load generation: the closed loop (blocking `Client`s, count-based)
//! and the open loop (one connection driven through the public frame
//! layer by a single thread that sends on schedule and times every
//! reply from the request's due time).

use crate::check::{Expected, Tally};
use cpqx_net::proto::{
    decode_response, encode_request, read_frame, write_frame, FrameAssembler, DEFAULT_MAX_FRAME,
};
use cpqx_net::{Client, Request, Response, PROTOCOL_VERSION};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One request as a ready-to-send frame (length prefix + payload).
pub fn request_frame(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(req)).expect("writing to a Vec cannot fail");
    frame
}

/// What a closed-loop phase measured.
pub struct ClosedLoopRun {
    pub tally: Tally,
    /// From the common start until the last client finished.
    pub elapsed: Duration,
    /// Completion time of every request, ns since the common start,
    /// ascending.
    pub done_ns: Vec<u64>,
    /// When the first client ran out of requests: until then every
    /// client was sending.
    pub all_busy_ns: u64,
}

impl ClosedLoopRun {
    /// Correctly answered requests per second: the upper quartile over
    /// blocks of `block` completions (see `stats::blocked_rate`), scaled
    /// by the share that was answered correctly.
    pub fn qps(&self, block: usize) -> f64 {
        let ok = (self.tally.attempted - self.tally.failed()) as f64 / self.tally.attempted as f64;
        ok * crate::stats::blocked_rate(&self.done_ns, self.all_busy_ns, block, self.elapsed)
    }
}

/// Closed loop: `conns` blocking clients share `script` (client `j`
/// takes every `conns`-th request), each sending its next query only
/// after checking the previous answer.
pub fn closed_loop(
    addr: SocketAddr,
    texts: &[String],
    script: &[u32],
    expected: &[Expected],
    conns: usize,
) -> ClosedLoopRun {
    let barrier = Barrier::new(conns + 1);
    let mut run = ClosedLoopRun {
        tally: Tally { attempted: script.len() as u64, ..Tally::default() },
        elapsed: Duration::ZERO,
        done_ns: Vec::with_capacity(script.len()),
        all_busy_ns: u64::MAX,
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|j| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let mut client = Client::connect(addr);
                    barrier.wait();
                    let start = Instant::now();
                    let mut done = Vec::with_capacity(script.len() / conns + 1);
                    for &q in script.iter().skip(j).step_by(conns) {
                        match client.as_mut() {
                            Ok(c) => match c.query(&texts[q as usize]) {
                                Ok(reply) => t.answer(&expected[q as usize], &reply.pairs),
                                Err(e) => t.client_error(&e),
                            },
                            Err(_) => t.transport += 1,
                        }
                        done.push(start.elapsed().as_nanos() as u64);
                    }
                    (t, done)
                })
            })
            .collect();
        barrier.wait();
        for w in workers {
            let (t, done) = w.join().expect("closed-loop client panicked");
            let last = done.last().copied().unwrap_or(0);
            run.tally.add(&t);
            run.elapsed = run.elapsed.max(Duration::from_nanos(last));
            run.all_busy_ns = run.all_busy_ns.min(last);
            run.done_ns.extend(done);
        }
    });
    run.done_ns.sort_unstable();
    run
}

/// Due-time bookkeeping of one open-loop connection, separate from the
/// socket so the accounting is testable with synthetic clocks. Times are
/// nanoseconds since the phase started; request `i` is due at
/// `i × interval`; replies arrive in request order (the server answers a
/// connection's requests in arrival order).
pub struct OpenLedger {
    interval_ns: u64,
    total: usize,
    sent: usize,
    /// Latency of each answered request, from its due time.
    pub latency_ns: Vec<u64>,
    /// How late each request was sent.
    pub lag_ns: Vec<u64>,
    /// Requests in flight when each request was sent.
    backlog: Vec<u32>,
}

impl OpenLedger {
    pub fn new(rate_per_s: f64, total: usize) -> OpenLedger {
        OpenLedger {
            interval_ns: (1e9 / rate_per_s) as u64,
            total,
            sent: 0,
            latency_ns: Vec::with_capacity(total),
            lag_ns: Vec::with_capacity(total),
            backlog: Vec::with_capacity(total),
        }
    }

    fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.interval_ns
    }

    /// Due time of the next unsent request.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.sent < self.total).then(|| self.due_ns(self.sent))
    }

    pub fn received(&self) -> usize {
        self.latency_ns.len()
    }

    pub fn done(&self) -> bool {
        self.received() == self.total
    }

    /// Records that the next request left at `now_ns`; returns its index.
    pub fn on_send(&mut self, now_ns: u64) -> usize {
        let i = self.sent;
        self.lag_ns.push(now_ns.saturating_sub(self.due_ns(i)));
        self.backlog.push((self.sent - self.received()) as u32);
        self.sent += 1;
        i
    }

    /// Records that the oldest outstanding request was answered at
    /// `now_ns`; returns its index. The latency runs from the request's
    /// *due* time, so time spent queued behind a stalled reply (or
    /// behind a late generator) is charged to it.
    pub fn on_reply(&mut self, now_ns: u64) -> usize {
        let i = self.received();
        self.latency_ns.push(now_ns.saturating_sub(self.due_ns(i)));
        i
    }

    /// Whether the queue was still growing when the schedule ended: the
    /// mean backlog over the last tenth of sends is more than three
    /// times the mean over the first half (a queue growing linearly
    /// reads 3.8×; one long evaluation near the end does not). A phase
    /// that ends like this measured a transient, not a rate the server
    /// sustains.
    pub fn backlog_growing(&self) -> bool {
        let n = self.backlog.len();
        if n < 20 {
            return false;
        }
        let mean = |s: &[u32]| s.iter().map(|&b| b as f64).sum::<f64>() / s.len() as f64;
        mean(&self.backlog[n - n / 10..]) > 3.0 * mean(&self.backlog[..n / 2]) + 32.0
    }
}

/// What one open-loop phase measured.
pub struct OpenLoopRun {
    pub ledger: OpenLedger,
    pub tally: Tally,
}

/// How one open-loop connection is driven.
#[derive(Clone, Copy)]
pub struct Pace {
    pub rate_per_s: f64,
    /// Replies later than this (from the due time) count as failed.
    pub limit: Duration,
    /// Requests allowed in flight. `usize::MAX` is the open loop proper;
    /// `1` is the paced writer, which sends at the due time or when the
    /// previous acknowledgement arrives, whichever is later (the server
    /// may run pipelined requests of one connection concurrently, and
    /// deltas must apply in script order), still timed from the due time.
    pub max_in_flight: usize,
}

/// A reply waits to be checked until the next request is due no sooner
/// than this: checking the largest answer (decode + digest of 32 768
/// pairs) takes about a third of it.
const CHECK_SLACK_NS: u64 = 150_000;
/// Unchecked replies held at most; beyond it they are checked at once.
const MAX_UNCHECKED_BYTES: usize = 8 << 20;

/// Open loop over one connection: request `i` (frame `frames[script[i]]`)
/// is sent when due, whatever the replies are doing (up to
/// `max_in_flight`); each reply is timestamped when its last byte is
/// read and handed to `judge(request index, response, tally)` later,
/// when nothing is in flight and nothing is due soon. (Decoding and
/// checking is the benchmark's work on the program's core: done on
/// arrival it made the request behind a large answer late, and that
/// lateness, not the server, was the p99 of `serve-hot`.) Requests
/// unanswered a while after the last send count as transport failures.
pub fn open_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    script: &[u32],
    pace: Pace,
    mut judge: impl FnMut(usize, Response, &mut Tally),
) -> io::Result<OpenLoopRun> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))?;
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    if !matches!(decode_response(&ack), Ok(Response::HelloAck { version: PROTOCOL_VERSION })) {
        return Err(io::Error::new(ErrorKind::InvalidData, "handshake refused"));
    }

    // One thread, nonblocking socket, never asleep: send what is due,
    // take what has arrived, yield, again. The generator shares the core
    // with the program (README, "One core"), and yielding lets every
    // runnable server thread go first; what it must not do is sleep: an
    // idle virtual CPU halts, and waking it costs tens of microseconds
    // that vary with the host (measured: p50 26–31 µs polling, 85–110 µs
    // sleeping in ppoll, 55–80 µs sleeping between requests). Socket
    // timeouts are jiffy-grained (4 ms here) and of no use either way.
    stream.set_nonblocking(true)?;
    let Pace { rate_per_s, limit, max_in_flight } = pace;
    let mut ledger = OpenLedger::new(rate_per_s, script.len());
    let mut tally = Tally { attempted: script.len() as u64, ..Tally::default() };
    let mut assembler = FrameAssembler::new(DEFAULT_MAX_FRAME);
    let mut buf = vec![0u8; 256 * 1024];
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0;
    let mut unchecked: VecDeque<(usize, Vec<u8>)> = VecDeque::new();
    let mut unchecked_bytes = 0;
    let mut check =
        |(i, payload): (usize, Vec<u8>), tally: &mut Tally| match decode_response(&payload) {
            Ok(resp) => judge(i, resp, tally),
            Err(_) => tally.errors += 1,
        };
    let drain = (limit * 4).max(Duration::from_secs(2));
    let t0 = Instant::now();
    let mut drain_until = None;
    while !ledger.done() {
        let now = t0.elapsed();
        while ledger.sent - ledger.received() < max_in_flight
            && ledger.next_due_ns().is_some_and(|due| due <= now.as_nanos() as u64)
        {
            let i = ledger.on_send(now.as_nanos() as u64);
            out.extend_from_slice(&frames[script[i] as usize]);
        }
        while written < out.len() {
            match stream.write(&out[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let now_ns = t0.elapsed().as_nanos() as u64;
                assembler.extend(&buf[..n]);
                while let Some(payload) = assembler
                    .next_frame()
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
                {
                    let i = ledger.on_reply(now_ns);
                    if ledger.latency_ns[i] > limit.as_nanos() as u64 {
                        tally.over_limit += 1;
                    }
                    unchecked_bytes += payload.len();
                    unchecked.push_back((i, payload));
                }
                continue;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => return Err(e),
        }
        let now_ns = t0.elapsed().as_nanos() as u64;
        let idle = ledger.sent == ledger.received()
            && ledger.next_due_ns().is_none_or(|due| due > now_ns + CHECK_SLACK_NS);
        if idle || unchecked_bytes > MAX_UNCHECKED_BYTES {
            if let Some(reply) = unchecked.pop_front() {
                unchecked_bytes -= reply.1.len();
                check(reply, &mut tally);
                continue;
            }
        }
        if ledger.next_due_ns().is_none() {
            let until = *drain_until.get_or_insert(t0.elapsed() + drain);
            if t0.elapsed() >= until {
                break;
            }
        }
        std::thread::yield_now();
    }
    for reply in unchecked {
        check(reply, &mut tally);
    }
    tally.transport += (script.len() - ledger.received()) as u64;
    Ok(OpenLoopRun { ledger, tally })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stalled_reply_charges_the_wait_to_the_requests_queued_behind_it() {
        // 1000 req/s: due at 0, 1, 2, 3 ms; all sent on time.
        let mut l = OpenLedger::new(1000.0, 4);
        for i in 0..4 {
            assert_eq!(l.next_due_ns(), Some(i * MS));
            l.on_send(i * MS);
        }
        assert_eq!(l.next_due_ns(), None);
        // The first reply stalls until 10 ms; the rest follow 0.1 ms apart.
        for (i, at) in [10 * MS, 10 * MS + MS / 10, 10 * MS + 2 * MS / 10, 10 * MS + 3 * MS / 10]
            .into_iter()
            .enumerate()
        {
            assert_eq!(l.on_reply(at), i);
        }
        // Each request waited from its own due time, not from the
        // previous reply: 10, 9.1, 8.2, 7.3 ms.
        assert_eq!(
            l.latency_ns,
            vec![10 * MS, 9 * MS + MS / 10, 8 * MS + 2 * MS / 10, 7 * MS + 3 * MS / 10]
        );
        assert!(l.done());
    }

    #[test]
    fn a_late_generator_is_reported_and_still_charged() {
        let mut l = OpenLedger::new(1000.0, 2);
        l.on_send(0);
        // The generator was busy and sent request 1 (due at 1 ms) at 3 ms.
        l.on_send(3 * MS);
        assert_eq!(l.lag_ns, vec![0, 2 * MS]);
        l.on_reply(MS / 2);
        l.on_reply(3 * MS + MS / 2);
        // Latency still runs from the due time: the lag is inside it.
        assert_eq!(l.latency_ns[1], 2 * MS + MS / 2);
    }

    #[test]
    fn a_growing_backlog_is_flagged_and_a_steady_one_is_not() {
        let mut steady = OpenLedger::new(1000.0, 1000);
        let mut growing = OpenLedger::new(1000.0, 1000);
        for i in 0..1000u64 {
            steady.on_send(i * MS);
            steady.on_reply(i * MS + MS / 2);
            growing.on_send(i * MS);
            if i % 2 == 0 {
                growing.on_reply(i * MS + MS / 2); // answers at half the arrival rate
            }
        }
        assert!(!steady.backlog_growing());
        assert!(growing.backlog_growing());
    }
}
