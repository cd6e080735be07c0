//! The [`Recorder`]: sampling policy, per-opcode and per-stage
//! histograms, the bounded trace ring, and the slow-query log.
//!
//! One recorder lives in the engine and is shared (behind an `Arc`)
//! with every serving thread. The hot path is built so that:
//!
//! - a **disabled** recorder costs one relaxed load and a branch per
//!   instrumentation point — nothing else runs;
//! - an **enabled but unsampled** operation pays only the per-stage
//!   histogram adds (a few relaxed atomics each) — no allocation, no
//!   locks;
//! - a **sampled** operation additionally accumulates its spans in a
//!   thread-owned buffer (the [`TraceBuilder`] it carries), which
//!   drains into the bounded shared ring in one short mutex section at
//!   the end.
//!
//! Arming the slow-query threshold traces *every* query (the builder
//! is cheap: one small Vec) so a slow one is never missed; sampling
//! still decides which traces enter the general ring.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{Stage, Trace, TraceBuilder, TraceKind, STAGE_COUNT};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The request opcodes the recorder attributes latency to. `Query`
/// covers every individual CPQ evaluation (wire QUERY and each member
/// of a BATCH); `Batch` records whole-batch wall time on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Liveness probe handling.
    Ping = 0,
    /// One CPQ evaluation (the histogram behind p50/p99).
    Query = 1,
    /// One whole BATCH frame.
    Batch = 2,
    /// One DELTA transaction (every write: wire DELTA frames and
    /// in-process `apply_delta` calls alike).
    Delta = 3,
    /// One METRICS exposition.
    Metrics = 4,
}

/// Number of [`Op`] variants (histogram array size).
pub const OP_COUNT: usize = 5;

impl Op {
    /// All opcodes, in tag order.
    pub const ALL: [Op; OP_COUNT] = [Op::Ping, Op::Query, Op::Batch, Op::Delta, Op::Metrics];

    /// Stable lower-case name (used by the text exposition).
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Query => "query",
            Op::Batch => "batch",
            Op::Delta => "delta",
            Op::Metrics => "metrics",
        }
    }

    /// Decodes a wire tag (`None` for unknown tags).
    pub fn from_u8(tag: u8) -> Option<Op> {
        Op::ALL.get(tag as usize).copied()
    }
}

/// Observability knobs, carried inside `EngineOptions`.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Master switch. When off, every instrumentation point reduces to
    /// a relaxed load + branch. Default on.
    pub enabled: bool,
    /// Trace every Nth operation (0 disables trace sampling entirely;
    /// histograms still record). Default 16.
    pub sample_every: u32,
    /// Capacity of the sampled-trace ring. Default 256.
    pub trace_ring: usize,
    /// Capacity of the slow-query ring. Default 64.
    pub slow_log: usize,
    /// Queries at least this slow are captured — span tree, canonical
    /// key, epoch — into the slow-query ring. `None` (default) disarms
    /// the log; arming it traces every query.
    pub slow_query: Option<Duration>,
    /// Maximum distinct canonical keys tracked for the observed
    /// workload (further keys are counted as dropped). Default 4096.
    pub workload_keys: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            sample_every: 16,
            trace_ring: 256,
            slow_log: 64,
            slow_query: None,
            workload_keys: 4096,
        }
    }
}

impl ObsOptions {
    /// A recorder that never records: every probe is a branch.
    pub fn disabled() -> ObsOptions {
        ObsOptions { enabled: false, ..ObsOptions::default() }
    }
}

/// A bounded FIFO of traces (oldest evicted first).
struct Ring {
    buf: VecDeque<Trace>,
    cap: usize,
    /// Total pushes ever, including evicted ones.
    pushed: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring { buf: VecDeque::with_capacity(cap.min(1024)), cap, pushed: 0 }
    }

    fn push(&mut self, t: Trace) {
        self.pushed += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(t);
    }
}

/// The process-wide observability sink (see module docs).
pub struct Recorder {
    enabled: AtomicBool,
    sample_every: u32,
    slow_us: AtomicU64, // 0 = disarmed
    ticket: AtomicU64,
    ops: [Histogram; OP_COUNT],
    stages: [Histogram; STAGE_COUNT],
    traces: Mutex<Ring>,
    slow: Mutex<Ring>,
    workload: Mutex<HashMap<String, u64>>,
    workload_cap: usize,
    workload_dropped: AtomicU64,
}

impl Recorder {
    /// Builds a recorder from options.
    pub fn new(options: &ObsOptions) -> Recorder {
        let slow_us = options
            .slow_query
            .map(|d| d.as_micros().clamp(1, u64::MAX as u128) as u64)
            .unwrap_or(0);
        Recorder {
            enabled: AtomicBool::new(options.enabled),
            sample_every: options.sample_every,
            slow_us: AtomicU64::new(slow_us),
            ticket: AtomicU64::new(0),
            ops: std::array::from_fn(|_| Histogram::new()),
            stages: std::array::from_fn(|_| Histogram::new()),
            traces: Mutex::new(Ring::new(options.trace_ring)),
            slow: Mutex::new(Ring::new(options.slow_log)),
            workload: Mutex::new(HashMap::new()),
            workload_cap: options.workload_keys,
            workload_dropped: AtomicU64::new(0),
        }
    }

    /// Whether the recorder is live (one relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the master switch at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Arms (or disarms, with `None`) the slow-query log at runtime.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let us = threshold.map(|d| d.as_micros().clamp(1, u64::MAX as u128) as u64).unwrap_or(0);
        self.slow_us.store(us, Ordering::Relaxed);
    }

    /// The armed slow-query threshold, if any.
    pub fn slow_threshold(&self) -> Option<Duration> {
        match self.slow_us.load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us)),
        }
    }

    /// Starts a stage timer — `None` (no clock read) when disabled.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Finishes a stage started with [`Recorder::timer`]: records its
    /// duration into the stage histogram and, when this operation is
    /// traced, appends a span to the builder.
    #[inline]
    pub fn stage(&self, stage: Stage, started: Option<Instant>, trace: Option<&mut TraceBuilder>) {
        let Some(started) = started else { return };
        let dur = started.elapsed();
        self.stages[stage as usize].record_duration(dur);
        if let Some(tb) = trace {
            tb.push_span(stage, started, dur);
        }
    }

    /// Decides whether this operation gets a trace: `Some` when it won
    /// the sampling lottery, or — for queries — whenever the slow-query
    /// log is armed (so a slow query is never missed).
    #[inline]
    pub fn begin(&self, kind: TraceKind) -> Option<TraceBuilder> {
        if !self.is_enabled() {
            return None;
        }
        let sampled = self.sample_every > 0
            && self.ticket.fetch_add(1, Ordering::Relaxed).is_multiple_of(self.sample_every as u64);
        let armed = kind == TraceKind::Query && self.slow_us.load(Ordering::Relaxed) > 0;
        if sampled || armed {
            Some(TraceBuilder::new(kind, sampled))
        } else {
            None
        }
    }

    /// Completes a trace: drains it into the sampled ring (if sampled),
    /// the slow-query ring (if over threshold), and the observed
    /// workload counts (queries with a canonical key).
    pub fn finish(&self, builder: TraceBuilder) {
        let (sampled, trace) = builder.finish();
        if trace.kind == TraceKind::Query && !trace.key.is_empty() {
            self.count_workload(&trace.key);
        }
        let slow_us = self.slow_us.load(Ordering::Relaxed);
        if trace.kind == TraceKind::Query && slow_us > 0 && trace.total_us >= slow_us {
            self.slow.lock().unwrap().push(trace.clone());
        }
        if sampled {
            self.traces.lock().unwrap().push(trace);
        }
    }

    /// Records one request's total latency under its opcode.
    #[inline]
    pub fn record_op(&self, op: Op, dur: Duration) {
        if self.is_enabled() {
            self.ops[op as usize].record_duration(dur);
        }
    }

    /// Records an index build's stage timings (always kept: builds are
    /// rare and expensive, so they bypass sampling) and pushes a build
    /// trace into the ring.
    pub fn record_build(
        &self,
        level1: Duration,
        refine: Duration,
        merge: Duration,
        total: Duration,
        epoch: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let t0 = Instant::now();
        let mut tb = TraceBuilder::new(TraceKind::Build, true);
        tb.set_epoch(epoch);
        for (stage, dur) in
            [(Stage::BuildLevel1, level1), (Stage::BuildRefine, refine), (Stage::BuildMerge, merge)]
        {
            self.stages[stage as usize].record_duration(dur);
            tb.push_span(stage, t0, dur);
        }
        let (_, mut trace) = tb.finish();
        trace.total_us = total.as_micros().min(u64::MAX as u128) as u64;
        self.traces.lock().unwrap().push(trace);
    }

    /// Records a recovery's stage timings (always kept, like builds).
    pub fn record_recovery(
        &self,
        manifest: Duration,
        chunks: Duration,
        replay: Duration,
        epoch: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let t0 = Instant::now();
        let mut tb = TraceBuilder::new(TraceKind::Recovery, true);
        tb.set_epoch(epoch);
        for (stage, dur) in [
            (Stage::RecoverManifest, manifest),
            (Stage::RecoverChunks, chunks),
            (Stage::RecoverReplay, replay),
        ] {
            self.stages[stage as usize].record_duration(dur);
            tb.push_span(stage, t0, dur);
        }
        let (_, mut trace) = tb.finish();
        trace.total_us = (manifest + chunks + replay).as_micros().min(u64::MAX as u128) as u64;
        self.traces.lock().unwrap().push(trace);
    }

    /// Snapshot of one opcode's latency histogram.
    pub fn op_snapshot(&self, op: Op) -> HistogramSnapshot {
        self.ops[op as usize].snapshot()
    }

    /// Snapshot of one stage's latency histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage as usize].snapshot()
    }

    /// The sampled-trace ring, oldest first.
    pub fn traces(&self) -> Vec<Trace> {
        self.traces.lock().unwrap().buf.iter().cloned().collect()
    }

    /// The slow-query ring, oldest first.
    pub fn slow_queries(&self) -> Vec<Trace> {
        self.slow.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Total slow queries ever captured (including evicted entries).
    pub fn slow_query_count(&self) -> u64 {
        self.slow.lock().unwrap().pushed
    }

    /// The observed workload: canonical keys with their traced-query
    /// counts, heaviest first. With only sampling armed these are
    /// 1-in-`sample_every` frequencies; with the slow-query log armed
    /// every query is traced and the counts are exact.
    pub fn workload_counts(&self) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> =
            self.workload.lock().unwrap().iter().map(|(k, &c)| (k.clone(), c)).collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }

    /// Keys dropped because the workload table hit its capacity.
    pub fn workload_dropped(&self) -> u64 {
        self.workload_dropped.load(Ordering::Relaxed)
    }

    fn count_workload(&self, key: &str) {
        let mut map = self.workload.lock().unwrap();
        if let Some(c) = map.get_mut(key) {
            *c += 1;
        } else if map.len() < self.workload_cap {
            map.insert(key.to_string(), 1);
        } else {
            self.workload_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("sample_every", &self.sample_every)
            .field("slow_threshold", &self.slow_threshold())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(&ObsOptions::disabled());
        assert!(r.begin(TraceKind::Query).is_none());
        assert!(r.timer().is_none());
        r.record_op(Op::Query, Duration::from_micros(5));
        assert_eq!(r.op_snapshot(Op::Query).count(), 0);
        r.record_build(
            Duration::from_millis(1),
            Duration::from_millis(1),
            Duration::from_millis(1),
            Duration::from_millis(3),
            1,
        );
        assert!(r.traces().is_empty());
    }

    #[test]
    fn sampling_selects_one_in_n() {
        let r = Recorder::new(&ObsOptions { sample_every: 4, ..ObsOptions::default() });
        let mut sampled = 0;
        for _ in 0..32 {
            if let Some(tb) = r.begin(TraceKind::Query) {
                sampled += 1;
                r.finish(tb);
            }
        }
        assert_eq!(sampled, 8);
        assert_eq!(r.traces().len(), 8);
    }

    #[test]
    fn slow_log_captures_over_threshold_and_workload_counts() {
        let r = Recorder::new(&ObsOptions {
            sample_every: 0, // no sampling: traces exist only for the slow log
            slow_query: Some(Duration::from_micros(1)),
            ..ObsOptions::default()
        });
        let mut tb = r.begin(TraceKind::Query).expect("armed slow log traces every query");
        tb.set_key("k1");
        tb.set_epoch(3);
        std::thread::sleep(Duration::from_millis(2));
        r.finish(tb);
        let slow = r.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].key, "k1");
        assert_eq!(slow[0].epoch, 3);
        assert_eq!(r.workload_counts(), vec![("k1".to_string(), 1)]);
        assert_eq!(r.slow_query_count(), 1);
    }

    #[test]
    fn rings_are_bounded() {
        let r =
            Recorder::new(&ObsOptions { sample_every: 1, trace_ring: 4, ..ObsOptions::default() });
        for i in 0..10 {
            let mut tb = r.begin(TraceKind::Query).unwrap();
            tb.set_epoch(i);
            r.finish(tb);
        }
        let traces = r.traces();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces.first().unwrap().epoch, 6); // oldest evicted
        assert_eq!(traces.last().unwrap().epoch, 9);
    }

    #[test]
    fn workload_table_is_bounded() {
        let r = Recorder::new(&ObsOptions {
            sample_every: 1,
            workload_keys: 2,
            ..ObsOptions::default()
        });
        for key in ["a", "b", "c", "a"] {
            let mut tb = r.begin(TraceKind::Query).unwrap();
            tb.set_key(key);
            r.finish(tb);
        }
        let counts = r.workload_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], ("a".to_string(), 2));
        assert_eq!(r.workload_dropped(), 1);
    }
}
