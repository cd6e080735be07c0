//! Spans and traces: where one request spent its time.
//!
//! A [`Trace`] is the record of one operation (a query, a delta
//! transaction, an index build, a recovery) as a flat preorder list of
//! [`Span`]s — each a named [`Stage`] with its start offset and
//! duration relative to the trace's start. Traces are built through a
//! [`TraceBuilder`] handed out by the recorder only when the operation
//! is sampled (or slow-query logging is armed), so the un-traced fast
//! path never allocates.

use std::time::Instant;

/// The instrumented stages, spanning the five pipelines the recorder
/// covers: query serving, delta transactions, index builds, recovery,
/// and the network server's event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Wire text → CPQ AST (network path only).
    Parse = 0,
    /// Canonical-plan cache probe + planning on miss.
    Plan = 1,
    /// Result-cache probe (including the epoch tag check).
    CacheProbe = 2,
    /// Plan evaluation against the pinned snapshot.
    Eval = 3,
    /// Delta: the O(#chunks) copy-on-write clone of the current snapshot.
    Clone = 4,
    /// Delta: applying ops + lazy index maintenance.
    Maintain = 5,
    /// Delta: write-ahead-log append + flush.
    WalAppend = 6,
    /// Delta: installing the new snapshot for readers.
    Install = 7,
    /// Build: level-1 (single-label) index construction.
    BuildLevel1 = 8,
    /// Build: the partition — refinement levels `2..=k` plus class
    /// assembly, pruned to the interest set for an interest-aware index.
    BuildRefine = 9,
    /// Build: materializing the index from the partition.
    BuildMerge = 10,
    /// Recovery: manifest read + validation.
    RecoverManifest = 11,
    /// Recovery: snapshot chunk decode + graph/index reassembly.
    RecoverChunks = 12,
    /// Recovery: WAL tail replay.
    RecoverReplay = 13,
    /// Server: accepting a burst of new connections on the event loop.
    Accept = 14,
    /// Server: one readiness dispatch for a connection (read + frame
    /// reassembly + decode + inline handling or worker hand-off).
    Readiness = 15,
    /// Server: worker-pool evaluation of one request (includes queue
    /// wait, so the histogram reflects what the client experiences).
    Evaluate = 16,
    /// Server: encoding + flushing completed responses to a socket.
    Write = 17,
}

/// Number of [`Stage`] variants (histogram array size).
pub const STAGE_COUNT: usize = 18;

impl Stage {
    /// All stages, in tag order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Parse,
        Stage::Plan,
        Stage::CacheProbe,
        Stage::Eval,
        Stage::Clone,
        Stage::Maintain,
        Stage::WalAppend,
        Stage::Install,
        Stage::BuildLevel1,
        Stage::BuildRefine,
        Stage::BuildMerge,
        Stage::RecoverManifest,
        Stage::RecoverChunks,
        Stage::RecoverReplay,
        Stage::Accept,
        Stage::Readiness,
        Stage::Evaluate,
        Stage::Write,
    ];

    /// Stable lower-case name (wire-independent; used by the text
    /// exposition).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::CacheProbe => "cache_probe",
            Stage::Eval => "eval",
            Stage::Clone => "clone",
            Stage::Maintain => "maintain",
            Stage::WalAppend => "wal_append",
            Stage::Install => "install",
            Stage::BuildLevel1 => "build_level1",
            Stage::BuildRefine => "build_refine",
            Stage::BuildMerge => "build_merge",
            Stage::RecoverManifest => "recover_manifest",
            Stage::RecoverChunks => "recover_chunks",
            Stage::RecoverReplay => "recover_replay",
            Stage::Accept => "accept",
            Stage::Readiness => "readiness",
            Stage::Evaluate => "evaluate",
            Stage::Write => "write",
        }
    }

    /// Decodes a wire tag (`None` for unknown tags — hostile input).
    pub fn from_u8(tag: u8) -> Option<Stage> {
        Stage::ALL.get(tag as usize).copied()
    }
}

/// What kind of operation a [`Trace`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// One CPQ evaluation (wire or in-process).
    Query = 0,
    /// One delta write transaction.
    Delta = 1,
    /// One index (re)build.
    Build = 2,
    /// One durable-store recovery.
    Recovery = 3,
}

impl TraceKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Query => "query",
            TraceKind::Delta => "delta",
            TraceKind::Build => "build",
            TraceKind::Recovery => "recovery",
        }
    }

    /// Decodes a wire tag.
    pub fn from_u8(tag: u8) -> Option<TraceKind> {
        [TraceKind::Query, TraceKind::Delta, TraceKind::Build, TraceKind::Recovery]
            .get(tag as usize)
            .copied()
    }
}

/// One timed stage inside a trace. Offsets are relative to the trace
/// start; `depth` renders nesting (0 = direct child of the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which stage.
    pub stage: Stage,
    /// Microseconds from trace start to stage start.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth for rendering (0 = top level).
    pub depth: u8,
}

/// One finished trace: the span tree of a single operation, plus the
/// identity needed to act on it (canonical key, epoch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// What was traced.
    pub kind: TraceKind,
    /// Canonical query key (empty for non-query traces).
    pub key: String,
    /// Engine epoch the operation observed/installed.
    pub epoch: u64,
    /// Whole-operation duration in microseconds.
    pub total_us: u64,
    /// Stages in start order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The first span of a given stage, if present.
    pub fn span(&self, stage: Stage) -> Option<&Span> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// Renders the trace as an indented multi-line tree for logs and
    /// the `--metrics-dump` demo.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{} {}us epoch={}", self.kind.name(), self.total_us, self.epoch);
        if !self.key.is_empty() {
            let _ = write!(out, " key={}", self.key);
        }
        for s in &self.spans {
            let _ = write!(
                out,
                "\n{}- {} +{}us {}us",
                "  ".repeat(s.depth as usize + 1),
                s.stage.name(),
                s.start_us,
                s.dur_us
            );
        }
        out
    }
}

/// Accumulates spans for one in-flight operation. Handed out by the
/// recorder only when this operation is being traced; dropped builders
/// record nothing.
#[derive(Debug)]
pub struct TraceBuilder {
    pub(crate) kind: TraceKind,
    pub(crate) t0: Instant,
    /// Whether this trace was selected for the trace ring (as opposed
    /// to existing only so a slow query can be captured).
    pub(crate) sampled: bool,
    pub(crate) key: String,
    pub(crate) epoch: u64,
    pub(crate) depth: u8,
    pub(crate) spans: Vec<Span>,
}

impl TraceBuilder {
    pub(crate) fn new(kind: TraceKind, sampled: bool) -> TraceBuilder {
        TraceBuilder {
            kind,
            t0: Instant::now(),
            sampled,
            key: String::new(),
            epoch: 0,
            depth: 0,
            spans: Vec::with_capacity(8),
        }
    }

    /// Attaches the canonical query key.
    pub fn set_key(&mut self, key: &str) {
        if self.key.is_empty() {
            self.key.push_str(key);
        }
    }

    /// Attaches the epoch the operation observed/installed.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Appends one finished span; `started` is when the stage began
    /// (from the recorder's stage timer), `dur` its duration.
    pub fn push_span(&mut self, stage: Stage, started: Instant, dur: std::time::Duration) {
        let start_us = started.saturating_duration_since(self.t0).as_micros().min(u64::MAX as u128);
        self.spans.push(Span {
            stage,
            start_us: start_us as u64,
            dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
            depth: self.depth,
        });
    }

    pub(crate) fn finish(self) -> (bool, Trace) {
        let total_us = self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
        (
            self.sampled,
            Trace {
                kind: self.kind,
                key: self.key,
                epoch: self.epoch,
                total_us,
                spans: self.spans,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_roundtrip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as u8 as usize, i);
            assert_eq!(Stage::from_u8(i as u8), Some(*s));
        }
        assert_eq!(Stage::from_u8(STAGE_COUNT as u8), None);
        for t in [TraceKind::Query, TraceKind::Delta, TraceKind::Build, TraceKind::Recovery] {
            assert_eq!(TraceKind::from_u8(t as u8), Some(t));
        }
        assert_eq!(TraceKind::from_u8(4), None);
    }

    #[test]
    fn builder_collects_spans_in_order() {
        let mut tb = TraceBuilder::new(TraceKind::Query, true);
        tb.set_key("q/abc");
        tb.set_epoch(7);
        let t = Instant::now();
        tb.push_span(Stage::Parse, t, std::time::Duration::from_micros(3));
        tb.push_span(Stage::Eval, t, std::time::Duration::from_micros(9));
        let (sampled, trace) = tb.finish();
        assert!(sampled);
        assert_eq!(trace.key, "q/abc");
        assert_eq!(trace.epoch, 7);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.span(Stage::Eval).unwrap().dur_us, 9);
        assert!(trace.render().contains("parse"));
    }
}
