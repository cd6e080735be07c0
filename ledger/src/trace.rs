//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory, written as Chrome trace events when the run ends.
//! No product file carries a probe; everything here wraps a public call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span under `parent`; returns its id and `f`'s value.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        ((self.spans.len() - 1) as u32, out)
    }

    /// The clock spans are measured against, for code that times a
    /// call in place and hands the span over with [`Tracer::push`].
    pub fn t0(&self) -> Instant {
        self.t0
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus its children's durations
/// (children are matched by `parent`; a child may be a replayed copy of
/// a step the parent ran internally, so it is subtracted by duration,
/// not by overlap). Never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, layer as category, ids in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (id, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.request
        );
        out.push_str(if id + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("engine.query", 0, 100, None),
            span("query.canonicalize", 100, 110, Some(0)), // replayed after the parent
            span("core.exec", 110, 170, Some(0)),
            span("core.lookup", 120, 140, Some(2)), // grandchild charges only its parent
            span("net.decode_response", 200, 230, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 40, 20, 30]);
        // Self times partition the roots' durations.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100 + 30);
    }

    #[test]
    fn self_time_saturates_when_replayed_children_outlast_the_parent() {
        let spans = vec![span("engine.query", 0, 10, None), span("core.exec", 10, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }

    #[test]
    fn tracer_records_and_writes_chrome_events() {
        let mut t = Tracer::default();
        let (root, v) = t.span("engine.query", 7, None, || 41 + 1);
        assert_eq!(v, 42);
        t.span("core.exec", 7, Some(root), || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        let json = chrome_trace_json(t.spans());
        assert!(json.contains("\"name\":\"core.exec\",\"cat\":\"core\""));
        assert!(json.contains("\"parent\":0,\"request\":7"));
    }
}
