//! Text exposition of a [`WireMetrics`] report.
//!
//! [`render_prometheus`] renders the METRICS frame's typed report in the
//! Prometheus text format (`metric{label="value"} number` lines with
//! `# HELP` / `# TYPE` headers), so a scrape endpoint or a cron job can
//! expose the server's counters and histograms without any metrics
//! dependency. Every entry of the counter list becomes `cpqx_<name>`.
//! Latency histograms render as summaries — `quantile="0.5"` /
//! `quantile="0.99"` series from the log-bucketed sketch, plus the exact
//! `_count` / `_sum` / `_max` series — because the log buckets are the
//! sketch's internal shape, not a useful axis for dashboards.

use crate::proto::WireMetrics;
use std::fmt::Write;

/// Escapes a Prometheus label value (backslash, double quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `m` in the Prometheus text exposition format.
pub fn render_prometheus(m: &WireMetrics) -> String {
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(w, "# HELP cpqx_epoch Current engine snapshot epoch.");
    let _ = writeln!(w, "# TYPE cpqx_epoch gauge");
    let _ = writeln!(w, "cpqx_epoch {}", m.epoch);

    // One loop for every engine and front-end counter: the name table
    // each side exports is the whole schema. A `_total` suffix marks a
    // counter, anything else is a gauge. Names arrive off the wire, so
    // bytes outside the metric-name alphabet are replaced.
    for (name, value) in &m.counters {
        let name: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
            .collect();
        let kind = if name.ends_with("_total") { "counter" } else { "gauge" };
        let _ = writeln!(w, "# TYPE cpqx_{name} {kind}");
        let _ = writeln!(w, "cpqx_{name} {value}");
    }

    for (metric, help, series) in [
        (
            "cpqx_op_latency_us",
            "Whole-operation latency in microseconds, by opcode.",
            m.ops.iter().map(|(op, h)| (op.name(), h)).collect::<Vec<_>>(),
        ),
        (
            "cpqx_stage_latency_us",
            "Pipeline-stage latency in microseconds, by stage.",
            m.stages.iter().map(|(stage, h)| (stage.name(), h)).collect::<Vec<_>>(),
        ),
    ] {
        if series.is_empty() {
            continue;
        }
        let _ = writeln!(w, "# HELP {metric} {help}");
        let _ = writeln!(w, "# TYPE {metric} summary");
        let label = if metric == "cpqx_op_latency_us" { "op" } else { "stage" };
        for (name, h) in series {
            for (q, qn) in [(0.5, "0.5"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(w, "{metric}{{{label}=\"{name}\",quantile=\"{qn}\"}} {v}");
                }
            }
            let _ = writeln!(w, "{metric}_count{{{label}=\"{name}\"}} {}", h.count());
            let _ = writeln!(w, "{metric}_sum{{{label}=\"{name}\"}} {}", h.sum());
            let _ = writeln!(w, "{metric}_max{{{label}=\"{name}\"}} {}", h.max());
        }
    }

    let _ = writeln!(w, "# HELP cpqx_slow_queries_total Queries over the slow-query threshold.");
    let _ = writeln!(w, "# TYPE cpqx_slow_queries_total counter");
    let _ = writeln!(w, "cpqx_slow_queries_total {}", m.slow_total);

    if !m.workload.is_empty() {
        let _ = writeln!(
            w,
            "# HELP cpqx_workload_queries_total Queries served, by canonical query key."
        );
        let _ = writeln!(w, "# TYPE cpqx_workload_queries_total counter");
        for (key, count) in &m.workload {
            let _ =
                writeln!(w, "cpqx_workload_queries_total{{key=\"{}\"}} {count}", escape_label(key));
        }
    }
    let _ = writeln!(w, "# TYPE cpqx_workload_keys_dropped_total counter");
    let _ = writeln!(w, "cpqx_workload_keys_dropped_total {}", m.workload_dropped);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_obs::{Histogram, Op as ObsOp, Stage};
    use std::time::Duration;

    #[test]
    fn renders_all_sections() {
        let h = Histogram::new();
        for us in [10u64, 20, 30, 4000] {
            h.record_duration(Duration::from_micros(us));
        }
        let m = WireMetrics {
            epoch: 3,
            ops: vec![(ObsOp::Query, h.snapshot())],
            stages: vec![(Stage::Eval, h.snapshot())],
            counters: vec![
                ("query_requests_total".into(), 4),
                ("open_connections".into(), 1),
                ("bad name{}".into(), 2),
            ],
            slow_total: 1,
            workload: vec![("(f\"quoted\")".into(), 4)],
            ..WireMetrics::default()
        };
        let text = render_prometheus(&m);
        assert!(text.contains("cpqx_epoch 3"));
        assert!(
            text.contains("# TYPE cpqx_query_requests_total counter\ncpqx_query_requests_total 4")
        );
        assert!(text.contains("# TYPE cpqx_open_connections gauge\ncpqx_open_connections 1"));
        assert!(text.contains("cpqx_bad_name__ 2"), "names off the wire are sanitized");
        assert!(text.contains("cpqx_op_latency_us{op=\"query\",quantile=\"0.99\"}"));
        assert!(text.contains("cpqx_op_latency_us_count{op=\"query\"} 4"));
        assert!(text.contains("cpqx_stage_latency_us_max{stage=\"eval\"} 4000"));
        assert!(text.contains("cpqx_slow_queries_total 1"));
        // Label values are escaped.
        assert!(text.contains("key=\"(f\\\"quoted\\\")\""));
        // Every line is a comment or a `name{...} value` sample.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.rsplit_once(' ').is_some(), "bad line {line:?}");
        }
    }

    #[test]
    fn empty_report_renders_counters_only() {
        let text = render_prometheus(&WireMetrics::default());
        assert!(text.contains("cpqx_epoch 0"));
        assert!(!text.contains("cpqx_op_latency_us"));
        assert!(!text.contains("cpqx_workload_queries_total{"));
    }
}
