//! Workload preparation and timing utilities shared by all bench targets.

use crate::config::BenchConfig;
use crate::engine::Engine;
use cpqx_graph::{Graph, LabelSeq};
use cpqx_query::ast::Template;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::Cpq;
use std::time::{Duration, Instant};

/// Result of timing one table cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Timing {
    /// Average seconds per query.
    Avg(f64),
    /// The cell exceeded its wall-clock budget (paper: "did not finish
    /// within two hours").
    Timeout,
    /// The method is not run on this dataset (paper: out of memory / "-").
    Skipped,
}

impl Timing {
    /// Seconds if measured.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Timing::Avg(s) => Some(*s),
            _ => None,
        }
    }

    /// Paper-style cell text (seconds in scientific notation).
    pub fn cell(&self) -> String {
        match self {
            Timing::Avg(s) => format!("{s:.3e}"),
            Timing::Timeout => "timeout".to_string(),
            Timing::Skipped => "-".to_string(),
        }
    }
}

/// Generates the paper's workload: `queries_per_template` filtered random
/// instantiations per template (Sec. VI, "Queries").
pub fn workload_for(
    g: &Graph,
    templates: &[Template],
    cfg: &BenchConfig,
) -> Vec<(Template, Vec<Cpq>)> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, cfg.seed);
    templates.iter().map(|&t| (t, gen.queries(t, cfg.queries_per_template, &probe))).collect()
}

/// Derives the interest set from a workload — the paper specifies "all
/// label sequences in the set of queries as the interests", prefix-split
/// to length ≤ k.
pub fn interests_from_queries<'a>(
    queries: impl IntoIterator<Item = &'a Cpq>,
    k: usize,
) -> Vec<LabelSeq> {
    let mut seqs = Vec::new();
    for q in queries {
        for run in q.label_runs() {
            seqs.push(LabelSeq::from_slice(&run[..run.len().min(cpqx_graph::MAX_SEQ_LEN)]));
        }
    }
    cpqx_core::normalize_interests(seqs, k).into_iter().collect()
}

/// Times the average query latency of `engine` over `queries`, respecting
/// the cell budget. Returns [`Timing::Timeout`] if the budget is exceeded
/// before all queries complete, [`Timing::Skipped`] on an empty workload.
pub fn avg_query_time(engine: &Engine, g: &Graph, queries: &[Cpq], cfg: &BenchConfig) -> Timing {
    if queries.is_empty() {
        return Timing::Skipped;
    }
    let budget = Duration::from_millis(cfg.cell_budget_ms);
    let started = Instant::now();
    let mut total = Duration::ZERO;
    let mut measured = 0u32;
    for q in queries {
        for _ in 0..cfg.reps {
            let t0 = Instant::now();
            let result = engine.evaluate(g, q);
            total += t0.elapsed();
            std::hint::black_box(result);
            measured += 1;
            if started.elapsed() > budget {
                return Timing::Timeout;
            }
        }
    }
    Timing::Avg(total.as_secs_f64() / measured as f64)
}

/// Human-readable byte size (paper's Table IV uses B/M/G).
pub fn fmt_bytes(b: usize) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b >= K * K * K {
        format!("{:.2}G", b / (K * K * K))
    } else if b >= K * K {
        format!("{:.2}M", b / (K * K))
    } else if b >= K {
        format!("{:.2}K", b / K)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;

    #[test]
    fn workload_respects_counts() {
        let g = generate::gex();
        let mut cfg = BenchConfig::from_env();
        cfg.queries_per_template = 3;
        cfg.seed = 1;
        let w = workload_for(&g, &[Template::T, Template::C2], &cfg);
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|(_, qs)| qs.len() <= 3));
        assert!(w.iter().any(|(_, qs)| !qs.is_empty()));
    }

    #[test]
    fn interests_are_normalized() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let q = Cpq::chain(&[f.fwd(), f.fwd(), f.fwd(), f.fwd()]);
        let ints = interests_from_queries([&q], 2);
        assert!(ints.iter().all(|s| s.len() <= 2));
        assert!(!ints.is_empty());
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00K");
        assert!(fmt_bytes(3 * 1024 * 1024).ends_with('M'));
        assert!(fmt_bytes(5 * 1024 * 1024 * 1024).ends_with('G'));
    }

    #[test]
    fn timing_cells() {
        assert_eq!(Timing::Skipped.cell(), "-");
        assert_eq!(Timing::Timeout.cell(), "timeout");
        assert!(Timing::Avg(1.5e-4).cell().contains('e'));
        assert_eq!(Timing::Avg(2.0).seconds(), Some(2.0));
        assert_eq!(Timing::Timeout.seconds(), None);
    }
}
