//! Graph-read companion to Fig. 6: the same template workload, timed
//! through the CPQx executor with single-label join operands read from
//! the graph's label runs (`ExecOptions::csr_faces`, "csr") versus
//! expanded from the index ("rows") — everything else identical: same
//! index, same plans, same answers.
//!
//! Expected shape: the graph-read path wins wherever a join has a single-label
//! operand — chain templates (C2, C4) and the chain legs of the tree and
//! star shapes — because it never materializes or re-sorts the label
//! relation. Pure-conjunction cells are unchanged (the class-level path
//! doesn't touch adjacency).
//!
//! `CPQX_ASSERT_CSR=1` turns the summary into a CI gate: across the
//! cells where the fast path actually engages (the executor's
//! `csr_joins` counter is nonzero — elsewhere the two variants run the
//! identical code and differ only by noise), aggregate CSR-on time must
//! beat CSR-off. On a single-core runner the gate is skipped —
//! interleaved wall-clock timings there measure scheduling noise, not
//! the read path.

use cpqx_bench::harness::{interests_from_queries, workload_for, Timing};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_core::exec::ExecOptions;
use cpqx_core::CpqxIndex;
use cpqx_graph::datasets::Dataset;
use cpqx_graph::Graph;
use cpqx_query::ast::Template;
use cpqx_query::Cpq;
use std::time::{Duration, Instant};

/// One timed pass over the workload cell (averaged seconds per query),
/// stopping at the cell budget.
fn pass(
    idx: &CpqxIndex,
    g: &Graph,
    queries: &[Cpq],
    options: ExecOptions,
    budget: Duration,
) -> Timing {
    let started = Instant::now();
    let mut total = Duration::ZERO;
    let mut n = 0u32;
    for q in queries {
        let t0 = Instant::now();
        std::hint::black_box(idx.evaluate_with_options(g, q, options));
        total += t0.elapsed();
        n += 1;
        if started.elapsed() > budget {
            return Timing::Timeout;
        }
    }
    Timing::Avg(total.as_secs_f64() / n as f64)
}

/// Best-of-reps with the two variants interleaved (off, on, off, on, …)
/// so neither systematically benefits from a warmer cache.
fn best_of(idx: &CpqxIndex, g: &Graph, queries: &[Cpq], cfg: &BenchConfig) -> (Timing, Timing) {
    if queries.is_empty() {
        return (Timing::Skipped, Timing::Skipped);
    }
    let budget = Duration::from_millis(cfg.cell_budget_ms);
    let off = ExecOptions { csr_faces: false, ..ExecOptions::default() };
    let on = ExecOptions::default();
    let (mut best_off, mut best_on) = (Timing::Timeout, Timing::Timeout);
    for _ in 0..cfg.reps.max(1) {
        for (options, best) in [(off, &mut best_off), (on, &mut best_on)] {
            let t = pass(idx, g, queries, options, budget);
            if let (Some(s), prev) = (t.seconds(), best.seconds()) {
                if prev.is_none_or(|p| s < p) {
                    *best = t;
                }
            }
        }
    }
    (best_off, best_on)
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut table = Table::new(
        "fig06_csr",
        &["dataset", "template", "csr-joins", "rows[s]", "csr[s]", "speedup"],
    );
    let (mut total_off, mut total_on) = (0.0f64, 0.0f64);
    let (mut gate_off, mut gate_on) = (0.0f64, 0.0f64);

    // The smaller feasible stand-ins of Fig. 6 — the full-index methods
    // build on all of these (the out-of-memory six are interest-aware
    // territory and measure the same executor anyway).
    for ds in [Dataset::Robots, Dataset::EgoFacebook, Dataset::Advogato, Dataset::StringHS] {
        let g = ds.generate(cfg.edge_budget, cfg.seed);
        let workload = workload_for(&g, &Template::ALL, &cfg);
        let interests =
            interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);
        let (engine, _) = Engine::build(Method::Cpqx, &g, cfg.k, &interests);
        let idx = engine.as_cpqx().unwrap();

        // Sanity: the two read paths must agree before being compared.
        for (_, queries) in &workload {
            if let Some(q) = queries.first() {
                let off = ExecOptions { csr_faces: false, ..ExecOptions::default() };
                assert_eq!(
                    idx.evaluate_with_options(&g, q, ExecOptions::default()),
                    idx.evaluate_with_options(&g, q, off),
                    "CSR answers diverge on {}",
                    ds.name()
                );
            }
        }

        for (template, queries) in &workload {
            // Does this cell exercise a CSR fast path at all? Where it
            // doesn't, both variants execute the identical operators and
            // the measured ratio is pure noise — excluded from the gate.
            let engaged: usize = queries.iter().map(|q| idx.explain(&g, q).1.csr_joins).sum();
            let (off, on) = best_of(idx, &g, queries, &cfg);
            let speedup = match (off.seconds(), on.seconds()) {
                (Some(o), Some(n)) if n > 0.0 => {
                    total_off += o;
                    total_on += n;
                    if engaged > 0 {
                        gate_off += o;
                        gate_on += n;
                    }
                    format!("{:.2}x", o / n)
                }
                _ => "-".to_string(),
            };
            table.row(vec![
                ds.name().to_string(),
                template.name().to_string(),
                engaged.to_string(),
                off.cell(),
                on.cell(),
                speedup,
            ]);
        }
    }
    table.finish();

    if total_on > 0.0 {
        println!(
            "\nAggregate: rows {total_off:.3e}s, csr {total_on:.3e}s ({:.2}x); \
             engaged cells only: rows {gate_off:.3e}s, csr {gate_on:.3e}s ({:.2}x).",
            total_off / total_on,
            if gate_on > 0.0 { gate_off / gate_on } else { f64::NAN }
        );
    }
    if std::env::var("CPQX_ASSERT_CSR").is_ok() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores < 2 {
            println!(
                "\nCPQX_ASSERT_CSR set but only {cores} core available; skipping the gate \
                 (single-core wall-clock is scheduling noise, not read-path cost)."
            );
            return;
        }
        assert!(gate_on > 0.0 && gate_off > 0.0, "CSR gate: no cell engaged a CSR fast path");
        assert!(
            gate_on < gate_off,
            "CSR read-face gate: csr-on {gate_on:.3e}s is not faster than rows {gate_off:.3e}s \
             on the engaged cells"
        );
        println!("\nCSR gate passed: {:.2}x speedup on engaged cells.", gate_off / gate_on);
    }
}
