//! Table VII: the index-size ratio after lazy updates on the Robots
//! stand-in — size after churning x% of edges (delete + reinsert) relative
//! to the freshly built index, for CPQx and iaCPQx; plus the same for 2–10
//! label-sequence updates on iaCPQx.
//!
//! Expected shape: ratios grow slowly with the update volume (the paper
//! reports 1.02–1.63 for 1–20% edge churn) — lazy maintenance never merges
//! classes, so fragmentation accumulates but stays modest.

use cpqx_bench::harness::{interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::sample_edges;
use cpqx_query::ast::Template;

fn churn_ratio(
    method: Method,
    g0: &cpqx_graph::Graph,
    cfg: &BenchConfig,
    interests: &[cpqx_graph::LabelSeq],
    percent: usize,
) -> f64 {
    let mut g = g0.clone();
    let (engine, _) = Engine::build(method, &g, cfg.k, interests);
    let mut idx = match engine {
        Engine::Index(i) => i,
        _ => unreachable!(),
    };
    let fresh_size = idx.size_bytes() as f64;
    let count = g.edge_count() * percent / 100;
    for (v, u, l) in sample_edges(&g, count, cfg.seed ^ 0xAB) {
        idx.delete_edge(&mut g, v, u, l);
        idx.insert_edge(&mut g, v, u, l);
    }
    idx.size_bytes() as f64 / fresh_size
}

fn main() {
    let cfg = BenchConfig::from_env();
    let g0 = Dataset::Robots.generate(cfg.edge_budget, cfg.seed);
    let workload = workload_for(&g0, &Template::ALL, &cfg);
    let interests = interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);

    let ratios = [1usize, 2, 5, 10, 20];
    let mut headers: Vec<String> = vec!["index".into()];
    headers.extend(ratios.iter().map(|r| format!("{r}%")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new("tab07a_edge_update_ratio", &headers_ref);
    for method in [Method::Cpqx, Method::IaCpqx] {
        let mut row = vec![method.name().to_string()];
        for &r in &ratios {
            row.push(format!("{:.3}", churn_ratio(method, &g0, &cfg, &interests, r)));
        }
        table.row(row);
    }
    table.finish();

    // Label-sequence churn on iaCPQx.
    let counts = [2usize, 4, 6, 8, 10];
    let mut headers: Vec<String> = vec!["index".into()];
    headers.extend(counts.iter().map(|c| format!("{c} seqs")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new("tab07b_seq_update_ratio", &headers_ref);
    let long: Vec<_> = interests.iter().filter(|s| s.len() > 1).copied().collect();
    let mut row = vec!["iaCPQx".to_string()];
    for &c in &counts {
        let mut g = g0.clone();
        let (engine, _) = Engine::build(Method::IaCpqx, &g, cfg.k, &interests);
        let mut idx = match engine {
            Engine::Index(i) => i,
            _ => unreachable!(),
        };
        let fresh = idx.size_bytes() as f64;
        for seq in long.iter().cycle().take(c) {
            idx.delete_interest(seq);
            idx.insert_interest(&mut g, *seq);
        }
        row.push(format!("{:.3}", idx.size_bytes() as f64 / fresh));
    }
    table.row(row);
    table.finish();
}
