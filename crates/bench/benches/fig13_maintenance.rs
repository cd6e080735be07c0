//! Fig. 13: impact of lazy maintenance on query time, on the Robots
//! stand-in: (a) CPQx after updating 0–20% of edges, (b) iaCPQx after the
//! same, (c) iaCPQx after 0–10 label-sequence (workload) updates.
//!
//! Each update step deletes the chosen edges and re-inserts them (the
//! paper's protocol), so the graph — and therefore every query answer — is
//! unchanged while the index fragments. Expected shape: cheap templates
//! (C2i, T) degrade mildly with the update ratio (more LOOKUP classes);
//! join-heavy templates (C4, Si) barely move.

use cpqx_bench::harness::{avg_query_time, interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::sample_edges;
use cpqx_query::ast::Template;

fn main() {
    let cfg = BenchConfig::from_env();
    let g0 = Dataset::Robots.generate(cfg.edge_budget, cfg.seed);
    let workload = workload_for(&g0, &Template::ALL, &cfg);
    let interests = interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);

    for (panel, method) in [("a_cpqx", Method::Cpqx), ("b_iacpqx", Method::IaCpqx)] {
        let mut headers: Vec<String> = vec!["template".into()];
        let ratios = [0usize, 1, 2, 5, 10, 20];
        headers.extend(ratios.iter().map(|r| format!("{r}%")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&format!("fig13{panel}_graph_update"), &headers_ref);

        // Build per ratio: fresh graph + index, churn x% of edges.
        let mut engines = Vec::new();
        for &r in &ratios {
            let mut g = g0.clone();
            let (engine, _) = Engine::build(method, &g, cfg.k, &interests);
            let mut idx = match engine {
                Engine::Index(i) => i,
                _ => unreachable!(),
            };
            let count = g.edge_count() * r / 100;
            for (v, u, l) in sample_edges(&g, count, cfg.seed ^ 0xD1CE) {
                idx.delete_edge(&mut g, v, u, l);
                idx.insert_edge(&mut g, v, u, l);
            }
            engines.push((g, Engine::Index(idx)));
        }
        for (ti, template) in Template::ALL.iter().enumerate() {
            let mut row = vec![template.name().to_string()];
            for (g, engine) in &engines {
                row.push(avg_query_time(engine, g, &workload[ti].1, &cfg).cell());
            }
            table.row(row);
        }
        table.finish();
    }

    // Panel (c): iaCPQx under label-sequence (interest) churn.
    {
        let counts = [0usize, 2, 4, 6, 8, 10];
        let mut headers: Vec<String> = vec!["template".into()];
        headers.extend(counts.iter().map(|c| format!("{c} seqs")));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new("fig13c_workload_update", &headers_ref);

        let long_interests: Vec<_> = interests.iter().filter(|s| s.len() > 1).copied().collect();
        let mut engines = Vec::new();
        for &c in &counts {
            let mut g = g0.clone();
            let (engine, _) = Engine::build(Method::IaCpqx, &g, cfg.k, &interests);
            let mut idx = match engine {
                Engine::Index(i) => i,
                _ => unreachable!(),
            };
            for seq in long_interests.iter().cycle().take(c) {
                idx.delete_interest(seq);
                idx.insert_interest(&mut g, *seq);
            }
            engines.push((g, Engine::Index(idx)));
        }
        for (ti, template) in Template::ALL.iter().enumerate() {
            let mut row = vec![template.name().to_string()];
            for (g, engine) in &engines {
                row.push(avg_query_time(engine, g, &workload[ti].1, &cfg).cell());
            }
            table.row(row);
        }
        table.finish();
    }
    println!("\nNote: answers are identical across all columns (updates are delete+reinsert);");
    println!("only the lazy fragmentation of the index changes.");
}
