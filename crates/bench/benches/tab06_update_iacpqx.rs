//! Table VI: iaCPQx update time — edge deletion/insertion plus label-
//! sequence (interest) deletion/insertion, averaged over one hundred
//! operations.
//!
//! Expected shape: edge updates comparable to CPQx's (Table V); label-
//! sequence deletion is near-instant (drop one `Il2c` key); insertion costs
//! a sequence evaluation plus class splits.
//!
//! The pair → class map a built index lacks until its first write is
//! built before the timed updates; its one-time cost is its own column.

use cpqx_bench::harness::{interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::sample_edges;
use cpqx_query::ast::Template;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    let datasets = [
        Dataset::Robots,
        Dataset::Advogato,
        Dataset::BioGrid,
        Dataset::StringHS,
        Dataset::StringFC,
        Dataset::Youtube,
        Dataset::Yago,
        Dataset::Wikidata,
        Dataset::Freebase,
    ];
    let mut table = Table::new(
        "tab06_update_iacpqx",
        &[
            "dataset",
            "pair map build [s]",
            "edge del [s]",
            "edge ins [s]",
            "seq del [s]",
            "seq ins [s]",
        ],
    );

    for ds in datasets {
        let mut g = ds.generate(cfg.edge_budget, cfg.seed);
        let workload = workload_for(&g, &Template::ALL, &cfg);
        let interests =
            interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);
        let (engine, _) = Engine::build(Method::IaCpqx, &g, cfg.k, &interests);
        let mut idx = match engine {
            Engine::Index(i) => i,
            _ => unreachable!(),
        };
        let victims = sample_edges(&g, 100.min(g.edge_count()), cfg.seed ^ 0xFEED);

        let t0 = Instant::now();
        idx.build_pair_map();
        let map = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for &(v, u, l) in &victims {
            idx.delete_edge(&mut g, v, u, l);
        }
        let edge_del = t0.elapsed().as_secs_f64() / victims.len() as f64;
        let t0 = Instant::now();
        for &(v, u, l) in &victims {
            idx.insert_edge(&mut g, v, u, l);
        }
        let edge_ins = t0.elapsed().as_secs_f64() / victims.len() as f64;

        // Label-sequence churn over the workload's (length ≥ 2) interests.
        let long: Vec<_> = interests.iter().filter(|s| s.len() > 1).copied().collect();
        let (seq_del, seq_ins) = if long.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            let reps: Vec<_> = long.iter().cycle().take(100).copied().collect();
            // Deletion alone is O(1) hash removal (Sec. V-C).
            let t0 = Instant::now();
            for s in &reps {
                idx.delete_interest(s);
            }
            let del = t0.elapsed().as_secs_f64() / reps.len() as f64;
            let t0 = Instant::now();
            for s in &reps {
                idx.insert_interest(&mut g, *s);
            }
            let ins = t0.elapsed().as_secs_f64() / reps.len() as f64;
            (del, ins)
        };

        table.row(vec![
            ds.name().into(),
            format!("{map:.3e}"),
            format!("{edge_del:.3e}"),
            format!("{edge_ins:.3e}"),
            format!("{seq_del:.3e}"),
            format!("{seq_ins:.3e}"),
        ]);
    }
    table.finish();
}
