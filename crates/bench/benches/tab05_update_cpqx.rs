//! Table V: CPQx update time — average latency of single edge deletions
//! and insertions (the paper deletes and inserts one hundred edges).
//!
//! Expected shape: milliseconds or less per update — orders of magnitude
//! below reconstruction (Table IV's IT column); deletions cost a bit more
//! than insertions (alternative-path checks over larger neighborhoods).
//!
//! A built index holds no pair → class map until its first write; the
//! map is built before the timed updates, and its one-time build cost is
//! a column of its own, so the update columns time maintenance alone.

use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::sample_edges;
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
    ];
    let mut table = Table::new(
        "tab05_update_cpqx",
        &["dataset", "pair map build [s]", "edge deletion [s]", "edge insertion [s]"],
    );

    for ds in datasets {
        let mut g = ds.generate(cfg.edge_budget, cfg.seed);
        let (engine, _) = Engine::build(Method::Cpqx, &g, cfg.k, &[]);
        let mut idx = match engine {
            Engine::Index(i) => i,
            _ => unreachable!(),
        };
        let victims = sample_edges(&g, 100.min(g.edge_count()), cfg.seed ^ 0xBEEF);

        let t0 = Instant::now();
        idx.build_pair_map();
        let map = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for &(v, u, l) in &victims {
            idx.delete_edge(&mut g, v, u, l);
        }
        let del = t0.elapsed().as_secs_f64() / victims.len() as f64;

        let t0 = Instant::now();
        for &(v, u, l) in &victims {
            idx.insert_edge(&mut g, v, u, l);
        }
        let ins = t0.elapsed().as_secs_f64() / victims.len() as f64;

        table.row(vec![
            ds.name().into(),
            format!("{map:.3e}"),
            format!("{del:.3e}"),
            format!("{ins:.3e}"),
        ]);
    }
    table.finish();
}
