//! Fig. 15: impact of the path-length parameter k (1–4) on iaCPQx index
//! size (a) and construction time (b), across dataset stand-ins.
//!
//! Expected shape: both grow with k; the growth flattens where few longer
//! paths match the interests (the paper notes Freebase barely grows).
//!
//! iaCPQx rows are width-packed (a pair in `⌈2·shift / 8⌉` bytes, `shift`
//! the bit width of its class chunk's largest vertex id: 3 bytes below
//! 4,096 vertices) and its `Il2c` postings are array or bitmap containers
//! per 64k-id window, while the Path indexes of Table IV and Fig. 12 still
//! store 8-byte pairs, so comparing these sizes with theirs includes an
//! encoding factor besides the structural one Thm. 4.2 bounds.

use cpqx_bench::harness::{fmt_bytes, interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_query::ast::Template;

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
    let mut size_table =
        Table::new("fig15a_k_index_size", &["dataset", "k=1", "k=2", "k=3", "k=4"]);
    let mut time_table =
        Table::new("fig15b_k_index_time", &["dataset", "k=1", "k=2", "k=3", "k=4"]);

    for ds in datasets {
        let g = ds.generate(cfg.edge_budget, cfg.seed);
        let workload = workload_for(&g, &Template::ALL, &cfg);
        let mut size_row = vec![ds.name().to_string()];
        let mut time_row = vec![ds.name().to_string()];
        for k in 1..=4usize {
            let interests =
                interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), k);
            let (engine, t) = Engine::build(Method::IaCpqx, &g, k, &interests);
            size_row.push(fmt_bytes(engine.size_bytes().unwrap()));
            time_row.push(format!("{:.3}", t.as_secs_f64()));
        }
        size_table.row(size_row);
        time_table.row(time_row);
    }
    size_table.finish();
    time_table.finish();
}
