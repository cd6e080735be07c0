//! Fig. 12: impact of the label-alphabet size on index size, on the
//! ego-Facebook stand-in with |L| ∈ {16, 32, …, 1024} (extended counts).
//!
//! Expected shape: Path and CPQx grow with the label count (more
//! sequences / more classes); iaPath and iaCPQx *shrink* (fewer pairs match
//! any fixed set of interests as labels spread thinner); CPQ-aware indexes
//! stay below their language-unaware counterparts throughout.
//!
//! CPQx and iaCPQx rows are width-packed (a pair in `⌈2·shift / 8⌉`
//! bytes, `shift` the bit width of its class chunk's largest vertex id:
//! 3 bytes below 4,096 vertices), while the Path indexes still store
//! 8-byte pairs, so the size ratio between them now includes an encoding
//! factor besides the structural one Thm. 4.2 bounds.

use cpqx_bench::harness::{fmt_bytes, interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_query::ast::Template;

fn main() {
    let cfg = BenchConfig::from_env();
    let spec = Dataset::EgoFacebook.spec();
    let scale = (cfg.edge_budget as f64 / spec.base_edges() as f64).min(1.0);
    let vertices = ((spec.vertices as f64 * scale) as u32).max(64);
    let base_edges = ((spec.base_edges() as f64 * scale) as usize).max(128);

    let mut table =
        Table::new("fig12_label_size", &["|L| (ext)", "Path", "CPQx", "iaPath", "iaCPQx"]);

    for ext_labels in [16u16, 32, 64, 128, 256, 512, 1024] {
        let g = random_graph(&RandomGraphConfig::social(
            vertices,
            base_edges,
            ext_labels / 2,
            cfg.seed,
        ));
        let workload = workload_for(&g, &Template::ALL, &cfg);
        let interests =
            interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);
        let mut row = vec![ext_labels.to_string()];
        for method in [Method::Path, Method::Cpqx, Method::IaPath, Method::IaCpqx] {
            let (engine, _) = Engine::build(method, &g, cfg.k, &interests);
            row.push(fmt_bytes(engine.size_bytes().unwrap()));
        }
        table.row(row);
    }
    table.finish();
}
