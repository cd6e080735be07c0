//! Table IV: index size (IS) and index construction time (IT) for CPQx,
//! iaCPQx, Path and iaPath on every dataset stand-in (including the gMark
//! instances). "-" marks the dataset/method combinations the paper reports
//! as out of memory (interest-unaware indexes on the six largest graphs and
//! on gMark).
//!
//! Expected shape: CPQx is never larger than Path (Thm. 4.2); the
//! interest-aware indexes are far smaller and faster to build than the full
//! ones; Path builds somewhat faster than CPQx (no bisimulation pass).
//!
//! CPQx and iaCPQx rows are width-packed (a pair in `⌈2·shift / 8⌉`
//! bytes, `shift` the bit width of its class chunk's largest vertex id:
//! 3 bytes below 4,096 vertices) and their `Il2c` postings are array or
//! bitmap containers per 64k-id window (2 bytes an id, or one bit per
//! class slot where a window holds over 4,096 ids), while the Path
//! indexes still store 8-byte pairs, so the size ratio between them now
//! includes an encoding factor besides the structural one Thm. 4.2
//! bounds.

use cpqx_bench::harness::{fmt_bytes, interests_from_queries, workload_for};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::datasets::Dataset;
use cpqx_query::ast::Template;

fn full_index_feasible(ds: Dataset) -> bool {
    !matches!(
        ds,
        Dataset::WebGoogle
            | Dataset::WikiTalk
            | Dataset::Yago
            | Dataset::CitPatents
            | Dataset::Wikidata
            | Dataset::Freebase
            | Dataset::GMark1m
            | Dataset::GMark5m
            | Dataset::GMark10m
            | Dataset::GMark15m
            | Dataset::GMark20m
    )
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut table = Table::new(
        "tab04_index_build",
        &[
            "dataset",
            "CPQx IS",
            "CPQx IT[s]",
            "iaCPQx IS",
            "iaCPQx IT[s]",
            "Path IS",
            "Path IT[s]",
            "iaPath IS",
            "iaPath IT[s]",
        ],
    );

    let all: Vec<Dataset> = Dataset::REAL.iter().chain(Dataset::GMARK.iter()).copied().collect();
    for ds in all {
        let g = ds.generate(cfg.edge_budget, cfg.seed);
        let workload = workload_for(&g, &Template::ALL, &cfg);
        let interests =
            interests_from_queries(workload.iter().flat_map(|(_, qs)| qs.iter()), cfg.k);
        let mut row = vec![ds.name().to_string()];
        for method in Method::INDEXES {
            let feasible = method.is_interest_aware() || full_index_feasible(ds);
            if !feasible {
                row.push("-".into());
                row.push("-".into());
                continue;
            }
            let (engine, build_time) = Engine::build(method, &g, cfg.k, &interests);
            row.push(fmt_bytes(engine.size_bytes().unwrap()));
            row.push(format!("{:.3}", build_time.as_secs_f64()));
        }
        table.row(row);
    }
    table.finish();
    println!("\nInvariant check (Thm. 4.2): CPQx IS must never exceed Path IS per dataset.");
}
