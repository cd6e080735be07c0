//! Fig. 9: the YAGO2 benchmark queries Y1–Y4 on the YAGO2 stand-in
//! (80M vertices / 164M edges / 38 extended labels in the paper; scaled
//! here), for iaCPQx, iaPath, TurboHom++, Tentris and BFS.
//!
//! Expected shape: iaCPQx has the smallest average time across the four
//! queries; the matchers degrade on the snowflake shapes (Y3/Y4).

use cpqx_bench::harness::{avg_query_time, interests_from_queries};
use cpqx_bench::{BenchConfig, Engine, Method, Table};
use cpqx_graph::generate::RandomGraphConfig;
use cpqx_query::benchqueries::yago_queries;

fn main() {
    let cfg = BenchConfig::from_env();
    // YAGO2: |V|/|E| ratio ~1:2, 19 base labels.
    let vertices = (cfg.edge_budget / 2).max(512) as u32;
    let g = cpqx_graph::generate::random_graph(&RandomGraphConfig::social(
        vertices,
        cfg.edge_budget,
        19,
        cfg.seed,
    ));
    let queries = yago_queries(&g, cfg.seed);
    let interests = interests_from_queries(queries.iter().map(|nq| &nq.query), cfg.k);

    let methods = [Method::IaCpqx, Method::IaPath, Method::TurboHom, Method::Tentris, Method::Bfs];
    let mut headers = vec!["query"];
    headers.extend(methods.iter().map(|m| m.name()));
    let mut table = Table::new("fig09_yago_bench", &headers);

    let engines: Vec<Engine> =
        methods.iter().map(|&m| Engine::build(m, &g, cfg.k, &interests).0).collect();
    for nq in &queries {
        let mut row = vec![nq.name.clone()];
        for e in &engines {
            let qs = [nq.query.clone()];
            row.push(avg_query_time(e, &g, &qs, &cfg).cell());
        }
        table.row(row);
    }
    table.finish();
}
