//! Network front-end throughput: loopback round-trip serving versus
//! in-process serving, across client counts and the BATCH fast path.
//!
//! Expected shape: single-client wire qps trails in-process qps by the
//! per-request framing + syscall overhead; concurrent clients close most
//! of the gap (the worker pool overlaps parsing/evaluation with I/O);
//! one BATCH frame amortizes framing across the whole workload and lands
//! near in-process batch throughput.
//!
//! A second table isolates the three shapes a single QUERY round trip
//! takes: a **hit** (answered on the event loop from the cache entry's
//! memoized frame — `inline` is the share of the pass that was), a
//! **miss** (same texts against an engine without a result cache: parse,
//! evaluate and encode at a worker, every time) and a **large hit** (the
//! workload's largest answer, repeated: bytes written by reference).
//!
//! Knobs: the usual `CPQX_*` variables plus `CPQX_NET_CLIENTS`
//! (default 4) and `CPQX_NET_ROUNDS` (default 3 — workload repeats per
//! measurement, so cache hits are exercised).

use cpqx_bench::harness::workload_for;
use cpqx_bench::{env_parse, BenchConfig, Table};
use cpqx_engine::{BatchOptions, Engine, EngineOptions, ExecOptions};
use cpqx_graph::datasets::Dataset;
use cpqx_net::{Client, Server, ServerOptions};
use cpqx_query::ast::Template;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let cfg = BenchConfig::from_env();
    let clients: usize = env_parse("CPQX_NET_CLIENTS", 4);
    let rounds: usize = env_parse("CPQX_NET_ROUNDS", 3).max(1);

    let wire_col = format!("wire x{clients}[qps]");
    let mut table = Table::new(
        "net_throughput",
        &[
            "dataset",
            "queries",
            "in-proc[qps]",
            "exec rows[qps]",
            "exec csr[qps]",
            "wire x1[qps]",
            &wire_col,
            "batch[qps]",
            "hit rate",
        ],
    );

    let mut paths = Table::new(
        "net_query_paths",
        &["dataset", "hit[qps]", "inline", "miss[qps]", "large hit[qps]", "large answer[pairs]"],
    );

    for ds in [Dataset::Advogato, Dataset::StringHS] {
        let g = ds.generate(cfg.edge_budget, cfg.seed);
        let uncached = g.clone();
        let queries: Vec<_> =
            workload_for(&g, &Template::ALL, &cfg).into_iter().flat_map(|(_, qs)| qs).collect();
        let texts: Vec<String> = queries.iter().map(|q| q.to_text(&g)).collect();

        let (engine, _) = Engine::with_options(g, EngineOptions { k: cfg.k, ..Default::default() });
        let engine = Arc::new(engine);

        // In-process baseline: the engine's own batch path.
        let t0 = Instant::now();
        for _ in 0..rounds {
            engine.evaluate_batch(&queries, BatchOptions::default());
        }
        let inproc_qps = (rounds * queries.len()) as f64 / t0.elapsed().as_secs_f64();

        // Raw executor throughput on the served snapshot, CSR read faces
        // off versus on — the cache-free read-path comparison the wire
        // numbers sit on top of.
        let snap = engine.snapshot();
        snap.graph().ensure_csr();
        let mut exec_qps = [0.0f64; 2];
        let variants =
            [ExecOptions { csr_faces: false, ..ExecOptions::default() }, ExecOptions::default()];
        for (slot, options) in exec_qps.iter_mut().zip(variants) {
            let t0 = Instant::now();
            for _ in 0..rounds {
                for q in &queries {
                    std::hint::black_box(snap.index().evaluate_with_options(
                        snap.graph(),
                        q,
                        options,
                    ));
                }
            }
            *slot = (rounds * queries.len()) as f64 / t0.elapsed().as_secs_f64();
        }

        let server = Server::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerOptions { workers: clients.max(2), ..ServerOptions::default() },
        )
        .expect("bind");
        let addr = server.local_addr();

        // Single client, sequential round-trips. Dropped afterwards so
        // it neither occupies a server worker nor idles into the read
        // timeout during the later phases.
        let wire1_qps = {
            let mut c = Client::connect(addr).expect("connect");
            let t0 = Instant::now();
            for _ in 0..rounds {
                for t in &texts {
                    std::hint::black_box(c.query(t).expect("query").pairs.len());
                }
            }
            (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64()
        };

        // Concurrent clients, sharing the workload.
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..clients {
                let texts = &texts;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for round in 0..rounds {
                        for (i, t) in texts.iter().enumerate() {
                            if i % clients == (w + round) % clients {
                                std::hint::black_box(c.query(t).expect("query").pairs.len());
                            }
                        }
                    }
                });
            }
        });
        let wiren_qps = (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64();

        // One BATCH frame per round, on a fresh connection.
        let mut c = Client::connect(addr).expect("connect");
        let t0 = Instant::now();
        for _ in 0..rounds {
            std::hint::black_box(c.batch(&texts).expect("batch").results.len());
        }
        let batch_qps = (rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64();

        let stats = engine.stats();
        table.row(vec![
            ds.name().to_string(),
            texts.len().to_string(),
            format!("{inproc_qps:.0}"),
            format!("{:.0}", exec_qps[0]),
            format!("{:.0}", exec_qps[1]),
            format!("{wire1_qps:.0}"),
            format!("{wiren_qps:.0}"),
            format!("{batch_qps:.0}"),
            format!("{:.1}%", stats.result_hit_rate * 100.0),
        ]);
        drop(c);

        // The query paths, `rounds` passes each. Every text has been
        // served several times by now, so a pass over them is all hits.
        let one_pass = |addr, texts: &[&String]| {
            let mut c = Client::connect(addr).expect("connect");
            let mut most = 0usize;
            let t0 = Instant::now();
            for t in texts.iter().cycle().take(rounds * texts.len()) {
                most = most.max(c.query(t).expect("query").pairs.len());
            }
            ((rounds * texts.len()) as f64 / t0.elapsed().as_secs_f64(), most)
        };
        let all: Vec<&String> = texts.iter().collect();
        let inline_before = server.net_stats().query_inline_hits;
        let (hit_qps, _) = one_pass(addr, &all);
        let inline = server.net_stats().query_inline_hits - inline_before;
        let snap = engine.snapshot();
        let (large, largest) = queries
            .iter()
            .zip(&texts)
            .map(|(q, t)| (engine.query_on(&snap, q).len(), t))
            .max()
            .expect("nonempty workload");
        let (large_qps, seen) = one_pass(addr, &vec![largest; texts.len()]);
        assert_eq!(seen, large, "the large answer must arrive whole");
        server.shutdown();

        let (engine, _) = Engine::with_options(
            uncached,
            EngineOptions { k: cfg.k, result_cache_capacity: 0, ..Default::default() },
        );
        let server =
            Server::bind(Arc::new(engine), "127.0.0.1:0", ServerOptions::default()).expect("bind");
        one_pass(server.local_addr(), &all); // plans cached, CSR faces built
        let (miss_qps, _) = one_pass(server.local_addr(), &all);
        server.shutdown();
        paths.row(vec![
            ds.name().to_string(),
            format!("{hit_qps:.0}"),
            format!("{:.0}%", 100.0 * inline as f64 / (rounds * texts.len()) as f64),
            format!("{miss_qps:.0}"),
            format!("{large_qps:.0}"),
            large.to_string(),
        ]);
    }

    table.finish();
    paths.finish();
    println!(
        "\nInvariant check: batch qps should dominate single-request wire qps (framing is \
         amortized); concurrent wire qps should exceed single-client wire qps."
    );
}
