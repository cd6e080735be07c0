//! Network serving demo: real TCP clients, live maintenance, stats.
//!
//! Builds a mid-size social graph, constructs the CPQ-aware index through
//! the engine (which times each build phase), and serves it over the wire
//! protocol: several client threads connect through [`cpqx::net::Client`]
//! and replay a CPQ workload (hitting the canonical-query result cache)
//! while a maintenance thread keeps deleting and re-inserting edges —
//! every change installs a fresh snapshot without ever blocking the
//! clients or closing a connection. Finishes with one consistent BATCH
//! frame, the server's METRICS counters, and a graceful shutdown.
//!
//! The server core is event-driven: one epoll loop owns every socket,
//! workers only evaluate, so idle connections cost buffers instead of
//! threads. `--max-conns N` caps concurrently open connections (the
//! default is 10 000; over-cap connects are answered with a BUSY error
//! frame, visible in the final METRICS line as rejected connections).
//!
//! Set `CPQX_NET_LISTEN` (e.g. `127.0.0.1:7777`) to keep the server in
//! the foreground for external clients (`net_client` connects with
//! `CPQX_NET_ADDR`) instead of running the self-contained demo.
//!
//! Pass `--data-dir <path>` to serve durably: on first boot the seed
//! graph is snapshotted there, every maintenance transaction is logged
//! to the write-ahead log, and a later boot with the same flag recovers
//! the persisted state (snapshot + WAL tail) instead of rebuilding —
//! the demo logs what recovery restored.
//!
//! Observability flags: `--slow-query-us N` arms the recorder's
//! slow-query threshold (every wire query slower than N microseconds is
//! captured with its parse/plan/eval span tree), and `--metrics-dump`
//! fetches the METRICS frame at the end of the run and prints the
//! Prometheus-style rendering plus any captured slow-query traces.
//!
//! Run with: `cargo run --release --example engine_server [-- --data-dir DIR]`

use cpqx::engine::{Delta, Engine, EngineOptions};
use cpqx::graph::generate::{random_graph, sample_edges, RandomGraphConfig};
use cpqx::net::{render_prometheus, Client, Server, ServerOptions};
use cpqx::query::workload::{GraphProbe, WorkloadGen};
use cpqx::query::Template;
use cpqx::store::{durable_engine, StoreOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const RUN_FOR: Duration = Duration::from_millis(600);

/// The value following `--<name>` (or `--<name>=<value>`), if any.
fn flag_value(name: &str) -> Option<String> {
    let (bare, prefixed) = (format!("--{name}"), format!("--{name}="));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == bare {
            return Some(args.next().unwrap_or_else(|| panic!("{bare} requires a value")));
        }
        if let Some(value) = arg.strip_prefix(&prefixed) {
            return Some(value.to_string());
        }
    }
    None
}

/// True when the bare `--<name>` flag is present.
fn has_flag(name: &str) -> bool {
    let bare = format!("--{name}");
    std::env::args().skip(1).any(|arg| arg == bare)
}

fn main() {
    let seed = || random_graph(&RandomGraphConfig::social(2_000, 9_000, 4, 42));
    let options = EngineOptions { k: 2, ..EngineOptions::default() };

    let engine = if let Some(dir) = flag_value("data-dir") {
        let t0 = Instant::now();
        let start =
            durable_engine(&dir, StoreOptions::default(), options, seed).expect("durable start");
        match &start.recovered {
            Some(r) => println!(
                "recovered {dir} in {:?}: generation {}, {} WAL transactions replayed \
                 ({} torn bytes dropped), {} vertices / {} base edges at epoch {}",
                t0.elapsed(),
                r.generation,
                r.replayed_transactions,
                r.dropped_wal_bytes,
                r.vertex_count,
                r.edge_count,
                start.engine.epoch(),
            ),
            None => println!(
                "fresh durable start in {dir}: seed graph built and snapshotted in {:?}",
                t0.elapsed()
            ),
        }
        Arc::new(start.engine)
    } else {
        let t0 = Instant::now();
        let (engine, report) = Engine::with_options(seed(), options);
        println!(
            "build: {:?} total (level1 {:?}, refine {:?}, merge {:?})",
            t0.elapsed(),
            report.level1,
            report.refine,
            report.merge
        );
        Arc::new(engine)
    };

    if let Some(us) = flag_value("slow-query-us") {
        let us: u64 = us.parse().expect("--slow-query-us expects microseconds");
        engine.obs().set_slow_threshold(Some(Duration::from_micros(us)));
        println!("slow-query capture armed at {us}us");
    }

    // A repeating workload of filtered template queries against the
    // *served* graph (recovered or fresh), rendered to the wire text
    // syntax.
    let snap = engine.snapshot();
    let g = snap.graph();
    println!("graph: {} vertices, {} base edges", g.vertex_count(), g.edge_count());
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, 7);
    let workload: Vec<String> = Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, 3, &probe))
        .map(|q| q.to_text(g))
        .collect();
    drop(snap);
    println!("workload: {} CPQs across {} templates", workload.len(), Template::ALL.len());

    // Put it on the wire (event-driven core: one epoll loop, a small
    // evaluation pool, BUSY rejections past the connection cap).
    let listen = std::env::var("CPQX_NET_LISTEN").unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let mut server_opts = ServerOptions::default();
    if let Some(cap) = flag_value("max-conns") {
        server_opts.max_connections = cap.parse().expect("--max-conns expects a count");
        println!("connection cap: {}", server_opts.max_connections);
    }
    let server =
        Server::bind(Arc::clone(&engine), &*listen, server_opts).expect("bind TCP listener");
    let addr = server.local_addr();
    println!("serving on {addr} (protocol v{})", cpqx::net::PROTOCOL_VERSION);
    if std::env::var("CPQX_NET_LISTEN").is_ok() {
        println!("foreground mode: press Ctrl-C to stop");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Serve: CLIENTS TCP clients + one in-process maintenance thread.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = Arc::clone(&stop);
                let workload = &workload;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut served = 0u64;
                    let mut i = c; // stagger clients across the workload
                    while !stop.load(Ordering::Relaxed) {
                        let reply =
                            client.query(&workload[i % workload.len()]).expect("wire query");
                        std::hint::black_box(reply.pairs.len());
                        served += 1;
                        i += 1;
                    }
                    served
                })
            })
            .collect();

        let maintenance = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut round = 0u64;
                let mut updates = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Typed delta transactions: one snapshot install per
                    // round, and — when serving with `--data-dir` — one
                    // WAL record each, so a crash replays them on boot.
                    let snap = engine.snapshot();
                    let mut delta = Delta::new();
                    for (v, u, l) in sample_edges(snap.graph(), 2, round) {
                        delta = delta.delete_edge(v, u, l).insert_edge(v, u, l);
                    }
                    drop(snap);
                    if !delta.is_empty() {
                        updates +=
                            engine.apply_delta(&delta).expect("sampled edges are valid").applied
                                as u64;
                    }
                    round += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                updates
            })
        };

        std::thread::sleep(RUN_FOR);
        stop.store(true, Ordering::Relaxed);
        let served: u64 = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
        let updates = maintenance.join().expect("maintenance thread panicked");
        println!(
            "served {served} queries to {CLIENTS} TCP clients while applying {updates} updates \
             ({} snapshot swaps, final epoch {})",
            engine.stats().snapshot_swaps,
            engine.epoch()
        );
    });

    // One consistent batch over the wire, then the server's own stats.
    let mut client = Client::connect(addr).expect("batch client connects");
    let t0 = Instant::now();
    let batch = client.batch(&workload).expect("wire batch");
    println!(
        "batch: {} queries in {:?} on epoch {} ({} total pairs)",
        batch.results.len(),
        t0.elapsed(),
        batch.epoch,
        batch.results.iter().map(Vec::len).sum::<usize>(),
    );

    let m = client.metrics().expect("wire metrics");
    let counters: Vec<String> =
        m.counters.iter().map(|(name, value)| format!("{name}={value}")).collect();
    println!("metrics: epoch={} {}", m.epoch, counters.join(" "));
    if has_flag("metrics-dump") {
        println!("\n--- metrics dump (METRICS frame, Prometheus rendering) ---");
        print!("{}", render_prometheus(&m));
        if m.slow.is_empty() {
            println!("--- no slow queries captured ---");
        } else {
            println!("--- {} slow queries captured, newest last ---", m.slow_total);
            for trace in &m.slow {
                println!("{}", trace.render());
            }
        }
    }
    drop(client);
    server.shutdown();
    println!("server shut down cleanly");
}
