//! Loopback tests for the METRICS frame: byte-exact codec behaviour
//! over a live TCP connection, the counter list and histograms agreeing
//! with the engine's in-process report, and slow-query capture with a
//! full span tree.

use cpqx_engine::{Engine, EngineOptions, ObsOptions};
use cpqx_graph::generate::{self, RandomGraphConfig};
use cpqx_net::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cpqx_net::{Client, Server, ServerOptions};
use cpqx_obs::{Op as ObsOp, Stage, TraceKind};
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::Template;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start_server(options: EngineOptions) -> (Arc<Engine>, Server) {
    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let (engine, _) = Engine::with_options(g, options);
    let engine = Arc::new(engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind ephemeral port");
    (engine, server)
}

/// Sends `n` queries cycling over a generated workload; returns its texts.
fn drive_queries(client: &mut Client, engine: &Engine, n: usize) -> Vec<String> {
    let snap = engine.snapshot();
    let probe = GraphProbe(snap.graph());
    let mut gen = WorkloadGen::new(snap.graph(), 7);
    let texts: Vec<String> = Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, 1 + n / Template::ALL.len(), &probe))
        .map(|q| q.to_text(snap.graph()))
        .collect();
    assert!(!texts.is_empty());
    for text in texts.iter().cycle().take(n) {
        client.query(text).expect("query over loopback");
    }
    texts
}

/// The METRICS response survives a decode → re-encode cycle byte for
/// byte: what the server put on the wire is exactly what the codec
/// produces for the decoded report.
#[test]
fn metrics_roundtrip_is_byte_exact_over_loopback() {
    let (engine, server) = start_server(EngineOptions { k: 2, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 40);

    // Speak the frame layer directly so the raw response bytes are
    // observable.
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    let mut reader = std::io::BufReader::new(&stream);
    let mut writer = std::io::BufWriter::new(&stream);
    let hello = encode_request(&Request::Hello { version: PROTOCOL_VERSION });
    write_frame(&mut writer, &hello).unwrap();
    let ack = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack), Ok(Response::HelloAck { .. })));
    write_frame(&mut writer, &encode_request(&Request::Metrics)).unwrap();
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap();

    let resp = decode_response(&payload).expect("METRICS_RESULT decodes");
    let Response::Metrics(m) = &resp else { panic!("expected METRICS_RESULT, got {resp:?}") };
    assert!(m.op_histogram(ObsOp::Query).is_some(), "query traffic must be present");
    assert_eq!(encode_response(&resp), payload, "re-encode must reproduce the wire bytes");
    server.shutdown();
}

/// `Client::metrics()` returns the engine's and the front-end's counters
/// by name, the per-opcode histogram `Engine::stats` reads its p50/p99
/// from, and a workload table naming the canonical keys served.
#[test]
fn metrics_report_matches_the_engine_report() {
    let (engine, server) = start_server(EngineOptions { k: 2, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let texts = drive_queries(&mut client, &engine, 117);
    // One text three more times: by the third the event loop answers it
    // from the cache entry's memoized frame, without the pool.
    for _ in 0..3 {
        client.query(&texts[0]).expect("repeat query");
    }

    let m = client.metrics().expect("metrics over loopback");
    assert_eq!(m.epoch, engine.epoch());
    assert_eq!(m.counter("query_requests_total"), Some(120));
    assert_eq!(m.counter("metrics_requests_total"), Some(1));
    assert_eq!(m.counter("queries_total"), Some(120));
    assert_eq!(m.counter("no_such_counter"), None);

    // Every QUERY was either answered on the loop or dispatched; a
    // dispatched one is parsed by its worker and passes through the pool
    // (the Evaluate stage), an inline hit does neither, and both probe
    // the result cache exactly once.
    let inline = m.counter("query_inline_hits_total").expect("inline-hit counter");
    assert!((1..120).contains(&inline), "inline hits: {inline}");
    let dispatched = 120 - inline;
    let stage_count = |stage| m.stage_histogram(stage).map_or(0, |h| h.count());
    assert_eq!(stage_count(Stage::Parse), dispatched);
    assert_eq!(stage_count(Stage::Evaluate), dispatched);
    assert_eq!(stage_count(Stage::CacheProbe), 120);

    // One estimator: the wire histogram is the one the engine report's
    // quantiles come from (its accuracy against exact nearest-rank
    // quantiles is `cpqx-obs`'s `quantiles_track_nearest_rank`).
    let h = m.op_histogram(ObsOp::Query).expect("query histogram");
    assert_eq!(h.count(), 120);
    let stats = engine.stats();
    assert_eq!(h.quantile(0.5).unwrap() as u128, stats.p50.as_micros());
    assert_eq!(h.quantile(0.99).unwrap() as u128, stats.p99.as_micros());

    // Query stages were exercised; their histograms travel too.
    for stage in [Stage::Parse, Stage::Plan, Stage::Eval] {
        assert!(m.stage_histogram(stage).is_some(), "missing {} histogram", stage.name());
    }
    // Canonical keys of the served workload feed the advisor table.
    // Keys are counted on sampled traces (one in `sample_every`), so the
    // table is a sampled frequency estimate, not an exact census.
    assert!(!m.workload.is_empty());
    let sampled: u64 = m.workload.iter().map(|(_, c)| c).sum();
    assert!((1..=120).contains(&sampled), "sampled workload count {sampled} out of range");
    server.shutdown();
}

/// An inline hit is observed like any served query — opcode histogram,
/// cache-probe stage, a sampled trace with the canonical key and the
/// epoch — except that its trace has no parse, plan or eval span: the
/// loop did none of that.
#[test]
fn inline_hits_are_traced_as_a_cache_probe_and_nothing_else() {
    let obs = ObsOptions { sample_every: 1, ..ObsOptions::default() };
    let (engine, server) = start_server(EngineOptions { k: 2, obs, ..Default::default() });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let texts = drive_queries(&mut client, &engine, 1);
    for _ in 0..3 {
        client.query(&texts[0]).expect("repeat query");
    }
    assert_eq!(server.net_stats().query_inline_hits, 2);
    let traces = engine.obs().traces();
    let queries: Vec<_> = traces.iter().filter(|t| t.kind == TraceKind::Query).collect();
    assert_eq!(queries.len(), 4, "every query is sampled at sample_every = 1");
    let (worker_hit, inline) = (queries[1], queries[3]);
    assert!(worker_hit.span(Stage::Parse).is_some() && worker_hit.span(Stage::Plan).is_none());
    let stages: Vec<Stage> = inline.spans.iter().map(|s| s.stage).collect();
    assert_eq!(stages, vec![Stage::CacheProbe], "{}", inline.render());
    assert_eq!((&inline.key, inline.epoch), (&worker_hit.key, engine.epoch()));
    assert_eq!(engine.obs().op_snapshot(ObsOp::Query).count(), 4);
    server.shutdown();
}

/// With a slow-query threshold armed, a wire query over the threshold
/// lands in the slow ring carrying its parse/plan/eval span tree, its
/// canonical key and the epoch it was served at.
#[test]
fn slow_queries_capture_span_tree_over_the_wire() {
    let obs = ObsOptions {
        slow_query: Some(Duration::from_nanos(1)),
        sample_every: 0, // slow capture must not depend on trace sampling
        ..ObsOptions::default()
    };
    let options = EngineOptions {
        k: 2,
        obs,
        // No result cache: every wire query must evaluate, so slow
        // entries always carry the full parse/plan/eval tree.
        result_cache_capacity: 0,
        ..Default::default()
    };
    let (engine, server) = start_server(options);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    drive_queries(&mut client, &engine, 10);

    let m = client.metrics().expect("metrics over loopback");
    assert!(m.slow_total >= 1, "1ns threshold must flag queries");
    let slow = m.slow.last().expect("slow ring entry");
    assert_eq!(slow.kind, TraceKind::Query);
    assert!(!slow.key.is_empty(), "slow entry must carry the canonical key");
    assert_eq!(slow.epoch, engine.epoch());
    for stage in [Stage::Parse, Stage::Plan, Stage::Eval] {
        assert!(slow.span(stage).is_some(), "missing {} span: {}", stage.name(), slow.render());
    }
    server.shutdown();
}
