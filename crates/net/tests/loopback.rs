//! Loopback integration tests: a live TCP server under concurrent
//! clients and wire-driven maintenance, verified against sequential
//! engine evaluation on pinned snapshots.

use cpqx_core::CpqxIndex;
use cpqx_engine::{CheckpointReport, DeltaOp, DurabilitySink, Engine, EngineOptions, Snapshot};
use cpqx_graph::generate::{self, sample_edges, RandomGraphConfig};
use cpqx_graph::{Graph, Label, Pair};
use cpqx_net::proto::{
    decode_response, encode_request, encode_response, read_frame, write_frame, FrameError, Request,
    Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use cpqx_net::{Client, ClientError, ErrorCode, Server, ServerOptions, WireOp, WireOutcome};
use cpqx_query::eval::eval_reference;
use cpqx_query::workload::{GraphProbe, WorkloadGen};
use cpqx_query::{benchqueries, parse_cpq, Cpq, Template};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A CPQ workload rendered both as text (for the wire) and AST (for the
/// verification oracle).
fn text_workload(g: &cpqx_graph::Graph, per_template: usize) -> Vec<(String, Cpq)> {
    let probe = GraphProbe(g);
    let mut gen = WorkloadGen::new(g, 23);
    Template::ALL
        .iter()
        .flat_map(|&t| gen.queries(t, per_template, &probe))
        .map(|q| (q.to_text(g), q))
        .collect()
}

fn start_server(graph: cpqx_graph::Graph, workers: usize) -> (Arc<Engine>, Server) {
    start_server_with(graph, workers, EngineOptions { k: 2, ..Default::default() })
}

fn start_server_with(
    graph: cpqx_graph::Graph,
    workers: usize,
    opts: EngineOptions,
) -> (Arc<Engine>, Server) {
    let (engine, _) = Engine::with_options(graph, opts);
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { workers, ..ServerOptions::default() },
    )
    .expect("bind ephemeral port");
    (engine, server)
}

/// A raw connection that has completed the handshake, for tests that
/// drive the frame layer by hand.
fn handshaken(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(&mut stream, &encode_request(&Request::Hello { version: PROTOCOL_VERSION }))
        .unwrap();
    let ack = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&ack).unwrap(), Response::HelloAck { .. }));
    stream
}

/// The acceptance scenario: ≥8 concurrent TCP clients query a live
/// server while a writer client applies one-op DELTA frames over the
/// same wire; every response must match sequential engine evaluation on the
/// snapshot of the epoch it reported — no torn reads — and the server
/// must shut down cleanly afterwards.
#[test]
fn concurrent_clients_with_live_wire_maintenance() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 36;
    const WRITER_ROUNDS: u64 = 8;

    let g = generate::random_graph(&RandomGraphConfig::social(200, 1_000, 4, 11));
    let workload = text_workload(&g, 2);
    assert!(workload.len() >= 12, "workload too small to exercise the server");
    let (engine, server) = start_server(g, CLIENTS + 4);
    let addr = server.local_addr();

    // Oracle: every installed epoch's snapshot, pinned. The writer is
    // the only source of installs, so it can record each one right
    // after its DELTA is acknowledged.
    let snapshots: Mutex<HashMap<u64, Arc<Snapshot>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(0, engine.snapshot());

    // (workload index, reported epoch, answer) per served query.
    type Served = (usize, u64, Vec<Pair>);

    let observations: Vec<Vec<Served>> = std::thread::scope(|scope| {
        let workload = &workload;
        let snapshots = &snapshots;
        let engine = &engine;

        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut applied = 0u64;
            for round in 0..WRITER_ROUNDS {
                let snap = engine.snapshot();
                for (v, u, l) in sample_edges(snap.graph(), 2, round) {
                    let name = snap.graph().label_name(l).to_string();
                    for insert in [false, true] {
                        let ack = if insert {
                            client.insert_edge(v, u, &name).expect("wire insert")
                        } else {
                            client.delete_edge(v, u, &name).expect("wire delete")
                        };
                        if ack.applied() > 0 {
                            applied += 1;
                            let now = engine.snapshot();
                            assert_eq!(
                                now.epoch(),
                                ack.epoch,
                                "sole writer: ack epoch must be current"
                            );
                            snapshots.lock().unwrap().insert(ack.epoch, now);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            applied
        });

        let readers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut served: Vec<Served> = Vec::new();
                    for j in 0..QUERIES_PER_CLIENT {
                        let at = (c * 7 + j * 3) % workload.len();
                        if j % 6 == 5 {
                            // Exercise BATCH: three queries, one snapshot.
                            let idxs = [at, (at + 1) % workload.len(), (at + 2) % workload.len()];
                            let texts: Vec<&str> =
                                idxs.iter().map(|&i| workload[i].0.as_str()).collect();
                            let reply = client.batch(&texts).expect("wire batch");
                            assert_eq!(reply.results.len(), idxs.len());
                            for (&i, pairs) in idxs.iter().zip(reply.results) {
                                served.push((i, reply.epoch, pairs));
                            }
                        } else {
                            let reply = client.query(&workload[at].0).expect("wire query");
                            served.push((at, reply.epoch, reply.pairs));
                        }
                    }
                    // Keep querying (bounded) until this reader has
                    // witnessed at least one maintenance install, so the
                    // read/write overlap is guaranteed, not probabilistic.
                    let mut extra = 0usize;
                    while served.iter().all(|&(_, epoch, _)| epoch == 0) && extra < 500 {
                        let at = (c + extra) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        extra += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    served
                })
            })
            .collect();

        let applied = writer.join().expect("writer thread");
        assert!(applied > 0, "the writer must actually install snapshots");
        readers.into_iter().map(|r| r.join().expect("reader thread")).collect()
    });

    // Verify every wire answer against sequential evaluation on the
    // snapshot of the epoch the server reported.
    let snapshots = snapshots.into_inner().unwrap();
    let mut checked = 0usize;
    let mut epochs_seen: Vec<u64> = Vec::new();
    for served in &observations {
        for (at, epoch, pairs) in served {
            let snap = snapshots
                .get(epoch)
                .unwrap_or_else(|| panic!("answer reports unknown epoch {epoch}"));
            let (text, q) = &workload[*at];
            assert_eq!(&snap.evaluate(q), pairs, "torn read for {text:?} at epoch {epoch}");
            checked += 1;
            epochs_seen.push(*epoch);
        }
    }
    assert!(checked >= CLIENTS * QUERIES_PER_CLIENT, "checked only {checked} answers");
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(
        epochs_seen.len() > 1,
        "maintenance must have been visible to readers (saw epochs {epochs_seen:?})"
    );

    let stats = engine.stats();
    assert!(stats.snapshot_swaps > 0);
    server.shutdown();
    // Clean shutdown: the port no longer accepts connections.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "server port must be released after shutdown"
    );
}

/// Typed delta transactions over the wire under concurrent readers,
/// with the engine's fragmentation threshold set low enough that an
/// automatic defragmenting rebuild fires mid-run: readers pinned on the
/// pre-churn epoch stay byte-for-byte consistent, every live answer
/// matches sequential evaluation on the snapshot of the epoch it
/// reports, and per-op DELTA acks carry correct typed outcomes.
#[test]
fn typed_deltas_with_pinned_readers_and_auto_rebuild() {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 24;
    const WRITER_ROUNDS: u64 = 24;

    let g = generate::random_graph(&RandomGraphConfig::social(150, 700, 3, 17));
    let workload = text_workload(&g, 2);
    assert!(workload.len() >= 10);
    let (engine, server) = start_server_with(
        g,
        CLIENTS + 2,
        EngineOptions { k: 2, auto_rebuild_ratio: Some(1.05), ..Default::default() },
    );
    let addr = server.local_addr();

    // The pre-churn snapshot and its answers: the pin readers re-check
    // against these *while* deltas and rebuilds land.
    let snap0 = engine.snapshot();
    let initial: Vec<Vec<Pair>> = workload.iter().map(|(_, q)| snap0.evaluate(q)).collect();

    let snapshots: Mutex<HashMap<u64, Arc<Snapshot>>> = Mutex::new(HashMap::new());
    snapshots.lock().unwrap().insert(0, engine.snapshot());

    type Served = (usize, u64, Vec<Pair>);
    let (observations, rebuilt_over_wire): (Vec<Vec<Served>>, bool) = std::thread::scope(|scope| {
        let workload = &workload;
        let snapshots = &snapshots;
        let engine = &engine;
        let snap0 = &snap0;
        let initial = &initial;

        let writer = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut rebuilt = false;
            for round in 0..WRITER_ROUNDS {
                let snap = engine.snapshot();
                let name = |l| snap.graph().label_name(l).to_string();
                let victims = sample_edges(snap.graph(), 2, round);
                let (v1, u1, l1) = victims[0];
                let (v2, u2, l2) = victims[1];
                // One multi-op transaction: move an edge, relabel
                // another, and every few rounds grow the graph by a
                // vertex wired to an existing one *within the same
                // delta* (exercising in-delta id visibility). No edit is
                // undone within the delta: a round trip inside one
                // transaction changes no class, and this run must
                // fragment the index.
                let l3 = Label((l2.0 + 1) % snap.graph().base_label_count());
                let mut ops = vec![
                    WireOp::DeleteEdge { src: v1, dst: u1, label: name(l1) },
                    WireOp::InsertEdge { src: v1, dst: u2, label: name(l1) },
                    WireOp::ChangeEdgeLabel { src: v2, dst: u2, from: name(l2), to: name(l3) },
                ];
                if round % 6 == 5 {
                    let fresh_id = snap.graph().vertex_count();
                    ops.push(WireOp::AddVertex { name: format!("wire-{round}") });
                    ops.push(WireOp::InsertEdge { src: fresh_id, dst: v1, label: name(l1) });
                    ops.push(WireOp::DeleteVertex { vertex: fresh_id });
                }
                let n_ops = ops.len();
                let ack = client.apply_delta(ops).expect("wire delta");
                assert_eq!(ack.outcomes.len(), n_ops);
                if round % 6 == 5 {
                    assert_eq!(
                        ack.outcomes[n_ops - 3],
                        WireOutcome::VertexAdded(snap.graph().vertex_count()),
                        "AddVertex must report the allocated id"
                    );
                }
                rebuilt |= ack.rebuilt;
                let now = engine.snapshot();
                assert_eq!(now.epoch(), ack.epoch, "sole writer: ack epoch must be current");
                snapshots.lock().unwrap().insert(ack.epoch, now);
                std::thread::sleep(Duration::from_millis(2));
            }
            rebuilt
        });

        let readers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connects");
                    let mut served: Vec<Served> = Vec::new();
                    for j in 0..QUERIES_PER_CLIENT {
                        let at = (c * 5 + j * 3) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        // Pinned-epoch consistency: the pre-churn
                        // snapshot answers exactly as before, however
                        // many deltas and auto-rebuilds have landed.
                        let pin = (c + j) % workload.len();
                        assert_eq!(
                            snap0.evaluate(&workload[pin].1),
                            initial[pin],
                            "pinned epoch-0 reader observed drift"
                        );
                    }
                    // Guarantee overlap with maintenance: keep
                    // querying (bounded) until a delta install is
                    // visible to this reader.
                    let mut extra = 0usize;
                    while served.iter().all(|&(_, epoch, _)| epoch == 0) && extra < 500 {
                        let at = (c + extra) % workload.len();
                        let reply = client.query(&workload[at].0).expect("wire query");
                        served.push((at, reply.epoch, reply.pairs));
                        extra += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    served
                })
            })
            .collect();

        let rebuilt = writer.join().expect("writer thread");
        (readers.into_iter().map(|r| r.join().expect("reader thread")).collect(), rebuilt)
    });

    assert!(rebuilt_over_wire, "threshold 1.05 must trip an auto-rebuild over the wire");
    let stats = engine.stats();
    assert!(stats.auto_rebuilds >= 1, "engine must count the auto-rebuild");
    assert!(stats.delta_transactions >= WRITER_ROUNDS);

    // Every live answer matches sequential evaluation on the snapshot of
    // the epoch it reported — even across rebuild installs.
    let snapshots = snapshots.into_inner().unwrap();
    let mut epochs_seen: Vec<u64> = Vec::new();
    for served in &observations {
        for (at, epoch, pairs) in served {
            let snap = snapshots
                .get(epoch)
                .unwrap_or_else(|| panic!("answer reports unknown epoch {epoch}"));
            let (text, q) = &workload[*at];
            assert_eq!(&snap.evaluate(q), pairs, "torn read for {text:?} at epoch {epoch}");
            epochs_seen.push(*epoch);
        }
    }
    epochs_seen.sort_unstable();
    epochs_seen.dedup();
    assert!(epochs_seen.len() > 1, "deltas must have been visible to readers");

    let wire = Client::connect(addr).unwrap().metrics().expect("metrics");
    assert!(wire.counter("delta_requests_total").unwrap() >= WRITER_ROUNDS);
    assert!(wire.counter("rebuilds_total").unwrap() >= 1);
    server.shutdown();
    // The METRICS counter list must carry the engine's report exactly —
    // the server is quiescent now, so a fresh engine report and the last
    // wire report describe the same counters, entry for entry.
    let end = engine.stats();
    for (name, value) in end.counters() {
        assert_eq!(wire.counter(name), Some(value), "{name}");
    }
    assert!(end.cow_chunks_copied > 0, "write transactions must have copied chunks: {end}");
}

/// The CI smoke scenario: benchmark-query batches plus one one-op DELTA
/// over the wire, answers equal to direct engine evaluation.
#[test]
fn loopback_smoke_benchqueries() {
    let g = generate::gmark(400, 3);
    let (engine, server) = start_server(g, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let snap = engine.snapshot();
    let named: Vec<_> = benchqueries::yago_queries(snap.graph(), 7)
        .into_iter()
        .chain(benchqueries::lubm_queries(snap.graph(), 7))
        .chain(benchqueries::watdiv_queries(snap.graph(), 7))
        .collect();
    let texts: Vec<String> = named.iter().map(|nq| nq.query.to_text(snap.graph())).collect();

    let reply = client.batch(&texts).expect("batch");
    assert_eq!(reply.epoch, snap.epoch());
    assert_eq!(reply.results.len(), named.len());
    for (nq, pairs) in named.iter().zip(&reply.results) {
        assert_eq!(&snap.evaluate(&nq.query), pairs, "{} must match direct evaluation", nq.name);
    }

    // One write: delete an existing edge, verify a query reflects it.
    let (v, u, l) = sample_edges(snap.graph(), 1, 5)[0];
    let name = snap.graph().label_name(l).to_string();
    let ack = client.delete_edge(v, u, &name).expect("wire delete");
    assert_eq!(ack.outcomes, vec![WireOutcome::Applied]);
    assert_eq!(ack.epoch, 1);
    let after = client.batch(&texts).expect("batch after update");
    assert_eq!(after.epoch, 1);
    let snap1 = engine.snapshot();
    for (nq, pairs) in named.iter().zip(&after.results) {
        assert_eq!(&snap1.evaluate(&nq.query), pairs, "{} stale after update", nq.name);
    }

    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.epoch, 1);
    let counter = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("no {name}"));
    assert_eq!(counter("batch_requests_total"), 2);
    assert_eq!(counter("delta_requests_total"), 1);
    assert_eq!(counter("ping_requests_total"), 1);
    assert_eq!(counter("metrics_requests_total"), 1);
    assert!(counter("queries_total") >= 2 * texts.len() as u64);
    // COW gauges round-trip the engine's report: one small delta copied a
    // few chunks and left the rest of the snapshot shared.
    let engine_stats = engine.stats();
    assert_eq!(counter("cow_chunks_copied_total"), engine_stats.cow_chunks_copied);
    assert_eq!(counter("cow_chunks_shared_total"), engine_stats.cow_chunks_shared);
    assert!(engine_stats.cow_chunks_copied > 0, "the delta copied chunks");
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut stream = handshaken(&server);

    // Write a full pipeline before reading anything.
    let texts = ["f", "f . f", "(f . f) & f^-1", "id", "f^-1"];
    for t in texts {
        write_frame(&mut stream, &encode_request(&Request::Query(t.into()))).unwrap();
    }
    write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();

    let snap = server.engine().snapshot();
    for t in texts {
        let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match decode_response(&payload).unwrap() {
            Response::Result { pairs, .. } => {
                let q = parse_cpq(t, snap.graph()).unwrap();
                assert_eq!(pairs, snap.evaluate(&q), "pipelined answer for {t:?}");
            }
            other => panic!("expected RESULT for {t:?}, got {other:?}"),
        }
    }
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert!(matches!(decode_response(&payload).unwrap(), Response::Pong));
    server.shutdown();
}

/// Sends `text` three times: the miss that caches it, the worker hit that
/// keeps its frame with the entry, and the first hit the event loop
/// answers by itself.
fn make_hot(client: &mut Client, text: &str) {
    for _ in 0..3 {
        client.query(text).expect("warm query");
    }
}

/// The oracle's answer to `text` on `g`.
fn reference(g: &Graph, text: &str) -> Vec<Pair> {
    eval_reference(g, &parse_cpq(text, g).unwrap())
}

/// One connection pipelines `[hit, miss, PING, hit, DELTA, same text,
/// same text]` without reading. The hits are answered on the event loop
/// and the miss by a worker, yet replies arrive in request order; the
/// DELTA deletes an edge the hit depends on, and the two reads behind it
/// carry its epoch and the post-delete answer — never the frame the
/// cache held before. Every reply is byte-for-byte the public codec's
/// encoding of the oracle's answer.
#[test]
fn hits_misses_and_a_write_pipelined_on_one_connection_answer_in_order() {
    let (engine, server) = start_server(generate::gex(), 3);
    let snap0 = engine.snapshot();
    let g0 = snap0.graph();
    let (hot, cold) = ("f . f", "f^-1 . f");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    make_hot(&mut client, hot);
    assert_eq!(server.net_stats().query_inline_hits, 1);

    let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
    let delete = Request::Delta(vec![WireOp::DeleteEdge { src: sue, dst: joe, label: "f".into() }]);
    let mut stream = handshaken(&server);
    let mut wire = Vec::new();
    for req in [
        Request::Query(hot.into()),
        Request::Query(cold.into()),
        Request::Ping,
        Request::Query(hot.into()),
        delete,
        Request::Query(hot.into()),
        Request::Query(hot.into()),
    ] {
        write_frame(&mut wire, &encode_request(&req)).unwrap();
    }
    use std::io::Write;
    stream.write_all(&wire).unwrap();
    let mut next = || read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    let result = |epoch, pairs| encode_response(&Response::Result { epoch, pairs });

    let before = reference(g0, hot);
    assert_eq!(next(), result(0, before.clone()), "hit");
    assert_eq!(next(), result(0, reference(g0, cold)), "miss");
    assert_eq!(decode_response(&next()).unwrap(), Response::Pong);
    assert_eq!(next(), result(0, before.clone()), "hit behind a miss and a PING");
    match decode_response(&next()).unwrap() {
        Response::DeltaAck { epoch, outcomes, .. } => {
            assert_eq!((epoch, outcomes), (1, vec![WireOutcome::Applied]));
        }
        other => panic!("expected DELTA_ACK, got {other:?}"),
    }
    let snap1 = engine.snapshot();
    let after = reference(snap1.graph(), hot);
    assert_ne!(before, after, "the deleted edge must matter to the hot query");
    assert_eq!(next(), result(1, after.clone()), "first read behind the DELTA");
    assert_eq!(next(), result(1, after.clone()), "second read behind the DELTA");

    // Both pipelined hits were the loop's; the two reads behind the
    // DELTA were not (the install emptied the cache: the text had to be
    // evaluated again, and be hit at a worker once, before it is the
    // loop's again — by the second query below at the latest; which of
    // the two pipelined reads the workers finished first decides whether
    // by the first).
    assert_eq!(server.net_stats().query_inline_hits, 3);
    for _ in 0..2 {
        assert_eq!(client.query(hot).unwrap().pairs, after);
    }
    let net = server.net_stats();
    assert!((4..=5).contains(&net.query_inline_hits), "{net:?}");
    assert_eq!(net.query_requests, 3 + 5 + 2);
    server.shutdown();
}

/// One write carries more loop-answered requests — hits, then PINGs —
/// than twice the pipeline bound. Their slots are filled as they are
/// reserved, so no worker completion ever comes back to restart a
/// connection that stopped at the bound: the loop itself must keep
/// serving what it has buffered. Every reply arrives, in order; and a
/// client that half-closes right behind the burst is still answered in
/// full before the server closes its side.
#[test]
fn a_burst_of_loop_answered_requests_past_the_pipeline_bound_is_served_whole() {
    use std::io::Write;
    let (engine, server) = start_server(generate::gex(), 2);
    let burst = 2 * ServerOptions::default().max_pipeline + 44;
    let hot = "f . f";
    let mut client = Client::connect(server.local_addr()).expect("connect");
    make_hot(&mut client, hot);
    let hit = encode_response(&Response::Result {
        epoch: 0,
        pairs: reference(engine.snapshot().graph(), hot),
    });

    let mut inline_hits = 1;
    let pong = encode_response(&Response::Pong);
    for (req, reply) in [(Request::Query(hot.into()), hit), (Request::Ping, pong)] {
        let mut wire = Vec::new();
        for _ in 0..burst {
            write_frame(&mut wire, &encode_request(&req)).unwrap();
        }
        for half_close in [false, true] {
            let mut stream = handshaken(&server);
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            stream.write_all(&wire).unwrap();
            if half_close {
                stream.shutdown(std::net::Shutdown::Write).unwrap();
            }
            for i in 0..burst {
                let got = read_frame(&mut stream, DEFAULT_MAX_FRAME)
                    .unwrap_or_else(|e| panic!("{req:?} #{i} of {burst}: {e}"));
                assert_eq!(got, reply, "{req:?} #{i}");
            }
            if half_close {
                assert!(matches!(
                    read_frame(&mut stream, DEFAULT_MAX_FRAME),
                    Err(FrameError::Closed)
                ));
            }
            if matches!(req, Request::Query(_)) {
                inline_hits += burst as u64;
            }
        }
    }
    let net = server.net_stats();
    assert_eq!((net.query_inline_hits, net.query_requests), (inline_hits, inline_hits + 2));
    server.shutdown();
}

/// A durability sink whose `append` reports that it was entered and then
/// waits to be released: a DELTA sent through it holds the worker that
/// runs it — inside the engine's write transaction — for as long as the
/// test likes.
struct GatedSink {
    entered: Mutex<Sender<()>>,
    release: Mutex<Receiver<()>>,
}

impl DurabilitySink for GatedSink {
    fn append(&self, _graph: &Graph, _ops: &[DeltaOp]) -> std::io::Result<u64> {
        self.entered.lock().unwrap().send(()).expect("test is listening");
        self.release.lock().unwrap().recv().expect("test releases the gate");
        Ok(0)
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        0
    }

    fn checkpoint(&self, _: &Graph, _: &CpqxIndex) -> std::io::Result<CheckpointReport> {
        Ok(CheckpointReport::default())
    }
}

/// The only worker is held inside a DELTA and a miss from a second
/// connection is queued behind it; a hit and a PING on a third
/// connection are answered all the same, because the event loop answers
/// them itself — and only them: while the worker is held no query is
/// evaluated anywhere, so the miss was not run on the loop.
#[test]
fn a_busy_pool_delays_neither_hits_nor_pings_and_the_loop_evaluates_nothing() {
    let (engine, server) = start_server(generate::gex(), 1);
    let snap0 = engine.snapshot();
    let g0 = snap0.graph();
    let (hot, cold) = ("f . f", "f^-1 . f");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    make_hot(&mut client, hot);

    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    engine.attach_durability(Arc::new(GatedSink {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    }));
    let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
    let mut writer = handshaken(&server);
    let delete = Request::Delta(vec![WireOp::DeleteEdge { src: sue, dst: joe, label: "f".into() }]);
    write_frame(&mut writer, &encode_request(&delete)).unwrap();
    entered.recv_timeout(Duration::from_secs(30)).expect("the worker reaches the sink");

    let mut reader = handshaken(&server);
    write_frame(&mut reader, &encode_request(&Request::Query(cold.into()))).unwrap();

    // Two round trips: by the end of the second the loop has handled
    // everything that arrived before the first, the miss included.
    let evaluated = engine.stats().queries;
    let reply = client.query(hot).expect("a hit does not wait for the pool");
    assert_eq!((reply.epoch, &reply.pairs), (0, &reference(g0, hot)));
    client.ping().expect("nor does a PING");
    let net = server.net_stats();
    // Three warm queries and this hit; the queued miss is not served yet.
    assert_eq!((net.query_inline_hits, net.query_requests), (2, 4), "{net:?}");
    assert_eq!(engine.stats().queries, evaluated + 1, "only the hit was served");
    reader.set_nonblocking(true).unwrap();
    let mut byte = [0u8; 1];
    match std::io::Read::read(&mut reader, &mut byte) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        other => panic!("the queued miss must still be waiting, got {other:?}"),
    }
    reader.set_nonblocking(false).unwrap();

    release.send(()).unwrap();
    match decode_response(&read_frame(&mut writer, DEFAULT_MAX_FRAME).unwrap()).unwrap() {
        Response::DeltaAck { epoch: 1, outcomes, .. } => {
            assert_eq!(outcomes, vec![WireOutcome::Applied]);
        }
        other => panic!("expected DELTA_ACK at epoch 1, got {other:?}"),
    }
    // The miss ran after the write it queued behind, on its snapshot.
    let snap1 = engine.snapshot();
    assert_eq!(
        read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap(),
        encode_response(&Response::Result { epoch: 1, pairs: reference(snap1.graph(), cold) })
    );
    assert_eq!(server.net_stats().query_requests, 5);
    server.shutdown();
}

/// A text that fails to parse, or names an unknown label, is answered
/// with its typed error every time it is sent: only served answers are
/// keyed by text. And an answer served once keeps no wire form — a
/// workload that never repeats a query (the ledger's `serve-cold`) pays
/// nothing for the memo.
#[test]
fn failed_texts_are_not_keyed_and_single_use_answers_store_no_frame() {
    let g = generate::random_graph(&RandomGraphConfig::social(120, 500, 3, 5));
    let workload = text_workload(&g, 3);
    let (engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for (text, code) in [("nosuch . nosuch", ErrorCode::UnknownLabel), ("((", ErrorCode::Parse)] {
        for _ in 0..4 {
            match client.query(text) {
                Err(ClientError::Server(e)) => assert_eq!(e.code, code, "{text}"),
                other => panic!("expected {code:?} for {text:?}, got {other:?}"),
            }
        }
        assert!(engine.cached_wire(text).is_none(), "{text} must not be keyed");
    }
    assert_eq!(server.net_stats().error_responses, 8);

    let snap = engine.snapshot();
    for (text, q) in &workload {
        assert_eq!(client.query(text).unwrap().pairs, snap.evaluate(q), "{text}");
    }
    for (text, q) in &workload {
        let (entry, hit) = engine.query_entry(&snap, q, None, None);
        assert!(hit, "{text} was served, so it is cached");
        assert!(entry.wire().is_none(), "{text} was served once: no frame is kept");
    }
    assert_eq!(server.net_stats().query_inline_hits, 0);
    server.shutdown();
}

/// One connection pipelines 200× [insert e, delete e] and a trailing
/// QUERY without reading anything. Workers pop jobs in any order, so
/// only the write-in-flight hold makes the effects land in arrival
/// order: every op must apply (an insert overtaken by its delete, or
/// two inserts in a row, would report `Noop`), the edge must be absent
/// at the end, and the query must be served at the last delta's epoch.
#[test]
fn pipelined_writes_of_one_connection_apply_in_arrival_order() {
    const ROUNDS: usize = 200;
    let g = generate::gex();
    let (engine, server) = start_server(g, 6);
    let mut stream = handshaken(&server);

    // gex has no joe→sue follow edge, so the first insert is genuine.
    let snap = engine.snapshot();
    let (joe, sue) =
        (snap.graph().vertex_named("joe").unwrap(), snap.graph().vertex_named("sue").unwrap());
    let f = snap.graph().label_named("f").unwrap();
    assert!(!snap.graph().has_edge(joe, sue, f.fwd()));
    let edge = |insert: bool| {
        let (src, dst, label) = (joe, sue, "f".to_string());
        encode_request(&Request::Delta(vec![if insert {
            WireOp::InsertEdge { src, dst, label }
        } else {
            WireOp::DeleteEdge { src, dst, label }
        }]))
    };
    // The responses are small (≈ 20 bytes each), so the whole pipeline
    // can be written before anything is read without filling a socket
    // buffer in either direction.
    let mut wire = Vec::new();
    for _ in 0..ROUNDS {
        write_frame(&mut wire, &edge(true)).unwrap();
        write_frame(&mut wire, &edge(false)).unwrap();
    }
    write_frame(&mut wire, &encode_request(&Request::Query("f".into()))).unwrap();
    use std::io::Write;
    stream.write_all(&wire).unwrap();

    for i in 0..2 * ROUNDS {
        let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match decode_response(&payload).unwrap() {
            Response::DeltaAck { epoch, outcomes, .. } => {
                assert_eq!(outcomes, vec![WireOutcome::Applied], "delta {i} ran out of order");
                assert_eq!(epoch, i as u64 + 1, "delta {i}");
            }
            other => panic!("expected DELTA_ACK for delta {i}, got {other:?}"),
        }
    }
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Result { epoch, pairs } => {
            assert_eq!(epoch, 2 * ROUNDS as u64, "the query overtook a delta");
            assert_eq!(pairs, snap.evaluate(&parse_cpq("f", snap.graph()).unwrap()));
        }
        other => panic!("expected RESULT, got {other:?}"),
    }
    assert!(!engine.snapshot().graph().has_edge(joe, sue, f.fwd()), "the edge must end up absent");
    server.shutdown();
}

/// The opcodes protocol 7 retired (UPDATE `0x05`, STATS `0x06`) get a
/// typed UNKNOWN_OPCODE error frame, and the connection keeps serving.
#[test]
fn retired_opcodes_get_a_typed_error_and_the_connection_survives() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut stream = handshaken(&server);

    // A well-formed v6 UPDATE body (insert 0→1 "f") and a bare STATS.
    let update =
        [&[0x05u8, 1][..], &0u32.to_be_bytes(), &1u32.to_be_bytes(), &[0, 0, 0, 1, b'f']].concat();
    for retired in [update, vec![0x06]] {
        write_frame(&mut stream, &retired).unwrap();
        let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        match decode_response(&payload).unwrap() {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownOpcode, "{e}"),
            other => panic!("expected an error frame for {:#04x}, got {other:?}", retired[0]),
        }
        write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();
        let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert!(matches!(decode_response(&payload).unwrap(), Response::Pong));
    }
    assert_eq!(server.engine().epoch(), 0, "a retired UPDATE must not write");
    server.shutdown();
}

#[test]
fn typed_errors_over_the_wire() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Syntax error: position survives the wire.
    match client.query("(f . f") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(e.position.is_some());
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    // Unknown label: distinct code.
    match client.query("f . nosuch") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownLabel);
            assert_eq!(e.position, Some(4));
            assert!(e.message.contains("nosuch"));
        }
        other => panic!("expected unknown-label error, got {other:?}"),
    }
    // Bad update: unknown label and out-of-range vertex.
    match client.insert_edge(0, 1, "ghost") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadUpdate),
        other => panic!("expected bad-update error, got {other:?}"),
    }
    match client.delete_edge(0, u32::MAX, "f") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::BadUpdate),
        other => panic!("expected bad-update error, got {other:?}"),
    }
    // Vertex ids reach the engine unchecked; its transaction rejects the
    // whole delta by the offending op's index, before anything applies.
    let n = server.engine().snapshot().graph().vertex_count();
    let ops = vec![
        WireOp::InsertEdge { src: 0, dst: 1, label: "v".into() },
        WireOp::DeleteEdge { src: n, dst: 0, label: "f".into() },
    ];
    match client.apply_delta(ops) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::BadUpdate);
            assert!(e.message.starts_with("delta op 1:"), "{e}");
        }
        other => panic!("expected bad-update error, got {other:?}"),
    }
    assert_eq!(server.engine().epoch(), 0, "a rejected delta must not install");
    // The connection survives all of the above (errors are recoverable).
    client.ping().expect("connection still alive");
    let reply = client.query("f").expect("valid query after errors");
    assert!(!reply.pairs.is_empty());
    server.shutdown();
}

#[test]
fn hostile_queries_cannot_kill_the_server() {
    // A deeply nested or absurdly long query text fits comfortably under
    // the frame-size bound but would blow the worker's stack if it ever
    // reached unbounded recursion — it must come back as a parse error
    // frame with the server (and even the connection) intact.
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let deep = format!("{}f{}", "(".repeat(200_000), ")".repeat(200_000));
    let long = vec!["f"; 200_000].join(" . ");
    for hostile in [deep, long] {
        match client.query(&hostile) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Parse),
            other => panic!("expected parse error frame, got {:?}", other.map(|r| r.epoch)),
        }
    }
    client.ping().expect("server must survive hostile queries");
    assert!(!client.query("f").expect("still serving").pairs.is_empty());
    server.shutdown();
}

#[test]
fn oversized_handshake_frame_gets_a_final_error() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a payload over the server's bound as the very first frame.
    use std::io::Write;
    stream.write_all(&(64u32 * 1024 * 1024).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn handshake_is_enforced() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);

    // Wrong version is refused with a typed error.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Hello { version: 999 })).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
        other => panic!("expected version error, got {other:?}"),
    }

    // A first frame that is not HELLO is refused.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();
    let payload = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    match decode_response(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected handshake error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn batch_parse_failures_name_the_query() {
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.batch(&["f", "f . f", "(f"]) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Parse);
            assert!(e.message.contains("batch query 2"), "got {:?}", e.message);
        }
        other => panic!("expected batch parse error, got {other:?}"),
    }
    server.shutdown();
}

/// Filling the connection cap answers new connections with a typed BUSY
/// error frame — not a bare close — counts the rejection in METRICS,
/// and frees the slot when a connection departs.
#[test]
fn connection_cap_rejects_with_busy_error() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions { workers: 2, max_connections: 2, ..ServerOptions::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut a = Client::connect(addr).expect("first connection fits");
    let b = Client::connect(addr).expect("second connection fits");

    // Over capacity. Read without sending HELLO: the BUSY frame arrives
    // unprompted, followed by a clean close (sending first could race
    // the server's shutdown into an RST that discards the frame).
    let mut rejected = TcpStream::connect(addr).expect("tcp connect still succeeds");
    let payload = read_frame(&mut rejected, DEFAULT_MAX_FRAME).expect("a BUSY frame, not a close");
    match decode_response(&payload).expect("decodes") {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Busy);
            assert!(e.message.contains("capacity"), "got {:?}", e.message);
        }
        other => panic!("expected BUSY error, got {other:?}"),
    }
    match read_frame(&mut rejected, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after BUSY, got {other:?}"),
    }

    // The rejection and the open-connection gauge are visible over the
    // wire (METRICS) and in the process-local report.
    let metrics = a.metrics().expect("metrics");
    assert_eq!(metrics.counter("rejected_connections_total"), Some(1));
    assert_eq!(metrics.counter("open_connections"), Some(2));
    assert!(
        metrics.counter("error_responses_total").unwrap() >= 1,
        "the BUSY frame counts as an error response"
    );
    let local = server.net_stats();
    assert_eq!(local.rejected_connections, 1);
    assert_eq!(local.open_connections, 2);

    // Departures free slots: close one, the next connect succeeds.
    drop(b);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr) {
            Ok(_) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("slot never freed after departure: {e:?}"),
        }
    }
    server.shutdown();
}

/// A read timeout that lands mid-frame means the stream is
/// desynchronized: the server must send the promised final TIMEOUT
/// error frame before closing, never a silent drop.
#[test]
fn mid_frame_read_timeout_sends_a_final_timeout_error() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut stream = handshaken(&server);

    // A header promising 8 payload bytes, followed by only 3, then
    // silence: the connection dies mid-frame.
    use std::io::Write;
    stream.write_all(&8u32.to_be_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.flush().unwrap();

    let payload =
        read_frame(&mut stream, DEFAULT_MAX_FRAME).expect("a final error frame, not a bare close");
    match decode_response(&payload).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Timeout);
            assert!(e.message.contains("mid-frame"), "got {:?}", e.message);
        }
        other => panic!("expected TIMEOUT error, got {other:?}"),
    }
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after the final error, got {other:?}"),
    }
    server.shutdown();
}

/// An idle timeout at a frame boundary is a clean close: EOF, no error
/// frame — an idle client did nothing wrong.
#[test]
fn idle_timeout_at_a_frame_boundary_closes_cleanly() {
    let g = generate::gex();
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let engine = Arc::new(engine);
    let server = Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut stream = handshaken(&server);

    // Go silent at the frame boundary; the next thing on the wire must
    // be EOF, not an error frame.
    match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
        Err(FrameError::Closed) => {}
        other => panic!("expected a clean close, got {other:?}"),
    }
    server.shutdown();
}

/// A peer that pipelines queries with large answers and never reads them
/// stalls the server's writes. Once the socket has taken nothing for the
/// write timeout, the loop's deadline check closes the connection hard:
/// nothing, not even an error frame, could reach such a peer.
#[test]
fn a_peer_that_never_reads_is_dropped_at_the_write_timeout() {
    const WRITE_TIMEOUT: Duration = Duration::from_millis(300);
    let g = generate::cycle(32_768, "f");
    let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
    let server = Server::bind(
        Arc::new(engine),
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            write_timeout: Some(WRITE_TIMEOUT),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut stream = handshaken(&server);

    // 96 answers of 32,768 pairs each: 24 MiB, far more than the two
    // sockets' buffers hold.
    let mut pipeline = Vec::new();
    for _ in 0..96 {
        write_frame(&mut pipeline, &encode_request(&Request::Query("id".into()))).unwrap();
    }
    use std::io::Write;
    stream.write_all(&pipeline).unwrap();
    let sent = std::time::Instant::now();
    // Deadlines are checked every quarter of the timeout; the margin past
    // one such tick covers evaluating the answers and filling the buffers.
    while server.net_stats().open_connections > 0 {
        let waited = sent.elapsed();
        assert!(waited < WRITE_TIMEOUT + Duration::from_secs(3), "still open after {waited:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let waited = sent.elapsed();
    assert!(waited >= WRITE_TIMEOUT, "closed after {waited:?}, before the write timeout");
    drop(stream);
    server.shutdown();
}

#[test]
fn shutdown_unblocks_idle_connections() {
    // An idle client parked inside the server's read must not stall
    // shutdown for its full read timeout.
    let g = generate::gex();
    let (_engine, server) = start_server(g, 2);
    let mut idle = Client::connect(server.local_addr()).expect("connect");
    idle.ping().expect("ping");
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with an idle connection",
        t0.elapsed()
    );
    assert!(idle.ping().is_err(), "connection must be closed by shutdown");
}
