//! Wire-protocol client demo.
//!
//! By default this starts an in-process server over a mid-size social
//! graph on an ephemeral loopback port and talks to it; point
//! `CPQX_NET_ADDR` at a running server (e.g. the `engine_server`
//! example) to use that instead. Shows the full request surface: PING,
//! QUERY (including a typed parse-error frame), BATCH, one-op and
//! multi-op DELTA transactions with per-op outcomes, and METRICS.
//!
//! Run with: `cargo run --release --example net_client`

use cpqx::engine::{Engine, EngineOptions};
use cpqx::graph::generate::{random_graph, sample_edges, RandomGraphConfig};
use cpqx::net::{Client, ClientError, Server, ServerOptions};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A server to talk to: external via CPQX_NET_ADDR, or in-process.
    let external = std::env::var("CPQX_NET_ADDR").ok();
    let local = if external.is_none() {
        let g = random_graph(&RandomGraphConfig::social(1_000, 5_000, 4, 9));
        println!("serving {} vertices / {} edges in-process", g.vertex_count(), g.edge_count());
        let (engine, _) = Engine::with_options(g, EngineOptions { k: 2, ..Default::default() });
        Some(Server::bind(Arc::new(engine), "127.0.0.1:0", ServerOptions::default())?)
    } else {
        None
    };
    let addr = match (&external, &local) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        _ => unreachable!(),
    };

    println!("connecting to {addr}");
    let mut client = Client::connect(&*addr)?;
    client.ping()?;
    println!("ping: ok (protocol v{})", cpqx::net::PROTOCOL_VERSION);

    // One query, twice: the second serve hits the result cache.
    let q = "(l0 . l0) & l0^-1";
    for round in ["cold", "warm"] {
        let t0 = std::time::Instant::now();
        match client.query(q) {
            Ok(reply) => println!(
                "query {q:?} ({round}): {} pairs on epoch {} in {:?}",
                reply.pairs.len(),
                reply.epoch,
                t0.elapsed()
            ),
            Err(ClientError::Server(e)) => {
                // An external server may not have a label `l0`; show the
                // typed error and stop gracefully.
                println!("query {q:?}: server error frame: {e}");
                return Ok(());
            }
            Err(other) => return Err(other.into()),
        }
    }

    // A malformed query comes back as a typed error frame, and the
    // connection survives it.
    match client.query("(l0 . l0") {
        Err(ClientError::Server(e)) => println!("malformed query -> {e}"),
        other => println!("unexpected outcome for malformed query: {other:?}"),
    }

    // A consistent batch: every answer reflects one snapshot.
    let batch = client.batch(&["l0", "l0 . l1", "l1^-1 . l0", "(l0 . l1) & l2"])?;
    let sizes: Vec<usize> = batch.results.iter().map(Vec::len).collect();
    println!("batch of {} queries on epoch {}: answer sizes {sizes:?}", sizes.len(), batch.epoch);

    // Writes through the wire (only against the in-process server,
    // where we know a deletable edge exists).
    if let Some(server) = &local {
        let snap = server.engine().snapshot();
        let (v, u, l) = sample_edges(snap.graph(), 1, 3)[0];
        let name = snap.graph().label_name(l).to_string();
        let ack = client.delete_edge(v, u, &name)?;
        println!("delete ({v})-[{name}]->({u}): applied={} epoch={}", ack.applied(), ack.epoch);
        let ack = client.insert_edge(v, u, &name)?;
        println!("insert ({v})-[{name}]->({u}): applied={} epoch={}", ack.applied(), ack.epoch);

        // A typed delta: one atomic transaction, one snapshot install,
        // per-op outcomes — including the id of a vertex added and wired
        // up within the same delta. Predicting the id from the snapshot
        // is safe here because this demo is the sole writer; concurrent
        // writers must use the id from the ack instead (see PROTOCOL.md).
        use cpqx::net::WireOp;
        let fresh_id = snap.graph().vertex_count();
        let ack = client.apply_delta(vec![
            WireOp::AddVertex { name: "delta-demo".into() },
            WireOp::InsertEdge { src: fresh_id, dst: v, label: name.clone() },
            WireOp::DeleteEdge { src: fresh_id, dst: v, label: name.clone() },
            WireOp::DeleteEdge { src: fresh_id, dst: v, label: name.clone() }, // noop
        ])?;
        println!(
            "delta of 4 ops: epoch={} rebuilt={} outcomes={:?}",
            ack.epoch, ack.rebuilt, ack.outcomes
        );
    }

    // Every engine and front-end counter travels as one named list.
    let metrics = client.metrics()?;
    let counters: Vec<String> =
        metrics.counters.iter().map(|(name, value)| format!("{name}={value}")).collect();
    println!("metrics: epoch={} {}", metrics.epoch, counters.join(" "));

    if let Some(server) = local {
        server.shutdown();
        println!("server shut down cleanly");
    }
    Ok(())
}
