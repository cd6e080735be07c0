//! The product API the benchmark (`ledger/`, a package of its own that
//! tier-1 never compiles) is written against, as a compile-time contract:
//! every product item `ledger/src` imports is named here and every call it
//! makes is pinned to the signature it is made with. Renaming an item,
//! dropping a field the ledger reads, or changing a signature it calls
//! fails `cargo test -q` here, at the change, instead of at the benchmark
//! run. When the ledger starts using something new, add it; when a change
//! must break one of these, the ledger (and `BENCHMARK.json`'s owner) has
//! to change with it.
//!
//! Most of this file only needs to type-check; the one test drives the
//! in-process path end to end on the paper's example graph so the contract
//! cannot rot into dead code.

use cpqx::engine::{
    apply_ops, build_sharded_with_report, BuildOptions, BuildReport, CheckpointReport, Delta,
    DeltaError, DeltaOp, DeltaReport, DurabilityOptions, DurabilitySink, Engine, EngineOptions,
    ExecOptions, OpOutcome, PlannedQuery, Snapshot, StatsReport,
};
use cpqx::graph::datasets::Dataset;
use cpqx::graph::generate::gex;
use cpqx::graph::{Graph, Label, LabelSeq, Pair, VertexId, MAX_SEQ_LEN};
use cpqx::index::exec::ExecStats;
use cpqx::index::{optimize_query_costed, CpqxIndex, Executor, IndexStats};
use cpqx::net::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    DecodeError, FrameAssembler, FrameError, DEFAULT_MAX_FRAME,
};
use cpqx::net::{
    Client, ClientError, ErrorCode, Request, Response, Server, ServerOptions, WireOp, WireOutcome,
    PROTOCOL_VERSION,
};
use cpqx::query::ast::Template;
use cpqx::query::eval::eval_reference;
use cpqx::query::plan::Plan;
use cpqx::query::workload::{GraphProbe, WorkloadGen};
use cpqx::query::{cache_key, canonicalize, parse_cpq, Cpq};
use cpqx::store::{durable_engine, DurableStart, FsyncPolicy, RecoverError, Store, StoreOptions};
use std::sync::Arc;
use std::time::Duration;

/// Signatures, pinned by coercion to function pointers.
#[allow(clippy::type_complexity)]
fn signatures() {
    // Build and index.
    let _: fn(&Graph, usize, BuildOptions) -> (CpqxIndex, BuildReport) = build_sharded_with_report;
    let _: fn(&CpqxIndex, &Graph, &Cpq) -> Vec<Pair> = CpqxIndex::evaluate;
    let _: fn(&CpqxIndex, &Graph, &Cpq) -> (Vec<Pair>, ExecStats) = CpqxIndex::explain;
    let _: fn(&CpqxIndex) -> IndexStats = CpqxIndex::stats;
    let _: fn(&CpqxIndex) -> f64 = CpqxIndex::fragmentation_ratio;
    let _: fn(&Graph, usize, Vec<LabelSeq>) -> CpqxIndex = CpqxIndex::build_interest_aware;
    let _: fn(&CpqxIndex) -> CpqxIndex = <CpqxIndex as Clone>::clone;
    let _: fn(&CpqxIndex, &Graph, &Cpq) -> (Plan, f64) = optimize_query_costed;
    let _: fn() -> ExecOptions = ExecOptions::default;
    let _: fn(&mut Graph, &mut CpqxIndex, &[DeltaOp]) -> Result<Vec<OpOutcome>, DeltaError> =
        apply_ops;

    // Engine and snapshot.
    let _: fn(Graph, EngineOptions) -> (Engine, BuildReport) = Engine::with_options;
    let _: fn() -> EngineOptions = EngineOptions::default;
    let _: fn(&Engine) -> StatsReport = Engine::stats;
    let _: fn(&Engine) -> Arc<Snapshot> = Engine::snapshot;
    let _: fn(&Engine, &Cpq) -> Arc<Vec<Pair>> = Engine::query;
    let _: fn(&Engine, &Snapshot, &Cpq) -> Arc<Vec<Pair>> = Engine::query_on;
    let _: fn(&Engine, &Delta) -> Result<DeltaReport, DeltaError> = Engine::apply_delta;
    let _: fn(&Engine, Arc<dyn DurabilitySink>) = Engine::attach_durability;
    let _: fn(&Snapshot) -> &Graph = Snapshot::graph;
    let _: fn(&Snapshot) -> &CpqxIndex = Snapshot::index;
    let _: fn(&Snapshot) -> u64 = Snapshot::epoch;
    let _: fn(&Snapshot, &str, &Cpq) -> (Arc<PlannedQuery>, bool) = Snapshot::plan_for;
    let _: fn(Vec<DeltaOp>) -> Delta = Delta::from;

    // Store.
    let _: fn(&Store, &Graph, &[DeltaOp]) -> std::io::Result<u64> = Store::append;
    let _: fn(&Store) -> u64 = Store::wal_bytes_since_checkpoint;
    let _: fn(&Store, &Graph, &CpqxIndex) -> std::io::Result<CheckpointReport> = Store::checkpoint;

    // Wire codec and frame layer.
    let _: fn(&Request) -> Vec<u8> = encode_request;
    let _: fn(&[u8]) -> Result<Request, DecodeError> = decode_request;
    let _: fn(&Response) -> Vec<u8> = encode_response;
    let _: fn(&[u8]) -> Result<Response, DecodeError> = decode_response;
    let _: fn(usize) -> FrameAssembler = FrameAssembler::new;
    let _: usize = DEFAULT_MAX_FRAME;
    let _: u16 = PROTOCOL_VERSION;

    // Queries, the oracle and the input generators.
    let _: fn(&Graph, &Cpq) -> Vec<Pair> = eval_reference;
    let _: fn(&str, &Graph) -> Result<Cpq, cpqx::query::ParseError> = parse_cpq;
    let _: fn(&Cpq) -> Cpq = canonicalize;
    let _: fn(&Cpq) -> String = cache_key;
    let _: fn(&Cpq, &Graph) -> String = Cpq::to_text;
    let _: fn(&Dataset, usize, u64) -> Graph = Dataset::generate;
    let _: [Template; 12] = Template::ALL;
    let _: usize = MAX_SEQ_LEN;
    let _: fn(&Graph) -> usize = Graph::edge_count;
    let _: fn(&Graph) -> u32 = Graph::vertex_count;
    let _: fn(&Graph) -> u16 = Graph::base_label_count;
    let _: fn(&Graph) = Graph::ensure_csr;
    let _: fn(&Graph) -> Graph = <Graph as Clone>::clone;
}

/// Calls whose callee is generic (`impl Trait` parameters, borrowed
/// lifetimes), pinned by making them with the ledger's argument types.
fn generic_calls(index: &CpqxIndex, g: &Graph, plan: &Plan, dir: &std::path::Path) {
    let exec: Executor<'_, '_> = Executor::with_options(index, g, ExecOptions::default());
    let _: (Vec<Pair>, ExecStats) = exec.run_explained(plan);
    let _: Result<DurableStart, RecoverError> = durable_engine(
        dir,
        StoreOptions { fsync: FsyncPolicy::Always },
        EngineOptions::default(),
        || g.clone(),
    );
    let mut wire: Vec<u8> = Vec::new();
    let _: std::io::Result<()> = write_frame(&mut wire, &[]);
    let _: Result<Vec<u8>, FrameError> = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME);
    let mut assembler = FrameAssembler::new(DEFAULT_MAX_FRAME);
    assembler.extend(&wire);
    let _: Result<Option<Vec<u8>>, FrameError> = assembler.next_frame();
    let _: fn(Server) = Server::shutdown;
    let _: std::io::Result<Server> = Server::bind(
        Arc::new(Engine::with_options(g.clone(), EngineOptions::default()).0),
        "127.0.0.1:0",
        ServerOptions::default(),
    );
}

/// Fields, pinned by exhaustive-enough patterns with their types.
fn fields(
    build: BuildReport,
    index: IndexStats,
    exec: ExecStats,
    engine: StatsReport,
    checkpoint: CheckpointReport,
    start: DurableStart,
    delta: DeltaReport,
) {
    let BuildOptions {} = BuildOptions::default();
    let BuildReport { total, level1, refine, merge, .. } = build;
    let _: [Duration; 4] = [total, level1, refine, merge];
    let IndexStats { classes, pairs, postings, gamma, total_bytes, core_bytes, .. } = index;
    let _: ([usize; 5], f64) = ([classes, pairs, postings, total_bytes, core_bytes], gamma);
    let ExecStats {
        lookups,
        classes_touched,
        pairs_materialized,
        class_conjunctions,
        pair_intersections,
        joins,
        csr_joins,
    } = exec;
    let _: [usize; 7] = [
        lookups,
        classes_touched,
        pairs_materialized,
        class_conjunctions,
        pair_intersections,
        joins,
        csr_joins,
    ];
    let _: [u64; 10] = [
        engine.queries,
        engine.result_hits,
        engine.plan_hits,
        engine.plan_misses,
        engine.invalidated_results,
        engine.cow_chunks_copied,
        engine.cow_chunks_shared,
        engine.rebuilds,
        engine.lazy_update_ops,
        engine.wal_bytes,
    ];
    let _: Duration = engine.build_total;
    let _: [u64; 2] = [checkpoint.chunks_written, checkpoint.chunks_skipped];
    let _: CheckpointReport = CheckpointReport::default();
    let _: usize = delta.applied;
    let _ = EngineOptions {
        durability: DurabilityOptions { checkpoint_wal_bytes: Some(1 << 20) },
        ..EngineOptions::default()
    };
    let _ = StoreOptions { fsync: FsyncPolicy::Always };
    let DurableStart { engine: _, store, recovered } = start;
    let _: Arc<dyn DurabilitySink> = Arc::new(PassThrough(store));
    if let Some(info) = recovered {
        let _: [Duration; 3] = [info.manifest_time, info.chunks_time, info.replay_time];
        let _: u64 = info.replayed_transactions;
    }
}

/// Wire types: the variants and fields the load generators build and match.
fn wire(server: &Server, client: &mut Client, reply: Response, failure: ClientError) {
    let _ = Request::Query(String::new());
    let _ = Request::Hello { version: PROTOCOL_VERSION };
    let ops = vec![
        WireOp::DeleteEdge { src: 0u32, dst: 0u32, label: String::new() },
        WireOp::InsertEdge { src: 0u32, dst: 0u32, label: String::new() },
    ];
    let _ = Request::Delta(ops);
    match reply {
        Response::Result { epoch, pairs } => {
            let _: (u64, Vec<Pair>) = (epoch, pairs);
        }
        Response::DeltaAck { epoch, outcomes, .. } => {
            let _: u64 = epoch;
            let _: bool = outcomes.iter().all(|o| *o == WireOutcome::Applied);
        }
        Response::HelloAck { version } => {
            let _: u16 = version;
        }
        Response::Error(e) => {
            let _: bool = e.code == ErrorCode::Busy;
        }
        _ => {}
    }
    match failure {
        ClientError::Server(w) => {
            let _: ErrorCode = w.code;
        }
        ClientError::Io(_) | ClientError::Protocol(_) => {}
    }
    let _: std::net::SocketAddr = server.local_addr();
    let _: &Arc<Engine> = server.engine();
    let net = server.net_stats();
    let _: [u64; 2] = [net.rejected_connections, net.error_responses];
    server.engine().obs().set_enabled(true);
    let _: Result<Client, ClientError> = Client::connect(server.local_addr());
    if let Ok(answer) = client.query("l0") {
        let _: Vec<Pair> = answer.pairs;
    }
    let _: Result<_, ClientError> = client.ping();
}

/// Delta ops and graph edges as the ledger builds and reads them.
fn edges(g: &Graph, src: VertexId, dst: VertexId, label: Label) -> Vec<DeltaOp> {
    let _: Vec<(VertexId, VertexId, Label)> = g.base_edges().collect();
    vec![DeltaOp::DeleteEdge { src, dst, label }, DeltaOp::InsertEdge { src, dst, label }]
}

/// A sink wrapped around the store, as the ledger's timing sink is: the
/// trait's three methods.
struct PassThrough(Arc<Store>);

impl DurabilitySink for PassThrough {
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> std::io::Result<u64> {
        self.0.append(graph, ops)
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.0.wal_bytes_since_checkpoint()
    }

    fn checkpoint(&self, graph: &Graph, index: &CpqxIndex) -> std::io::Result<CheckpointReport> {
        self.0.checkpoint(graph, index)
    }
}

#[test]
fn the_inproc_path_the_ledger_drives_answers_like_the_oracle() {
    // The pins above are checked by the compiler, never run.
    let _ =
        (signatures as fn(), generic_calls as fn(_, _, _, _), fields as fn(_, _, _, _, _, _, _));
    let _ = (wire as fn(_, _, _, _), edges as fn(_, _, _, _) -> _);
    let g = gex();
    let (index, report) = build_sharded_with_report(&g, 2, BuildOptions::default());
    assert!(report.level1 + report.refine + report.merge <= report.total);
    let bytes = |idx: &CpqxIndex| {
        let mut out = Vec::new();
        idx.save(&mut out).expect("writing to a Vec");
        out
    };
    assert!(bytes(&index) == bytes(&CpqxIndex::build(&g, 2)), "the shim builds another index");
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 20220509);
    let mut answered = 0;
    for template in Template::ALL {
        let Some(q) = gen.instantiate(template, &probe, 300) else { continue };
        let text = q.to_text(&g);
        let parsed = parse_cpq(&text, &g).expect("generated query text parses");
        let expected = eval_reference(&g, &q);
        assert_eq!(index.evaluate(&g, &parsed), expected, "{text}");
        let (answer, stats) = index.explain(&g, &parsed);
        assert_eq!(answer, expected, "{text}");
        assert!(stats.lookups > 0, "{text}");
        let canonical = canonicalize(&parsed);
        assert!(!cache_key(&canonical).is_empty());
        let (plan, cost) = optimize_query_costed(&index, &g, &canonical);
        assert!(cost.is_finite());
        let (answer, _) =
            Executor::with_options(&index, &g, ExecOptions::default()).run_explained(&plan);
        assert_eq!(answer, expected, "{text}");
        answered += 1;
    }
    assert!(answered > 0, "no template instantiates on the example graph");
    let stats = index.stats();
    assert!(stats.total_bytes >= stats.core_bytes && stats.postings >= stats.classes);
    assert_eq!(index.clone().stats(), stats);
    assert_eq!(index.fragmentation_ratio(), 1.0);
}
