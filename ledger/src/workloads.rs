//! The four workloads' end-to-end runs (benchmark tracing off).
//!
//! Every workload hands the program only generated inputs, runs it as
//! shipped (`EngineOptions::default()`, `ServerOptions::default()`,
//! in-process `Server::bind` on `127.0.0.1:0`) and checks every answer.
//! Closed-loop phases are count-based so both sides of a comparison
//! answer the identical request population; counts scale with
//! `--seconds` (the constants below are per [`NOMINAL_SECONDS`]).

use crate::check::{oracle, Expected, Tally};
use crate::inputs::{self, DeltaStep, Edge, QuerySet, Rng};
use crate::load::{closed_loop, open_loop, request_frame, OpenLoopRun, Pace};
use crate::stats;
use cpqx_engine::{
    build_sharded_with_report, BuildOptions, DurabilityOptions, Engine, EngineOptions,
};
use cpqx_graph::Graph;
use cpqx_net::{Request, Response, Server, ServerOptions, WireOp, WireOutcome};
use cpqx_query::parse_cpq;
use cpqx_store::{durable_engine, FsyncPolicy, StoreOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "mixed-rw", "paper-inproc"];

// ---- fixed configuration (README, "Fixed configuration") ----------------

/// `--seconds` the request counts below are sized for: at this value
/// each workload's measured phases take about that long on the machine
/// the sizes were calibrated on (README, "Measured spread").
pub const NOMINAL_SECONDS: u64 = 15;
/// Index path-length parameter everywhere (the engine default).
pub const K: usize = 2;
/// Closed-loop connections, and the most open-loop generator threads
/// any phase runs (`mixed-rw`: one reader, one writer).
pub const CONNS: usize = 2;
/// Queries instantiated per template for the hot set (12 × 20 = 240,
/// fits the 1024-entry result cache).
pub const HOT_PER_TEMPLATE: usize = 20;
/// Distinct queries of the cold set: above the 1024-entry result cache,
/// below the 4096-entry plan cache.
pub const COLD_DISTINCT: usize = 1280;

// `qps` is the timing the benchmark bounds, so the closed loop gets the
// larger share of a run. It is taken over blocks of equal work
// (`stats::blocked_rate`): a whole number of passes over the hot set's
// 240 queries, one cycle of the cold set.
//
// Open-loop rates sit well below what the closed loop sustains on the
// seed commit (hot 2500/s of ~31k/s, cold 800/s of ~3.3k/s), so the open
// phase measures latency at a light, fixed load, not saturation.
pub const HOT_QPS_BLOCK: usize = 40 * 240;
pub const HOT_CLOSED_REQUESTS: usize = 25 * HOT_QPS_BLOCK;
pub const HOT_OPEN_RATE: f64 = 2500.0;
pub const HOT_OPEN_REQUESTS: usize = 15_000;
pub const HOT_LIMIT: Duration = Duration::from_millis(25);

pub const COLD_CLOSED_REQUESTS: usize = 20 * COLD_DISTINCT;
pub const COLD_OPEN_RATE: f64 = 800.0;
pub const COLD_OPEN_REQUESTS: usize = 5000;
pub const COLD_LIMIT: Duration = Duration::from_millis(250);

pub const MIXED_READ_RATE: f64 = 1500.0;
/// 200 deltas (the fewest that support a p95) over 10 s.
pub const MIXED_DELTA_RATE: f64 = 20.0;
pub const MIXED_DELTAS: usize = 200;
/// Edges deleted and edges inserted per DELTA frame.
pub const MIXED_OPS_EACH: usize = 1;
/// A delta at a well-connected vertex costs up to 0.4 s at this scale
/// (the slowest of a seed's 200: 130–380 ms between seeds), and reads
/// wait behind it on the one worker, so both share a limit with room.
pub const MIXED_DELTA_LIMIT: Duration = Duration::from_secs(1);
pub const MIXED_READ_LIMIT: Duration = MIXED_DELTA_LIMIT;
pub const MIXED_BURST_REQUESTS: usize = 30 * HOT_QPS_BLOCK;
/// The stated flush policy: checkpoint once the WAL passes 4 KiB.
pub const MIXED_CHECKPOINT_WAL_BYTES: u64 = 4096;

pub const INPROC_PER_TEMPLATE: usize = 10;
pub const INPROC_PASSES: usize = 150;

/// How big a run is: request counts scale with `--seconds`; `--smoke`
/// shrinks counts to 1/50 and the graphs to a fifth, same code paths.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub scale: f64,
    pub smoke: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub serve_edges: usize,
    pub mixed_edges: usize,
    pub inproc_edges: usize,
}

impl Sizes {
    pub fn new(seconds: u64, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                scale: 0.02,
                smoke,
                setups: 1,
                serve_edges: 2_000,
                mixed_edges: 2_000,
                inproc_edges: 2_000,
            }
        } else {
            Sizes {
                scale: seconds as f64 / NOMINAL_SECONDS as f64,
                smoke,
                setups: 5,
                serve_edges: 10_000,
                mixed_edges: 10_000,
                inproc_edges: 16_000,
            }
        }
    }

    pub fn count(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(1)
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count / percentile actually used, for the printed table.
    pub note: String,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value, note: String::new() }
}

/// What one end-to-end run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub input_digest: u64,
    pub tally: Tally,
    /// Why the run does not count (backlog growing at the end of an open
    /// phase, a named percentile the sample cannot support, recovered
    /// state differing from the acknowledged writes).
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub fn run(workload: &str, seed: u64, sizes: Sizes) -> RunResult {
    match workload {
        "serve-hot" => serve(true, seed, sizes),
        "serve-cold" => serve(false, seed, sizes),
        "mixed-rw" => mixed_rw(seed, sizes),
        "paper-inproc" => paper_inproc(seed, sizes),
        other => panic!("unknown workload {other}"),
    }
}

// ---- shared pieces -------------------------------------------------------

/// A timing's median plus the named tail percentile, each taken per
/// window and then across windows (`stats::windowed_quantile`). When
/// fewer than ten samples lie beyond the named percentile, the highest
/// supported one is reported instead, the note says so, and (outside
/// `--smoke`) the run is invalid.
fn timing(
    p50: &'static str,
    tail: &'static str,
    tail_p: f64,
    unit: &'static str,
    samples: &[f64],
    invalid: &mut Vec<String>,
    smoke: bool,
) -> [Metric; 2] {
    let n = samples.len();
    let used = if stats::supports(n, tail_p) {
        tail_p
    } else {
        if !smoke {
            invalid.push(format!("{tail}: {n} samples do not support p{}", tail_p * 100.0));
        }
        stats::highest_supported(n).unwrap_or(0.5)
    };
    let (median, median_windows) = stats::windowed_quantile(samples, 0.5);
    let (tail_value, tail_windows) = stats::windowed_quantile(samples, used);
    [
        Metric {
            name: p50,
            unit,
            value: median,
            note: format!("n={n}, lower quartile of {median_windows} windows"),
        },
        Metric {
            name: tail,
            unit,
            value: tail_value,
            note: format!(
                "n={n}, p{}, lower quartile of {tail_windows} windows, max {:.1}",
                used * 100.0,
                samples.iter().copied().fold(0.0, f64::max)
            ),
        },
    ]
}

/// `setup_s`: the median of the run's set-ups.
fn setup_metric(setup_s: Vec<f64>) -> Metric {
    let note = format!("median of {}", setup_s.len());
    Metric { name: "setup_s", unit: "s", value: stats::median_of(setup_s), note }
}

/// Every distinct query as a ready-to-send QUERY frame.
fn query_frames(queries: &QuerySet) -> Vec<Vec<u8>> {
    queries.texts.iter().map(|t| request_frame(&Request::Query(t.clone()))).collect()
}

fn ns_to(v: &[u64], per: f64) -> Vec<f64> {
    v.iter().map(|&ns| ns as f64 / per).collect()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Where the executable lives: inside the build directory, so inside
/// the checkout and ignored by git. Everything a run writes goes below.
pub fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent().expect("executable has a directory").to_path_buf()
}

/// A fresh scratch directory for a store.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = exe_dir().join("ledger-data").join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// One warm pass over the distinct queries through a blocking client,
/// every answer checked.
fn warm_pass(server: &Server, texts: &[String], expected: &[Expected], tally: &mut Tally) {
    let all: Vec<u32> = (0..texts.len() as u32).collect();
    tally.add(&closed_loop(server.local_addr(), texts, &all, expected, 1).tally);
}

fn judge_query(expected: &Expected, resp: Response, tally: &mut Tally) {
    match resp {
        Response::Result { pairs, .. } => tally.answer(expected, &pairs),
        Response::Error(e) => tally.wire_error(e.code),
        _ => tally.errors += 1,
    }
}

fn open_phase_metrics(run: &OpenLoopRun, what: &str, invalid: &mut Vec<String>) -> Metric {
    if run.ledger.backlog_growing() {
        invalid.push(format!("{what}: backlog still growing at the end of the open-loop phase"));
    }
    let mut lag = ns_to(&run.ledger.lag_ns, 1e6);
    stats::sort(&mut lag);
    Metric {
        name: "gen_lag_ms_p99",
        unit: "ms",
        value: stats::quantile(&lag, 0.99),
        note: format!("{what} n={}", lag.len()),
    }
}

fn index_bytes_per_edge(engine: &Engine) -> Metric {
    let snap = engine.snapshot();
    let bytes = snap.index().stats().total_bytes as f64;
    metric("index_bytes_per_edge", "B", bytes / snap.graph().edge_count() as f64)
}

// ---- serve-hot / serve-cold ----------------------------------------------

pub struct ServeInputs {
    pub queries: QuerySet,
    pub closed: Vec<u32>,
    pub open: Vec<u32>,
    pub digest: u64,
}

pub fn serve_inputs(hot: bool, seed: u64, sizes: Sizes) -> ServeInputs {
    let g = inputs::epinions(sizes.serve_edges);
    let mut rng = Rng::new(seed);
    let (queries, closed, open) = if hot {
        let qs = inputs::distinct_queries(&g, HOT_PER_TEMPLATE, usize::MAX);
        let closed = inputs::uniform_script(qs.len(), sizes.count(HOT_CLOSED_REQUESTS), &mut rng);
        let open = inputs::uniform_script(qs.len(), sizes.count(HOT_OPEN_REQUESTS), &mut rng);
        (qs, closed, open)
    } else {
        let mut qs = inputs::distinct_queries(&g, usize::MAX, COLD_DISTINCT);
        qs.rotate(rng.below(qs.len()));
        let n_closed = sizes.count(COLD_CLOSED_REQUESTS);
        let closed = inputs::cyclic_script(qs.len(), n_closed, 0);
        let open = inputs::cyclic_script(qs.len(), sizes.count(COLD_OPEN_REQUESTS), n_closed);
        (qs, closed, open)
    };
    let script: Vec<u32> = closed.iter().chain(&open).copied().collect();
    let digest = inputs::input_digest(&g, &queries.texts, &script, &[]);
    ServeInputs { queries, closed, open, digest }
}

/// Generated graph → ready to answer: index build, server bind, one warm
/// pass over the distinct queries.
fn serve_setup(g: Graph, inp: &ServeInputs, tally: &mut Tally) -> (Server, f64) {
    let t0 = Instant::now();
    let (engine, _report) = Engine::with_options(g, EngineOptions::default());
    let server = Server::bind(Arc::new(engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind 127.0.0.1:0");
    warm_pass(&server, &inp.queries.texts, &inp.queries.expected, tally);
    (server, t0.elapsed().as_secs_f64())
}

fn serve(hot: bool, seed: u64, sizes: Sizes) -> RunResult {
    let inp = serve_inputs(hot, seed, sizes);
    let mut tally = Tally::default();
    let mut invalid = Vec::new();
    if !hot && inp.queries.len() <= 1024 {
        invalid.push(format!(
            "cold set has {} distinct queries, not above the result cache",
            inp.queries.len()
        ));
    }

    // Set-up, several times on fresh graphs (built CSR faces would
    // otherwise carry over through shared chunks); the last one serves.
    let graphs: Vec<Graph> =
        (0..sizes.setups).map(|_| inputs::epinions(sizes.serve_edges)).collect();
    let mut setup_s = Vec::new();
    let mut server = None;
    for g in graphs {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        tally.attempted += inp.queries.len() as u64;
        let (s, secs) = serve_setup(g, &inp, &mut tally);
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.local_addr();

    let closed = closed_loop(addr, &inp.queries.texts, &inp.closed, &inp.queries.expected, CONNS);
    tally.add(&closed.tally);

    let frames = query_frames(&inp.queries);
    let (rate_per_s, limit) =
        if hot { (HOT_OPEN_RATE, HOT_LIMIT) } else { (COLD_OPEN_RATE, COLD_LIMIT) };
    let pace = Pace { rate_per_s, limit, max_in_flight: usize::MAX };
    let open = open_loop(addr, &frames, &inp.open, pace, |i, resp, tally| {
        judge_query(&inp.queries.expected[inp.open[i] as usize], resp, tally)
    })
    .expect("open-loop connection");
    tally.add(&open.tally);

    let qps_block = if hot { HOT_QPS_BLOCK } else { inp.queries.len() };
    let mut metrics = vec![
        setup_metric(setup_s),
        Metric {
            name: "qps",
            unit: "1/s",
            value: closed.qps(qps_block),
            note: format!(
                "closed loop, {CONNS} connections, n={}, upper quartile of blocks of {qps_block}",
                inp.closed.len()
            ),
        },
    ];
    metrics.extend(timing(
        "query_p50_us",
        "query_p99_us",
        0.99,
        "us",
        &ns_to(&open.ledger.latency_ns, 1e3),
        &mut invalid,
        sizes.smoke,
    ));
    metrics.push(index_bytes_per_edge(server.engine()));
    metrics.push(open_phase_metrics(&open, "queries", &mut invalid));
    server.shutdown();
    metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb()));
    metrics.push(metric("fail_ratio", "ratio", tally.fail_ratio()));
    RunResult {
        workload: if hot { "serve-hot" } else { "serve-cold" },
        input_digest: inp.digest,
        tally,
        invalid,
        metrics,
    }
}

// ---- mixed-rw ------------------------------------------------------------

pub struct MixedInputs {
    pub queries: QuerySet,
    /// Oracle at the final epoch (`queries.expected` is epoch 0's).
    pub expected_final: Vec<Expected>,
    pub reads: Vec<u32>,
    pub burst: Vec<u32>,
    pub deltas: Vec<DeltaStep>,
    pub delta_ops: Vec<Vec<WireOp>>,
    pub final_edges: Vec<Edge>,
    pub digest: u64,
}

pub fn mixed_inputs(seed: u64, sizes: Sizes) -> MixedInputs {
    let g = inputs::yago(sizes.mixed_edges);
    let queries = inputs::distinct_queries(&g, HOT_PER_TEMPLATE, usize::MAX);
    let mut rng = Rng::new(seed);
    let n_deltas = sizes.count(MIXED_DELTAS);
    let n_reads = (n_deltas as f64 / MIXED_DELTA_RATE * MIXED_READ_RATE) as usize;
    let reads = inputs::uniform_script(queries.len(), n_reads, &mut rng);
    let burst = inputs::uniform_script(queries.len(), sizes.count(MIXED_BURST_REQUESTS), &mut rng);
    let (deltas, final_edges) = inputs::delta_script(&g, n_deltas, MIXED_OPS_EACH, &mut rng);
    let name = |l| g.label_name(l).to_string();
    let delta_ops = deltas
        .iter()
        .map(|step| {
            let del = step.delete.iter().map(|&(src, dst, l)| WireOp::DeleteEdge {
                src,
                dst,
                label: name(l),
            });
            let ins = step.insert.iter().map(|&(src, dst, l)| WireOp::InsertEdge {
                src,
                dst,
                label: name(l),
            });
            del.chain(ins).collect()
        })
        .collect();
    // The shadow graph: the delta script applied by the benchmark itself.
    let mut shadow = g.clone();
    for step in &deltas {
        for &(v, u, l) in &step.delete {
            shadow.remove_edge(v, u, l);
        }
        for &(v, u, l) in &step.insert {
            shadow.insert_edge(v, u, l);
        }
    }
    let expected_final = oracle(&shadow, &queries.cpqs);
    let script: Vec<u32> = reads.iter().chain(&burst).copied().collect();
    let digest = inputs::input_digest(&g, &queries.texts, &script, &deltas);
    MixedInputs { queries, expected_final, reads, burst, deltas, delta_ops, final_edges, digest }
}

pub fn mixed_engine_options() -> EngineOptions {
    EngineOptions {
        durability: DurabilityOptions { checkpoint_wal_bytes: Some(MIXED_CHECKPOINT_WAL_BYTES) },
        ..EngineOptions::default()
    }
}

pub fn mixed_store_options() -> StoreOptions {
    StoreOptions { fsync: FsyncPolicy::Always }
}

/// Durable engine on `dir` (fresh: build + store bootstrap; existing:
/// recovery), server bind, and `warm` queries answered and checked.
fn mixed_start(
    dir: &Path,
    g: Option<Graph>,
    inp: &MixedInputs,
    expected: &[Expected],
    warm: usize,
    tally: &mut Tally,
) -> (Server, f64) {
    let t0 = Instant::now();
    let start = durable_engine(dir, mixed_store_options(), mixed_engine_options(), || {
        g.expect("a fresh directory needs a seed graph")
    })
    .expect("durable engine");
    let server = Server::bind(Arc::new(start.engine), "127.0.0.1:0", ServerOptions::default())
        .expect("bind 127.0.0.1:0");
    tally.attempted += warm as u64;
    warm_pass(&server, &inp.queries.texts[..warm], &expected[..warm], tally);
    (server, t0.elapsed().as_secs_f64())
}

fn mixed_rw(seed: u64, sizes: Sizes) -> RunResult {
    let inp = mixed_inputs(seed, sizes);
    let mut tally = Tally::default();
    let mut invalid = Vec::new();
    let n_queries = inp.queries.len();

    let graphs: Vec<Graph> = (0..sizes.setups).map(|_| inputs::yago(sizes.mixed_edges)).collect();
    let mut setup_s = Vec::new();
    let mut current: Option<(Server, PathBuf)> = None;
    for (i, g) in graphs.into_iter().enumerate() {
        if let Some((previous, dir)) = current.take() {
            previous.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = scratch_dir(&format!("mixed-{i}"));
        let (server, secs) =
            mixed_start(&dir, Some(g), &inp, &inp.queries.expected, n_queries, &mut tally);
        setup_s.push(secs);
        current = Some((server, dir));
    }
    let (server, dir) = current.expect("at least one set-up");
    let addr = server.local_addr();

    // Reads beside writes: connection A reads the hot set on schedule,
    // connection B sends one DELTA frame per schedule slot, one at a time.
    let query_frames = query_frames(&inp.queries);
    let delta_frames: Vec<Vec<u8>> =
        inp.delta_ops.iter().map(|ops| request_frame(&Request::Delta(ops.clone()))).collect();
    let delta_script: Vec<u32> = (0..delta_frames.len() as u32).collect();
    let final_epoch = inp.deltas.len() as u64;
    let (reads, writes) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let pace = Pace {
                rate_per_s: MIXED_READ_RATE,
                limit: MIXED_READ_LIMIT,
                max_in_flight: usize::MAX,
            };
            open_loop(addr, &query_frames, &inp.reads, pace, |i, resp, tally| {
                let q = inp.reads[i] as usize;
                match resp {
                    Response::Result { epoch, pairs } => {
                        // Answers are checked in full where the oracle
                        // exists: the first and the final epoch. (Epochs
                        // may run backwards between pipelined requests of
                        // one connection; the server promises a snapshot
                        // per request, not an order.)
                        if epoch == 0 {
                            tally.answer(&inp.queries.expected[q], &pairs);
                        } else if epoch == final_epoch {
                            tally.answer(&inp.expected_final[q], &pairs);
                        } else if epoch > final_epoch {
                            tally.mismatched += 1;
                        }
                    }
                    Response::Error(e) => tally.wire_error(e.code),
                    _ => tally.errors += 1,
                }
            })
        });
        let writer = scope.spawn(|| {
            let pace =
                Pace { rate_per_s: MIXED_DELTA_RATE, limit: MIXED_DELTA_LIMIT, max_in_flight: 1 };
            open_loop(addr, &delta_frames, &delta_script, pace, |i, resp, tally| {
                match resp {
                    // Sole writer: delta i installs epoch i + 1, and the
                    // script makes every op change the graph.
                    Response::DeltaAck { epoch, outcomes, .. } => {
                        let applied = outcomes.iter().all(|o| *o == WireOutcome::Applied);
                        if epoch != i as u64 + 1 || !applied {
                            tally.mismatched += 1;
                        }
                    }
                    Response::Error(e) => tally.wire_error(e.code),
                    _ => tally.errors += 1,
                }
            })
        });
        (
            reader.join().expect("reader panicked").expect("reader connection"),
            writer.join().expect("writer panicked").expect("writer connection"),
        )
    });
    tally.add(&reads.tally);
    tally.add(&writes.tally);
    let acknowledged = writes.ledger.received() == inp.deltas.len()
        && writes.tally.failed() == writes.tally.over_limit;

    // Closed-loop burst at the final, fragmented epoch.
    let burst = closed_loop(addr, &inp.queries.texts, &inp.burst, &inp.expected_final, CONNS);
    tally.add(&burst.tally);

    let index_bytes = index_bytes_per_edge(server.engine());
    let disk_bytes = dir_bytes(&dir) as f64;

    // Restart: shut down, drop engine and store, recover on the same
    // directory until the first query is answered.
    server.shutdown();
    let (server, recover_s) = mixed_start(&dir, None, &inp, &inp.expected_final, 1, &mut tally);
    // Every acknowledged write must be in the recovered graph: the edge
    // set equals the shadow graph's, and all hot queries answer as the
    // oracle does at the final epoch.
    if acknowledged {
        let mut recovered: Vec<Edge> = server.engine().snapshot().graph().base_edges().collect();
        recovered.sort_unstable();
        if recovered != inp.final_edges {
            invalid.push("recovered graph differs from the acknowledged writes".to_string());
        }
        tally.attempted += n_queries as u64;
        warm_pass(&server, &inp.queries.texts, &inp.expected_final, &mut tally);
    } else {
        invalid.push("not every delta was acknowledged; recovery left unchecked".to_string());
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut metrics = vec![
        setup_metric(setup_s),
        Metric {
            name: "qps",
            unit: "1/s",
            value: burst.qps(HOT_QPS_BLOCK),
            note: format!(
                "closed-loop burst at the final epoch, n={}, upper quartile of blocks of {HOT_QPS_BLOCK}",
                inp.burst.len()
            ),
        },
    ];
    metrics.extend(timing(
        "query_p50_us",
        "query_p99_us",
        0.99,
        "us",
        &ns_to(&reads.ledger.latency_ns, 1e3),
        &mut invalid,
        sizes.smoke,
    ));
    metrics.push(index_bytes);
    metrics.extend(timing(
        "delta_p50_ms",
        "delta_p95_ms",
        0.95,
        "ms",
        &ns_to(&writes.ledger.latency_ns, 1e6),
        &mut invalid,
        sizes.smoke,
    ));
    metrics.push(metric("recover_s", "s", recover_s));
    metrics.push(metric("disk_bytes_per_edge", "B", disk_bytes / inp.final_edges.len() as f64));
    // The paced writer waits for acknowledgements by design, so only the
    // reader says how late the generator ran.
    metrics.push(open_phase_metrics(&reads, "reads", &mut invalid));
    metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb()));
    metrics.push(metric("fail_ratio", "ratio", tally.fail_ratio()));
    RunResult { workload: "mixed-rw", input_digest: inp.digest, tally, invalid, metrics }
}

// ---- paper-inproc --------------------------------------------------------

pub struct InprocInputs {
    pub queries: QuerySet,
    pub script: Vec<u32>,
    pub digest: u64,
}

pub fn inproc_inputs(seed: u64, sizes: Sizes) -> InprocInputs {
    let g = inputs::epinions(sizes.inproc_edges);
    let mut queries = inputs::distinct_queries(&g, INPROC_PER_TEMPLATE, usize::MAX);
    queries.rotate(Rng::new(seed).below(queries.len()));
    let passes = sizes.count(INPROC_PASSES);
    let script = inputs::cyclic_script(queries.len(), passes * queries.len(), 0);
    let digest = inputs::input_digest(&g, &queries.texts, &script, &[]);
    InprocInputs { queries, script, digest }
}

/// The paper's own measurement: bare index, one thread, no server, no
/// engine caches.
fn paper_inproc(seed: u64, sizes: Sizes) -> RunResult {
    let inp = inproc_inputs(seed, sizes);
    let mut tally = Tally::default();
    let mut invalid = Vec::new();

    let graphs: Vec<Graph> =
        (0..sizes.setups).map(|_| inputs::epinions(sizes.inproc_edges)).collect();
    let mut setup_s = Vec::new();
    let mut built = None;
    for g in graphs {
        drop(built.take()); // free the previous index before building the next
        let t0 = Instant::now();
        let (index, _report) = build_sharded_with_report(&g, K, BuildOptions::default());
        for (q, expected) in inp.queries.cpqs.iter().zip(&inp.queries.expected) {
            tally.attempted += 1;
            tally.answer(expected, &index.evaluate(&g, q));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((g, index));
    }
    let (g, index) = built.expect("at least one set-up");

    // Queries travel as text like everywhere else, parsed outside the
    // timed call: the paper times evaluation of a given CPQ.
    let parsed: Vec<_> = inp
        .queries
        .texts
        .iter()
        .map(|t| parse_cpq(t, &g).expect("generated query text parses"))
        .collect();
    let mut call_ns = Vec::with_capacity(inp.script.len());
    for &i in &inp.script {
        let t0 = Instant::now();
        let answer = std::hint::black_box(index.evaluate(&g, &parsed[i as usize]));
        call_ns.push(t0.elapsed().as_nanos() as u64);
        tally.attempted += 1;
        tally.answer(&inp.queries.expected[i as usize], &answer);
    }
    // Calls per second of evaluation time, as the upper quartile over
    // passes (each pass evaluates every query once).
    let per_pass: Vec<f64> = call_ns
        .chunks(inp.queries.len())
        .map(|pass| pass.len() as f64 / (pass.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    let ok_share = 1.0 - tally.fail_ratio();

    let mut metrics = vec![
        setup_metric(setup_s),
        Metric {
            name: "qps",
            unit: "1/s",
            value: ok_share * stats::upper_quartile(per_pass.clone()),
            note: format!(
                "one thread, n={}, upper quartile of {} passes",
                call_ns.len(),
                per_pass.len()
            ),
        },
    ];
    metrics.extend(timing(
        "query_p50_us",
        "query_p99_us",
        0.99,
        "us",
        &ns_to(&call_ns, 1e3),
        &mut invalid,
        sizes.smoke,
    ));
    metrics.push(metric(
        "index_bytes_per_edge",
        "B",
        index.stats().total_bytes as f64 / g.edge_count() as f64,
    ));
    metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb()));
    metrics.push(metric("fail_ratio", "ratio", tally.fail_ratio()));
    RunResult { workload: "paper-inproc", input_digest: inp.digest, tally, invalid, metrics }
}
