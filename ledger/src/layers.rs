//! The traced run: one thread replays one pass of a workload's script by
//! calling each layer's public functions directly, with a span around
//! each call recorded from here (no product file carries a probe). The
//! per-layer table is made of the spans' self times; `trace.json` holds
//! the spans themselves.
//!
//! Steps the engine runs internally (canonicalize, optimize, execute;
//! clone, maintain) are *replayed* right after the engine call and
//! recorded as its children, so `engine.*` self times are what is left
//! of the engine call once the replayed steps are subtracted. The
//! durability sink is the exception: `DurabilitySink` is a public trait,
//! so the store is wrapped and its calls are timed in place.

use crate::check::{Expected, Tally};
use crate::inputs::{self, Edge};
use crate::load::closed_loop;
use crate::names;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    self, metric, InprocInputs, Metric, MixedInputs, ServeInputs, Sizes, K, MIXED_DELTA_RATE,
    MIXED_READ_RATE,
};
use cpqx_core::exec::ExecStats;
use cpqx_core::{optimize_query_costed, CpqxIndex, Executor};
use cpqx_engine::{
    apply_ops, build_sharded_with_report, BuildOptions, CheckpointReport, Delta, DeltaOp,
    DurabilitySink, Engine, EngineOptions, ExecOptions, StatsReport,
};
use cpqx_graph::{Graph, LabelSeq, MAX_SEQ_LEN};
use cpqx_net::proto::{
    decode_request, decode_response, encode_request, encode_response, write_frame, FrameAssembler,
    DEFAULT_MAX_FRAME,
};
use cpqx_net::{Client, Request, Response, Server, ServerOptions};
use cpqx_query::{cache_key, canonicalize, parse_cpq, Cpq};
use cpqx_store::durable_engine;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// What a traced run produced: every per-layer metric, by name.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub spans: usize,
}

/// Requests of the hot script replayed in the traced pass (scaled like
/// every count); the cold pass is one full cycle, the mixed pass the
/// whole interleaved script.
const HOT_PASS_REQUESTS: usize = 6000;
const PING_ROUND_TRIPS: usize = 2000;
const OBS_LOOP_CALLS: usize = 20_000;
const OBS_LOOP_BLOCKS: usize = 5;

pub fn run(workload: &str, seed: u64, sizes: Sizes, out_dir: &Path) -> Layers {
    let mut run = Traced::default();
    match workload {
        "serve-hot" | "serve-cold" => run.serve(workload == "serve-hot", seed, sizes),
        "mixed-rw" => run.mixed(seed, sizes),
        "paper-inproc" => run.inproc(seed, sizes),
        other => panic!("unknown workload {other}"),
    }
    run.finish(out_dir)
}

/// Accumulates spans, counters and directly measured values of one run.
#[derive(Default)]
struct Traced {
    tracer: Tracer,
    tally: Tally,
    /// Metrics measured outside spans (counts, ratios, phase timings).
    direct: BTreeMap<&'static str, f64>,
    /// Per-request engine-call durations by cache outcome, µs.
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    /// Span ids of the engine calls that missed the result cache.
    miss_calls: Vec<u32>,
    exec: ExecTotals,
    response_bytes: u64,
    reads: u64,
    maintain_ns: u64,
    /// What all checkpoints of the pass together wrote and skipped.
    checkpoints: CheckpointReport,
}

/// `ExecStats` summed over the executor runs of a pass.
#[derive(Default)]
struct ExecTotals {
    runs: u64,
    answer_pairs: u64,
    stats: ExecStats,
}

impl ExecTotals {
    fn add(&mut self, s: ExecStats, answer: usize) {
        self.runs += 1;
        self.answer_pairs += answer as u64;
        let t = &mut self.stats;
        t.lookups += s.lookups;
        t.pairs_materialized += s.pairs_materialized;
        t.class_conjunctions += s.class_conjunctions;
        t.pair_intersections += s.pair_intersections;
        t.joins += s.joins;
        t.csr_joins += s.csr_joins;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Traced {
    fn set(&mut self, name: &'static str, value: f64) {
        self.direct.insert(name, value);
    }

    // ---- steps shared by the workloads -----------------------------------

    /// `engine.build_*` and `graph.csr_build_ms`, on fresh graphs.
    fn build_and_faces(&mut self, g: &Graph, fresh: &Graph) -> CpqxIndex {
        let (_, (index, report)) = self.tracer.span("engine.build", 0, None, || {
            build_sharded_with_report(g, K, BuildOptions::default())
        });
        self.set("engine.build_s", report.total.as_secs_f64());
        self.set("engine.build_level1_s", report.level1.as_secs_f64());
        self.set("engine.build_refine_s", report.refine.as_secs_f64());
        self.set("engine.build_merge_s", report.merge.as_secs_f64());
        let t0 = Instant::now();
        self.tracer.span("graph.csr_build", 0, None, || fresh.ensure_csr());
        self.set("graph.csr_build_ms", t0.elapsed().as_secs_f64() * 1e3);
        index
    }

    fn index_shape(&mut self, index: &CpqxIndex) {
        let s = index.stats();
        self.set("core.classes", s.classes as f64);
        self.set("core.pairs", s.pairs as f64);
        self.set("core.postings", s.postings as f64);
        self.set("core.gamma", s.gamma);
        self.set("core.fragmentation_ratio", index.fragmentation_ratio());
    }

    /// One query, layer by layer, the way the server handles it.
    fn read(&mut self, engine: &Engine, request: u32, text: &str, expected: Option<&Expected>) {
        let tr = &mut self.tracer;
        let (_, payload) = tr.span("net.encode_request", request, None, || {
            encode_request(&Request::Query(text.to_string()))
        });
        let (_, payload) =
            tr.span("net.frame_assemble", request, None, || through_frame_layer(&payload));
        let (_, decoded) =
            tr.span("net.decode_request", request, None, || decode_request(&payload));
        let Ok(Request::Query(text)) = decoded else {
            self.tally.errors += 1;
            return;
        };
        let snap = engine.snapshot();
        let (_, parsed) = tr.span("query.parse", request, None, || parse_cpq(&text, snap.graph()));
        let Ok(q) = parsed else {
            self.tally.errors += 1;
            return;
        };
        let before = engine.stats();
        let (call, pairs) = tr.span("engine.query", request, None, || engine.query_on(&snap, &q));
        let after = engine.stats();
        let call_us = tr.spans()[call as usize].dur_ns() as f64 / 1e3;
        let hit = after.result_hits > before.result_hits;
        if hit {
            self.hit_us.push(call_us);
        } else {
            self.miss_us.push(call_us);
            self.miss_calls.push(call);
        }
        // Replay of what the engine call did inside, as its children.
        let (_, (canonical, key)) = tr.span("query.canonicalize", request, Some(call), || {
            let c = canonicalize(&q);
            let k = cache_key(&c);
            (c, k)
        });
        if !hit {
            if after.plan_misses > before.plan_misses {
                tr.span("core.optimize", request, Some(call), || {
                    optimize_query_costed(snap.index(), snap.graph(), &canonical)
                });
            }
            let (planned, _) = snap.plan_for(&key, &canonical);
            let (_, (answer, s)) = tr.span("core.exec", request, Some(call), || {
                Executor::with_options(snap.index(), snap.graph(), ExecOptions::default())
                    .run_explained(&planned.plan)
            });
            self.exec.add(s, answer.len());
        }
        let (_, payload) = tr.span("net.encode_response", request, None, || {
            encode_response(&Response::Result { epoch: snap.epoch(), pairs: (*pairs).clone() })
        });
        self.response_bytes += payload.len() as u64 + 4;
        self.reads += 1;
        let (_, payload) =
            tr.span("net.frame_assemble", request, None, || through_frame_layer(&payload));
        let (_, decoded) =
            tr.span("net.decode_response", request, None, || decode_response(&payload));
        self.tally.attempted += 1;
        match (decoded, expected) {
            (Ok(Response::Result { pairs, .. }), Some(e)) => self.tally.answer(e, &pairs),
            (Ok(Response::Result { .. }), None) => {}
            _ => self.tally.errors += 1,
        }
    }

    /// Blocking single-connection round trips over `script`, a span
    /// around each (or a bare timer when `spans` is off); returns the
    /// round-trip times in µs.
    fn round_trips(
        &mut self,
        server: &Server,
        texts: &[String],
        script: &[u32],
        expected: &[Expected],
        spans: bool,
    ) -> Vec<f64> {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut rtt = Vec::with_capacity(script.len());
        for (i, &q) in script.iter().enumerate() {
            let text = &texts[q as usize];
            let (us, reply) = if spans {
                let tr = &mut self.tracer;
                let (id, reply) = tr.span("net.rtt", i as u32, None, || client.query(text));
                (tr.spans()[id as usize].dur_ns() as f64 / 1e3, reply)
            } else {
                let t0 = Instant::now();
                let reply = client.query(text);
                (t0.elapsed().as_nanos() as f64 / 1e3, reply)
            };
            rtt.push(us);
            self.tally.attempted += 1;
            match reply {
                Ok(r) => self.tally.answer(&expected[q as usize], &r.pairs),
                Err(e) => self.tally.client_error(&e),
            }
        }
        rtt
    }

    /// `net.rtt_us_p50`, `trace.overhead_share`, `net.ping_rtt_us`, the
    /// server's own counters, and `obs.overhead_share`.
    fn wire(
        &mut self,
        server: &Server,
        texts: &[String],
        script: &[u32],
        next: &[u32],
        expected: &[Expected],
    ) {
        let on = stats::median_of(self.round_trips(server, texts, script, expected, true));
        let off = stats::median_of(self.round_trips(server, texts, next, expected, false));
        self.set("net.rtt_us_p50", on);
        self.set("trace.overhead_share", if off > 0.0 { (on - off) / off } else { 0.0 });

        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut ping = Vec::with_capacity(PING_ROUND_TRIPS);
        for _ in 0..PING_ROUND_TRIPS {
            let t0 = Instant::now();
            let ok = client.ping().is_ok();
            ping.push(t0.elapsed().as_nanos() as f64 / 1e3);
            self.tally.attempted += 1;
            self.tally.errors += u64::from(!ok);
        }
        self.set("net.ping_rtt_us", stats::median_of(ping));
        let net = server.net_stats();
        self.set("net.busy_rejects", net.rejected_connections as f64);
        self.set("net.error_responses", net.error_responses as f64);

        // Recorder on versus off around the same in-process hit.
        let engine = server.engine();
        let snap = engine.snapshot();
        let q = parse_cpq(&texts[script[0] as usize], snap.graph()).expect("query text parses");
        engine.query(&q);
        let mut block_s = [Vec::new(), Vec::new()];
        for _ in 0..OBS_LOOP_BLOCKS {
            for (slot, enabled) in [true, false].into_iter().enumerate() {
                engine.obs().set_enabled(enabled);
                let t0 = Instant::now();
                for _ in 0..OBS_LOOP_CALLS {
                    std::hint::black_box(engine.query(&q));
                }
                block_s[slot].push(t0.elapsed().as_secs_f64());
            }
        }
        engine.obs().set_enabled(true);
        let [with, without] = block_s.map(stats::median_of);
        self.set("obs.overhead_share", (with - without) / without);
    }

    fn cache_counters(&mut self, before: &StatsReport, after: &StatsReport) {
        let hits = after.result_hits - before.result_hits;
        let queries = after.queries - before.queries;
        let plan_hits = after.plan_hits - before.plan_hits;
        let plans = plan_hits + after.plan_misses - before.plan_misses;
        self.set("engine.result_hit_rate", ratio(hits, queries));
        self.set("engine.plan_hit_rate", ratio(plan_hits, plans));
        self.set(
            "engine.invalidated_results",
            (after.invalidated_results - before.invalidated_results) as f64,
        );
        let copied = after.cow_chunks_copied - before.cow_chunks_copied;
        let shared = after.cow_chunks_shared - before.cow_chunks_shared;
        self.set("engine.cow_copied_share", ratio(copied, copied + shared));
        self.set("engine.rebuilds", (after.rebuilds - before.rebuilds) as f64);
    }

    // ---- the workloads ---------------------------------------------------

    fn serve(&mut self, hot: bool, seed: u64, sizes: Sizes) {
        let inp: ServeInputs = workloads::serve_inputs(hot, seed, sizes);
        let g = inputs::epinions(sizes.serve_edges);
        let index = self.build_and_faces(&g, &inputs::epinions(sizes.serve_edges));
        drop(index);
        let (engine, _) = Engine::with_options(g, EngineOptions::default());
        let server = Server::bind(Arc::new(engine), "127.0.0.1:0", ServerOptions::default())
            .expect("bind 127.0.0.1:0");
        let all: Vec<u32> = (0..inp.queries.len() as u32).collect();
        let warm =
            closed_loop(server.local_addr(), &inp.queries.texts, &all, &inp.queries.expected, 1);
        self.tally.add(&warm.tally);

        // One pass, then the same number of requests further down the
        // script for each wire pass (the cold cycle must not restart:
        // a restart would turn misses into hits).
        let (n, script) = if hot {
            let n = sizes.count(HOT_PASS_REQUESTS);
            (n, inp.closed.iter().cycle().take(3 * n).copied().collect::<Vec<u32>>())
        } else {
            let n = inp.queries.len();
            (n, inputs::cyclic_script(n, 3 * n, 0))
        };
        let before = server.engine().stats();
        for (i, &q) in script[..n].iter().enumerate() {
            let (text, expected) =
                (&inp.queries.texts[q as usize], &inp.queries.expected[q as usize]);
            self.read(server.engine(), i as u32, text, Some(expected));
        }
        let after = server.engine().stats();
        self.cache_counters(&before, &after);
        self.wire(
            &server,
            &inp.queries.texts,
            &script[n..2 * n],
            &script[2 * n..],
            &inp.queries.expected,
        );
        self.index_shape(server.engine().snapshot().index());
        server.shutdown();
    }

    fn mixed(&mut self, seed: u64, sizes: Sizes) {
        let inp: MixedInputs = workloads::mixed_inputs(seed, sizes);
        let g = inputs::yago(sizes.mixed_edges);
        let index = self.build_and_faces(&g, &inputs::yago(sizes.mixed_edges));
        drop(index);

        // Fresh durable start; what it costs beyond the index build is
        // the store's bootstrap (the generation-1 snapshot).
        let dir = workloads::scratch_dir("traced-mixed");
        let t0 = Instant::now();
        let (_, start) = self.tracer.span("store.durable_start", 0, None, || {
            durable_engine(
                &dir,
                workloads::mixed_store_options(),
                workloads::mixed_engine_options(),
                || g,
            )
            .expect("durable engine")
        });
        let total_s = t0.elapsed().as_secs_f64();
        let engine = start.engine;
        self.set("store.bootstrap_s", total_s - engine.stats().build_total.as_secs_f64());
        let (calls, sink_calls) = std::sync::mpsc::channel();
        engine.attach_durability(Arc::new(TimedSink {
            inner: start.store,
            t0: self.tracer.t0(),
            calls,
        }));
        for (text, expected) in inp.queries.texts.iter().zip(&inp.queries.expected) {
            let q = parse_cpq(text, engine.snapshot().graph()).expect("query text parses");
            self.tally.attempted += 1;
            self.tally.answer(expected, &engine.query(&q));
        }

        // One pass over the interleaved script in due-time order: the
        // reads due before each delta, then the delta.
        let before = engine.stats();
        let mut request = 0u32;
        let mut next_read = 0usize;
        let last = inp.deltas.len();
        for j in 0..=last {
            let due_s = if j < last { j as f64 / MIXED_DELTA_RATE } else { f64::INFINITY };
            while next_read < inp.reads.len() && (next_read as f64 / MIXED_READ_RATE) < due_s {
                let q = inp.reads[next_read] as usize;
                // The oracle exists at the first and the final epoch.
                let expected = match j {
                    0 => Some(&inp.queries.expected[q]),
                    _ if j == last => Some(&inp.expected_final[q]),
                    _ => None,
                };
                self.read(&engine, request, &inp.queries.texts[q], expected);
                request += 1;
                next_read += 1;
            }
            if let Some(step) = inp.deltas.get(j) {
                self.delta(&engine, &sink_calls, request, step);
                request += 1;
            }
        }
        let after = engine.stats();
        self.cache_counters(&before, &after);
        let ops = (after.lazy_update_ops - before.lazy_update_ops).max(1);
        self.set(
            "store.wal_bytes_per_op",
            (after.wal_bytes - before.wal_bytes) as f64 / ops as f64,
        );
        self.set("core.maintain_ms_per_op", self.maintain_ns as f64 / 1e6 / ops as f64);
        let wrote = self.checkpoints;
        self.set(
            "store.checkpoint_written_share",
            ratio(wrote.chunks_written, wrote.chunks_written + wrote.chunks_skipped),
        );

        let server = Server::bind(Arc::new(engine), "127.0.0.1:0", ServerOptions::default())
            .expect("bind 127.0.0.1:0");
        let n = sizes.count(HOT_PASS_REQUESTS).min(inp.burst.len() / 2);
        self.wire(
            &server,
            &inp.queries.texts,
            &inp.burst[..n],
            &inp.burst[n..2 * n],
            &inp.expected_final,
        );
        self.index_shape(server.engine().snapshot().index());

        // Restart on the same directory.
        server.shutdown();
        let (_, restart) = self.tracer.span("store.recover", 0, None, || {
            durable_engine(
                &dir,
                workloads::mixed_store_options(),
                workloads::mixed_engine_options(),
                || unreachable!("the directory holds a store"),
            )
            .expect("recovery")
        });
        let info = restart.recovered.clone().expect("state recovered from disk");
        self.set("store.recover_manifest_ms", info.manifest_time.as_secs_f64() * 1e3);
        self.set("store.recover_chunks_ms", info.chunks_time.as_secs_f64() * 1e3);
        self.set("store.recover_replay_ms", info.replay_time.as_secs_f64() * 1e3);
        self.set("store.replayed_txns", info.replayed_transactions as f64);
        let mut recovered: Vec<Edge> = restart.engine.snapshot().graph().base_edges().collect();
        recovered.sort_unstable();
        self.tally.attempted += 1;
        self.tally.mismatched += u64::from(recovered != inp.final_edges);
        drop(restart);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One DELTA transaction through the engine, the store's calls timed
    /// in place, then clone and maintenance replayed on the side.
    fn delta(
        &mut self,
        engine: &Engine,
        sink_calls: &Receiver<SinkCall>,
        request: u32,
        step: &inputs::DeltaStep,
    ) {
        let ops: Vec<DeltaOp> = step
            .delete
            .iter()
            .map(|&(src, dst, label)| DeltaOp::DeleteEdge { src, dst, label })
            .chain(step.insert.iter().map(|&(src, dst, label)| DeltaOp::InsertEdge {
                src,
                dst,
                label,
            }))
            .collect();
        let delta = Delta::from(ops.clone());
        let before = engine.snapshot();
        let tr = &mut self.tracer;
        let (call, report) =
            tr.span("engine.apply_delta", request, None, || engine.apply_delta(&delta));
        for (name, start_ns, end_ns, wrote) in sink_calls.try_iter() {
            tr.push(Span { name, start_ns, end_ns, parent: Some(call), request });
            self.checkpoints.chunks_written += wrote.chunks_written;
            self.checkpoints.chunks_skipped += wrote.chunks_skipped;
        }
        let (_, mut g) = tr.span("graph.clone", request, Some(call), || before.graph().clone());
        let (_, mut index) =
            tr.span("core.index_clone", request, Some(call), || before.index().clone());
        let (maintain, replayed) =
            tr.span("core.maintain", request, Some(call), || apply_ops(&mut g, &mut index, &ops));
        self.maintain_ns += tr.spans()[maintain as usize].dur_ns();
        self.tally.attempted += 1;
        let applied = report.is_ok_and(|r| r.applied == ops.len());
        self.tally.mismatched += u64::from(!applied || replayed.is_err());
    }

    fn inproc(&mut self, seed: u64, sizes: Sizes) {
        let inp: InprocInputs = workloads::inproc_inputs(seed, sizes);
        let g = inputs::epinions(sizes.inproc_edges);
        let index = self.build_and_faces(&g, &inputs::epinions(sizes.inproc_edges));
        for q in &inp.queries.cpqs {
            std::hint::black_box(index.evaluate(&g, q));
        }
        let queries = inp.queries.cpqs.iter().zip(&inp.queries.expected);
        for (i, (q, expected)) in queries.clone().enumerate() {
            let (_, (answer, s)) =
                self.tracer.span("core.exec", i as u32, None, || index.explain(&g, q));
            self.exec.add(s, answer.len());
            self.tally.attempted += 1;
            self.tally.answer(expected, &answer);
        }
        self.index_shape(&index);
        drop(index);

        // Sec. V's trade: an interest-aware index over exactly the label
        // sequences this workload asks for.
        let interests: Vec<LabelSeq> = inp
            .queries
            .cpqs
            .iter()
            .flat_map(Cpq::label_runs)
            .filter(|run| (2..=MAX_SEQ_LEN).contains(&run.len()))
            .map(|run| LabelSeq::from_slice(&run))
            .collect();
        let (build, ia) = self
            .tracer
            .span("core.ia_build", 0, None, || CpqxIndex::build_interest_aware(&g, K, interests));
        let build_s = self.tracer.spans()[build as usize].dur_ns() as f64 / 1e9;
        self.set("core.ia_build_s", build_s);
        self.set("core.ia_bytes_per_edge", ia.stats().total_bytes as f64 / g.edge_count() as f64);
        for (i, (q, expected)) in queries.enumerate() {
            let (_, answer) =
                self.tracer.span("core.ia_exec", i as u32, None, || ia.evaluate(&g, q));
            self.tally.attempted += 1;
            self.tally.answer(expected, &answer);
        }
    }

    /// Turns spans and counters into the per-layer metrics (every name
    /// of [`names::PER_LAYER`] that a traced run measures; a layer that
    /// did no work on this workload reads 0), and writes `trace.json`
    /// and `layers.txt` into `out_dir`.
    fn finish(mut self, out_dir: &Path) -> Layers {
        let spans: Vec<Span> = std::mem::take(&mut self.tracer).into_spans();
        let own = trace::self_times_ns(&spans);
        // Self time per (name, request) in µs: a request crosses the
        // frame layer twice, and the table wants its cost per request.
        let mut per_request: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        let mut duration: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own_ns) in spans.iter().zip(&own) {
            *per_request.entry(s.name).or_default().entry(s.request).or_default() +=
                *own_ns as f64 / 1e3;
            duration.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
        let own_us = |name: &str| -> Vec<f64> {
            per_request.get(name).map(|m| m.values().copied().collect()).unwrap_or_default()
        };
        let p50 = |name: &str| stats::median_of(own_us(name));
        let dur_p50 =
            |name: &str| stats::median_of(duration.get(name).cloned().unwrap_or_default());

        let mut v = std::mem::take(&mut self.direct);
        v.insert("query.parse_us", p50("query.parse"));
        v.insert("query.canonicalize_us", p50("query.canonicalize"));
        v.insert("core.optimize_us", p50("core.optimize"));
        let mut exec = own_us("core.exec");
        stats::sort(&mut exec);
        v.insert("core.exec_us_p50", stats::quantile(&exec, 0.5));
        v.insert(
            "core.exec_us_p99",
            stats::quantile(&exec, stats::highest_supported(exec.len()).unwrap_or(0.5).min(0.99)),
        );
        v.insert("core.exec_us_mean", stats::mean(&exec));
        let (e, x) = (&self.exec, &self.exec.stats);
        let per = |num: usize, den: usize| ratio(num as u64, den as u64);
        v.insert("core.pairs_per_result", ratio(x.pairs_materialized as u64, e.answer_pairs));
        v.insert("core.lookups_per_query", ratio(x.lookups as u64, e.runs));
        v.insert(
            "core.class_conj_share",
            per(x.class_conjunctions, x.class_conjunctions + x.pair_intersections),
        );
        v.insert("core.csr_join_share", per(x.csr_joins, x.joins));
        v.insert("core.index_clone_us", p50("core.index_clone"));
        v.insert("core.ia_exec_us_p50", p50("core.ia_exec"));
        v.insert("graph.clone_us", p50("graph.clone"));
        v.insert("engine.query_hit_us", stats::median_of(self.hit_us.clone()));
        v.insert("engine.query_miss_us", stats::median_of(self.miss_us.clone()));
        let miss_self: Vec<f64> =
            self.miss_calls.iter().map(|&id| own[id as usize] as f64 / 1e3).collect();
        v.insert("engine.overhead_miss_us", stats::median_of(miss_self));
        v.insert("engine.apply_delta_ms", dur_p50("engine.apply_delta") / 1e3);
        v.insert("engine.delta_self_ms", p50("engine.apply_delta") / 1e3);
        v.insert("store.wal_append_us", p50("store.wal_append"));
        v.insert("store.checkpoint_ms", p50("store.checkpoint") / 1e3);
        v.insert("net.response_bytes_per_query", ratio(self.response_bytes, self.reads));

        // The layers a served query crosses, per request; what the wire
        // round trip takes beyond their sum is unattributed: syscalls,
        // epoll wake, worker hand-off, scheduling.
        let engine_call =
            stats::median_of(self.hit_us.iter().chain(&self.miss_us).copied().collect());
        let mut attributed = engine_call;
        for (metric, span) in [
            ("net.encode_request_us", "net.encode_request"),
            ("net.decode_request_us", "net.decode_request"),
            ("net.encode_response_us", "net.encode_response"),
            ("net.decode_response_us", "net.decode_response"),
            ("net.frame_assemble_us", "net.frame_assemble"),
        ] {
            v.insert(metric, p50(span));
            attributed += v[metric];
        }
        attributed += v["query.parse_us"];
        let rtt = v.get("net.rtt_us_p50").copied().unwrap_or(0.0);
        let unattributed = if rtt > 0.0 { rtt - attributed } else { 0.0 };
        v.insert("net.unattributed_us", unattributed);
        v.insert("net.unattributed_share", if rtt > 0.0 { unattributed / rtt } else { 0.0 });

        let metrics: Vec<Metric> = names::PER_LAYER[names::FROM_END_TO_END_RUN..]
            .iter()
            .map(|&(name, unit, _)| metric(name, unit, v.get(name).copied().unwrap_or(0.0)))
            .collect();

        std::fs::create_dir_all(out_dir).expect("create output directory");
        std::fs::write(out_dir.join("trace.json"), trace::chrome_trace_json(&spans))
            .expect("write trace.json");
        let mut table = format!("attributed_us {attributed:.3} = engine call {engine_call:.3} + parse + net codecs + frame layer\n");
        for m in &metrics {
            table.push_str(&format!("{:<34} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        std::fs::write(out_dir.join("layers.txt"), table).expect("write layers.txt");
        Layers { metrics, tally: self.tally, spans: spans.len() }
    }
}

/// One payload through the frame layer both ways: length-prefixed by
/// `write_frame`, reassembled by the server's `FrameAssembler`.
fn through_frame_layer(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload).expect("writing to a Vec cannot fail");
    let mut assembler = FrameAssembler::new(DEFAULT_MAX_FRAME);
    assembler.extend(&wire);
    assembler.next_frame().expect("frame within bound").expect("complete frame")
}

/// One timed call of the store: span name, start ns, end ns, and what
/// it wrote if it was a checkpoint.
type SinkCall = (&'static str, u64, u64, CheckpointReport);

/// The store, with its two calls timed in place and reported to the
/// tracing thread over a channel.
struct TimedSink {
    inner: Arc<cpqx_store::Store>,
    /// The tracer's clock.
    t0: Instant,
    calls: Sender<SinkCall>,
}

impl TimedSink {
    fn timed<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> std::io::Result<R>,
        wrote: impl FnOnce(&R) -> CheckpointReport,
    ) -> std::io::Result<R> {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        let wrote = out.as_ref().map_or_else(|_| CheckpointReport::default(), wrote);
        // The receiver outlives the engine; a send cannot fail while a
        // transaction is running.
        let _ = self.calls.send((name, start, end, wrote));
        out
    }
}

impl DurabilitySink for TimedSink {
    fn append(&self, graph: &Graph, ops: &[DeltaOp]) -> std::io::Result<u64> {
        self.timed(
            "store.wal_append",
            || self.inner.append(graph, ops),
            |_| CheckpointReport::default(),
        )
    }

    fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.inner.wal_bytes_since_checkpoint()
    }

    fn checkpoint(&self, graph: &Graph, index: &CpqxIndex) -> std::io::Result<CheckpointReport> {
        self.timed("store.checkpoint", || self.inner.checkpoint(graph, index), |report| *report)
    }
}
