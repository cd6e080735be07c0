//! The concurrent query-serving engine.
//!
//! An [`Engine`] owns an immutable [`Snapshot`] — graph + index + a plan
//! cache — behind an atomically swappable `Arc`. Readers clone the `Arc`
//! under a briefly-held read lock and then evaluate entirely lock-free on
//! the snapshot; maintenance clones the state, applies updates to the
//! clone, and *installs* a new snapshot, never blocking in-flight readers
//! (they finish on the version they started with — snapshot isolation).
//!
//! Writes go through **typed delta transactions** ([`crate::delta`]):
//! one clone + one install per [`Delta`] however many ops it carries,
//! each op applied by the paper's lazy maintenance procedures, with a
//! fragmentation-triggered automatic rebuild
//! ([`EngineOptions::auto_rebuild_ratio`]) as the defragmentation
//! backstop.
//!
//! Serving adds two caches:
//!
//! * a **plan cache** per snapshot: canonical query → cost-optimized
//!   [`Plan`] plus its cost estimate, from one optimizer pass (plans and
//!   costs depend on the index's statistics and interest set, so they
//!   live and die with the snapshot);
//! * an **LRU result cache** across queries, keyed by the canonical form
//!   of the query ([`cpqx_query::canonical`]) and tagged with the epoch it
//!   is valid for — a snapshot swap atomically invalidates it. An entry
//!   ([`CachedAnswer`]) is also reachable by the request texts that
//!   produced it and can hold the answer's wire form, so a front-end
//!   serves a repeat request with one probe ([`Engine::cached_wire`]) and
//!   neither parses nor encodes.
//!
//! All counters and latency percentiles are exported through
//! [`Engine::stats`].

use cpqx_core::{normalize_interests, CpqxIndex, Executor};
use cpqx_graph::{Graph, Label, LabelSeq, Pair, VertexId};
use cpqx_obs::{ObsOptions, Op, Recorder, Stage, TraceBuilder, TraceKind};
use cpqx_query::canonical::{canonical_key, canonicalize};
use cpqx_query::{Cpq, Plan};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::build::{build_with_report, BuildReport};
use crate::cache::LruCache;
use crate::delta::{apply_ops, Delta, DeltaError, DeltaOp, DeltaReport};
use crate::durability::{DurabilityOptions, DurabilitySink};
use crate::stats::{EngineCounters, StatsReport};

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Index path-length parameter `k`.
    pub k: usize,
    /// Result-cache capacity in entries (0 disables result caching).
    pub result_cache_capacity: usize,
    /// Per-snapshot plan-cache capacity in entries (0 disables plan
    /// caching). Bounded for the same reason as the result cache: a
    /// long-lived snapshot serving millions of distinct queries must not
    /// grow without bound.
    pub plan_cache_capacity: usize,
    /// `Some(interests)` builds the interest-aware index (iaCPQx,
    /// [`CpqxIndex::build_interest_aware`]) instead of full CPQx
    /// ([`CpqxIndex::build`]); sequences longer than `k` are split as
    /// there.
    pub interests: Option<Vec<LabelSeq>>,
    /// Fragmentation threshold for automatic defragmentation: when a
    /// write transaction leaves the index with
    /// `class_slots / baseline_classes` *above* this ratio, the engine
    /// rebuilds the index from scratch inside the same transaction (one
    /// snapshot install; readers never see the fragmented intermediate).
    /// This is the lazy-update/rebuild tradeoff of the paper's Table VII
    /// as a serving policy. `None` disables auto-rebuild; the default
    /// (8.0) is far above the ratios ordinary churn produces (the paper
    /// measures 1.02–1.63 for up to 20% edge churn), so it only fires
    /// under sustained heavy write load.
    pub auto_rebuild_ratio: Option<f64>,
    /// Durability policy: when a [`DurabilitySink`] is attached
    /// ([`Engine::attach_durability`]), this drives the engine-triggered
    /// checkpoint cadence. Irrelevant (and harmless) without a sink.
    pub durability: DurabilityOptions,
    /// Observability: trace sampling, slow-query log, histogram
    /// recording (see [`cpqx_obs::ObsOptions`]). Enabled by default —
    /// a recorded stage costs a few relaxed atomic adds; set
    /// `obs.enabled = false` to reduce every probe to a branch.
    pub obs: ObsOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            k: 2,
            result_cache_capacity: 1024,
            plan_cache_capacity: 4096,
            interests: None,
            auto_rebuild_ratio: Some(8.0),
            durability: DurabilityOptions::default(),
            obs: ObsOptions::default(),
        }
    }
}

/// A lowered plan together with its estimated execution cost, produced by
/// one pass of the cost-based optimizer
/// ([`cpqx_core::optimize_query_costed`]) — the unit the per-snapshot
/// plan cache stores, so the cost always describes the plan that actually
/// executes.
pub struct PlannedQuery {
    /// The physical plan the executor runs.
    pub plan: Plan,
    /// The plan's estimated cumulative execution cost.
    pub cost: f64,
}

/// An immutable, shareable point-in-time view: the graph, its index, the
/// epoch that produced it, and a plan cache scoped to it.
pub struct Snapshot {
    graph: Graph,
    index: CpqxIndex,
    epoch: u64,
    plans: Mutex<LruCache<Arc<str>, Arc<PlannedQuery>>>,
}

impl Snapshot {
    fn new(graph: Graph, index: CpqxIndex, epoch: u64, plan_capacity: usize) -> Self {
        Snapshot { graph, index, epoch, plans: Mutex::new(LruCache::new(plan_capacity)) }
    }

    /// The snapshot's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The snapshot's index.
    pub fn index(&self) -> &CpqxIndex {
        &self.index
    }

    /// The engine epoch this snapshot was installed at (0 = initial
    /// build; each maintenance installation increments it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cost-optimized plan (with its cost estimate) for a canonical
    /// query, cached per snapshot (LRU, bounded by
    /// [`EngineOptions::plan_cache_capacity`]). Returns the planned query
    /// and whether it was a cache hit.
    pub fn plan_for(&self, key: &str, canonical: &Cpq) -> (Arc<PlannedQuery>, bool) {
        if let Some(p) = self.plans.lock().unwrap().get(key) {
            return (Arc::clone(p), true);
        }
        // Lower outside the lock: planning is pure and collisions are
        // idempotent (last insert wins with an identical plan).
        let (plan, cost) = cpqx_core::optimize_query_costed(&self.index, &self.graph, canonical);
        let planned = Arc::new(PlannedQuery { plan, cost });
        self.plans.lock().unwrap().insert(key.into(), Arc::clone(&planned));
        (planned, false)
    }

    /// Evaluates `q` against this snapshot, bypassing the result cache
    /// (still uses the snapshot's plan cache).
    pub fn evaluate(&self, q: &Cpq) -> Vec<Pair> {
        let canonical = canonicalize(q);
        let key = canonical_key(&canonical);
        let (planned, _) = self.plan_for(&key, &canonical);
        Executor::new(&self.index, &self.graph).run(&planned.plan)
    }
}

/// One answer as the result cache holds it: the pairs the in-process API
/// returns, the canonical key and epoch they are the answer to and at,
/// and a write-once slot for the answer's wire form. The engine never reads the slot's bytes; the
/// front-end fills it the first time the entry is *hit* over the wire
/// (an answer served once stores nothing extra) and sends every later
/// hit from it. Everything here dies with the entry.
pub struct CachedAnswer {
    key: Arc<str>,
    epoch: u64,
    pairs: Arc<Vec<Pair>>,
    wire: OnceLock<Arc<[u8]>>,
}

impl CachedAnswer {
    fn new(key: Arc<str>, epoch: u64, pairs: Vec<Pair>) -> Arc<CachedAnswer> {
        Arc::new(CachedAnswer { key, epoch, pairs: Arc::new(pairs), wire: OnceLock::new() })
    }

    /// Canonical key of the query this answers (the text the cache files
    /// it under, shared with it).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Epoch of the snapshot this is the answer on. An entry never
    /// outlives its epoch, so the wire form may embed it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sorted, deduplicated answer set.
    pub fn pairs(&self) -> &Arc<Vec<Pair>> {
        &self.pairs
    }

    /// The wire form, if a front-end has stored one.
    pub fn wire(&self) -> Option<&Arc<[u8]>> {
        self.wire.get()
    }

    /// The wire form, produced by `encode` if this is the first request
    /// for it.
    pub fn wire_or_encode(&self, encode: impl FnOnce() -> Arc<[u8]>) -> &Arc<[u8]> {
        self.wire.get_or_init(encode)
    }
}

/// Request texts longer than this are never made aliases of their answer
/// (they are parsed every time): an alias is a copy of the text, and a
/// text can be padded to the frame bound at no cost to its sender.
const ALIAS_MAX_LEN: usize = 4096;

/// Result cache tagged with the epoch its entries are valid for. Keys
/// are canonical query keys; aliases are request texts, resolved against
/// that epoch's label table (so they, too, are valid for it alone).
struct TaggedResults {
    epoch: u64,
    cache: LruCache<Arc<str>, Arc<CachedAnswer>>,
}

/// The concurrent serving engine (see module docs).
pub struct Engine {
    current: RwLock<Arc<Snapshot>>,
    results: Mutex<TaggedResults>,
    counters: EngineCounters,
    /// Serializes writers: clone → mutate → install must not interleave.
    writer: Mutex<()>,
    /// Phase timings of the most recent full build (initial build,
    /// [`Engine::rebuild`], or an auto-rebuild) — surfaced through
    /// [`Engine::stats`]. Written only *after* the build's snapshot is
    /// installed, so a stats report never pairs a build's timings with the
    /// gauges of the snapshot it replaced.
    last_build: Mutex<BuildReport>,
    /// The attached durability sink, if any (see
    /// [`Engine::attach_durability`]). Consulted (one brief lock to
    /// clone the `Arc`) by every write transaction that changed state.
    durability: Mutex<Option<Arc<dyn DurabilitySink>>>,
    /// The observability recorder: per-opcode/per-stage histograms,
    /// sampled traces, and the slow-query log. Shared with the network
    /// front-end (see [`Engine::obs`]); the histograms behind it are
    /// the source of [`StatsReport::p50`]/[`StatsReport::p99`].
    obs: Arc<Recorder>,
    options: EngineOptions,
}

impl Engine {
    /// Builds an engine over `graph` with default options and path
    /// parameter `k`.
    pub fn build(graph: Graph, k: usize) -> Engine {
        Engine::with_options(graph, EngineOptions { k, ..EngineOptions::default() }).0
    }

    /// Builds an engine with explicit options, returning the initial
    /// build's phase timings. The installed index is the one
    /// [`CpqxIndex::build`] (or [`CpqxIndex::build_interest_aware`], with
    /// [`EngineOptions::interests`]) returns.
    pub fn with_options(graph: Graph, options: EngineOptions) -> (Engine, BuildReport) {
        let interests =
            options.interests.as_ref().map(|lq| normalize_interests(lq.iter().copied(), options.k));
        let (index, report) = build_with_report(&graph, options.k, interests);
        let snapshot = Arc::new(Snapshot::new(graph, index, 0, options.plan_cache_capacity));
        let engine = Engine {
            current: RwLock::new(snapshot),
            results: Mutex::new(TaggedResults {
                epoch: 0,
                cache: LruCache::new(options.result_cache_capacity),
            }),
            counters: EngineCounters::default(),
            writer: Mutex::new(()),
            last_build: Mutex::new(report),
            durability: Mutex::new(None),
            obs: Arc::new(Recorder::new(&options.obs)),
            options,
        };
        engine.record_build_obs(&report, 0);
        (engine, report)
    }

    /// Attaches a durability sink: from now on every typed delta
    /// transaction is appended to the sink **before** its snapshot
    /// installs (write-ahead ordering; see [`crate::durability`]), and
    /// [`EngineOptions::durability`] drives the checkpoint cadence.
    /// Replaces any previously attached sink. [`Engine::apply_delta`] is
    /// the only write path, so no write can bypass the log.
    pub fn attach_durability(&self, sink: Arc<dyn DurabilitySink>) {
        *self.durability.lock().unwrap() = Some(sink);
    }

    /// The attached durability sink, if any.
    fn sink(&self) -> Option<Arc<dyn DurabilitySink>> {
        self.durability.lock().unwrap().clone()
    }

    /// The current snapshot. Readers hold it as long as they like; a
    /// concurrent swap never invalidates it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// The current epoch (bumped by every maintenance installation).
    /// Always agrees with `self.snapshot().epoch()` — the epoch *is* the
    /// published snapshot's epoch, so there is no window where the two
    /// disagree.
    pub fn epoch(&self) -> u64 {
        self.current.read().unwrap().epoch()
    }

    /// The engine's construction options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The observability recorder: histograms, sampled traces, the
    /// slow-query log and observed-workload counts. The network
    /// front-end shares this recorder so wire-level stages (parse) and
    /// engine-level stages land in one place.
    pub fn obs(&self) -> &Arc<Recorder> {
        &self.obs
    }

    /// Feeds one build report's phase timings into the recorder.
    fn record_build_obs(&self, report: &BuildReport, epoch: u64) {
        self.obs.record_build(report.level1, report.refine, report.merge, report.total, epoch);
    }

    /// Serves `q` from the result cache or by evaluating it on the
    /// current snapshot. The returned `Arc` is shared with the cache.
    pub fn query(&self, q: &Cpq) -> Arc<Vec<Pair>> {
        let snap = self.snapshot();
        self.query_on(&snap, q)
    }

    /// Serves `q` against an explicitly held snapshot — the consistency
    /// primitive batch evaluation builds on: all queries of a batch see
    /// one version. The result cache is consulted only while it is still
    /// tagged with `snap`'s epoch.
    pub fn query_on(&self, snap: &Snapshot, q: &Cpq) -> Arc<Vec<Pair>> {
        let mut trace = self.obs.begin(TraceKind::Query);
        let out = self.query_traced(snap, q, trace.as_mut());
        if let Some(tb) = trace {
            self.obs.finish(tb);
        }
        out
    }

    /// [`Engine::query_on`] with an externally owned trace (see
    /// [`Engine::query_entry`], which this is without a request text).
    pub fn query_traced(
        &self,
        snap: &Snapshot,
        q: &Cpq,
        trace: Option<&mut TraceBuilder>,
    ) -> Arc<Vec<Pair>> {
        Arc::clone(self.query_entry(snap, q, None, trace).0.pairs())
    }

    /// Serves `q` against `snap` and returns the result-cache entry that
    /// holds the answer, with whether it was a hit. (An answer the cache
    /// did not admit comes back in an entry of its own.) `text` is the
    /// request text `q` was parsed from on `snap`, if there is one: it
    /// becomes an alias of the entry, so the same text can be answered by
    /// [`Engine::cached_wire`] without being parsed again.
    ///
    /// The trace is externally owned: the network front-end begins it
    /// before parsing (so the parse span is part of the same tree) and
    /// finishes it after the response is built. The engine attaches the
    /// canonical key and epoch and contributes the cache-probe / plan /
    /// eval spans.
    pub fn query_entry(
        &self,
        snap: &Snapshot,
        q: &Cpq,
        text: Option<&str>,
        mut trace: Option<&mut TraceBuilder>,
    ) -> (Arc<CachedAnswer>, bool) {
        let t0 = Instant::now();
        let canonical = canonicalize(q);
        let key: Arc<str> = canonical_key(&canonical).into();
        // Owned before either critical section: the lock never waits on
        // the allocator.
        let alias = text.filter(|t| t.len() <= ALIAS_MAX_LEN).map(Arc::<str>::from);
        if let Some(tb) = trace.as_deref_mut() {
            tb.set_key(&key);
            tb.set_epoch(snap.epoch());
        }
        let probe = self.obs.timer();
        {
            let mut res = self.results.lock().unwrap();
            if res.epoch == snap.epoch() {
                if let Some(hit) = res.cache.get(&*key) {
                    let hit = Arc::clone(hit);
                    if let Some(text) = alias {
                        res.cache.alias(text, &*key);
                    }
                    drop(res);
                    self.obs.stage(Stage::CacheProbe, probe, trace.as_deref_mut());
                    self.note_query(t0.elapsed(), true);
                    return (hit, true);
                }
            }
        }
        self.obs.stage(Stage::CacheProbe, probe, trace.as_deref_mut());
        let plan_timer = self.obs.timer();
        let (planned, plan_hit) = snap.plan_for(&key, &canonical);
        self.obs.stage(Stage::Plan, plan_timer, trace.as_deref_mut());
        self.counters.record_plan(plan_hit);
        let eval_timer = self.obs.timer();
        let out = CachedAnswer::new(
            Arc::clone(&key),
            snap.epoch(),
            Executor::new(snap.index(), snap.graph()).run(&planned.plan),
        );
        self.obs.stage(Stage::Eval, eval_timer, trace);
        {
            let mut res = self.results.lock().unwrap();
            // Tag check: a swap may have happened while we executed; a
            // result from the old snapshot must not populate the new
            // epoch's cache.
            if res.epoch == snap.epoch() && res.cache.insert(Arc::clone(&key), Arc::clone(&out)) {
                if let Some(text) = alias {
                    res.cache.alias(text, &*key);
                }
            }
        }
        self.note_query(t0.elapsed(), false);
        (out, false)
    }

    /// The wire form of the cached answer to request text `text`, if the
    /// text is an alias of a live entry and a front-end has stored one
    /// ([`CachedAnswer::wire_or_encode`]): one hash of the text under the
    /// result-cache lock, no parse, no snapshot pin. Every entry in the
    /// cache belongs to the published snapshot's epoch (an install retags
    /// and empties the cache before it publishes), so the answer is as
    /// current as one evaluated now, and carries that epoch. Counts as a
    /// served query and a result hit; `None` counts as
    /// nothing — the caller serves the text through
    /// [`Engine::query_entry`], which does the counting.
    pub fn cached_wire(&self, text: &str) -> Option<Arc<[u8]>> {
        if text.len() > ALIAS_MAX_LEN {
            return None;
        }
        let t0 = Instant::now();
        let probe = self.obs.timer();
        // Under the lock: a hash lookup, a recency touch and an `Arc`
        // clone. The trace (and its copy of the key, if one is sampled)
        // waits until the workers can have the lock back.
        let entry = Arc::clone(self.results.lock().unwrap().cache.get_by_alias(text)?);
        let wire = Arc::clone(entry.wire()?);
        let mut trace = self.obs.begin(TraceKind::Query);
        if let Some(tb) = trace.as_mut() {
            tb.set_key(entry.key());
            tb.set_epoch(entry.epoch());
        }
        self.obs.stage(Stage::CacheProbe, probe, trace.as_mut());
        self.note_query(t0.elapsed(), true);
        if let Some(tb) = trace {
            self.obs.finish(tb);
        }
        Some(wire)
    }

    /// Accounts one served query: the hit/miss counters and the opcode
    /// histogram (source of p50/p99). Every query-serving path routes
    /// through here.
    pub(crate) fn note_query(&self, dur: Duration, cache_hit: bool) {
        self.counters.record_query(cache_hit);
        self.obs.record_op(Op::Query, dur);
    }

    /// Applies a typed delta transaction: clones the current state
    /// **once**, applies every [`DeltaOp`] to the clone via the paper's
    /// lazy maintenance procedures, and installs the result as one new
    /// snapshot — the engine's only write path (the single-op helpers
    /// and the network front-end's DELTA frames all route through it).
    /// Atomic: an invalid op rejects the whole delta with a
    /// [`DeltaError`] and installs nothing ([`apply_ops`] validates the
    /// list against the clone before it mutates it).
    ///
    /// After applying, the index's fragmentation ratio is checked
    /// against [`EngineOptions::auto_rebuild_ratio`]; crossing it
    /// triggers a defragmenting full rebuild *within the same
    /// transaction*, so readers go straight from the pre-delta snapshot
    /// to the rebuilt one. Lazy-vs-rebuild accounting lands in
    /// [`StatsReport`] (`delta_transactions`, `lazy_update_ops`,
    /// `rebuilds`, `auto_rebuilds`, `fragmentation_ratio`).
    pub fn apply_delta(&self, delta: &Delta) -> Result<DeltaReport, DeltaError> {
        let txn_timer = self.obs.timer();
        let report = self.write_txn(delta.ops())?;
        self.counters.record_delta(report.applied as u64);
        if let Some(t0) = txn_timer {
            self.obs.record_op(Op::Delta, t0.elapsed());
        }
        Ok(report)
    }

    /// Inserts a base edge (lazy index maintenance; see
    /// [`CpqxIndex::insert_edge`]). Returns `false` if it already existed
    /// (no snapshot is installed in that case either).
    ///
    /// # Panics
    /// Panics if the vertices or label are out of range (use
    /// [`Engine::apply_delta`] for a non-panicking, typed-error path).
    pub fn insert_edge(&self, v: VertexId, u: VertexId, l: Label) -> bool {
        self.one_op(DeltaOp::InsertEdge { src: v, dst: u, label: l })
    }

    /// Deletes a base edge (lazy index maintenance). Returns `false` if
    /// it did not exist.
    ///
    /// # Panics
    /// Panics if the vertices or label are out of range.
    pub fn delete_edge(&self, v: VertexId, u: VertexId, l: Label) -> bool {
        self.one_op(DeltaOp::DeleteEdge { src: v, dst: u, label: l })
    }

    /// Registers an interest sequence on an interest-aware engine (see
    /// [`CpqxIndex::insert_interest`]). Returns `false` for sequences
    /// the index cannot register (full CPQx engine, length outside
    /// `2..=k`, already registered).
    ///
    /// # Panics
    /// Panics if the sequence names a label the graph lacks (use
    /// [`Engine::apply_delta`] for a non-panicking, typed-error path).
    pub fn insert_interest(&self, seq: LabelSeq) -> bool {
        self.one_op(DeltaOp::InsertInterest { seq })
    }

    /// Drops an interest sequence on an interest-aware engine.
    pub fn delete_interest(&self, seq: &LabelSeq) -> bool {
        self.one_op(DeltaOp::DeleteInterest { seq: *seq })
    }

    /// A single-op delta transaction; `true` if it changed anything.
    fn one_op(&self, op: DeltaOp) -> bool {
        let report = self
            .apply_delta(&Delta::from(vec![op]))
            .unwrap_or_else(|e| panic!("invalid single-op update: {e}"));
        report.applied > 0
    }

    /// Rebuilds the index from the current graph (defragmentation after
    /// lazy maintenance), keeping the index variant and interest set.
    /// Returns the build report.
    pub fn rebuild(&self) -> BuildReport {
        let _writer = self.writer.lock().unwrap();
        let snap = self.snapshot();
        let graph = snap.graph.clone();
        let (index, report) =
            build_with_report(&graph, self.options.k, snap.index.interests().cloned());
        self.counters.record_rebuild(false);
        let epoch = self.install(graph, index);
        // Recorded only after the install: a concurrent stats() must never
        // pair this build's timings with the gauges of the snapshot it is
        // about to replace.
        *self.last_build.lock().unwrap() = report;
        self.record_build_obs(&report, epoch);
        report
    }

    /// Engine statistics: query counts, cache hit rates, swap counts,
    /// maintenance/fragmentation accounting, copy-on-write sharing and
    /// latency percentiles.
    pub fn stats(&self) -> StatsReport {
        // Pin the snapshot *before* reading the counters: the counter
        // report then describes a state at least as old as the gauges, so
        // one report never mixes gauges from a snapshot that a
        // counter-visible write transaction has already replaced. (The
        // converse skew — counters advancing right after the pin — only
        // over-reports activity, never attributes gauges to the wrong
        // snapshot.)
        let snap = self.snapshot();
        let mut report = self.counters.report();
        // O(1) fragmentation gauges only — the full report's live-class
        // scan is too expensive for a stats endpoint polled by monitors.
        report.fragmentation_ratio = snap.index().fragmentation_ratio();
        report.class_slots = snap.index().class_slots() as u64;
        report.baseline_classes = snap.index().baseline_class_count() as u64;
        // Phase timings of the most recent full build (initial, manual
        // rebuild, or auto-rebuild).
        let build = *self.last_build.lock().unwrap();
        report.build_level1 = build.level1;
        report.build_refine = build.refine;
        report.build_total = build.total;
        // p50/p99 come from the log-bucketed opcode histogram — the one
        // latency estimator — and stay zero while the recorder is
        // disabled (an empty histogram has no quantiles).
        let h = self.obs.op_snapshot(Op::Query);
        report.p50 = Duration::from_micros(h.quantile(0.5).unwrap_or(0));
        report.p99 = Duration::from_micros(h.quantile(0.99).unwrap_or(0));
        report
    }

    /// The write-transaction core behind [`Engine::apply_delta`] (and,
    /// through it, the single-op helpers): under the writer lock, clone
    /// the current state once, apply `ops` to the clone, and — iff some
    /// op changed it — install the result as one new snapshot. Before
    /// installing, the fragmentation ratio is checked against
    /// [`EngineOptions::auto_rebuild_ratio`]; crossing it replaces the
    /// fragmented clone with a fresh build of the same graph, still
    /// within the single install, so no reader ever observes the
    /// fragmented intermediate. The report's epoch is pinnable: the
    /// installed one, or the unchanged current one for no-ops.
    ///
    /// With a durability sink attached, `ops` are appended to the WAL
    /// after they applied and **before** the install — write-ahead
    /// ordering — and an append failure aborts the transaction (nothing
    /// installs). After a successful append (and a possible
    /// auto-rebuild), crossing
    /// [`DurabilityOptions::checkpoint_wal_bytes`] triggers a sink
    /// checkpoint of the exact state about to install; checkpoint
    /// failures are non-fatal (the WAL still covers everything, the
    /// next trigger retries).
    fn write_txn(&self, ops: &[DeltaOp]) -> Result<DeltaReport, DeltaError> {
        let _writer = self.writer.lock().unwrap();
        let mut trace = self.obs.begin(TraceKind::Delta);
        let snap = self.snapshot();
        // The clone is O(#chunks): all heavyweight storage is structurally
        // shared with the snapshot and copied chunk-by-chunk on first
        // touch.
        let clone_timer = self.obs.timer();
        let (mut graph, mut index) = (snap.graph.clone(), snap.index.clone());
        self.obs.stage(Stage::Clone, clone_timer, trace.as_mut());
        let maintain_timer = self.obs.timer();
        let outcomes = apply_ops(&mut graph, &mut index, ops);
        self.obs.stage(Stage::Maintain, maintain_timer, trace.as_mut());
        let outcomes = outcomes?;
        let applied = outcomes.iter().filter(|o| o.changed()).count();
        if applied == 0 {
            if let Some(mut tb) = trace {
                tb.set_epoch(snap.epoch());
                self.obs.finish(tb);
            }
            return Ok(DeltaReport {
                outcomes,
                applied,
                epoch: snap.epoch(),
                rebuilt: false,
                fragmentation_ratio: index.fragmentation_ratio(),
            });
        }
        let sink = self.sink();
        if let Some(sink) = &sink {
            let wal_timer = self.obs.timer();
            let bytes = sink.append(&graph, ops).map_err(|e| DeltaError {
                op_index: 0,
                reason: format!("durability: WAL append failed: {e}"),
            })?;
            self.obs.stage(Stage::WalAppend, wal_timer, trace.as_mut());
            self.counters.record_wal(bytes);
        }
        let rebuild_report = match self.options.auto_rebuild_ratio {
            Some(threshold) if index.fragmentation_ratio() > threshold => {
                let (fresh, report) =
                    build_with_report(&graph, self.options.k, index.interests().cloned());
                index = fresh;
                self.counters.record_rebuild(true);
                Some(report)
            }
            _ => None,
        };
        // Copy-on-write accounting against the snapshot being replaced: a
        // rebuild naturally reads as all-copied, a small delta as a few
        // copied chunks over a large shared remainder.
        let cow = graph.cow_diff(&snap.graph).merge(index.cow_diff(&snap.index));
        self.counters.record_cow(cow.chunks_copied as u64, cow.chunks_shared as u64);
        if let (Some(sink), Some(limit)) = (&sink, self.options.durability.checkpoint_wal_bytes) {
            if sink.wal_bytes_since_checkpoint() > limit {
                // Checkpoints the exact (possibly auto-rebuilt) state the
                // install below publishes. Failure is non-fatal: the WAL
                // retains full coverage and the next trigger retries.
                if sink.checkpoint(&graph, &index).is_ok() {
                    self.counters.record_checkpoint();
                }
            }
        }
        let fragmentation_ratio = index.fragmentation_ratio();
        let install_timer = self.obs.timer();
        let epoch = self.install(graph, index);
        self.obs.stage(Stage::Install, install_timer, trace.as_mut());
        if let Some(report) = rebuild_report {
            // After the install, for the same reason as Engine::rebuild.
            *self.last_build.lock().unwrap() = report;
            self.record_build_obs(&report, epoch);
        }
        if let Some(mut tb) = trace {
            tb.set_epoch(epoch);
            self.obs.finish(tb);
        }
        Ok(DeltaReport {
            outcomes,
            applied,
            epoch,
            rebuilt: rebuild_report.is_some(),
            fragmentation_ratio,
        })
    }

    /// Installs a new current snapshot (caller holds the writer lock).
    /// Invalidate-then-install ordering: between the two steps readers
    /// run uncached against the old snapshot, but no stale entry can ever
    /// be served for the new epoch.
    fn install(&self, graph: Graph, index: CpqxIndex) -> u64 {
        let epoch = self.epoch() + 1;
        {
            let mut res = self.results.lock().unwrap();
            let dropped = res.cache.len() as u64;
            res.epoch = epoch;
            res.cache.clear();
            self.counters.record_swap(dropped);
        }
        let snapshot = Snapshot::new(graph, index, epoch, self.options.plan_cache_capacity);
        *self.current.write().unwrap() = Arc::new(snapshot);
        epoch
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Engine")
            .field("epoch", &snap.epoch())
            .field("index", snap.index())
            .field("stats", &self.stats().to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    fn gex_engine() -> Engine {
        Engine::build(generate::gex(), 2)
    }

    #[test]
    fn serves_correct_answers() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        let expected = eval_reference(snap.graph(), &q);
        assert_eq!(*engine.query(&q), expected);
        // Second serve: result-cache hit, same answer.
        assert_eq!(*engine.query(&q), expected);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.result_hits, 1);
        assert!(stats.result_hit_rate > 0.49);
    }

    #[test]
    fn semantically_equal_queries_share_cache_entries() {
        let engine = gex_engine();
        let g = engine.snapshot();
        let a = parse_cpq("(f . f) & f^-1", g.graph()).unwrap();
        let b = parse_cpq("f^-1 & (f . (f . id))", g.graph()).unwrap();
        engine.query(&a);
        engine.query(&b);
        let stats = engine.stats();
        assert_eq!(stats.result_hits, 1, "canonicalization must unify {a:?} and {b:?}");
    }

    #[test]
    fn maintenance_swaps_snapshots_and_invalidates() {
        let engine = gex_engine();
        let snap0 = engine.snapshot();
        let g0 = snap0.graph();
        let q = parse_cpq("f . f", g0).unwrap();
        let before = engine.query(&q);
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        let f = g0.label_named("f").unwrap();
        assert!(engine.delete_edge(sue, joe, f));
        assert_eq!(engine.epoch(), 1);
        // Old snapshot still fully queryable (readers are not blocked).
        assert_eq!(snap0.evaluate(&q), *before);
        // New snapshot reflects the deletion and matches the reference.
        let snap1 = engine.snapshot();
        let expected = eval_reference(snap1.graph(), &q);
        assert_eq!(*engine.query(&q), expected);
        assert_ne!(*before, expected, "deletion must change this answer");
        assert_eq!(engine.stats().snapshot_swaps, 1);
        // No-op maintenance installs nothing.
        assert!(!engine.delete_edge(sue, joe, f));
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn update_transaction_batches_changes() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        let sue = snap.graph().vertex_named("sue").unwrap();
        let newbie = snap.graph().vertex_count();
        let delta = Delta::new()
            .add_vertex("newbie")
            .insert_edge(newbie, sue, f)
            .insert_edge(sue, newbie, f);
        let report = engine.apply_delta(&delta).expect("valid delta");
        assert_eq!(report.applied, 3);
        assert_eq!(report.epoch, 1);
        let snap1 = engine.snapshot();
        let q = parse_cpq("(f . f) & id", snap1.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap1.graph(), &q));
    }

    #[test]
    fn rebuild_defragments() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let g0 = snap.graph();
        let f = g0.label_named("f").unwrap();
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        engine.delete_edge(sue, joe, f);
        engine.insert_edge(sue, joe, f);
        let fragmented = engine.snapshot().index().class_slots();
        let report = engine.rebuild();
        assert!(report.total >= report.level1 + report.refine + report.merge);
        let rebuilt = engine.snapshot();
        assert!(rebuilt.index().class_slots() <= fragmented);
        let q = parse_cpq("(f . f) & f^-1", rebuilt.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(rebuilt.graph(), &q));
    }

    #[test]
    fn interest_aware_engine_serves_and_maintains() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let (engine, report) = Engine::with_options(
            g,
            EngineOptions { k: 2, interests: Some(vec![ff]), ..EngineOptions::default() },
        );
        // An interest-aware build runs the full build's phases: its
        // level-1 pass, then the walk pruned to its interests.
        assert!(report.level1 > std::time::Duration::ZERO);
        assert!(report.refine > std::time::Duration::ZERO);
        let snap = engine.snapshot();
        assert!(snap.index().is_interest_aware());
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        let v = g_label_seq(&engine);
        assert!(engine.insert_interest(v));
        assert_eq!(engine.epoch(), 1);
        assert!(engine.rebuild().refine > std::time::Duration::ZERO);
        let q2 = parse_cpq("(f^-1 . f) & id", engine.snapshot().graph()).unwrap();
        assert_eq!(*engine.query(&q2), eval_reference(engine.snapshot().graph(), &q2));
    }

    fn g_label_seq(engine: &Engine) -> LabelSeq {
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        LabelSeq::from_slice(&[f.inv(), f.fwd()])
    }

    #[test]
    fn plan_cache_hits_within_a_snapshot() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let q = parse_cpq("f . f . f", snap.graph()).unwrap();
        snap.evaluate(&q);
        snap.evaluate(&q);
        // Snapshot::evaluate bypasses result caching but shares the
        // snapshot's plan cache.
        assert_eq!(engine.stats().result_hits, 0);
    }

    #[test]
    fn delta_transaction_applies_atomically_with_per_op_outcomes() {
        use crate::delta::{Delta, OpOutcome};
        let engine = gex_engine();
        let snap = engine.snapshot();
        let g0 = snap.graph();
        let f = g0.label_named("f").unwrap();
        let v = g0.label_named("v").unwrap();
        let (sue, joe) = (g0.vertex_named("sue").unwrap(), g0.vertex_named("joe").unwrap());
        let new_id = g0.vertex_count();
        let delta = Delta::new()
            .add_vertex("newbie")
            .insert_edge(new_id, sue, f) // references the vertex added above
            .insert_edge(sue, joe, f) // already exists: noop
            .change_edge_label(sue, joe, f, v)
            .delete_edge(joe, sue, v); // never existed: noop
        let report = engine.apply_delta(&delta).expect("valid delta");
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.outcomes[0], OpOutcome::VertexAdded(new_id));
        assert_eq!(report.outcomes[1], OpOutcome::Applied);
        assert_eq!(report.outcomes[2], OpOutcome::Noop);
        assert_eq!(report.outcomes[3], OpOutcome::Applied);
        assert_eq!(report.outcomes[4], OpOutcome::Noop);
        assert_eq!(report.applied, 3);
        // One transaction = one install, whatever the op count.
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert!(!report.rebuilt);
        assert!(report.fragmentation_ratio >= 1.0);
        let snap1 = engine.snapshot();
        for text in ["f . f", "v . v^-1", "(f . f) & f^-1"] {
            let q = parse_cpq(text, snap1.graph()).unwrap();
            assert_eq!(*engine.query(&q), eval_reference(snap1.graph(), &q), "{text}");
        }
        let stats = engine.stats();
        assert_eq!(stats.delta_transactions, 1);
        assert_eq!(stats.lazy_update_ops, 3);
        assert_eq!(stats.rebuilds, 0);

        // An invalid op rejects the whole delta: nothing installed, even
        // for the valid prefix.
        let bad = Delta::new().delete_edge(sue, joe, v).insert_edge(u32::MAX, sue, f);
        let err = engine.apply_delta(&bad).expect_err("out-of-range vertex");
        assert_eq!(err.op_index, 1);
        assert_eq!(engine.epoch(), 1, "aborted delta must not install");
        let q = parse_cpq("v", engine.snapshot().graph()).unwrap();
        assert_eq!(
            *engine.query(&q),
            eval_reference(engine.snapshot().graph(), &q),
            "prefix of the aborted delta must not be visible"
        );

        // Empty deltas don't install either.
        let report = engine.apply_delta(&Delta::new()).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.applied, 0);
    }

    #[test]
    fn auto_rebuild_defragments_past_the_threshold() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 3, 5));
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, auto_rebuild_ratio: Some(1.02), ..EngineOptions::default() },
        );
        let baseline = engine.stats().baseline_classes;
        // Churn until the (very low) threshold trips. The delete and the
        // re-insert are separate transactions: within one, the round trip
        // would leave every pair's set, and so every class, as it was.
        let snap = engine.snapshot();
        let edges: Vec<_> = snap.graph().base_edges().take(40).collect();
        let mut rebuilt_seen = false;
        for (v, u, l) in edges {
            for delta in [Delta::new().delete_edge(v, u, l), Delta::new().insert_edge(v, u, l)] {
                let report = engine.apply_delta(&delta).unwrap();
                rebuilt_seen |= report.rebuilt;
                if report.rebuilt {
                    assert!(
                        (report.fragmentation_ratio - 1.0).abs() < 1e-9,
                        "a rebuild restores the minimal partition"
                    );
                }
            }
        }
        assert!(rebuilt_seen, "threshold 1.02 must trip under churn");
        let stats = engine.stats();
        assert!(stats.auto_rebuilds >= 1);
        assert_eq!(stats.rebuilds, stats.auto_rebuilds);
        assert!(stats.baseline_classes > 0);
        assert!(baseline > 0);
        // Serving stays correct across the auto-rebuilds.
        let snap = engine.snapshot();
        let q =
            parse_cpq("0 . 1", snap.graph()).or_else(|_| parse_cpq("l0 . l1", snap.graph())).ok();
        if let Some(q) = q {
            assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        }
    }

    #[test]
    fn interest_delta_ops_on_interest_aware_engine() {
        use crate::delta::OpOutcome;
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let fif = LabelSeq::from_slice(&[f.inv(), f.fwd()]);
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, interests: Some(vec![ff]), ..EngineOptions::default() },
        );
        let delta = crate::delta::Delta::new()
            .insert_interest(fif)
            .insert_interest(ff) // already registered: noop
            .delete_interest(ff);
        let report = engine.apply_delta(&delta).unwrap();
        assert_eq!(report.outcomes, vec![OpOutcome::Applied, OpOutcome::Noop, OpOutcome::Applied]);
        let snap = engine.snapshot();
        let q = parse_cpq("(f^-1 . f) & id", snap.graph()).unwrap();
        assert_eq!(*engine.query(&q), eval_reference(snap.graph(), &q));
        // On a full (non-ia) engine interest ops are valid no-ops.
        let full = gex_engine();
        let report = full.apply_delta(&crate::delta::Delta::new().insert_interest(fif)).unwrap();
        assert_eq!(report.outcomes, vec![OpOutcome::Noop]);
        assert_eq!(full.epoch(), 0);
    }

    #[test]
    fn percentiles_come_from_the_query_histogram() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        for _ in 0..50 {
            engine.query(&q);
        }
        let h = engine.obs().op_snapshot(Op::Query);
        let stats = engine.stats();
        assert_eq!(h.count(), stats.queries);
        assert_eq!(stats.p50.as_micros() as u64, h.quantile(0.5).unwrap());
        assert_eq!(stats.p99.as_micros() as u64, h.quantile(0.99).unwrap());
        // A disabled recorder leaves the quantiles at zero; the counters
        // keep counting.
        let (quiet, _) = Engine::with_options(
            generate::gex(),
            EngineOptions {
                obs: ObsOptions { enabled: false, ..ObsOptions::default() },
                ..EngineOptions::default()
            },
        );
        quiet.query(&q);
        let stats = quiet.stats();
        assert_eq!((stats.queries, stats.p50, stats.p99), (1, Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn slow_query_log_captures_span_tree_with_key_and_epoch() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                result_cache_capacity: 0, // force plan+eval every time
                obs: ObsOptions {
                    // Threshold 1us: effectively every query is "slow".
                    slow_query: Some(Duration::from_micros(1)),
                    ..ObsOptions::default()
                },
                ..EngineOptions::default()
            },
        );
        let snap = engine.snapshot();
        let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
        engine.query(&q);
        let slow = engine.obs().slow_queries();
        assert!(!slow.is_empty(), "a 1us threshold must capture this query");
        let entry = slow.last().unwrap();
        assert_eq!(entry.epoch, 0);
        assert!(!entry.key.is_empty(), "canonical key attached");
        for stage in [Stage::CacheProbe, Stage::Plan, Stage::Eval] {
            assert!(entry.span(stage).is_some(), "missing {stage:?} in {entry:?}");
        }
        assert!(entry.total_us >= 1);
    }

    #[test]
    fn delta_and_build_traces_record_their_stages() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions {
                k: 2,
                obs: ObsOptions { sample_every: 1, ..ObsOptions::default() },
                ..EngineOptions::default()
            },
        );
        let snap = engine.snapshot();
        let f = snap.graph().label_named("f").unwrap();
        let (sue, joe) =
            (snap.graph().vertex_named("sue").unwrap(), snap.graph().vertex_named("joe").unwrap());
        engine.delete_edge(sue, joe, f);
        engine.rebuild();
        let traces = engine.obs().traces();
        let delta = traces.iter().find(|t| t.kind == TraceKind::Delta).expect("delta trace");
        assert!(delta.span(Stage::Clone).is_some() && delta.span(Stage::Install).is_some());
        assert!(delta.span(Stage::Maintain).is_some());
        assert_eq!(delta.epoch, 1);
        let build = traces.iter().rfind(|t| t.kind == TraceKind::Build).expect("build trace");
        assert!(build.span(Stage::BuildMerge).is_some());
        assert_eq!(build.epoch, 2, "rebuild trace carries the installed epoch");
        // Opcode histograms saw the traffic too.
        assert!(engine.obs().op_snapshot(Op::Delta).count() >= 1);
    }

    #[test]
    fn a_text_alias_never_outlives_its_epoch_or_its_entry() {
        let (engine, _) = Engine::with_options(
            generate::gex(),
            EngineOptions { k: 2, result_cache_capacity: 2, ..EngineOptions::default() },
        );
        let snap = engine.snapshot();
        let serve = |snap: &Snapshot, text: &str| {
            let q = parse_cpq(text, snap.graph()).unwrap();
            engine.query_entry(snap, &q, Some(text), None)
        };
        let frame = |entry: &CachedAnswer| -> Arc<[u8]> {
            Arc::clone(entry.wire_or_encode(|| Arc::from(entry.epoch().to_be_bytes().as_slice())))
        };

        // A miss files the answer under its canonical key and aliases it
        // by the text; it stores no wire form, so the text is not yet
        // answerable by probe (an answer served once costs nothing extra).
        let (entry, hit) = serve(&snap, "f . f");
        assert!(!hit && entry.wire().is_none());
        assert!(engine.cached_wire("f . f").is_none());
        // The first hit is where a front-end stores the wire form ...
        let (again, hit) = serve(&snap, "f . f");
        assert!(hit && Arc::ptr_eq(&entry, &again), "the text and the key share one entry");
        let stored = frame(&again);
        // ... and from then on the text alone finds it, counted as a hit.
        let before = engine.stats();
        assert!(Arc::ptr_eq(&engine.cached_wire("f . f").unwrap(), &stored));
        let after = engine.stats();
        assert_eq!(
            (after.queries, after.result_hits),
            (before.queries + 1, before.result_hits + 1)
        );
        // Another spelling of the same query is another alias of the entry.
        assert!(engine.cached_wire("(f.f)").is_none());
        assert!(serve(&snap, "(f.f)").1);
        assert!(Arc::ptr_eq(&engine.cached_wire("(f.f)").unwrap(), &stored));
        // A text that did not parse was never served, so never keyed.
        assert!(parse_cpq("f . nosuch", snap.graph()).is_err());
        assert!(engine.cached_wire("f . nosuch").is_none());

        // Eviction: two more entries push the first one out of a
        // two-entry cache, and both of its aliases go with it.
        for text in ["v", "f^-1"] {
            let (e, _) = serve(&snap, text);
            frame(&e);
        }
        assert!(engine.cached_wire("f . f").is_none() && engine.cached_wire("(f.f)").is_none());
        assert!(!serve(&snap, "f . f").1, "the entry itself is gone too");

        // Epoch: an install clears entries, aliases and wire forms alike;
        // a result computed on the old snapshot is not admitted, so
        // neither is its text.
        let (e, _) = serve(&snap, "v");
        frame(&e);
        assert!(engine.cached_wire("v").is_some());
        let g = snap.graph();
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        assert!(engine.delete_edge(sue, joe, g.label_named("f").unwrap()));
        assert!(engine.cached_wire("v").is_none());
        assert!(!serve(&snap, "v").1 && engine.cached_wire("v").is_none());
        let snap1 = engine.snapshot();
        let (fresh, hit) = serve(&snap1, "v");
        assert!(!hit && fresh.epoch() == 1 && fresh.wire().is_none());
    }

    #[test]
    fn over_long_texts_are_never_aliased() {
        let engine = gex_engine();
        let snap = engine.snapshot();
        let text = format!("f{}", " ".repeat(ALIAS_MAX_LEN));
        let q = parse_cpq(&text, snap.graph()).unwrap();
        for _ in 0..2 {
            let (entry, _) = engine.query_entry(&snap, &q, Some(&text), None);
            entry.wire_or_encode(|| Arc::from([0u8].as_slice()));
        }
        assert!(engine.cached_wire(&text).is_none());
        // The same query under a short text is aliased as usual.
        assert!(engine.query_entry(&snap, &q, Some("f"), None).1);
        assert!(engine.cached_wire("f").is_some());
    }

    #[test]
    fn zero_capacity_result_cache() {
        let g = generate::gex();
        let (engine, _) = Engine::with_options(
            g,
            EngineOptions { k: 2, result_cache_capacity: 0, ..EngineOptions::default() },
        );
        let snap = engine.snapshot();
        let q = parse_cpq("f . f", snap.graph()).unwrap();
        engine.query(&q);
        engine.query(&q);
        assert_eq!(engine.stats().result_hits, 0, "cache disabled");
    }
}
