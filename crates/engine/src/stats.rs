//! Engine observability: counters, hit rates and latency percentiles.
//!
//! Counters are lock-free atomics bumped on the hot path. Query latency
//! has one estimator, the recorder's `Op::Query` histogram
//! ([`cpqx_obs::Recorder`]): `Engine::stats` reads
//! [`StatsReport::p50`]/[`StatsReport::p99`] from it, so both are zero
//! while the recorder is disabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters owned by the engine. Cheap to bump concurrently; read
/// them through [`EngineCounters::report`].
///
/// Every field is a plain counter in the cpqx-analyze atomic-ordering
/// sense: all accesses are `Relaxed` (audited — nothing is published
/// through these values), and the rule keeps it that way.
#[derive(Default)]
pub struct EngineCounters {
    queries: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    snapshot_swaps: AtomicU64,
    invalidations: AtomicU64,
    delta_transactions: AtomicU64,
    lazy_update_ops: AtomicU64,
    rebuilds: AtomicU64,
    auto_rebuilds: AtomicU64,
    cow_chunks_copied: AtomicU64,
    cow_chunks_shared: AtomicU64,
    wal_appends: AtomicU64,
    wal_bytes: AtomicU64,
    snapshots_written: AtomicU64,
}

impl EngineCounters {
    pub(crate) fn record_query(&self, result_hit: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if result_hit {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.result_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_plan(&self, hit: bool) {
        if hit {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_swap(&self, invalidated: u64) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
        self.invalidations.fetch_add(invalidated, Ordering::Relaxed);
    }

    pub(crate) fn record_delta(&self, applied_ops: u64) {
        self.delta_transactions.fetch_add(1, Ordering::Relaxed);
        self.lazy_update_ops.fetch_add(applied_ops, Ordering::Relaxed);
    }

    pub(crate) fn record_rebuild(&self, auto: bool) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        if auto {
            self.auto_rebuilds.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_cow(&self, copied: u64, shared: u64) {
        self.cow_chunks_copied.fetch_add(copied, Ordering::Relaxed);
        self.cow_chunks_shared.fetch_add(shared, Ordering::Relaxed);
    }

    pub(crate) fn record_wal(&self, bytes: u64) {
        self.wal_appends.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_checkpoint(&self) {
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time view of the counters.
    pub fn report(&self) -> StatsReport {
        let queries = self.queries.load(Ordering::Relaxed);
        let result_hits = self.result_hits.load(Ordering::Relaxed);
        let result_misses = self.result_misses.load(Ordering::Relaxed);
        let plan_hits = self.plan_hits.load(Ordering::Relaxed);
        let plan_misses = self.plan_misses.load(Ordering::Relaxed);
        StatsReport {
            queries,
            result_hits,
            result_misses,
            result_hit_rate: rate(result_hits, result_hits + result_misses),
            plan_hits,
            plan_misses,
            plan_hit_rate: rate(plan_hits, plan_hits + plan_misses),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            invalidated_results: self.invalidations.load(Ordering::Relaxed),
            delta_transactions: self.delta_transactions.load(Ordering::Relaxed),
            lazy_update_ops: self.lazy_update_ops.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            auto_rebuilds: self.auto_rebuilds.load(Ordering::Relaxed),
            cow_chunks_copied: self.cow_chunks_copied.load(Ordering::Relaxed),
            cow_chunks_shared: self.cow_chunks_shared.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            fragmentation_ratio: 0.0,
            class_slots: 0,
            baseline_classes: 0,
            build_level1: Duration::ZERO,
            build_refine: Duration::ZERO,
            build_total: Duration::ZERO,
            p50: Duration::ZERO,
            p99: Duration::ZERO,
        }
    }
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Point-in-time engine statistics (see [`EngineCounters::report`]).
#[derive(Clone, Copy, Debug)]
pub struct StatsReport {
    /// Queries served (cached or not).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub result_hits: u64,
    /// Queries that executed against the index.
    pub result_misses: u64,
    /// `result_hits / queries`.
    pub result_hit_rate: f64,
    /// Plans reused from the snapshot's plan cache.
    pub plan_hits: u64,
    /// Plans lowered fresh.
    pub plan_misses: u64,
    /// `plan_hits / (plan_hits + plan_misses)`.
    pub plan_hit_rate: f64,
    /// Snapshots installed over the engine's lifetime (excluding the
    /// initial build).
    pub snapshot_swaps: u64,
    /// Result-cache entries dropped by snapshot swaps.
    pub invalidated_results: u64,
    /// Delta transactions committed via `Engine::apply_delta` (the
    /// single-op update helpers count too — they are one-op deltas).
    pub delta_transactions: u64,
    /// Individual delta ops applied through the lazy maintenance
    /// procedures (no-ops excluded).
    pub lazy_update_ops: u64,
    /// Full index rebuilds, manual (`Engine::rebuild`) and automatic.
    pub rebuilds: u64,
    /// Rebuilds triggered by `EngineOptions::auto_rebuild_ratio`.
    pub auto_rebuilds: u64,
    /// Copy-on-write chunks/shards physically copied by write
    /// transactions (cumulative, graph + index; rebuilds count all-new
    /// storage as copied). Together with [`StatsReport::cow_chunks_shared`]
    /// this shows whether writes stay O(changed): healthy small deltas
    /// copy a handful of chunks against a large shared remainder.
    pub cow_chunks_copied: u64,
    /// Copy-on-write chunks/shards still structurally shared with the
    /// replaced snapshot after each write transaction (cumulative).
    pub cow_chunks_shared: u64,
    /// Delta transactions appended to the write-ahead log (zero unless a
    /// durability sink is attached; see `Engine::attach_durability`).
    pub wal_appends: u64,
    /// Total payload + framing bytes those appends wrote.
    pub wal_bytes: u64,
    /// Snapshot checkpoints persisted by the WAL-bytes trigger.
    pub snapshots_written: u64,
    /// Current `class_slots / baseline_classes` of the serving index
    /// (1.0 right after a build; grows under lazy maintenance). Filled
    /// by `Engine::stats` from the live snapshot; 0.0 when the report
    /// comes from bare counters.
    pub fragmentation_ratio: f64,
    /// Allocated class slots (tombstones included) of the serving index.
    pub class_slots: u64,
    /// Class count of the full build the serving index descends from.
    pub baseline_classes: u64,
    /// Wall-clock of the level-1 pass of the most recent full build
    /// (initial build, manual rebuild, or auto-rebuild; zero when the
    /// report comes from bare counters). Filled by `Engine::stats`.
    pub build_level1: Duration,
    /// Wall-clock of the partition phase of the most recent full build:
    /// refinement plus class assembly, pruned to the interest set for an
    /// interest-aware build.
    pub build_refine: Duration,
    /// End-to-end wall-clock of the most recent full build.
    pub build_total: Duration,
    /// Median query latency, from the recorder's `Op::Query` histogram
    /// (every query since start, to one log bucket). Filled by
    /// `Engine::stats`; zero while the recorder is disabled or when the
    /// report comes from bare counters.
    pub p50: Duration,
    /// 99th-percentile query latency (same source as
    /// [`StatsReport::p50`]).
    pub p99: Duration,
}

impl StatsReport {
    /// Every integer counter and gauge of the report as `(name, value)`
    /// — the name table the METRICS frame and its Prometheus rendering
    /// are generated from. Names ending in `_total` only ever grow; the
    /// rest are gauges. Exporting a new field takes one line here.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries_total", self.queries),
            ("result_hits_total", self.result_hits),
            ("result_misses_total", self.result_misses),
            ("plan_hits_total", self.plan_hits),
            ("plan_misses_total", self.plan_misses),
            ("snapshot_swaps_total", self.snapshot_swaps),
            ("invalidated_results_total", self.invalidated_results),
            ("delta_transactions_total", self.delta_transactions),
            ("lazy_update_ops_total", self.lazy_update_ops),
            ("rebuilds_total", self.rebuilds),
            ("auto_rebuilds_total", self.auto_rebuilds),
            ("cow_chunks_copied_total", self.cow_chunks_copied),
            ("cow_chunks_shared_total", self.cow_chunks_shared),
            ("wal_appends_total", self.wal_appends),
            ("wal_bytes_total", self.wal_bytes),
            ("snapshots_written_total", self.snapshots_written),
            ("class_slots", self.class_slots),
            ("baseline_classes", self.baseline_classes),
        ]
    }
}

impl std::fmt::Display for StatsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} hit_rate={:.1}% plan_hit_rate={:.1}% swaps={} deltas={} lazy_ops={} \
             rebuilds={} frag={:.2} cow={}/{} wal[appends={} bytes={}] \
             snapshots[written={}] \
             build[total={:?} level1={:?} refine={:?}] p50={:?} p99={:?}",
            self.queries,
            self.result_hit_rate * 100.0,
            self.plan_hit_rate * 100.0,
            self.snapshot_swaps,
            self.delta_transactions,
            self.lazy_update_ops,
            self.rebuilds,
            self.fragmentation_ratio,
            self.cow_chunks_copied,
            self.cow_chunks_shared,
            self.wal_appends,
            self.wal_bytes,
            self.snapshots_written,
            self.build_total,
            self.build_level1,
            self.build_refine,
            self.p50,
            self.p99,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_percentiles() {
        let c = EngineCounters::default();
        for i in 0..100u64 {
            c.record_query(i % 4 == 0);
        }
        c.record_plan(true);
        c.record_plan(false);
        c.record_swap(3);
        let r = c.report();
        assert_eq!(r.queries, 100);
        assert_eq!(r.result_hits, 25);
        assert!((r.result_hit_rate - 0.25).abs() < 1e-9);
        assert!((r.plan_hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(r.snapshot_swaps, 1);
        assert_eq!(r.invalidated_results, 3);
        assert!(!r.to_string().is_empty());
        // The name table carries the same values the typed fields do.
        let named = r.counters();
        assert!(named.contains(&("queries_total", 100)));
        assert!(named.contains(&("invalidated_results_total", 3)));
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = EngineCounters::default().report();
        assert_eq!(r.queries, 0);
        assert_eq!(r.result_hit_rate, 0.0);
        assert_eq!(r.p50, Duration::ZERO);
    }

    #[test]
    fn build_timings_surface_in_display() {
        let mut r = EngineCounters::default().report();
        assert_eq!(r.build_total, Duration::ZERO);
        r.build_level1 = Duration::from_millis(7);
        r.build_refine = Duration::from_millis(3);
        r.build_total = Duration::from_millis(11);
        let text = r.to_string();
        assert!(text.contains("build[total=11ms level1=7ms refine=3ms]"), "{text}");
    }

    #[test]
    fn cow_counters_accumulate() {
        let c = EngineCounters::default();
        c.record_cow(3, 17);
        c.record_cow(1, 19);
        let r = c.report();
        assert_eq!(r.cow_chunks_copied, 4);
        assert_eq!(r.cow_chunks_shared, 36);
        assert!(r.to_string().contains("cow=4/36"));
    }

    #[test]
    fn durability_counters_accumulate() {
        let c = EngineCounters::default();
        c.record_wal(120);
        c.record_wal(88);
        c.record_checkpoint();
        let r = c.report();
        assert_eq!(r.wal_appends, 2);
        assert_eq!(r.wal_bytes, 208);
        assert_eq!(r.snapshots_written, 1);
        let text = r.to_string();
        assert!(text.contains("wal[appends=2 bytes=208]"), "{text}");
        assert!(text.contains("snapshots[written=1]"), "{text}");
    }
}
