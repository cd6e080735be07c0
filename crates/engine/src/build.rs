//! Sharded parallel index construction — full CPQx and interest-aware.
//!
//! The sequential builders ([`CpqxIndex::build`] /
//! [`CpqxIndex::build_interest_aware`]) run the core pipeline over the whole
//! pair space in one piece. This module runs the *same* pipeline in pieces:
//!
//! * **Full CPQx** ([`build_sharded`]): the level-1 pass of Algorithm 1
//!   runs once over the whole graph ([`cpqx_core::RefinementBase::new`] —
//!   under 1 % of a build), then the set `P≤k` partitions exactly by
//!   *source vertex* (every path from `v` yields only pairs `(v, ·)`), so
//!   [`cpqx_core::RefinementBase::partition_range`] — refinement levels
//!   `2..=k` streamed source by source, then class assembly — runs
//!   independently per source range on a scoped thread pool.
//! * **Interest-aware iaCPQx** ([`build_interest_sharded`]): sequence
//!   relations partition by source too, so
//!   [`cpqx_core::interest_partition_range`] computes each shard's
//!   partition over a label-weighted source range
//!   ([`cpqx_graph::Graph::balanced_src_ranges_for_labels`] — interest
//!   work is driven by the indexed sequences' first labels, not total
//!   degree).
//!
//! Every grouping step interns signatures as it produces them
//! (`cpqx_core::bisim`, "Intern as you go"): a shard groups its pairs by
//! the class invariant — `(cyclicity, L≤k)` (full) or `(cyclicity, L≤k ∩
//! Lq)` (interest) — and numbers classes by first occurrence along its
//! sorted pair list; [`cpqx_core::merge_partitions`] re-interns the shards'
//! invariants in shard order, which numbers the merged classes by first
//! occurrence along the *global* pair list; [`CpqxIndex::from_partition`]
//! materializes the result.
//!
//! So the shard geometry leaves no trace: at any shard and thread count the
//! result is **the same index** as the sequential build — same classes,
//! same class ids, byte-identical [`CpqxIndex::save`] output — and one
//! shard merges to itself at no cost. The `build_differential` harness
//! replays random graphs + interest sets through all pipelines at 1–16
//! threads and holds them to exactly that, plus [`CpqxIndex::validate`]
//! on every result.

use cpqx_core::{merge_partitions, CpqxIndex, RefinementBase};
use cpqx_graph::{ExtLabel, Graph, LabelSeq};
use std::time::{Duration, Instant};

use cpqx_core::pool;

/// Knobs for [`build_sharded`] and [`build_interest_sharded`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildOptions {
    /// Number of source-range shards; `None` picks the available
    /// parallelism. A single shard degenerates to the sequential pipeline.
    pub shards: Option<usize>,
    /// Worker threads refining shards concurrently; `None` matches the
    /// shard count.
    pub threads: Option<usize>,
}

/// Phase timings and shape of one sharded build (for benches and the
/// engine's stats endpoint). Phases that a pipeline does not run report
/// [`Duration::ZERO`] — full builds have no `interest_shards` phase,
/// interest builds no `level1`/`refine`.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildReport {
    /// Shards actually used (≤ requested; small graphs use fewer).
    pub shards: usize,
    /// Worker-thread cap the parallel phase ran under (`parallel_map`
    /// additionally clamps to the shard count, so fewer workers may have
    /// run).
    pub threads: usize,
    /// Wall-clock of the shared global level-1 pass (extraction, sorting,
    /// block-id assignment, adjacency form) — the sequential prefix of a
    /// full build.
    pub level1: Duration,
    /// Wall-clock of the parallel per-shard interest partitioning phase
    /// of [`build_interest_sharded`] (zero for full-CPQx builds).
    pub interest_shards: Duration,
    /// Wall-clock of the parallel refine+assemble phase (full builds).
    pub refine: Duration,
    /// Wall-clock of the merge + index materialization phase (with one
    /// shard the merge is the identity and this is materialization alone).
    pub merge: Duration,
    /// End-to-end wall-clock.
    pub total: Duration,
}

/// Builds the full CPQ-aware index of `g` with path parameter `k` using
/// sharded parallel refinement over one global level-1 base. Identical to
/// [`CpqxIndex::build`]`(g, k)` (see module docs).
pub fn build_sharded(g: &Graph, k: usize, opts: BuildOptions) -> CpqxIndex {
    build_sharded_with_report(g, k, opts).0
}

/// [`build_sharded`], also returning phase timings.
pub fn build_sharded_with_report(
    g: &Graph,
    k: usize,
    opts: BuildOptions,
) -> (CpqxIndex, BuildReport) {
    let t_start = Instant::now();
    let requested = opts.shards.unwrap_or_else(pool::default_threads).max(1);
    // parallel_map clamps to the shard count on its own.
    let threads = opts.threads.unwrap_or(requested).max(1);

    let t0 = Instant::now();
    let base = RefinementBase::new(g);
    let level1 = t0.elapsed();

    let ranges = base.balanced_ranges(requested);
    let shards = ranges.len().max(1);

    let t0 = Instant::now();
    let parts = pool::parallel_map(ranges, threads, |r| base.partition_range(k, r));
    let refine = t0.elapsed();

    let t0 = Instant::now();
    let index = CpqxIndex::from_partition(k, None, merge_partitions(parts));
    let merge = t0.elapsed();

    let report = BuildReport {
        shards,
        threads,
        level1,
        interest_shards: Duration::ZERO,
        refine,
        merge,
        total: t_start.elapsed(),
    };
    (index, report)
}

/// Builds the interest-aware index (iaCPQx, Sec. V) of `g` with path
/// parameter `k` using sharded parallel partitioning. `interests` may
/// contain sequences longer than `k`; they are normalized by
/// prefix-splitting exactly as in [`CpqxIndex::build_interest_aware`],
/// to which the result is identical (see module docs).
pub fn build_interest_sharded(
    g: &Graph,
    k: usize,
    interests: impl IntoIterator<Item = LabelSeq>,
    opts: BuildOptions,
) -> CpqxIndex {
    build_interest_sharded_with_report(g, k, interests, opts).0
}

/// [`build_interest_sharded`], also returning phase timings.
pub fn build_interest_sharded_with_report(
    g: &Graph,
    k: usize,
    interests: impl IntoIterator<Item = LabelSeq>,
    opts: BuildOptions,
) -> (CpqxIndex, BuildReport) {
    let t_start = Instant::now();
    let requested = opts.shards.unwrap_or_else(pool::default_threads).max(1);

    let lq = cpqx_core::normalize_interests(interests, k);
    // The indexed sequence list is derived once and shared by every shard
    // (it must be identical across shards for the classes to merge).
    let seqs = cpqx_core::interest::indexed_interest_seqs(g, k, &lq);
    // Shard ranges balanced by the work the shards will actually do: one
    // adjacency expansion per outgoing edge per indexed sequence starting
    // with that edge's label (repeated first labels count once per
    // sequence).
    let first_labels: Vec<ExtLabel> = seqs.iter().map(|s| s.get(0)).collect();
    let ranges = g.balanced_src_ranges_for_labels(&first_labels, requested);
    let shards = ranges.len().max(1);
    // Same cap semantics as build_sharded_with_report; parallel_map
    // clamps to the shard count on its own.
    let threads = opts.threads.unwrap_or(requested).max(1);

    let t0 = Instant::now();
    let parts = pool::parallel_map(ranges, threads, |r| {
        cpqx_core::interest::interest_partition_range_with_seqs(g, k, &seqs, r)
    });
    let interest_shards = t0.elapsed();

    let t0 = Instant::now();
    let index = CpqxIndex::from_partition(k, Some(lq), merge_partitions(parts));
    let merge = t0.elapsed();

    let report = BuildReport {
        shards,
        threads,
        level1: Duration::ZERO,
        interest_shards,
        refine: Duration::ZERO,
        merge,
        total: t_start.elapsed(),
    };
    (index, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_query::eval::eval_reference;
    use cpqx_query::parse_cpq;

    fn saved(idx: &CpqxIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        idx.save(&mut bytes).expect("writing to a Vec");
        bytes
    }

    #[test]
    fn sharded_build_is_the_sequential_build() {
        let g = generate::gex();
        let seq = CpqxIndex::build(&g, 2);
        for shards in [1, 2, 4, 16] {
            let par = build_sharded(&g, 2, BuildOptions { shards: Some(shards), threads: Some(4) });
            assert_eq!(saved(&par), saved(&seq), "{shards} shards");
            for text in ["(f . f) & f^-1", "f . f", "(f . f^-1) & id", "f & (f . f . f)"] {
                let q = parse_cpq(text, &g).unwrap();
                assert_eq!(par.evaluate(&g, &q), eval_reference(&g, &q), "{text} @ {shards}");
            }
        }
    }

    #[test]
    fn interest_sharded_build_is_the_sequential_build() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let v = g.label_named("v").unwrap();
        let interests =
            [LabelSeq::from_slice(&[f.fwd(), f.fwd()]), LabelSeq::from_slice(&[v.fwd(), f.inv()])];
        let seq = CpqxIndex::build_interest_aware(&g, 2, interests.iter().copied());
        for shards in [1, 2, 4, 16] {
            let par = build_interest_sharded(
                &g,
                2,
                interests.iter().copied(),
                BuildOptions { shards: Some(shards), threads: Some(4) },
            );
            assert!(par.is_interest_aware());
            assert_eq!(saved(&par), saved(&seq), "{shards} shards");
            for text in ["(f . f) & f^-1", "f . f", "v . f^-1", "(v . v^-1) & id"] {
                let q = parse_cpq(text, &g).unwrap();
                assert_eq!(par.evaluate(&g, &q), eval_reference(&g, &q), "{text} @ {shards}");
            }
        }
    }

    #[test]
    fn report_covers_phases() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(200, 900, 3, 11));
        let (idx, report) =
            build_sharded_with_report(&g, 2, BuildOptions { shards: Some(4), threads: Some(2) });
        assert!(idx.pair_count() > 0);
        assert_eq!(report.shards, 4);
        assert_eq!(report.threads, 2);
        assert!(report.total >= report.refine);
        assert_eq!(report.interest_shards, Duration::ZERO);
        assert!(report.level1 > Duration::ZERO);
        assert!(report.total >= report.level1 + report.refine + report.merge);

        let f = g.labels().next().unwrap();
        let (idx, report) = build_interest_sharded_with_report(
            &g,
            2,
            [LabelSeq::from_slice(&[f.fwd(), f.fwd()])],
            BuildOptions { shards: Some(4), threads: Some(2) },
        );
        assert!(idx.pair_count() > 0);
        assert_eq!(report.shards, 4);
        assert!(report.interest_shards > Duration::ZERO);
        assert_eq!(report.level1, Duration::ZERO);
        assert!(report.total >= report.interest_shards);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = cpqx_graph::GraphBuilder::new().build();
        let idx = build_sharded(&empty, 2, BuildOptions::default());
        assert_eq!(idx.pair_count(), 0);
        let idx = build_interest_sharded(&empty, 2, [], BuildOptions::default());
        assert_eq!(idx.pair_count(), 0);
        assert!(idx.is_interest_aware());
        let mut b = cpqx_graph::GraphBuilder::new();
        b.ensure_vertices(5);
        b.ensure_labels(1);
        let no_edges = b.build();
        let idx = build_sharded(&no_edges, 3, BuildOptions { shards: Some(8), threads: None });
        assert_eq!(idx.pair_count(), 0);
        let idx = build_interest_sharded(
            &no_edges,
            3,
            [],
            BuildOptions { shards: Some(8), threads: None },
        );
        assert_eq!(idx.pair_count(), 0);
    }
}
