//! Property tests for the sharded interest-aware build: merging
//! `interest_partition_range` shards over any tiling of source ranges
//! yields the sequential `interest_partition` itself — identical pair
//! list, identical classes under identical ids — across random graphs and
//! random interest
//! subsets, including the **empty** interest set (length-1 sequences
//! only) and **full-coverage** sets (every length-2 sequence, making
//! iaCPQx as fine as CPQx at k = 2). The shard maps run on the real
//! thread pool, so the concurrency path itself is exercised.

use cpqx_core::{interest_partition, interest_partition_range, merge_partitions, Partition};
use cpqx_core::{normalize_interests, pool, CpqxIndex};
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{Graph, LabelSeq};
use proptest::prelude::*;
use std::collections::BTreeSet;

const K: usize = 2;
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Builds the sharded partition at `shards` ranges on `shards` workers.
fn sharded(g: &Graph, lq: &BTreeSet<LabelSeq>, shards: usize) -> Partition {
    let ranges = g.balanced_src_ranges(shards);
    let parts = pool::parallel_map(ranges, shards, |r| interest_partition_range(g, K, lq, r));
    merge_partitions(parts)
}

/// Every class's sequence set, read through the partition's dictionary
/// (dictionary numbering is private to a build, so ids are not compared).
fn seq_sets(p: &Partition) -> Vec<Vec<LabelSeq>> {
    (0..p.class_count() as u32).map(|c| p.class_seqs(c).collect()).collect()
}

fn assert_same_partition(g: &Graph, lq: &BTreeSet<LabelSeq>, ctx: &str) {
    let seq = interest_partition(g, K, lq);
    let ia_seq = CpqxIndex::from_partition(K, Some(lq.clone()), interest_partition(g, K, lq));
    for &shards in &SHARD_COUNTS {
        let merged = sharded(g, lq, shards);
        assert_eq!(merged.pair_classes, seq.pair_classes, "{shards} shards ({ctx})");
        assert_eq!(merged.class_loop, seq.class_loop, "{shards} shards ({ctx})");
        assert_eq!(seq_sets(&merged), seq_sets(&seq), "{shards} shards ({ctx})");
        // The materialized indexes answer identically — the property the
        // planner/executor actually rely on.
        let ia_par = CpqxIndex::from_partition(K, Some(lq.clone()), merged);
        for l in g.ext_labels() {
            let q = cpqx_query::Cpq::Label(l);
            assert_eq!(ia_par.evaluate(g, &q), ia_seq.evaluate(g, &q), "label {l:?} ({ctx})");
        }
        for s in lq {
            let mut q = cpqx_query::Cpq::Label(s.get(0));
            for i in 1..s.len() {
                q = q.join(cpqx_query::Cpq::Label(s.get(i)));
            }
            assert_eq!(ia_par.evaluate(g, &q), ia_seq.evaluate(g, &q), "seq {s:?} ({ctx})");
        }
    }
}

/// A deterministic interest set over the graph's alphabet from raw index
/// picks (normalized, possibly empty).
fn interests_from_picks(g: &Graph, picks: &[(u16, u16)]) -> BTreeSet<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    if labels.is_empty() {
        return BTreeSet::new();
    }
    normalize_interests(
        picks.iter().map(|&(a, b)| {
            LabelSeq::from_slice(&[
                labels[a as usize % labels.len()],
                labels[b as usize % labels.len()],
            ])
        }),
        K,
    )
}

/// All length-2 sequences over the alphabet — full coverage at k = 2.
fn full_coverage(g: &Graph) -> BTreeSet<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    normalize_interests(
        labels.iter().flat_map(|&a| labels.iter().map(move |&b| LabelSeq::from_slice(&[a, b]))),
        K,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_interest_subsets(
        seed in 0u64..100_000,
        picks in prop::collection::vec((0u16..12, 0u16..12), 0..6),
    ) {
        let g = random_graph(&RandomGraphConfig::social(50, 210, 3, seed));
        let lq = interests_from_picks(&g, &picks);
        assert_same_partition(&g, &lq, &format!("seed={seed} picks={picks:?}"));
    }

    #[test]
    fn empty_and_full_coverage_interest_sets(seed in 0u64..100_000) {
        let g = random_graph(&RandomGraphConfig::uniform(40, 170, 3, seed));
        // Empty: only the implicit length-1 sequences are indexed.
        assert_same_partition(&g, &BTreeSet::new(), &format!("empty seed={seed}"));
        // Full coverage: every length-2 sequence is an interest.
        assert_same_partition(&g, &full_coverage(&g), &format!("full seed={seed}"));
    }
}

#[test]
fn degenerate_graphs_and_ranges() {
    let empty = cpqx_graph::GraphBuilder::new().build();
    assert_same_partition(&empty, &BTreeSet::new(), "empty graph");

    let mut b = cpqx_graph::GraphBuilder::new();
    b.ensure_vertices(7);
    b.ensure_labels(2);
    let edgeless = b.build();
    assert_same_partition(&edgeless, &BTreeSet::new(), "edgeless graph");

    // An empty source range yields an empty partition and merges away.
    let g = cpqx_graph::generate::gex();
    let lq = full_coverage(&g);
    let p = interest_partition_range(&g, K, &lq, 3..3);
    assert_eq!(p.pair_count(), 0);
    assert_eq!(p.class_count(), 0);
    assert_eq!(merge_partitions(vec![p]).pair_count(), 0);
}

#[test]
fn gex_matches_paper_partition_under_sharding() {
    let g = cpqx_graph::generate::gex();
    let f = g.label_named("f").unwrap();
    let lq = normalize_interests([LabelSeq::from_slice(&[f.fwd(), f.fwd()])], K);
    assert_same_partition(&g, &lq, "gex ff");
}
