//! Build differential harness for the sharded build pipeline:
//! random graphs + random interest sets are replayed through the
//! **sequential** builders (`CpqxIndex::build` /
//! `CpqxIndex::build_interest_aware`), the **sharded** full build
//! (`build_sharded`, one level-1 pass + per-range refinement) and the
//! **interest-sharded** build (`build_interest_sharded`) at 1–16 shards
//! and threads, asserting:
//!
//! * every sharded build **is** the sequential build: `save` writes the
//!   same bytes at every shard count, full and interest-aware (classes are
//!   keyed by the index invariant and numbered by first occurrence along
//!   the pair list, so shard geometry leaves no trace), and so does a
//!   second build in the same process (no `RandomState` reaches class ids
//!   or chunk layout);
//! * every index built satisfies `CpqxIndex::validate` against the graph —
//!   the partition invariant itself, not just answers — and the sequential
//!   builds answer the benchmark query sets (YAGO2/LUBM/WatDiv
//!   translations) like the reference evaluator.

use cpqx_core::CpqxIndex;
use cpqx_engine::{build_interest_sharded, build_sharded, BuildOptions};
use cpqx_graph::generate::{gex, random_graph, RandomGraphConfig, Topology};
use cpqx_graph::{Graph, LabelSeq};
use cpqx_query::benchqueries::{lubm_queries, watdiv_queries, yago_queries, NamedQuery};
use cpqx_query::eval::eval_reference;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 8, 16];

fn bench_workload(g: &Graph, seed: u64) -> Vec<NamedQuery> {
    let mut queries = yago_queries(g, seed);
    queries.extend(lubm_queries(g, seed + 1));
    queries.extend(watdiv_queries(g, seed + 2));
    queries
}

/// A deterministic interest set drawn from the graph's extended alphabet:
/// `picks` selects length-2 sequences by label index pair. Returns raw
/// (un-normalized) sequences, as a caller would supply them.
fn interest_set(g: &Graph, picks: &[(u16, u16)]) -> Vec<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    if labels.is_empty() {
        return Vec::new();
    }
    picks
        .iter()
        .map(|&(a, b)| {
            LabelSeq::from_slice(&[
                labels[a as usize % labels.len()],
                labels[b as usize % labels.len()],
            ])
        })
        .collect()
}

/// The full-coverage interest set: every length-2 sequence over the
/// graph's extended alphabet (at k=2 this makes iaCPQx index everything
/// CPQx does).
fn full_coverage_interests(g: &Graph) -> Vec<LabelSeq> {
    let labels: Vec<_> = g.ext_labels().collect();
    labels
        .iter()
        .flat_map(|&a| labels.iter().map(move |&b| LabelSeq::from_slice(&[a, b])))
        .collect()
}

/// The serialized form — the equality the harness holds builds to.
fn saved(idx: &CpqxIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.save(&mut bytes).expect("writing to a Vec");
    bytes
}

/// A just-built index must satisfy the partition invariant on its graph,
/// and holds no pair → class map (only a write builds one).
fn validated(g: &Graph, idx: CpqxIndex, what: &str) -> CpqxIndex {
    if let Err(e) = idx.validate(g) {
        panic!("{what}: {e}");
    }
    assert!(!idx.has_pair_map(), "{what} built the pair map");
    idx
}

/// The tentpole assertion bundle: replays one graph + interest set
/// through all pipelines at every shard count.
fn check_build_equivalence(g: &Graph, k: usize, interests: &[LabelSeq], seed: u64) {
    let queries = bench_workload(g, seed);
    assert!(!queries.is_empty());

    // Full CPQx: sequential, again, and sharded at every shard count.
    let sequential = validated(g, CpqxIndex::build(g, k), "sequential build");
    let bytes = saved(&sequential);
    assert_eq!(saved(&CpqxIndex::build(g, k)), bytes, "two builds in one process differ");
    for nq in &queries {
        assert_eq!(
            sequential.evaluate(g, &nq.query),
            eval_reference(g, &nq.query),
            "query {} (k={k})",
            nq.name
        );
    }
    for &shards in &SHARD_COUNTS {
        let opts = BuildOptions { shards: Some(shards), threads: Some(shards) };
        let sharded = validated(g, build_sharded(g, k, opts), "sharded build");
        assert!(saved(&sharded) == bytes, "sharded build differs at {shards} shards (k={k})");
    }

    // Interest-aware: the same three ways.
    let build_ia = || CpqxIndex::build_interest_aware(g, k, interests.iter().copied());
    let ia_seq = validated(g, build_ia(), "sequential interest build");
    let ia_bytes = saved(&ia_seq);
    assert_eq!(saved(&build_ia()), ia_bytes, "two interest builds in one process differ");
    for nq in &queries {
        assert_eq!(
            ia_seq.evaluate(g, &nq.query),
            eval_reference(g, &nq.query),
            "interest query {} (k={k})",
            nq.name
        );
    }
    for &shards in &SHARD_COUNTS {
        let opts = BuildOptions { shards: Some(shards), threads: Some(shards) };
        let ia_par = validated(
            g,
            build_interest_sharded(g, k, interests.iter().copied(), opts),
            "interest-sharded build",
        );
        assert!(ia_par.is_interest_aware());
        assert!(
            saved(&ia_par) == ia_bytes,
            "interest-sharded build differs at {shards} shards (k={k})"
        );
    }
}

/// `CpqxIndex::build` groups by the index invariant just as the sharded
/// pipeline's merge does: the sequential build — and so
/// `CpqxIndex::rebuild`, the core-level defragmentation — is minimal, not
/// a finer partition than a one-shard `build_sharded`.
#[test]
fn sequential_build_is_as_coarse_as_the_one_shard_build() {
    let one_shard = BuildOptions { shards: Some(1), threads: Some(1) };
    for g in [
        gex(),
        random_graph(&RandomGraphConfig::social(150, 700, 4, 21)),
        random_graph(&RandomGraphConfig {
            topology: Topology::PowerLaw { exponent: 1.4 },
            ..RandomGraphConfig::social(200, 900, 3, 5)
        }),
    ] {
        assert_eq!(
            CpqxIndex::build(&g, 2).stats().classes,
            build_sharded(&g, 2, one_shard).stats().classes
        );
    }
}

#[test]
fn gex_across_k_and_interest_sets() {
    let g = gex();
    let labels: Vec<_> = g.ext_labels().collect();
    let ff = LabelSeq::from_slice(&[labels[0], labels[0]]);
    for k in 1..=3 {
        check_build_equivalence(&g, k, &[ff], 7);
    }
    check_build_equivalence(&g, 2, &[], 11);
    check_build_equivalence(&g, 2, &full_coverage_interests(&g), 13);
}

#[test]
fn empty_and_edgeless_graphs() {
    let empty = cpqx_graph::GraphBuilder::new().build();
    let mut b = cpqx_graph::GraphBuilder::new();
    b.ensure_vertices(6);
    b.ensure_labels(2);
    let edgeless = b.build();
    for g in [&empty, &edgeless] {
        for &threads in &SHARD_COUNTS {
            let opts = BuildOptions { shards: Some(threads), threads: Some(threads) };
            assert_eq!(build_sharded(g, 2, opts).pair_count(), 0);
            assert_eq!(build_interest_sharded(g, 2, [], opts).pair_count(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The randomized tentpole property: random social graphs and random
    /// interest subsets (including the occasional empty pick list) replay
    /// identically through all build pipelines at 1–16 shards.
    #[test]
    fn random_graphs_and_interest_sets(
        graph_seed in 0u64..10_000,
        workload_seed in 0u64..10_000,
        picks in prop::collection::vec((0u16..8, 0u16..8), 0..5),
    ) {
        let g = random_graph(&RandomGraphConfig::social(60, 260, 3, graph_seed));
        let interests = interest_set(&g, &picks);
        check_build_equivalence(&g, 2, &interests, workload_seed);
    }

    /// Uniform topology, separate seed space: catches balancing-sensitive
    /// bugs (uniform graphs produce very even ranges, social ones skewed).
    #[test]
    fn random_uniform_graphs(graph_seed in 0u64..10_000) {
        let g = random_graph(&RandomGraphConfig::uniform(80, 320, 3, graph_seed));
        let interests = full_coverage_interests(&g);
        check_build_equivalence(&g, 2, &interests, graph_seed);
    }
}
