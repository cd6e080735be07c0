//! Property-based tests of the core invariants on arbitrary random graphs
//! and arbitrary CPQ expressions.

use cpqx::graph::generate::{random_graph, LabelDist, RandomGraphConfig, Topology};
use cpqx::graph::{ExtLabel, Graph, Label, LabelSeq, Pair};
use cpqx::index::CpqxIndex;
use cpqx::pathindex::PathIndex;
use cpqx::query::eval::eval_reference;
use cpqx::query::Cpq;
use proptest::prelude::*;

/// Strategy: a small random labeled graph.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (4u32..40, 1usize..120, 1u16..4, 0u64..1_000, prop::bool::ANY).prop_map(
        |(n, m, labels, seed, uniform)| {
            random_graph(&RandomGraphConfig {
                vertices: n,
                base_edges: m,
                base_labels: labels,
                topology: if uniform {
                    Topology::ErdosRenyi
                } else {
                    Topology::PowerLaw { exponent: 2.2 }
                },
                label_dist: LabelDist::Exponential { lambda: 0.5 },
                seed,
            })
        },
    )
}

/// Strategy: a random CPQ over `labels` base labels (depth-bounded).
fn cpq_strategy(labels: u16) -> impl Strategy<Value = Cpq> {
    let leaf = prop_oneof![
        8 => (0..labels * 2).prop_map(|l| Cpq::ext(ExtLabel(l))),
        1 => Just(Cpq::Id),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.conj(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition invariant behind Prop. 4.1: every class of the built
    /// index is homogeneous in cyclicity and `L≤k`.
    #[test]
    fn classes_are_homogeneous(g in graph_strategy()) {
        let idx = CpqxIndex::build(&g, 2);
        for c in 0..idx.class_slots() as u32 {
            let pairs = idx.class_pairs(c);
            let rep = pairs.clone().next();
            prop_assert!(rep.is_some(), "fresh index has no tombstones");
            let rep = rep.unwrap();
            let rep_seqs = cpqx_core::paths::label_seqs_between(&g, rep.src(), rep.dst(), 2);
            prop_assert_eq!(idx.class_sequences(c).collect::<Vec<_>>(), rep_seqs.clone());
            for p in pairs {
                prop_assert_eq!(p.is_loop(), idx.class_is_loop(c));
                let seqs = cpqx_core::paths::label_seqs_between(&g, p.src(), p.dst(), 2);
                prop_assert_eq!(&seqs, &rep_seqs, "pair {:?} differs from rep {:?}", p, rep);
            }
        }
    }

    /// Index evaluation equals the reference semantics for arbitrary CPQs.
    #[test]
    fn cpqx_equals_reference(
        (g, queries) in graph_strategy().prop_flat_map(|g| {
            let nl = g.base_label_count();
            (Just(g), prop::collection::vec(cpq_strategy(nl), 1..4))
        }),
    ) {
        let idx = CpqxIndex::build(&g, 2);
        for q in &queries {
            prop_assert_eq!(idx.evaluate(&g, q), eval_reference(&g, q), "query {:?}", q);
        }
    }

    /// Path-index evaluation equals the reference semantics too.
    #[test]
    fn path_equals_reference(
        (g, q) in graph_strategy().prop_flat_map(|g| {
            let nl = g.base_label_count();
            (Just(g), cpq_strategy(nl))
        }),
    ) {
        let idx = PathIndex::build(&g, 2);
        prop_assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
    }

    /// Thm. 4.2's counting: the CPQ-aware index stores no more posting
    /// entries than the language-unaware one, and |C| ≤ |P≤k|.
    #[test]
    fn thm_4_2_entry_counts(g in graph_strategy()) {
        let cpqx = CpqxIndex::build(&g, 2);
        let path = PathIndex::build(&g, 2);
        let cs = cpqx.stats();
        let ps = path.stats();
        prop_assert!(cs.classes <= cs.pairs);
        prop_assert!(cs.postings <= ps.stored_pairs,
            "γ|C| = {} must be ≤ γ|P| = {}", cs.postings, ps.stored_pairs);
        prop_assert_eq!(cs.pairs,
            {
                // Path's distinct pairs across single-label postings equal
                // CPQx's pair universe only when k = 1; at k = 2 compare
                // against the union of all postings instead.
                let mut all: Vec<Pair> = Vec::new();
                for a in g.ext_labels() {
                    all.extend_from_slice(path.lookup(&LabelSeq::single(a)));
                    for b in g.ext_labels() {
                        all.extend_from_slice(path.lookup(&LabelSeq::from_slice(&[a, b])));
                    }
                }
                all.sort_unstable();
                all.dedup();
                all.len()
            },
            "both indexes cover the same pair universe");
    }

    /// Maintenance: a random churn of updates keeps arbitrary queries
    /// correct (Prop. 4.2).
    #[test]
    fn maintenance_preserves_answers(
        (g0, q) in graph_strategy().prop_flat_map(|g| {
            let nl = g.base_label_count();
            (Just(g), cpq_strategy(nl))
        }),
        script in prop::collection::vec((0u32..40, 0u32..40, 0u16..3, prop::bool::ANY), 1..12),
    ) {
        let mut g = g0;
        let mut idx = CpqxIndex::build(&g, 2);
        for (v, u, l, insert) in script {
            let v = v % g.vertex_count();
            let u = u % g.vertex_count();
            let l = Label(l % g.base_label_count());
            if insert {
                idx.insert_edge(&mut g, v, u, l);
            } else {
                idx.delete_edge(&mut g, v, u, l);
            }
        }
        prop_assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
    }

    /// LabelSeq encode/slice round-trips.
    #[test]
    fn label_seq_roundtrip(raw in prop::collection::vec(0u16..512, 0..8)) {
        let labels: Vec<ExtLabel> = raw.iter().map(|&x| ExtLabel(x)).collect();
        let seq = LabelSeq::from_slice(&labels);
        prop_assert_eq!(seq.len(), labels.len());
        let back: Vec<ExtLabel> = seq.iter().collect();
        prop_assert_eq!(back, labels.clone());
        prop_assert_eq!(seq.reversed_inverse().reversed_inverse(), seq);
        let n = labels.len() / 2;
        prop_assert_eq!(seq.prefix(n).concat(&seq.suffix(n)), seq);
    }

    /// Pair packing round-trips and orders source-major.
    #[test]
    fn pair_roundtrip(v in any::<u32>(), u in any::<u32>(), v2 in any::<u32>(), u2 in any::<u32>()) {
        let p = Pair::new(v, u);
        prop_assert_eq!(p.src(), v);
        prop_assert_eq!(p.dst(), u);
        prop_assert_eq!(p.swap().swap(), p);
        let q = Pair::new(v2, u2);
        prop_assert_eq!(p.cmp(&q), (v, u).cmp(&(v2, u2)));
    }

    /// The planner's lookups re-compose to the original chain.
    #[test]
    fn planner_chunking_preserves_chains(
        raw in prop::collection::vec(0u16..6, 1..8),
        k in 1usize..5,
    ) {
        let labels: Vec<ExtLabel> = raw.iter().map(|&x| ExtLabel(x)).collect();
        let q = Cpq::chain(&labels);
        let plan = cpqx::query::plan::plan_for_k(&q, k);
        let seqs = plan.lookup_seqs();
        prop_assert!(seqs.iter().all(|s| s.len() <= k && !s.is_empty()));
        let recomposed: Vec<ExtLabel> = seqs.iter().flat_map(|s| s.iter().collect::<Vec<_>>()).collect();
        prop_assert_eq!(recomposed, labels);
    }
}
