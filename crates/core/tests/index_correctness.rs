//! End-to-end correctness of CPQx/iaCPQx query processing against the
//! reference semantics, plus the paper's worked examples (Example 4.1/4.3)
//! and the size relation of Thm. 4.2's quantities.

use cpqx_core::{normalize_interests, CpqxIndex};
use cpqx_graph::generate;
use cpqx_graph::{ExtLabel, LabelSeq, Pair};
use cpqx_query::ast::Template;
use cpqx_query::eval::eval_reference;
use cpqx_query::{parse_cpq, Cpq};
use rand::{Rng, SeedableRng};

fn named(g: &cpqx_graph::Graph, p: Pair) -> (String, String) {
    (g.vertex_name(p.src()).to_string(), g.vertex_name(p.dst()).to_string())
}

#[test]
fn triad_example_4_3() {
    // Example 4.3: evaluating ﬀ ∩ f⁻¹ intersects two small class-id lists
    // and returns the triad pairs.
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
    let result = idx.evaluate(&g, &q);
    let got: std::collections::BTreeSet<_> = result.iter().map(|&p| named(&g, p)).collect();
    let expected: std::collections::BTreeSet<_> = [
        ("sue".to_string(), "zoe".to_string()),
        ("joe".to_string(), "sue".to_string()),
        ("zoe".to_string(), "joe".to_string()),
    ]
    .into_iter()
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn triad_lookups_share_one_class() {
    // Example 4.1/4.3: Il2c(ﬀ) and Il2c(f⁻¹) overlap in exactly the triad
    // class on Gex.
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    let f = g.label_named("f").unwrap();
    let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
    let finv = LabelSeq::single(f.inv());
    let a = idx.lookup(&ff);
    let b = idx.lookup(&finv);
    let common: Vec<_> = a.iter().filter(|&c| b.contains(c)).collect();
    assert_eq!(common.len(), 1, "exactly one shared class");
    assert_eq!(idx.class_pairs(common[0]).len(), 3, "the triad class has 3 pairs");
}

#[test]
fn cpqx_matches_reference_on_gex_all_templates_all_k() {
    let g = generate::gex();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for k in 1..=3 {
        let idx = CpqxIndex::build(&g, k);
        for t in Template::ALL {
            for _ in 0..5 {
                let labels: Vec<ExtLabel> = (0..t.arity())
                    .map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count())))
                    .collect();
                let q = t.instantiate(&labels);
                assert_eq!(
                    idx.evaluate(&g, &q),
                    eval_reference(&g, &q),
                    "k={k} template {} labels {labels:?}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn cpqx_matches_reference_on_random_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    for seed in 0..4u64 {
        let cfg = generate::RandomGraphConfig::social(60, 260, 3, seed);
        let g = generate::random_graph(&cfg);
        let idx = CpqxIndex::build(&g, 2);
        for t in Template::ALL {
            for _ in 0..3 {
                let labels: Vec<ExtLabel> = (0..t.arity())
                    .map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count())))
                    .collect();
                let q = t.instantiate(&labels);
                assert_eq!(
                    idx.evaluate(&g, &q),
                    eval_reference(&g, &q),
                    "seed={seed} template {}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn ia_cpqx_matches_reference_even_off_interest() {
    // iaCPQx must answer arbitrary CPQs, including ones whose sequences are
    // not interests (the planner splits them into length-1 lookups).
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let cfg = generate::RandomGraphConfig::social(60, 260, 3, 17);
    let g = generate::random_graph(&cfg);
    // Interests: a couple of 2-sequences only.
    let interests = [
        LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(1)]),
        LabelSeq::from_slice(&[ExtLabel(2), ExtLabel(2)]),
    ];
    let idx = CpqxIndex::build_interest_aware(&g, 2, interests);
    for t in Template::ALL {
        for _ in 0..4 {
            let labels: Vec<ExtLabel> =
                (0..t.arity()).map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count()))).collect();
            let q = t.instantiate(&labels);
            assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "template {}", t.name());
        }
    }
}

#[test]
fn ia_cpqx_with_full_interests_matches_reference() {
    let g = generate::gex();
    // Interests = every non-empty 2-sequence: behaves like a full index.
    let mut interests = Vec::new();
    for a in g.ext_labels() {
        for b in g.ext_labels() {
            interests.push(LabelSeq::from_slice(&[a, b]));
        }
    }
    let idx = CpqxIndex::build_interest_aware(&g, 2, interests);
    let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
    let q = parse_cpq("((v . v^-1) & (f . f^-1)) & id", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn identity_heavy_queries() {
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    for src in
        ["id", "(f . f^-1) & id", "((f . f) . f) & id", "(v . v^-1) & id", "f . id", "id . f"]
    {
        let q = parse_cpq(src, &g).unwrap();
        assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "query {src}");
    }
}

#[test]
fn deep_chains_beyond_k_are_joined() {
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    // Diameter-6 chain on a k=2 index: three lookups, two joins.
    let q = parse_cpq("f . f . f^-1 . v . v^-1 . f", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn evaluate_first_agrees_with_full_evaluation() {
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
    let full = idx.evaluate(&g, &q);
    let first = idx.evaluate_first(&g, &q).unwrap();
    assert!(full.contains(&first));
    let empty = parse_cpq("(v . v) & f", &g).unwrap(); // v targets blogs; no v·v path
    assert!(idx.evaluate_first(&g, &empty).is_none());
    assert!(idx.evaluate(&g, &empty).is_empty());
}

#[test]
fn thm_4_2_size_quantities() {
    // γ|C| + |P≤k| ≤ γ|P≤k| whenever γ ≥ 1 and |C| ≤ |P≤k| — check the
    // concrete quantities on real partitions.
    for seed in 0..3u64 {
        let cfg = generate::RandomGraphConfig::social(80, 400, 4, seed);
        let g = generate::random_graph(&cfg);
        let idx = CpqxIndex::build(&g, 2);
        let s = idx.stats();
        assert!(s.classes <= s.pairs, "|C| ≤ |P≤k|");
        let cpqx_size = s.gamma * s.classes as f64 + s.pairs as f64;
        let path_size = s.gamma * s.pairs as f64;
        assert!(
            cpqx_size <= path_size + f64::EPSILON,
            "γ|C|+|P| = {cpqx_size} vs γ|P| = {path_size}"
        );
    }
}

#[test]
fn interest_normalization_feeds_planner() {
    // A 3-interest on a k=2 index gets split at build time; queries using
    // the long sequence still evaluate correctly.
    let g = generate::gex();
    let f = g.label_named("f").unwrap();
    let long = LabelSeq::from_slice(&[f.fwd(), f.fwd(), f.fwd()]);
    let lq = normalize_interests([long], 2);
    assert!(lq.iter().all(|s| s.len() <= 2));
    let idx = CpqxIndex::build_interest_aware(&g, 2, lq);
    let q = parse_cpq("f . f . f", &g).unwrap();
    assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q));
}

#[test]
fn stats_are_consistent() {
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    let s = idx.stats();
    assert_eq!(s.k, 2);
    assert_eq!(s.classes, idx.live_class_count());
    assert_eq!(s.pairs, idx.pair_count());
    assert!(s.gamma >= 1.0, "every indexed pair has at least one sequence");
    assert!(s.core_bytes > 0 && s.total_bytes > s.core_bytes);
    // Posting lists are sorted and within range.
    let f = g.label_named("f").unwrap();
    let cs: Vec<_> = idx.lookup(&LabelSeq::single(f.fwd())).iter().collect();
    assert!(cs.windows(2).all(|w| w[0] < w[1]));
    assert!(cs.iter().all(|&c| (c as usize) < idx.class_slots()));
}

/// A random CPQ AST (not just a template instance) over `nl` extended
/// labels; one leaf in twelve is `id`, so fused `∩ id` nodes occur.
fn random_cpq(rng: &mut impl Rng, depth: usize, nl: u16) -> Cpq {
    if depth == 0 || rng.gen_bool(0.4) {
        if rng.gen_bool(0.08) {
            Cpq::Id
        } else {
            Cpq::ext(ExtLabel(rng.gen_range(0..nl)))
        }
    } else if rng.gen_bool(0.5) {
        Cpq::Join(
            Box::new(random_cpq(rng, depth - 1, nl)),
            Box::new(random_cpq(rng, depth - 1, nl)),
        )
    } else {
        Cpq::Conj(
            Box::new(random_cpq(rng, depth - 1, nl)),
            Box::new(random_cpq(rng, depth - 1, nl)),
        )
    }
}

#[test]
fn random_cpqs_structural_fuzz() {
    // Random CPQ ASTs against the oracle.
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let g = generate::gex();
    let idx = CpqxIndex::build(&g, 2);
    for i in 0..60 {
        let q = random_cpq(&mut rng, 3, g.ext_label_count());
        assert_eq!(idx.evaluate(&g, &q), eval_reference(&g, &q), "fuzz case {i}: {q:?}");
    }
}

#[test]
fn inverse_plan_answers_with_swapped_pairs() {
    // `Plan::inverse` is what closes cycles as conjunctions: running it
    // must give exactly the swapped answer of the plan, for every plan
    // shape and every k (chunking changes which sequences get inverted).
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for seed in 0..3u64 {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(40, 160, 3, seed));
        for k in 1..=3 {
            let idx = CpqxIndex::build(&g, k);
            let exec = cpqx_core::Executor::new(&idx, &g);
            for i in 0..40 {
                // Half of the trees sit under `∩ id`, exercising the
                // cycle-closing rewrite inside the inverted plans too.
                let tree = random_cpq(&mut rng, 3, g.ext_label_count());
                let q = if i % 2 == 0 { tree } else { tree.with_id() };
                let plan = idx.plan(&q);
                let mut swapped: Vec<Pair> = exec.run(&plan).iter().map(|p| p.swap()).collect();
                swapped.sort_unstable();
                assert_eq!(exec.run(&plan.inverse()), swapped, "k={k} case {i}: {q:?}");
                assert_eq!(exec.run(&plan), eval_reference(&g, &q), "k={k} case {i}: {q:?}");
            }
        }
    }
}
