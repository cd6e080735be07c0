//! Larger-scale stress checks. The default suite keeps these small; the
//! `#[ignore]`d variants run at closer-to-paper scale
//! (`cargo test --release -- --ignored`).

use cpqx::graph::generate::{gmark, random_graph, RandomGraphConfig};
use cpqx::index::CpqxIndex;
use cpqx::pathindex::PathIndex;
use cpqx::query::ast::Template;
use cpqx::query::workload::{GraphProbe, WorkloadGen};

#[test]
fn midsize_powerlaw_build_and_query() {
    let g = random_graph(&RandomGraphConfig::social(5_000, 20_000, 4, 77));
    let idx = CpqxIndex::build(&g, 2);
    let s = idx.stats();
    assert!(s.classes > 0 && s.classes <= s.pairs);
    // Full workload pass, CPQx vs Path answers.
    let path = PathIndex::build(&g, 2);
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 5);
    for t in [Template::T, Template::S, Template::C2i, Template::TC] {
        for q in gen.queries(t, 2, &probe) {
            assert_eq!(idx.evaluate(&g, &q), path.evaluate(&g, &q), "{}", t.name());
        }
    }
}

#[test]
fn midsize_gmark_interest_aware() {
    let g = gmark(20_000, 13);
    let cites = g.label_named("cites").unwrap();
    let held = g.label_named("heldIn").unwrap();
    let publishes = g.label_named("publishesIn").unwrap();
    let interests = [
        cpqx::graph::LabelSeq::from_slice(&[cites.fwd(), cites.fwd()]),
        cpqx::graph::LabelSeq::from_slice(&[publishes.fwd(), held.fwd()]),
    ];
    let idx = CpqxIndex::build_interest_aware(&g, 2, interests);
    assert!(idx.pair_count() > 0);
    let q = cpqx::query::parse_cpq("(publishesIn . heldIn) & livesIn", &g).unwrap();
    let result = idx.evaluate(&g, &q);
    // Researchers publishing in a venue held in their home town exist in a
    // 20k-vertex instance with 70% home-town workers.
    assert!(!result.is_empty());
}

#[test]
#[ignore = "paper-scale stress; run with --ignored"]
fn large_powerlaw_full_lifecycle() {
    use rand::{Rng, SeedableRng};
    let mut g = random_graph(&RandomGraphConfig::social(100_000, 400_000, 8, 3));
    let mut idx = CpqxIndex::build(&g, 2);
    let before = idx.stats();
    assert!(before.pairs > 100_000);
    // Update storm.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for _ in 0..500 {
        let v = rng.gen_range(0..g.vertex_count());
        let u = rng.gen_range(0..g.vertex_count());
        let l = cpqx::graph::Label(rng.gen_range(0..g.base_label_count()));
        if rng.gen_bool(0.5) {
            idx.insert_edge(&mut g, v, u, l);
        } else {
            idx.delete_edge(&mut g, v, u, l);
        }
    }
    // Spot-check against a rebuild.
    let fresh = CpqxIndex::build(&g, 2);
    let probe = GraphProbe(&g);
    let mut gen = WorkloadGen::new(&g, 1);
    for t in [Template::T, Template::S, Template::Si] {
        for q in gen.queries(t, 2, &probe) {
            assert_eq!(idx.evaluate(&g, &q), fresh.evaluate(&g, &q));
        }
    }
}
