//! Lazy-maintenance correctness (Prop. 4.2): after arbitrary sequences of
//! edge / vertex / interest updates, query results must equal both the
//! reference semantics on the updated graph and a freshly rebuilt index —
//! even though the lazy index's classes are fragmented.

use cpqx_core::CpqxIndex;
use cpqx_graph::generate;
use cpqx_graph::{ExtLabel, Label, LabelSeq};
use cpqx_query::ast::Template;
use cpqx_query::eval::eval_reference;
use cpqx_query::parse_cpq;
use rand::{Rng, SeedableRng};

fn check_against_reference(g: &cpqx_graph::Graph, idx: &CpqxIndex, seed: u64, cases: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for t in Template::ALL {
        for _ in 0..cases {
            let labels: Vec<ExtLabel> =
                (0..t.arity()).map(|_| ExtLabel(rng.gen_range(0..g.ext_label_count()))).collect();
            let q = t.instantiate(&labels);
            assert_eq!(idx.evaluate(g, &q), eval_reference(g, &q), "template {}", t.name());
        }
    }
}

#[test]
fn single_edge_deletion_example_4_4() {
    // Example 4.4: delete (ada, tim) with f from Gex; affected pairs split
    // off, pairs with alternative paths stay put, queries stay correct.
    let mut g = generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let (ada, tim) = (g.vertex_named("ada").unwrap(), g.vertex_named("tim").unwrap());
    let f = g.label_named("f").unwrap();
    assert!(idx.delete_edge(&mut g, ada, tim, f));
    assert!(!idx.delete_edge(&mut g, ada, tim, f), "double delete is a no-op");
    check_against_reference(&g, &idx, 1, 4);
    // (ada, tim) now only connects via v·v⁻¹ (both visit blog 123).
    let q = parse_cpq("f", &g).unwrap();
    let pairs = idx.evaluate(&g, &q);
    assert!(!pairs.contains(&cpqx_graph::Pair::new(ada, tim)));
    let q = parse_cpq("v . v^-1", &g).unwrap();
    assert!(idx.evaluate(&g, &q).contains(&cpqx_graph::Pair::new(ada, tim)));
}

#[test]
fn edge_insertion_creates_new_pairs() {
    let mut g = generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let (flo, jon) = (g.vertex_named("flo").unwrap(), g.vertex_named("jon").unwrap());
    let f = g.label_named("f").unwrap();
    assert!(idx.insert_edge(&mut g, flo, jon, f));
    assert!(!idx.insert_edge(&mut g, flo, jon, f), "duplicate insert is a no-op");
    check_against_reference(&g, &idx, 2, 4);
    let q = parse_cpq("f", &g).unwrap();
    assert!(idx.evaluate(&g, &q).contains(&cpqx_graph::Pair::new(flo, jon)));
}

#[test]
fn random_update_storm_full_index() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let cfg = generate::RandomGraphConfig::social(50, 200, 3, 3);
    let mut g = generate::random_graph(&cfg);
    let mut idx = CpqxIndex::build(&g, 2);
    for round in 0..40 {
        let v = rng.gen_range(0..g.vertex_count());
        let u = rng.gen_range(0..g.vertex_count());
        let l = Label(rng.gen_range(0..g.base_label_count()));
        if rng.gen_bool(0.5) {
            idx.insert_edge(&mut g, v, u, l);
        } else {
            idx.delete_edge(&mut g, v, u, l);
        }
        if round % 10 == 9 {
            check_against_reference(&g, &idx, round as u64, 2);
        }
    }
    // Final full check and comparison with a rebuild.
    check_against_reference(&g, &idx, 99, 3);
    let fresh = CpqxIndex::build(&g, 2);
    assert_eq!(idx.pair_count(), fresh.pair_count(), "same indexed pair set");
    assert!(
        idx.class_slots() >= fresh.class_slots(),
        "lazy maintenance never has fewer class slots than a rebuild"
    );
}

#[test]
fn random_update_storm_interest_aware() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let cfg = generate::RandomGraphConfig::social(50, 200, 3, 5);
    let mut g = generate::random_graph(&cfg);
    let interests = [
        LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(1)]),
        LabelSeq::from_slice(&[ExtLabel(2), ExtLabel(0)]),
    ];
    let mut idx = CpqxIndex::build_interest_aware(&g, 2, interests);
    for round in 0..30 {
        let v = rng.gen_range(0..g.vertex_count());
        let u = rng.gen_range(0..g.vertex_count());
        let l = Label(rng.gen_range(0..g.base_label_count()));
        if rng.gen_bool(0.5) {
            idx.insert_edge(&mut g, v, u, l);
        } else {
            idx.delete_edge(&mut g, v, u, l);
        }
        if round % 10 == 9 {
            check_against_reference(&g, &idx, round as u64, 2);
        }
    }
    check_against_reference(&g, &idx, 101, 3);
}

#[test]
fn interest_insertion_and_deletion() {
    let cfg = generate::RandomGraphConfig::social(60, 300, 3, 9);
    let mut g = generate::random_graph(&cfg);
    let mut idx =
        CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(1)])]);
    // Insert a new interest: queries using it should now take one lookup.
    let new_seq = LabelSeq::from_slice(&[ExtLabel(1), ExtLabel(2)]);
    assert!(idx.insert_interest(&mut g, new_seq));
    assert!(!idx.insert_interest(&mut g, new_seq), "duplicate interest insert");
    assert!(idx.is_indexed(&new_seq));
    check_against_reference(&g, &idx, 3, 3);
    // Compare the lookup against a from-scratch interest-aware index.
    let fresh = CpqxIndex::build_interest_aware(
        &g,
        2,
        [LabelSeq::from_slice(&[ExtLabel(0), ExtLabel(1)]), new_seq],
    );
    let via_lazy: Vec<_> = {
        let mut ps = Vec::new();
        for c in idx.lookup(&new_seq) {
            ps.extend(idx.class_pairs(c));
        }
        ps.sort_unstable();
        ps
    };
    let via_fresh: Vec<_> = {
        let mut ps = Vec::new();
        for c in fresh.lookup(&new_seq) {
            ps.extend(fresh.class_pairs(c));
        }
        ps.sort_unstable();
        ps
    };
    assert_eq!(via_lazy, via_fresh, "lazy interest insertion indexes the same pairs");

    // Delete it again: no longer indexed, queries still correct.
    assert!(idx.delete_interest(&new_seq));
    assert!(!idx.delete_interest(&new_seq));
    assert!(!idx.is_indexed(&new_seq));
    check_against_reference(&g, &idx, 4, 3);
}

#[test]
fn vertex_lifecycle() {
    let mut g = generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    // Insert a vertex and wire it in.
    let newbie = idx.add_vertex(&mut g, "newbie");
    let f = g.label_named("f").unwrap();
    let sue = g.vertex_named("sue").unwrap();
    idx.insert_edge(&mut g, newbie, sue, f);
    check_against_reference(&g, &idx, 11, 3);
    // Delete a high-degree vertex entirely.
    let ada = g.vertex_named("ada").unwrap();
    idx.delete_vertex(&mut g, ada);
    assert_eq!(g.ext_degree(ada), 0);
    check_against_reference(&g, &idx, 12, 3);
    // Ada participates in no answers any more.
    let q = parse_cpq("f", &g).unwrap();
    assert!(idx.evaluate(&g, &q).iter().all(|p| p.src() != ada && p.dst() != ada));
}

#[test]
fn deletion_then_reinsertion_roundtrip() {
    // Deleting and re-inserting the same edge must restore exactly the
    // original answers (classes may differ — that is the lazy part).
    let mut g = generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let before: Vec<_> = ["f", "f . f", "(f . f) & f^-1", "(v . v^-1) & id"]
        .iter()
        .map(|s| idx.evaluate(&g, &parse_cpq(s, &g).unwrap()))
        .collect();
    let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
    let f = g.label_named("f").unwrap();
    idx.delete_edge(&mut g, sue, joe, f);
    idx.insert_edge(&mut g, sue, joe, f);
    let after: Vec<_> = ["f", "f . f", "(f . f) & f^-1", "(v . v^-1) & id"]
        .iter()
        .map(|s| idx.evaluate(&g, &parse_cpq(s, &g).unwrap()))
        .collect();
    assert_eq!(before, after);
}

#[test]
fn rebuild_defragments() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let cfg = generate::RandomGraphConfig::social(50, 200, 3, 21);
    let mut g = generate::random_graph(&cfg);
    let mut idx = CpqxIndex::build(&g, 2);
    for _ in 0..25 {
        let v = rng.gen_range(0..g.vertex_count());
        let u = rng.gen_range(0..g.vertex_count());
        let l = Label(rng.gen_range(0..g.base_label_count()));
        if rng.gen_bool(0.5) {
            idx.insert_edge(&mut g, v, u, l);
        } else {
            idx.delete_edge(&mut g, v, u, l);
        }
    }
    let fragmented_slots = idx.class_slots();
    idx.rebuild(&g);
    assert!(idx.class_slots() <= fragmented_slots);
    assert_eq!(idx.class_slots(), idx.live_class_count(), "no tombstones after rebuild");
    check_against_reference(&g, &idx, 31, 3);
}

#[test]
fn change_edge_label() {
    let mut g = generate::gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
    let f = g.label_named("f").unwrap();
    let v = g.label_named("v").unwrap();
    assert!(idx.change_edge_label(&mut g, sue, joe, f, v));
    check_against_reference(&g, &idx, 17, 3);
    assert!(g.has_edge(sue, joe, v.fwd()));
    assert!(!g.has_edge(sue, joe, f.fwd()));
}
