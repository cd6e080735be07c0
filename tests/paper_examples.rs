//! The paper's worked examples, checked end to end on the reconstructed
//! `Gex` (Fig. 1): Example 3.1 (label-sequence sets), the introduction's
//! triad query, Example 4.1 (index lookups), Example 4.3 (class-level
//! conjunction), Example 4.4 (edge deletion), and the Fig. 4 plan shape.

use cpqx::graph::generate::gex;
use cpqx::graph::LabelSeq;
use cpqx::index::CpqxIndex;
use cpqx::pathindex::PathIndex;
use cpqx::query::parse_cpq;
use cpqx::query::plan::{plan_for_k, Plan};
use cpqx_core::paths::label_seqs_between;

#[test]
fn example_3_1_label_sequence_sets() {
    // L≤2(ada, ada) ⊇ {⟨f,f⁻¹⟩, ⟨v,v⁻¹⟩}; identity is implicit (index
    // stores only non-trivial paths).
    let g = gex();
    let f = g.label_named("f").unwrap();
    let v = g.label_named("v").unwrap();
    let ada = g.vertex_named("ada").unwrap();
    let seqs = label_seqs_between(&g, ada, ada, 2);
    assert!(seqs.contains(&LabelSeq::from_slice(&[f.fwd(), f.inv()])));
    assert!(seqs.contains(&LabelSeq::from_slice(&[v.fwd(), v.inv()])));
    // ada has no incoming f edge, so no ⟨f⁻¹,f⟩ cycle (unlike the paper's
    // ada which is followed; our reconstruction differs only peripherally).

    // L≤2(joe, sue) = {⟨f⁻¹⟩, ⟨f,f⟩, ⟨v,v⁻¹⟩} — exactly the paper's set.
    let (joe, sue) = (g.vertex_named("joe").unwrap(), g.vertex_named("sue").unwrap());
    let seqs = label_seqs_between(&g, joe, sue, 2);
    let expected = vec![
        LabelSeq::single(f.inv()),
        LabelSeq::from_slice(&[f.fwd(), f.fwd()]),
        LabelSeq::from_slice(&[v.fwd(), v.inv()]),
    ];
    let mut expected = expected;
    expected.sort_unstable();
    assert_eq!(seqs, expected);
}

#[test]
fn introduction_triad_answer() {
    let g = gex();
    let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
    for engine_result in
        [CpqxIndex::build(&g, 2).evaluate(&g, &q), PathIndex::build(&g, 2).evaluate(&g, &q)]
    {
        let names: std::collections::BTreeSet<(&str, &str)> = engine_result
            .iter()
            .map(|p| (g.vertex_name(p.src()), g.vertex_name(p.dst())))
            .collect();
        assert_eq!(names, [("sue", "zoe"), ("joe", "sue"), ("zoe", "joe")].into_iter().collect());
    }
}

#[test]
fn example_4_1_lookups_share_one_class() {
    // Il2c(f⁻¹) and Il2c(ﬀ) each return 3 classes on Gex and share exactly
    // one — the triad class (the paper's class 7).
    let g = gex();
    let idx = CpqxIndex::build(&g, 2);
    let f = g.label_named("f").unwrap();
    let a = idx.lookup(&LabelSeq::single(f.inv()));
    let b = idx.lookup(&LabelSeq::from_slice(&[f.fwd(), f.fwd()]));
    assert_eq!(a.len(), 3, "Il2c(f⁻¹) returns 3 classes (paper: {{7, 8, 9}})");
    assert_eq!(b.len(), 3, "Il2c(ﬀ) returns 3 classes (paper: {{7, 16, 20}})");
    let shared: Vec<_> = a.iter().filter(|&c| b.contains(c)).collect();
    assert_eq!(shared.len(), 1);
    assert!(a.and(b).iter().eq(shared.iter().copied()), "the containers' AND finds the same class");
    let triad = idx.class_pairs(shared[0]);
    assert_eq!(triad.len(), 3);
    assert!(triad.clone().all(|p| !p.is_loop()));
}

#[test]
fn example_4_3_pruning_ratio() {
    // The paper counts 30 s-t pairs retrieved by the unaware index versus 6
    // class ids with CPQx for the triad conjunction. Check the analogous
    // ratio here: class-id volume strictly below pair volume.
    let g = gex();
    let cpqx = CpqxIndex::build(&g, 2);
    let path = PathIndex::build(&g, 2);
    let f = g.label_named("f").unwrap();
    let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
    let fi = LabelSeq::single(f.inv());
    let class_volume = cpqx.lookup(&ff).len() + cpqx.lookup(&fi).len();
    let pair_volume = path.lookup(&ff).len() + path.lookup(&fi).len();
    assert_eq!(class_volume, 6, "3 + 3 class identifiers, as in Example 4.3");
    // The paper's exact Gex yields 30 vs 6; our reconstruction has a
    // slightly thinner follow structure — the multiple-fold gap remains.
    assert!(
        pair_volume >= 3 * class_volume,
        "pair lookups ({pair_volume}) dwarf class lookups ({class_volume})"
    );
}

#[test]
fn example_4_4_edge_deletion() {
    // Delete (ada, tim, f): (ada, 123) keeps its ⟨f,v⟩ alternative? In our
    // reconstruction ada→123 is a direct visit plus ada→tom→123; the pair
    // survives. (ada, tim) loses ⟨f⟩ but stays connected via ⟨v,v⁻¹⟩.
    let mut g = gex();
    let mut idx = CpqxIndex::build(&g, 2);
    let (ada, tim) = (g.vertex_named("ada").unwrap(), g.vertex_named("tim").unwrap());
    let blog = g.vertex_named("123").unwrap();
    let f = g.label_named("f").unwrap();

    idx.delete_edge(&mut g, ada, tim, f);

    let pair = cpqx::graph::Pair::new(ada, tim);
    let c = idx.class_of(pair).expect("(ada,tim) still indexed via v·v⁻¹");
    let v = g.label_named("v").unwrap();
    assert_eq!(
        idx.class_sequences(c).collect::<Vec<_>>(),
        [LabelSeq::from_slice(&[v.fwd(), v.inv()])],
        "only the co-visitation path remains"
    );
    let blog_pair = cpqx::graph::Pair::new(ada, blog);
    let c = idx.class_of(blog_pair).expect("(ada,123) still indexed");
    assert!(
        idx.class_sequences(c).any(|s| s == LabelSeq::single(v.fwd())),
        "direct visit survives the deletion"
    );
}

#[test]
fn fig_4_plan_shape() {
    // [(ℓ1∘ℓ2∘ℓ3) ∩ (ℓ4∘ℓ5)] ∩ id at k = 2: the chain splits as
    // ⟨ℓ1,ℓ2⟩ ⋈ ⟨ℓ3⟩, identity fuses into the outer conjunction.
    let g = gex();
    let q = parse_cpq("((f . f . v) & (f . v)) & id", &g).unwrap();
    let plan = plan_for_k(&q, 2);
    let Plan::ConjId(left, right) = plan else {
        panic!("expected fused conjunction-with-identity at the root");
    };
    let Plan::Join(a, b) = *left else {
        panic!("left side must be a join of two lookups");
    };
    assert!(matches!(*a, Plan::Lookup(s) if s.len() == 2));
    assert!(matches!(*b, Plan::Lookup(s) if s.len() == 1));
    assert!(matches!(*right, Plan::Lookup(s) if s.len() == 2));
}

#[test]
fn theorem_4_1_corollary_queries_are_class_unions() {
    // Corollary 4.1: every CPQ2 answer is a union of whole classes.
    let g = gex();
    let idx = CpqxIndex::build(&g, 2);
    for text in ["f", "f . f", "(f . f) & f^-1", "v . v^-1", "(f . v) & v"] {
        let q = parse_cpq(text, &g).unwrap();
        let answer = idx.evaluate(&g, &q);
        // For every answered pair, its whole class must be in the answer.
        for p in &answer {
            let c = idx.class_of(*p).expect("answers are indexed pairs");
            for member in idx.class_pairs(c) {
                assert!(
                    answer.binary_search(&member).is_ok(),
                    "{text}: class of {p:?} not wholly contained"
                );
            }
        }
    }
}
