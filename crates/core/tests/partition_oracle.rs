//! The build's partition, full and interest-aware, against a brute-force
//! oracle.
//!
//! The oracle enumerates every pair's label sequences up to length k
//! ([`label_seqs_between`]), keeps those the index covers — all of them
//! for the full index, the length-1 ones and the interests `Lq` for an
//! interest-aware one (Def. 5.1) — groups the pairs with a non-empty set by
//! `(is-loop, that set)` and numbers the groups by first occurrence along
//! the pairs in `(src, dst)` order. [`RefinementBase::partition`] must
//! produce exactly that: the same classes in the same order, each row
//! sorted, each class with the oracle's loop flag and sequence set, and no
//! pair whose set is empty.
//!
//! The graphs are random, with self-loops and isolated vertices, over 2 to
//! 40 base labels — 4 to 80 extended ones, so a length-2 key's radix
//! crosses 16 and 64 — at k = 1 to 4; one more is built at fig12's largest
//! alphabet (1024 extended labels). The interest sets are random too: some
//! sequences the graph spells, of every length up to k — so a length-3 or
//! -4 interest whose prefixes are no interests — and some it likely does
//! not, whose relation is empty.

use cpqx_core::paths::label_seqs_between;
use cpqx_core::{cpq_path_partition, normalize_interests, ClassId, CpqxIndex, RefinementBase};
use cpqx_graph::{generate, ExtLabel, Graph, GraphBuilder, Label, LabelSeq, Pair};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The oracle's partition: per class, its loop flag, its sequence set and
/// its pairs in order; classes in first-occurrence order. With `lq` a
/// pair's set is `L≤k ∩ (Lq ∪ L₌₁)`.
fn oracle(
    g: &Graph,
    k: usize,
    lq: Option<&BTreeSet<LabelSeq>>,
) -> Vec<(bool, Vec<LabelSeq>, Vec<Pair>)> {
    let mut classes: Vec<(bool, Vec<LabelSeq>, Vec<Pair>)> = Vec::new();
    let mut by_invariant: HashMap<(bool, Vec<LabelSeq>), usize> = HashMap::new();
    for v in g.vertices() {
        for u in g.vertices() {
            let mut seqs = label_seqs_between(g, v, u, k);
            if let Some(lq) = lq {
                seqs.retain(|s| s.len() == 1 || lq.contains(s));
            }
            if seqs.is_empty() {
                continue;
            }
            let p = Pair::new(v, u);
            let next = classes.len();
            let c = *by_invariant.entry((p.is_loop(), seqs.clone())).or_insert(next);
            if c == next {
                classes.push((p.is_loop(), seqs, Vec::new()));
            }
            classes[c].2.push(p);
        }
    }
    classes
}

/// Checks the full partition of `g` at `k` against the oracle, class by
/// class.
fn check(g: &Graph, k: usize) {
    check_with(g, k, None);
}

/// Checks the partition of `g` at `k` over the interests `lq` (the full one
/// without) against the oracle, class by class, and the index built from
/// it with `validate`.
fn check_with(g: &Graph, k: usize, lq: Option<&BTreeSet<LabelSeq>>) {
    let p = RefinementBase::new(g).partition(k, lq);
    let expected = oracle(g, k, lq);
    assert_eq!(p.class_count(), expected.len(), "class count at k = {k}");
    // Rows equal to the oracle's, and as many pairs: no pair whose set is
    // empty is indexed.
    assert_eq!(p.pair_count(), expected.iter().map(|e| e.2.len()).sum::<usize>());
    for (c, (is_loop, seqs, pairs)) in (0..).zip(&expected) {
        let row = p.row(c as ClassId);
        assert!(row.windows(2).all(|w| w[0] < w[1]), "row of class {c} unsorted");
        assert_eq!(row, &pairs[..], "pairs of class {c} at k = {k}");
        assert_eq!(p.class_loop[c], *is_loop, "loop flag of class {c}");
        assert!(p.class_seqs(c as ClassId).eq(seqs.iter().copied()), "sequences of class {c}");
    }
    CpqxIndex::from_partition(k, lq.cloned(), p).validate(g).expect("the index validates");
}

/// A random interest set at `k`: every `every`-th sequence the pairs
/// `spelled` picks spell — any length up to k, so a long interest's
/// prefixes are mostly no interests — and the sequences of `random`, up
/// to k labels each over the extended alphabet, which the graph mostly
/// does not spell.
fn interests(
    g: &Graph,
    k: usize,
    spelled: &[(u32, u32)],
    every: usize,
    random: &[Vec<u16>],
) -> BTreeSet<LabelSeq> {
    let n = g.vertex_count();
    let mut lq: Vec<LabelSeq> = spelled
        .iter()
        .flat_map(|&(v, u)| label_seqs_between(g, v % n, u % n, k))
        .step_by(every)
        .collect();
    lq.extend(random.iter().filter(|labels| !labels.is_empty()).map(|labels| {
        let labels: Vec<ExtLabel> =
            labels.iter().take(k).map(|&l| ExtLabel(l % g.ext_label_count())).collect();
        LabelSeq::from_slice(&labels)
    }));
    normalize_interests(lq, k)
}

/// A graph over `n` connected vertices plus two isolated ones — one in
/// the middle of the id range, one at its end — with `labels` base labels,
/// the given edges (endpoints taken modulo `n`, labels modulo `labels`) and
/// a self-loop at each of `loops`.
fn graph(n: u32, labels: u16, edges: &[(u32, u32, u16)], loops: &[(u32, u16)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n + 2);
    b.ensure_labels(labels);
    // Vertex n / 2 is skipped: no edge reaches it.
    let vertex = |x: u32| {
        let x = x % n;
        if x >= n / 2 {
            x + 1
        } else {
            x
        }
    };
    for &(v, u, l) in edges {
        b.add_edge(vertex(v), vertex(u), Label(l % labels));
    }
    for &(v, l) in loops {
        b.add_edge(vertex(v), vertex(v), Label(l % labels));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_partition_equals_the_brute_force_grouping(
        n in 2u32..12,
        labels in 2u16..41,
        k in 1usize..5,
        edges in prop::collection::vec((0u32..64, 0u32..64, 0u16..64), 0..28),
        loops in prop::collection::vec((0u32..64, 0u16..64), 0..4),
    ) {
        let g = graph(n, labels, &edges, &loops);
        prop_assert_eq!(g.ext_label_count(), 2 * labels);
        check(&g, k);
    }

    #[test]
    fn the_interest_aware_partition_equals_the_brute_force_grouping(
        n in 2u32..12,
        labels in 2u16..9,
        k in 1usize..5,
        edges in prop::collection::vec((0u32..64, 0u32..64, 0u16..64), 0..28),
        loops in prop::collection::vec((0u32..64, 0u16..64), 0..4),
        drawn in (
            prop::collection::vec((0u32..64, 0u32..64), 0..6),
            1usize..4,
            prop::collection::vec(prop::collection::vec(0u16..64, 0..5), 0..6),
        ),
    ) {
        let g = graph(n, labels, &edges, &loops);
        let (spelled, every, random) = drawn;
        let lq = interests(&g, k, &spelled, every, &random);
        check_with(&g, k, Some(&lq));
    }
}

/// Interest sets whose long interests' prefixes are no interests: at
/// k = 3 and 4, the lower levels hold prefix-only keys, and pairs that
/// spell only such prefixes must not be indexed — and interests with an
/// empty relation, over a label no edge carries.
#[test]
fn prefix_only_keys_and_empty_interests() {
    let mut b = GraphBuilder::new();
    for (v, u, l) in [("a", "b", "f"), ("b", "c", "g"), ("c", "d", "h"), ("d", "e", "f")] {
        b.add_edge_named(v, u, l);
    }
    b.add_edge_named("x", "b", "f");
    b.add_edge_named("b", "y", "g");
    b.ensure_labels(4);
    let g = b.build();
    let seq = |names: &[&str]| {
        let labels: Vec<ExtLabel> =
            names.iter().map(|&name| g.label_named(name).unwrap().fwd()).collect();
        LabelSeq::from_slice(&labels)
    };
    let unused = Label(3).fwd();
    for k in 3..=4 {
        let lq: BTreeSet<LabelSeq> = [seq(&["f", "g", "h"]), seq(&["g", "h", "f"])]
            .into_iter()
            .chain([LabelSeq::from_slice(&[unused, unused]), seq(&["h", "g"])])
            .collect();
        check_with(&g, k, Some(&lq));
        let p = RefinementBase::new(&g).partition(k, Some(&lq));
        // (x, y) spells `fg`, a prefix only; it has no edge, so no class.
        let (x, y) = (g.vertex_named("x").unwrap(), g.vertex_named("y").unwrap());
        let indexed = (0..p.class_count() as ClassId).any(|c| p.row(c).contains(&Pair::new(x, y)));
        assert!(!indexed, "a pair spelling only a prefix is indexed at k = {k}");
    }
}

/// The radix of a length-2 key below, at and above 16 and 64 extended
/// labels, on one graph shape, at every k up to 4.
#[test]
fn radix_boundaries_at_every_k() {
    for labels in [7u16, 8, 9, 31, 32, 33, 40] {
        let edges: Vec<(u32, u32, u16)> =
            (0..30u32).map(|i| (i * 7 % 11, i * 5 % 11, (i * 13 % 41) as u16)).collect();
        let g = graph(11, labels, &edges, &[(3, 1), (6, 2)]);
        for k in 1..=4 {
            check(&g, k);
        }
    }
}

/// Two pairs whose length-2 paths run through different level-1 sets —
/// `(v, u)` through one middle vertex joined to `u` by `{g, h}`, `(x, y)`
/// through two, one joined by `{g}` and one by `{h}` — spell the same
/// `L≤2 = {fg, fh}`. A build that grouped pairs by the level-1 blocks their
/// paths pass through would split them; they share a class.
#[test]
fn equal_sequence_sets_through_different_blocks_share_a_class() {
    let mut b = GraphBuilder::new();
    b.add_edge_named("v", "m", "f");
    b.add_edge_named("m", "u", "g");
    b.add_edge_named("m", "u", "h");
    b.add_edge_named("x", "m1", "f");
    b.add_edge_named("x", "m2", "f");
    b.add_edge_named("m1", "y", "g");
    b.add_edge_named("m2", "y", "h");
    let (vu, xy) =
        (Pair::new(b.vertex("v"), b.vertex("u")), Pair::new(b.vertex("x"), b.vertex("y")));
    let g = b.build();
    for k in 1..=4 {
        check(&g, k);
    }
    let p = cpq_path_partition(&g, 2);
    let class_of = |pair| (0..p.class_count() as ClassId).find(|&c| p.row(c).contains(&pair));
    assert!(class_of(vu).is_some());
    assert_eq!(class_of(vu), class_of(xy));
}

/// fig12's largest alphabet: 1024 extended labels, where a length-2 key
/// reaches 1024² and a length-3 key 1024 times the length-2 sequences met.
#[test]
fn the_largest_alphabet_builds_like_the_oracle() {
    let g = generate::random_graph(&generate::RandomGraphConfig::social(24, 60, 512, 5));
    assert_eq!(g.ext_label_count(), 1024);
    check(&g, 2);
    check(&g, 3);
    let lq = interests(&g, 3, &[(0, 5), (3, 9), (7, 1)], 2, &[vec![0, 1, 2], vec![1023, 4]]);
    check_with(&g, 3, Some(&lq));
}
