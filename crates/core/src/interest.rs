//! Interest-aware path-equivalence — the iaCPQx partition (Sec. V).
//!
//! Given a set of interest label sequences `Lq ⊆ L≤k` (always containing
//! every length-1 sequence, per the paper), two pairs are equivalent iff
//! they have the same cyclicity and the same `L≤k(v,u) ∩ Lq` (Def. 5.1).
//! This is strictly coarser than k-path-bisimulation (`≈k` refines `≈i`),
//! giving a smaller, faster-to-build index that still evaluates arbitrary
//! CPQs: the planner splits non-interest sequences into indexed pieces.

use crate::bisim::{ClassId, ClassTable, Partition, SeqId};
use cpqx_graph::{Graph, LabelSeq, Pair};
use cpqx_query::ops;
use std::collections::BTreeSet;

/// Normalizes a user-supplied interest set for an index with parameter `k`:
/// sequences longer than `k` are split into prefix chunks of length `k`
/// plus the remainder (the paper's rule for workload-derived interests),
/// duplicates collapse, empty sequences are dropped. Length-1 sequences
/// need not be listed — construction always indexes them.
pub fn normalize_interests(
    seqs: impl IntoIterator<Item = LabelSeq>,
    k: usize,
) -> BTreeSet<LabelSeq> {
    let mut out = BTreeSet::new();
    for seq in seqs {
        let mut rest = seq;
        while rest.len() > k {
            out.insert(rest.prefix(k));
            rest = rest.suffix(k);
        }
        if !rest.is_empty() {
            out.insert(rest);
        }
    }
    out
}

/// Evaluates the pair relation `⟦seq⟧` by repeated adjacency expansion.
pub fn seq_pairs(g: &Graph, seq: &LabelSeq) -> Vec<Pair> {
    assert!(!seq.is_empty());
    let mut pairs = g.edge_pairs(seq.get(0)).to_vec();
    for i in 1..seq.len() {
        if pairs.is_empty() {
            break;
        }
        pairs = ops::expand_adjacency(g, &pairs, seq.get(i));
    }
    pairs
}

/// The full indexed sequence list of an interest-aware index over `g`:
/// every length-1 sequence with a non-empty relation, then the (already
/// normalized) interests of length ≥ 2 — sorted and deduplicated: the
/// dictionary of the partition [`interest_partition`] computes.
fn indexed_interest_seqs(g: &Graph, k: usize, interests: &BTreeSet<LabelSeq>) -> Vec<LabelSeq> {
    let mut seqs: Vec<LabelSeq> = g
        .ext_labels()
        .map(LabelSeq::single)
        .filter(|s| !g.edge_pairs(s.get(0)).is_empty())
        .collect();
    for s in interests {
        assert!(s.len() <= k, "interest longer than k — call normalize_interests first");
        if s.len() > 1 {
            seqs.push(*s);
        }
    }
    seqs.sort_unstable();
    seqs.dedup();
    seqs
}

/// Computes the interest-aware partition: pairs with a non-empty
/// `L≤k ∩ Lq` grouped by `(is-loop, that intersection)`.
///
/// `interests` must already be normalized (all lengths in `1..=k`); all
/// length-1 sequences over the graph's extended alphabet are added
/// implicitly.
pub fn interest_partition(g: &Graph, k: usize, interests: &BTreeSet<LabelSeq>) -> Partition {
    assert!((1..=cpqx_graph::MAX_SEQ_LEN).contains(&k));
    let seqs = indexed_interest_seqs(g, k, interests);

    // (pair, seq-id) for every pair matched by an indexed sequence.
    let mut hits: Vec<(Pair, u32)> = Vec::new();
    for (sid, seq) in seqs.iter().enumerate() {
        for p in seq_pairs(g, seq) {
            hits.push((p, sid as u32));
        }
    }
    hits.sort_unstable();
    hits.dedup();

    // Each pair's run of hits is its seq-id set — positions in the sorted
    // `seqs`, so sequence order — and `seqs` is the partition's dictionary:
    // intern `(is-loop, that set)` as the run ends.
    let mut classes = ClassTable::default();
    let mut pair_classes: Vec<(Pair, ClassId)> = Vec::new();
    let mut ids: Vec<SeqId> = Vec::new();
    for of_pair in hits.chunk_by(|a, b| a.0 == b.0) {
        let p = of_pair[0].0;
        ids.clear();
        ids.extend(of_pair.iter().map(|&(_, sid)| sid));
        pair_classes.push((p, classes.class_of(p.is_loop(), &ids)));
    }
    classes.into_partition(pair_classes, seqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use cpqx_graph::{ExtLabel, Label};

    fn l(i: u16) -> ExtLabel {
        Label(i).fwd()
    }

    #[test]
    fn normalize_splits_long_sequences() {
        let long = LabelSeq::from_slice(&[l(0), l(1), l(2), l(3), l(4)]);
        let set = normalize_interests([long], 2);
        // 5 = 2 + 2 + 1.
        assert!(set.contains(&LabelSeq::from_slice(&[l(0), l(1)])));
        assert!(set.contains(&LabelSeq::from_slice(&[l(2), l(3)])));
        assert!(set.contains(&LabelSeq::single(l(4))));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn seq_pairs_matches_reference() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap();
        let v = g.label_named("v").unwrap();
        let seq = LabelSeq::from_slice(&[f.fwd(), v.fwd()]);
        let q = cpqx_query::Cpq::label(f).join(cpqx_query::Cpq::label(v));
        assert_eq!(seq_pairs(&g, &seq), cpqx_query::eval::eval_reference(&g, &q));
    }

    #[test]
    fn partition_is_disjoint_and_total_over_matches() {
        let g = generate::gex();
        let interests = normalize_interests(
            [LabelSeq::from_slice(&[l(0), l(0)])], // ff
            2,
        );
        let p = interest_partition(&g, 2, &interests);
        // Every edge-connected pair appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for &(pair, _) in &p.pair_classes {
            assert!(seen.insert(pair), "pair {pair:?} appears twice");
        }
        for el in g.ext_labels() {
            for pr in g.edge_pairs(el) {
                assert!(seen.contains(&pr), "edge pair {pr:?} missing");
            }
        }
    }

    #[test]
    fn class_members_share_seq_sets() {
        let g = generate::random_graph(&generate::RandomGraphConfig::social(60, 240, 3, 5));
        let interests = normalize_interests(
            [LabelSeq::from_slice(&[l(0), l(1)]), LabelSeq::from_slice(&[l(1), l(2)])],
            2,
        );
        let p = interest_partition(&g, 2, &interests);
        // Recompute each pair's interest intersection from scratch and check
        // it matches its class label set.
        for &(pair, c) in &p.pair_classes {
            let mut expected: Vec<LabelSeq> = Vec::new();
            for el in g.ext_labels() {
                let s = LabelSeq::single(el);
                if seq_pairs(&g, &s).binary_search(&pair).is_ok() {
                    expected.push(s);
                }
            }
            for s in &interests {
                if seq_pairs(&g, s).binary_search(&pair).is_ok() {
                    expected.push(*s);
                }
            }
            expected.sort_unstable();
            assert!(p.class_seqs(c).eq(expected), "pair {pair:?}");
            assert_eq!(p.class_loop[c as usize], pair.is_loop());
        }
    }
}
