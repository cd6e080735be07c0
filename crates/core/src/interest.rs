//! Interest sets of the iaCPQx index (Sec. V), and one sequence's pairs.
//!
//! Given a set of interest label sequences `Lq ⊆ L≤k` (always containing
//! every length-1 sequence, per the paper), two pairs are equivalent iff
//! they have the same cyclicity and the same `L≤k(v,u) ∩ Lq` (Def. 5.1).
//! This is strictly coarser than k-path-bisimulation (`≈k` refines `≈i`),
//! giving a smaller, faster-to-build index that still evaluates arbitrary
//! CPQs: the planner splits non-interest sequences into indexed pieces.
//! [`crate::RefinementBase::partition`] builds that partition, given the
//! set [`normalize_interests`] returns.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::{ClassId, Partition};
    use crate::RefinementBase;
    use cpqx_graph::generate;
    use cpqx_graph::{ExtLabel, Label};

    fn l(i: u16) -> ExtLabel {
        Label(i).fwd()
    }

    /// The interest-aware partition of `g` over `interests` (normalized).
    fn interest_partition(g: &Graph, k: usize, interests: &BTreeSet<LabelSeq>) -> Partition {
        RefinementBase::new(g).partition(k, Some(interests))
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
        // Every edge-connected pair appears exactly once, each row sorted.
        let mut seen = std::collections::HashSet::new();
        for c in 0..p.class_count() as ClassId {
            let row = p.row(c);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row of class {c} unsorted");
            for &pair in row {
                assert!(seen.insert(pair), "pair {pair:?} appears twice");
            }
        }
        assert_eq!(seen.len(), p.pair_count());
        // Classes are numbered by first occurrence along the pair list.
        let firsts: Vec<Pair> = (0..p.class_count() as ClassId).map(|c| p.row(c)[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
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
        let members =
            (0..p.class_count() as ClassId).flat_map(|c| p.row(c).iter().map(move |&q| (q, c)));
        for (pair, c) in members {
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
