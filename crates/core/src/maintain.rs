//! Lazy index maintenance under graph and interest updates (Secs. IV-E and
//! V-C).
//!
//! The update procedures keep query results correct without recomputing the
//! partition: affected pairs are detached from their classes and regrouped
//! into *fresh* classes; existing classes are never merged, even if their
//! pairs become equivalent again (Prop. 4.2 — correctness only needs every
//! class to be homogeneous in `(cyclicity, L≤k ∩ indexed-sequences)`, never
//! maximal). The index therefore fragments over time; Table VII measures
//! exactly this, and `rebuild` restores the minimal partition.
//!
//! Deviation noted in DESIGN.md: pairs receiving the *same* new signature
//! within one update call share one fresh class (the paper creates
//! singletons); this is strictly less fragmentation with an unchanged
//! correctness argument.

use crate::bisim::{ClassId, SeqId};
use crate::index::CpqxIndex;
use crate::interest::seq_pairs;
use crate::paths::{affected_pairs, label_seqs_between};
use cpqx_graph::{Graph, Label, LabelSeq, Pair, VertexId};
use std::collections::HashMap;

impl CpqxIndex {
    /// Deletes the base edge `(v, u, ℓ)` from the graph and updates the
    /// index lazily. Returns `false` if the edge did not exist (no change).
    pub fn delete_edge(&mut self, g: &mut Graph, v: VertexId, u: VertexId, l: Label) -> bool {
        if !g.remove_edge(v, u, l) {
            return false;
        }
        self.refresh_pairs(g, affected_pairs(g, v, u, self.k));
        true
    }

    /// Inserts the base edge `(v, u, ℓ)` into the graph and updates the
    /// index lazily. Returns `false` if the edge already existed.
    pub fn insert_edge(&mut self, g: &mut Graph, v: VertexId, u: VertexId, l: Label) -> bool {
        if !g.insert_edge(v, u, l) {
            return false;
        }
        self.refresh_pairs(g, affected_pairs(g, v, u, self.k));
        true
    }

    /// Relabels an edge: deletion followed by insertion (the paper handles
    /// label changes "by combinations of edge deletion and insertion").
    pub fn change_edge_label(
        &mut self,
        g: &mut Graph,
        v: VertexId,
        u: VertexId,
        from: Label,
        to: Label,
    ) -> bool {
        if !self.delete_edge(g, v, u, from) {
            return false;
        }
        self.insert_edge(g, v, u, to);
        true
    }

    /// Adds an isolated vertex (no index change — it participates in no
    /// non-trivial path).
    pub fn add_vertex(&mut self, g: &mut Graph, name: impl Into<String>) -> VertexId {
        g.add_vertex(name)
    }

    /// Deletes a vertex by removing all incident edges one at a time, per
    /// the paper's vertex-deletion procedure. The id stays allocated but
    /// isolated.
    pub fn delete_vertex(&mut self, g: &mut Graph, v: VertexId) {
        let incident: Vec<(VertexId, VertexId, Label)> = g
            .adjacency(v)
            .iter()
            .map(|&(el, t)| {
                let el = cpqx_graph::ExtLabel(el);
                if el.is_inverse() {
                    (t, v, el.base())
                } else {
                    (v, t, el.base())
                }
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for (a, b, l) in incident {
            if seen.insert((a, b, l)) {
                self.delete_edge(g, a, b, l);
            }
        }
    }

    /// iaCPQx only: registers a new interest sequence and indexes its pairs
    /// (Sec. V-C, label sequence insertion). Length-1 sequences are always
    /// indexed and need no registration. Returns `false` if it was already
    /// an interest (or the index is not interest-aware / the sequence is
    /// longer than `k`).
    ///
    /// Pairs whose class does not carry `seq` are regrouped into fresh
    /// classes that do. A sequence registered again after
    /// [`CpqxIndex::delete_interest`] finds its retained `Il2c` entry still
    /// listing the classes that carry it: their pairs are unchanged for the
    /// refresh, and the entry is a lookup key again the moment `seq` is an
    /// interest.
    pub fn insert_interest(&mut self, g: &Graph, seq: LabelSeq) -> bool {
        if seq.len() <= 1 || seq.len() > self.k {
            return false;
        }
        let Some(interests) = self.interests.as_mut() else {
            return false;
        };
        if !interests.insert(seq) {
            return false;
        }
        self.refresh_pairs(g, seq_pairs(g, &seq));
        true
    }

    /// iaCPQx only: drops an interest sequence — "we can just delete the
    /// deleted label sequence from Il2c" (Sec. V-C). Classes are *not*
    /// merged; queries remain correct because the sequence is no longer a
    /// lookup key.
    ///
    /// The sequence's `Il2c` entry stays, as a *retained* entry that no
    /// lookup serves (the sequence is no longer indexed): `Il2c` is the
    /// only record of which sequences a class carries, and a class's set
    /// never changes after the class is created. The classes that carried
    /// the sequence therefore still carry it — in `save` output and after
    /// a reload too — `validate` compares class sets restricted to what
    /// is indexed now, and a later refresh of one of their pairs sees the
    /// stale sequence as a change and regroups the pair into a fresh class
    /// whose set is current. Re-registering the interest finds the
    /// classes still listed (see `insert_interest`). Cost: a set removal.
    pub fn delete_interest(&mut self, seq: &LabelSeq) -> bool {
        if seq.len() <= 1 {
            return false;
        }
        self.interests.as_mut().is_some_and(|interests| interests.remove(seq))
    }

    /// Rebuilds the index from scratch (defragmentation), preserving the
    /// mode and parameters.
    pub fn rebuild(&mut self, g: &Graph) {
        let fresh = match &self.interests {
            None => CpqxIndex::build(g, self.k),
            Some(lq) => CpqxIndex::build_interest_aware(g, self.k, lq.iter().copied()),
        };
        *self = fresh;
    }

    /// The indexed label-sequence set of a pair on the *current* graph:
    /// `L≤k(src,dst)` filtered to sequences one LOOKUP can answer.
    pub(crate) fn indexed_seqs_of(&self, g: &Graph, p: Pair) -> Vec<LabelSeq> {
        let all = label_seqs_between(g, p.src(), p.dst(), self.k);
        match &self.interests {
            None => all,
            Some(lq) => all.into_iter().filter(|s| s.len() == 1 || lq.contains(s)).collect(),
        }
    }

    /// Core lazy-update step: recompute the indexed sequence set of each
    /// candidate pair; detach pairs whose set changed and regroup them into
    /// fresh classes keyed by `(is-loop, new set)`. A pair stays in place
    /// iff its class's set has as many sequences as the new set and every
    /// new sequence's `Il2c` entry lists the class (one binary search
    /// each) — sizes first, so most changed pairs cost one comparison.
    /// New sets are keyed as dictionary-id lists in sequence order; a pair
    /// whose set holds a never-seen sequence has changed, and only such a
    /// pair copies the dictionary (to register it).
    ///
    /// This is the pair → class map's only reader on the write path: every
    /// edge, vertex and interest update goes through here, and the first
    /// one on an index without the map builds it
    /// ([`CpqxIndex::build_pair_map`]). Writes run on a clone of the
    /// served index, so the map lands in that clone and its descendants,
    /// never in the snapshot it was cloned from.
    ///
    /// All mutation goes through the index's chunk-local copy-on-write
    /// primitives (`edit_rows`, `push_class`, `p2c_insert`/`p2c_remove`),
    /// so an update copies only the class chunks, p2c shards and posting
    /// lists it actually touches — unchanged candidates (the
    /// common case for over-approximated affected sets) copy nothing. The
    /// pair → class map moves with each decision (a candidate listed twice
    /// is then unchanged the second time); the class rows are edited once,
    /// at the end, chunk by chunk.
    fn refresh_pairs(&mut self, g: &Graph, candidates: Vec<Pair>) {
        self.build_pair_map();
        let mut groups: HashMap<(bool, Vec<SeqId>), ClassId> = HashMap::new();
        let (mut detached, mut attached) = (Vec::new(), Vec::new());
        let mut ids: Vec<SeqId> = Vec::new();
        for pair in candidates {
            let new_seqs = self.indexed_seqs_of(g, pair);
            // The new set's ids, or `false` if one of its sequences has
            // none yet (then no class carries the set).
            ids.clear();
            let known = new_seqs.iter().all(|s| self.seqs.get(s).map(|id| ids.push(id)).is_some());
            let old = self.class_of(pair);
            if let Some(c) = old {
                if known && self.class_carries_exactly(c, &ids) {
                    continue; // unchanged — e.g. an alternative path exists
                }
                // Detach from the old class (it may become a tombstone).
                detached.push((c, pair));
                self.p2c_remove(pair);
                self.frag.refreshed_pairs += 1;
            } else if new_seqs.is_empty() {
                continue;
            }
            if new_seqs.is_empty() {
                continue; // pair left P≤k entirely
            }
            if !known {
                ids.clear();
                ids.extend(new_seqs.iter().map(|&s| self.seq_id_or_insert(s)));
            }
            let key = (pair.is_loop(), ids.clone());
            let c = match groups.get(&key) {
                Some(&c) => c,
                None => {
                    let c = self.push_class(key.0, &key.1);
                    self.frag.fresh_classes += 1;
                    groups.insert(key, c);
                    c
                }
            };
            attached.push((c, pair));
            self.p2c_insert(pair, c);
        }
        self.edit_rows(detached, attached);
        // Re-baseline an index built from an empty graph on its first
        // growth: a zero baseline carries no fragmentation signal, and
        // measuring the first real classes against it would read as
        // instant maximal fragmentation (and could thrash a serving
        // layer's auto-rebuild threshold).
        if self.frag.baseline_classes == 0 && self.class_slots() > 0 {
            self.frag.baseline_classes = self.class_slots();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use std::sync::Arc;

    #[test]
    fn affected_pairs_cover_edge_endpoints() {
        let g = generate::gex();
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        let aff = affected_pairs(&g, sue, joe, 2);
        assert!(aff.contains(&Pair::new(sue, joe)));
        assert!(aff.contains(&Pair::new(joe, sue)));
        assert!(aff.contains(&Pair::new(sue, sue)));
    }

    fn saved(idx: &CpqxIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        bytes
    }

    /// The dictionary is copy-on-write: a clone that meets a never-seen
    /// sequence registers it under a fresh id in its own copy and leaves
    /// the original untouched; a write that meets only known sequences
    /// keeps sharing it.
    #[test]
    fn a_new_sequence_copies_the_dictionary_and_nothing_else_does() {
        // a -f-> b and c -v-> d: no sequence runs from f into v yet.
        let mut b = cpqx_graph::GraphBuilder::new();
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("c", "d", "v");
        let mut g = b.build();
        let (f, v) = (g.label_named("f").unwrap(), g.label_named("v").unwrap());
        let (a, vb, vc) = (0, 1, 2);
        let fv = LabelSeq::from_slice(&[f.fwd(), v.fwd()]);
        let original = CpqxIndex::build(&g, 2);
        let (bytes, stats) = (saved(&original), original.stats());
        assert_eq!(original.seqs.get(&fv), None);

        let mut grown = original.clone();
        let mut grown_g = g.clone();
        assert!(grown.insert_edge(&mut grown_g, vb, vc, v));
        assert_eq!(grown.seqs.get(&fv), Some(original.seqs.len() as SeqId), "a fresh id");
        assert!(!Arc::ptr_eq(&grown.seqs, &original.seqs));
        assert!(!grown.lookup(&fv).is_empty());
        assert_eq!(grown.validate(&grown_g), Ok(()));

        assert_eq!(original.seqs.get(&fv), None);
        assert!(original.lookup(&fv).is_empty());
        assert_eq!(original.stats(), stats);
        assert_eq!(saved(&original), bytes);
        assert_eq!(original.validate(&g), Ok(()));

        // Deleting an edge and inserting it back meet no new sequence.
        let mut churned = original.clone();
        assert!(churned.delete_edge(&mut g, a, vb, f));
        assert_eq!(churned.validate(&g), Ok(()));
        assert!(churned.insert_edge(&mut g, a, vb, f));
        assert_eq!(churned.validate(&g), Ok(()));
        assert!(Arc::ptr_eq(&churned.seqs, &original.seqs), "the dictionary was copied");
    }
}
