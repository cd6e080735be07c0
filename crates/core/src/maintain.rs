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

use crate::bisim::ClassId;
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
        let pairs = seq_pairs(g, &seq);
        self.refresh_pairs(g, pairs.clone());
        // Re-registration: pairs whose class already carried `seq` (a
        // previously deleted interest leaves the class metadata in place)
        // are "unchanged" for the refresh, but their classes must still
        // appear under the re-added Il2c key. Class homogeneity makes this
        // sound: if one member matches `seq`, the whole class does.
        let mut classes: Vec<(ClassId, bool)> = pairs
            .iter()
            .filter_map(|&p| self.class_of(p))
            .map(|c| (c, self.class_is_loop(c)))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let posting = std::sync::Arc::make_mut(self.il2c.entry(seq).or_default());
        for (c, is_loop) in classes {
            posting.insert(c, is_loop);
        }
        true
    }

    /// iaCPQx only: drops an interest sequence — "we can just delete the
    /// deleted label sequence from Il2c" (Sec. V-C). Classes are *not*
    /// merged; queries remain correct because the sequence is no longer a
    /// lookup key.
    pub fn delete_interest(&mut self, seq: &LabelSeq) -> bool {
        if seq.len() <= 1 {
            return false;
        }
        let Some(interests) = self.interests.as_mut() else {
            return false;
        };
        if !interests.remove(seq) {
            return false;
        }
        self.il2c.remove(seq);
        // Strip the sequence from class metadata so later refreshes do not
        // see a phantom difference (cheap: postings already told us which
        // classes carry it — but they were just dropped, so scan lazily on
        // demand instead; class_seqs keeps the stale entry and refresh
        // comparisons intersect against the *current* interest set).
        true
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
    /// fresh classes keyed by `(is-loop, new set)`.
    ///
    /// All mutation goes through the index's chunk-local copy-on-write
    /// primitives (`edit_rows`, `push_class`, `p2c_insert`/`p2c_remove`,
    /// `il2c_push`), so an update copies only the class chunks, p2c shards
    /// and posting lists it actually touches — unchanged candidates (the
    /// common case for over-approximated affected sets) copy nothing. The
    /// pair → class map moves with each decision (a candidate listed twice
    /// is then unchanged the second time); the class rows are edited once,
    /// at the end, chunk by chunk.
    fn refresh_pairs(&mut self, g: &Graph, candidates: Vec<Pair>) {
        let mut groups: HashMap<(bool, Vec<LabelSeq>), ClassId> = HashMap::new();
        let (mut detached, mut attached) = (Vec::new(), Vec::new());
        for pair in candidates {
            let new_seqs = self.indexed_seqs_of(g, pair);
            let old = self.class_of(pair);
            if let Some(c) = old {
                if self.class_sequences(c) == new_seqs.as_slice() {
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
            let key = (pair.is_loop(), new_seqs);
            let c = match groups.get(&key) {
                Some(&c) => c,
                None => {
                    let c = self.push_class(key.0, &key.1);
                    self.frag.fresh_classes += 1;
                    // Fresh ids exceed all existing ones, so appending keeps
                    // every posting list sorted.
                    for s in &key.1 {
                        self.il2c_push(*s, c, key.0);
                    }
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

    #[test]
    fn affected_pairs_cover_edge_endpoints() {
        let g = generate::gex();
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        let aff = affected_pairs(&g, sue, joe, 2);
        assert!(aff.contains(&Pair::new(sue, joe)));
        assert!(aff.contains(&Pair::new(joe, sue)));
        assert!(aff.contains(&Pair::new(sue, sue)));
    }
}
