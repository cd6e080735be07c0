//! Lazy index maintenance under graph and interest updates (Secs. IV-E and
//! V-C).
//!
//! Every update is a transaction: [`apply_ops`] validates a list of
//! [`DeltaOp`]s against the graph, applies them to the graph in order, and
//! refreshes the index once. The per-op methods of [`CpqxIndex`]
//! (`insert_edge`, `delete_vertex`, `insert_interest`, …) are one-op
//! transactions.
//!
//! The refresh keeps query results correct without recomputing the
//! partition: affected pairs are detached from their classes and regrouped
//! into *fresh* classes; existing classes are never merged, even if their
//! pairs become equivalent again (Prop. 4.2 — correctness only needs every
//! class to be homogeneous in `(cyclicity, L≤k ∩ indexed-sequences)`, never
//! maximal). The index therefore fragments over time; Table VII measures
//! exactly this, and `rebuild` restores the minimal partition.
//!
//! Each op gathers its *candidates* — the pairs whose `L≤k` it may change —
//! on the graph as that op leaves it, and the one refresh re-reads their
//! union against the final graph and interests. Gathering them after all
//! edits instead would be unsound: deleting a→v and v→b in one transaction
//! leaves a and b far from v in the final graph, so `(a, b)` would never be
//! refreshed. Per op it is sound: if a pair's set differs between the first
//! and the last graph, some op changed it, and that op's candidates contain
//! the pair.
//!
//! An interest deletion ends a run: the ops before it are refreshed
//! against the interests they ran under, and a transaction without one
//! refreshes exactly once. A retained sequence (see
//! [`CpqxIndex::delete_interest`]) reads as stale to a refresh, so
//! refreshing the earlier ops' candidates after the deletion would detach
//! pairs they left unchanged. Split this way, every pair ends in a class
//! whose set is the one the same ops applied one at a time would give it,
//! and a transaction never creates more classes than its ops would one by
//! one.
//!
//! Deviation from the paper: pairs receiving the *same* new signature within
//! one transaction share one fresh class (the paper creates singletons),
//! and a pair whose set changes and changes back within one transaction is
//! not detached at all; this is strictly less fragmentation with an
//! unchanged correctness argument.

use crate::bisim::{ClassId, SeqId};
use crate::index::CpqxIndex;
use crate::interest::seq_pairs;
use crate::intern::{id_words, SigInterner};
use crate::paths::{affected_pairs, label_seqs_between};
use cpqx_graph::{Graph, Label, LabelSeq, Pair, VertexId};

/// One typed maintenance operation of a transaction ([`apply_ops`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert the base edge `(src, dst, label)`.
    InsertEdge {
        /// Source vertex.
        src: VertexId,
        /// Target vertex.
        dst: VertexId,
        /// Base edge label.
        label: Label,
    },
    /// Delete the base edge `(src, dst, label)`.
    DeleteEdge {
        /// Source vertex.
        src: VertexId,
        /// Target vertex.
        dst: VertexId,
        /// Base edge label.
        label: Label,
    },
    /// Relabel the base edge `(src, dst, from)` to `to` (the paper
    /// handles label changes as delete + insert; the index does both
    /// lazily in one op).
    ChangeEdgeLabel {
        /// Source vertex.
        src: VertexId,
        /// Target vertex.
        dst: VertexId,
        /// Current label of the edge.
        from: Label,
        /// New label of the edge.
        to: Label,
    },
    /// Add an isolated vertex. The assigned id is reported back as
    /// [`OpOutcome::VertexAdded`], and later ops *of the same transaction*
    /// may already reference it.
    AddVertex {
        /// Display name of the new vertex.
        name: String,
    },
    /// Delete a vertex by removing all incident edges (the id stays
    /// allocated but isolated, per the paper's vertex-deletion
    /// procedure). A no-op for already-isolated vertices.
    DeleteVertex {
        /// The vertex to isolate.
        vertex: VertexId,
    },
    /// iaCPQx only: register an interest sequence and index its pairs
    /// (Sec. V-C). A no-op on full CPQx indexes, for length-1 sequences
    /// (always indexed), and for already-registered interests.
    InsertInterest {
        /// The label sequence to register.
        seq: LabelSeq,
    },
    /// iaCPQx only: drop an interest sequence from `Il2c` (Sec. V-C). A
    /// no-op when it was not registered.
    DeleteInterest {
        /// The label sequence to drop.
        seq: LabelSeq,
    },
}

/// What one op of an applied transaction did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// The op changed the graph/index.
    Applied,
    /// The op was valid but changed nothing (duplicate insert, missing
    /// edge, unregistered interest, isolated vertex, …).
    Noop,
    /// An [`DeltaOp::AddVertex`] op allocated this vertex id.
    VertexAdded(VertexId),
}

impl OpOutcome {
    /// Whether this outcome mutated the state.
    pub fn changed(&self) -> bool {
        !matches!(self, OpOutcome::Noop)
    }
}

/// Why a transaction was rejected. Nothing was applied: the graph and
/// the index are exactly as before the call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError {
    /// Index of the offending op within the transaction.
    pub op_index: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta op {} rejected: {}", self.op_index, self.reason)
    }
}

impl std::error::Error for DeltaError {}

/// Applies `ops` to `g` and `idx` as one transaction (see the module
/// docs): the whole list is validated first, then the ops apply to the
/// graph in order, each gathering its candidates, and the index is
/// refreshed once — once per run, when interest deletions split the list.
/// An `AddVertex` op raises the vertex bound for later ops of the list,
/// so an edge op may name a vertex an earlier op created.
///
/// On error nothing is mutated. Checking the list up front is the same
/// as checking op by op, because vertex ids and labels only grow.
pub fn apply_ops(
    g: &mut Graph,
    idx: &mut CpqxIndex,
    ops: &[DeltaOp],
) -> Result<Vec<OpOutcome>, DeltaError> {
    check_ops(g, ops)?;
    let mut outcomes = Vec::with_capacity(ops.len());
    for run in ops.chunk_by(|_, next| !matches!(next, DeltaOp::DeleteInterest { .. })) {
        let mut candidates = Vec::new();
        outcomes.extend(run.iter().map(|op| idx.apply_op(g, op, &mut candidates)));
        candidates.sort_unstable();
        candidates.dedup();
        idx.refresh_pairs(g, candidates);
    }
    Ok(outcomes)
}

/// Checks every vertex and label `ops` name against `g`, with each
/// `AddVertex` raising the vertex bound for the ops after it.
fn check_ops(g: &Graph, ops: &[DeltaOp]) -> Result<(), DeltaError> {
    let reject = |i: usize, reason: String| DeltaError { op_index: i, reason };
    let check_vertex = |v: VertexId, bound: u32, i: usize| {
        if v < bound {
            Ok(())
        } else {
            Err(reject(i, format!("vertex {v} out of range (graph has {bound})")))
        }
    };
    let check_label = |l: Label, i: usize| {
        if l.0 < g.base_label_count() {
            Ok(())
        } else {
            Err(reject(
                i,
                format!("label {} out of range (graph has {})", l.0, g.base_label_count()),
            ))
        }
    };
    let mut vertices = g.vertex_count();
    for (i, op) in ops.iter().enumerate() {
        match op {
            DeltaOp::InsertEdge { src, dst, label } | DeltaOp::DeleteEdge { src, dst, label } => {
                check_vertex(*src, vertices, i)?;
                check_vertex(*dst, vertices, i)?;
                check_label(*label, i)?;
            }
            DeltaOp::ChangeEdgeLabel { src, dst, from, to } => {
                check_vertex(*src, vertices, i)?;
                check_vertex(*dst, vertices, i)?;
                check_label(*from, i)?;
                check_label(*to, i)?;
            }
            DeltaOp::AddVertex { .. } => vertices += 1,
            DeltaOp::DeleteVertex { vertex } => check_vertex(*vertex, vertices, i)?,
            DeltaOp::InsertInterest { seq } => {
                if let Some(l) = seq.iter().find(|l| l.0 >= g.ext_label_count()) {
                    return Err(reject(i, format!("interest label {} out of range", l.0)));
                }
            }
            DeltaOp::DeleteInterest { .. } => {}
        }
    }
    Ok(())
}

/// Inserts (`insert`) or removes the base edge `(v, u, ℓ)`. If `g`
/// changed, appends the pairs whose `L≤k` the edit may have changed, read
/// off `g` as it now is.
fn edit_edge(
    g: &mut Graph,
    (v, u, l): (VertexId, VertexId, Label),
    insert: bool,
    k: usize,
    candidates: &mut Vec<Pair>,
) -> bool {
    let changed = if insert { g.insert_edge(v, u, l) } else { g.remove_edge(v, u, l) };
    if changed {
        candidates.extend(affected_pairs(g, v, u, k));
    }
    changed
}

impl CpqxIndex {
    /// Deletes the base edge `(v, u, ℓ)` from the graph and updates the
    /// index lazily, as a one-op [`apply_ops`]. Returns `false` if the
    /// edge did not exist (no change).
    ///
    /// # Panics
    /// Panics if a vertex or the label is out of range.
    pub fn delete_edge(&mut self, g: &mut Graph, v: VertexId, u: VertexId, l: Label) -> bool {
        self.apply_one(g, DeltaOp::DeleteEdge { src: v, dst: u, label: l }).changed()
    }

    /// Inserts the base edge `(v, u, ℓ)` into the graph and updates the
    /// index lazily, as a one-op [`apply_ops`]. Returns `false` if the
    /// edge already existed.
    ///
    /// # Panics
    /// Panics if a vertex or the label is out of range.
    pub fn insert_edge(&mut self, g: &mut Graph, v: VertexId, u: VertexId, l: Label) -> bool {
        self.apply_one(g, DeltaOp::InsertEdge { src: v, dst: u, label: l }).changed()
    }

    /// Relabels an edge: deletion followed by insertion (the paper handles
    /// label changes "by combinations of edge deletion and insertion"),
    /// refreshed once. Returns `false` if the edge did not exist.
    ///
    /// # Panics
    /// Panics if a vertex or a label is out of range.
    pub fn change_edge_label(
        &mut self,
        g: &mut Graph,
        v: VertexId,
        u: VertexId,
        from: Label,
        to: Label,
    ) -> bool {
        self.apply_one(g, DeltaOp::ChangeEdgeLabel { src: v, dst: u, from, to }).changed()
    }

    /// Adds an isolated vertex (no index change — it participates in no
    /// non-trivial path).
    pub fn add_vertex(&mut self, g: &mut Graph, name: impl Into<String>) -> VertexId {
        g.add_vertex(name)
    }

    /// Deletes a vertex by removing all incident edges one at a time, per
    /// the paper's vertex-deletion procedure, refreshed once. The id stays
    /// allocated but isolated.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn delete_vertex(&mut self, g: &mut Graph, v: VertexId) {
        self.apply_one(g, DeltaOp::DeleteVertex { vertex: v });
    }

    /// iaCPQx only: registers a new interest sequence and indexes its pairs
    /// (Sec. V-C, label sequence insertion), as a one-op [`apply_ops`]
    /// (which leaves `g` unchanged). Length-1 sequences are always indexed
    /// and need no registration. Returns `false` if it was already an
    /// interest (or the index is not interest-aware / the sequence is
    /// longer than `k`).
    ///
    /// Pairs whose class does not carry `seq` are regrouped into fresh
    /// classes that do. A sequence registered again after
    /// [`CpqxIndex::delete_interest`] finds its retained `Il2c` entry still
    /// listing the classes that carry it: their pairs are unchanged for the
    /// refresh, and the entry is a lookup key again the moment `seq` is an
    /// interest.
    ///
    /// # Panics
    /// Panics if `seq` names a label `g` lacks.
    pub fn insert_interest(&mut self, g: &mut Graph, seq: LabelSeq) -> bool {
        self.apply_one(g, DeltaOp::InsertInterest { seq }).changed()
    }

    /// iaCPQx only: drops an interest sequence — "we can just delete the
    /// deleted label sequence from Il2c" (Sec. V-C). Classes are *not*
    /// merged; queries remain correct because the sequence is no longer a
    /// lookup key. This is the whole of a [`DeltaOp::DeleteInterest`]: it
    /// reads no graph and changes no pair's class, so it refreshes nothing.
    ///
    /// The sequence's `Il2c` entry stays, as a *retained* entry that no
    /// lookup serves (the sequence is no longer indexed): `Il2c` is the
    /// only record of which sequences a class carries, and a class's set
    /// never changes after the class is created. The classes that carried
    /// the sequence therefore still carry it, in `save` output too;
    /// `validate` compares class sets restricted to what is indexed now,
    /// and a later refresh of one of their pairs sees the stale sequence as
    /// a change and regroups the pair into a fresh class whose set is
    /// current. Re-registering the interest finds the classes still listed
    /// (see `insert_interest`). An index built afresh from the graph and
    /// the current interests — a rebuild, or a store's recovery — carries
    /// no retained entry. Cost: a set removal.
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

    /// `op` as a transaction of its own.
    fn apply_one(&mut self, g: &mut Graph, op: DeltaOp) -> OpOutcome {
        apply_ops(g, self, std::slice::from_ref(&op)).unwrap_or_else(|e| panic!("{e}"))[0]
    }

    /// Applies one validated op to `g` and the interest set, appending the
    /// pairs it may have changed to `candidates`.
    fn apply_op(&mut self, g: &mut Graph, op: &DeltaOp, candidates: &mut Vec<Pair>) -> OpOutcome {
        let k = self.k;
        let changed = match *op {
            DeltaOp::InsertEdge { src, dst, label } => {
                edit_edge(g, (src, dst, label), true, k, candidates)
            }
            DeltaOp::DeleteEdge { src, dst, label } => {
                edit_edge(g, (src, dst, label), false, k, candidates)
            }
            DeltaOp::ChangeEdgeLabel { src, dst, from, to } => {
                let deleted = edit_edge(g, (src, dst, from), false, k, candidates);
                if deleted {
                    edit_edge(g, (src, dst, to), true, k, candidates);
                }
                deleted
            }
            DeltaOp::AddVertex { ref name } => {
                return OpOutcome::VertexAdded(g.add_vertex(name.clone()))
            }
            DeltaOp::DeleteVertex { vertex: v } => {
                let incident: Vec<_> = g.incident_edges(v).collect();
                let mut removed = false;
                for edge in incident {
                    removed |= edit_edge(g, edge, false, k, candidates);
                }
                removed
            }
            DeltaOp::InsertInterest { seq } => {
                let registered = (2..=k).contains(&seq.len())
                    && self.interests.as_mut().is_some_and(|lq| lq.insert(seq));
                if registered {
                    candidates.extend(seq_pairs(g, &seq));
                }
                registered
            }
            DeltaOp::DeleteInterest { ref seq } => self.delete_interest(seq),
        };
        if changed {
            OpOutcome::Applied
        } else {
            OpOutcome::Noop
        }
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

    /// Core lazy-update step, run once per transaction over its sorted,
    /// distinct candidates: recompute the indexed sequence set of each
    /// candidate pair; detach pairs whose set changed and regroup them into
    /// fresh classes keyed by `(is-loop, new set)`. A pair stays in place
    /// iff its class's set has as many sequences as the new set and every
    /// new sequence's `Il2c` entry lists the class (one binary search
    /// each) — sizes first, so most changed pairs cost one comparison.
    /// New sets are keyed as dictionary-id lists in sequence order; a pair
    /// whose set holds a never-seen sequence has changed, and only such a
    /// pair copies the dictionary (to register it). Fresh classes are
    /// grouped by interning `(is-loop, id list)`: a new key's id is the
    /// interner's length, so the keys number the fresh classes in
    /// first-occurrence order along the candidates.
    ///
    /// This is the pair → class map's only reader on the write path, and
    /// the first write on an index without the map builds it
    /// ([`CpqxIndex::build_pair_map`]); a transaction without candidates
    /// writes nothing and builds nothing. Writes run on a clone of the
    /// served index, so the map lands in that clone and its descendants,
    /// never in the snapshot it was cloned from.
    ///
    /// All mutation goes through the index's chunk-local copy-on-write
    /// primitives (`edit_rows`, `push_class`, `PairColumn::edit`), so an
    /// update copies only the class chunks, pair-map shards and posting
    /// lists it actually touches — unchanged candidates (the common case
    /// for over-approximated affected sets) copy nothing. The class rows
    /// and the pair → class map are edited once each, at the end: the rows
    /// chunk by chunk, the map shard by shard, from its edits in candidate
    /// (that is, pair) order.
    fn refresh_pairs(&mut self, g: &Graph, candidates: Vec<Pair>) {
        if candidates.is_empty() {
            return;
        }
        self.build_pair_map();
        let mut groups = SigInterner::default();
        let mut words: Vec<u64> = Vec::new();
        let mut fresh: Vec<ClassId> = Vec::new();
        let (mut detached, mut attached) = (Vec::new(), Vec::new());
        let mut remapped: Vec<(Pair, Option<ClassId>)> = Vec::new();
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
                self.pair_count -= 1;
                self.frag.refreshed_pairs += 1;
            }
            if new_seqs.is_empty() {
                if old.is_some() {
                    remapped.push((pair, None)); // pair left P≤k entirely
                }
                continue;
            }
            if !known {
                ids.clear();
                ids.extend(new_seqs.iter().map(|&s| self.seq_id_or_insert(s)));
            }
            id_words(&ids, &mut words);
            let local = groups.intern(pair.is_loop(), &words) as usize;
            if local == fresh.len() {
                fresh.push(self.push_class(pair.is_loop(), &ids));
                self.frag.fresh_classes += 1;
            }
            attached.push((fresh[local], pair));
            remapped.push((pair, Some(fresh[local])));
            self.pair_count += 1;
        }
        self.edit_rows(detached, attached);
        self.pair_map_mut().edit(&remapped);
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
