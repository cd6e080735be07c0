//! Typed delta transactions — the engine's write path.
//!
//! A [`Delta`] is an ordered list of typed maintenance operations
//! ([`DeltaOp`]) applied atomically by [`crate::Engine::apply_delta`]:
//! the engine clones the current snapshot **once**, applies the whole
//! list to the clone as one transaction of the paper's lazy maintenance
//! ([`apply_ops`], Secs. IV-E / V-C: every op edits the graph, the index
//! is refreshed once), and installs the result as one new snapshot.
//! Compared to issuing the ops individually this amortizes the clone +
//! refresh + install + cache-invalidation cost over the whole
//! transaction, and compared to rebuilding it does work proportional to
//! the affected pairs only.
//!
//! Lazy maintenance fragments the index (classes are never merged;
//! Table VII), so every write transaction also checks the index's
//! fragmentation ratio against
//! [`crate::EngineOptions::auto_rebuild_ratio`] and defragments with a
//! full rebuild *inside the same transaction* when the threshold is
//! crossed — readers never observe the fragmented intermediate state,
//! and the lazy-update/rebuild tradeoff the paper measures becomes a
//! live serving policy, observable in [`crate::StatsReport`].
//!
//! Transactions are atomic: [`apply_ops`] validates the whole list inside
//! the transaction, before it mutates anything, and an invalid op
//! (out-of-range vertex or label) aborts the whole delta with a
//! [`DeltaError`] naming the op; no snapshot is installed. Valid ops that
//! change nothing (inserting an existing edge, registering an interest on
//! a full index) are reported per-op as [`OpOutcome::Noop`].

pub use cpqx_core::maintain::{apply_ops, DeltaError, DeltaOp, OpOutcome};
use cpqx_graph::{Label, LabelSeq, VertexId};

/// An ordered, atomically applied list of [`DeltaOp`]s (see module
/// docs). Build one with the fluent helpers or collect ops yourself via
/// [`Delta::from`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty transaction.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Appends an edge insertion.
    pub fn insert_edge(mut self, src: VertexId, dst: VertexId, label: Label) -> Self {
        self.ops.push(DeltaOp::InsertEdge { src, dst, label });
        self
    }

    /// Appends an edge deletion.
    pub fn delete_edge(mut self, src: VertexId, dst: VertexId, label: Label) -> Self {
        self.ops.push(DeltaOp::DeleteEdge { src, dst, label });
        self
    }

    /// Appends an edge relabel.
    pub fn change_edge_label(
        mut self,
        src: VertexId,
        dst: VertexId,
        from: Label,
        to: Label,
    ) -> Self {
        self.ops.push(DeltaOp::ChangeEdgeLabel { src, dst, from, to });
        self
    }

    /// Appends a vertex addition.
    pub fn add_vertex(mut self, name: impl Into<String>) -> Self {
        self.ops.push(DeltaOp::AddVertex { name: name.into() });
        self
    }

    /// Appends a vertex deletion.
    pub fn delete_vertex(mut self, vertex: VertexId) -> Self {
        self.ops.push(DeltaOp::DeleteVertex { vertex });
        self
    }

    /// Appends an interest registration.
    pub fn insert_interest(mut self, seq: LabelSeq) -> Self {
        self.ops.push(DeltaOp::InsertInterest { seq });
        self
    }

    /// Appends an interest removal.
    pub fn delete_interest(mut self, seq: LabelSeq) -> Self {
        self.ops.push(DeltaOp::DeleteInterest { seq });
        self
    }

    /// The ops of the transaction, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the transaction is empty (applying it is a no-op).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl From<Vec<DeltaOp>> for Delta {
    fn from(ops: Vec<DeltaOp>) -> Self {
        Delta { ops }
    }
}

impl FromIterator<DeltaOp> for Delta {
    fn from_iter<T: IntoIterator<Item = DeltaOp>>(iter: T) -> Self {
        Delta { ops: iter.into_iter().collect() }
    }
}

/// The result of a committed delta transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaReport {
    /// Per-op outcomes, in op order.
    pub outcomes: Vec<OpOutcome>,
    /// Ops that changed the state (`outcomes` entries with
    /// [`OpOutcome::changed`]).
    pub applied: usize,
    /// The epoch whose snapshot reflects the whole transaction — the
    /// installed epoch, or the unchanged current epoch when every op was
    /// a no-op (determined under the writer lock, so it is pinnable).
    pub epoch: u64,
    /// Whether the fragmentation threshold triggered a defragmenting
    /// rebuild inside this transaction.
    pub rebuilt: bool,
    /// The index's fragmentation ratio after the transaction (1.0 right
    /// after a rebuild).
    pub fragmentation_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_ops() {
        let d = Delta::new()
            .add_vertex("x")
            .insert_edge(0, 1, Label(0))
            .delete_edge(1, 0, Label(1))
            .change_edge_label(0, 1, Label(0), Label(1))
            .delete_vertex(2)
            .insert_interest(LabelSeq::from_slice(&[Label(0).fwd(), Label(1).fwd()]))
            .delete_interest(LabelSeq::from_slice(&[Label(0).fwd(), Label(1).fwd()]));
        assert_eq!(d.len(), 7);
        assert!(!d.is_empty());
        assert!(matches!(d.ops()[0], DeltaOp::AddVertex { .. }));
        assert!(matches!(d.ops()[6], DeltaOp::DeleteInterest { .. }));
        assert_eq!(Delta::from(d.ops().to_vec()), d);
    }

    #[test]
    fn outcome_changed() {
        assert!(OpOutcome::Applied.changed());
        assert!(OpOutcome::VertexAdded(7).changed());
        assert!(!OpOutcome::Noop.changed());
    }
}
