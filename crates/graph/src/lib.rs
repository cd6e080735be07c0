//! Directed edge-labeled graph substrate for the CPQx index family.
//!
//! This crate provides the graph model of the paper (Sec. III-A): a graph is
//! `G = (V, E, L)` with labeled directed edges. To support traversals in the
//! inverse direction, the label alphabet is *extended* with `ℓ⁻¹` for every
//! base label `ℓ` and the edge set with the reversed edges, exactly as the
//! paper prescribes. All code in this workspace operates on the extended
//! view: an [`ExtLabel`] encodes a base [`Label`] plus a direction bit, and
//! the out-edges of a vertex include both forward and inverse extended
//! edges, so a single lookup direction suffices everywhere.
//!
//! Besides the core [`Graph`] type the crate ships:
//!
//! * [`LabelSeq`] — inline, copyable label sequences of length ≤ 8 (the
//!   paper's `L≤k` elements; `k ∈ 1..4` in the evaluation),
//! * [`Pair`] — s-t vertex pairs packed into a `u64` so pair sets are flat
//!   sorted vectors amenable to merge joins,
//! * [`generate`] — seeded random generators (power-law, Erdős–Rényi, the
//!   gMark-style citation schema, the paper's Fig. 1 example graph `Gex`),
//! * [`datasets`] — scaled synthetic stand-ins for the 14 real graphs and 5
//!   gMark instances of Table II,
//! * [`io`] — a plain-text edge-list format,
//! * [`view`] — the weight-balanced vertex ranges the graph's copy-on-write
//!   chunks are cut along.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod generate;
pub mod graph;
pub mod io;
pub mod label;
pub mod pair;
pub mod view;

pub use graph::{CowDiff, Graph, GraphBuilder, PairList, TopologyChunkParts, VertexId};
pub use label::{ExtLabel, Label, LabelSeq, MAX_SEQ_LEN};
pub use pair::Pair;
