//! CPQx and iaCPQx — the CPQ-aware path indexes of *Language-aware Indexing
//! for Conjunctive Path Queries* (ICDE 2022).
//!
//! The index partitions the s-t pairs `P≤k` of a graph into CPQ-equivalence
//! classes via k-path-bisimulation refinement ([`bisim`], Algorithm 1) or
//! interest-aware path-equivalence ([`interest`], Sec. V), and stores two
//! inverted structures (Def. 4.3): `Il2c` mapping label sequences to class
//! ids and `Ic2p` mapping class ids to s-t pairs. Query processing
//! ([`exec`], Algorithms 3–4) stays at the class level through conjunctions
//! and identity checks, pruning without touching pairs; joins materialize
//! through sorted-merge operators. The full index life cycle is supported:
//! construction, query processing, and lazy maintenance under edge, vertex,
//! and interest updates ([`maintain`], Secs. IV-E, V-C).
//!
//! # Example
//!
//! ```
//! use cpqx_core::CpqxIndex;
//! use cpqx_graph::generate::gex;
//! use cpqx_query::parse_cpq;
//!
//! let g = gex();
//! let index = CpqxIndex::build(&g, 2);
//! // The paper's triad query ﬀ ∩ f⁻¹: three answers, found by
//! // intersecting two class-id sets instead of comparing pairs.
//! let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
//! assert_eq!(index.evaluate(&g, &q).len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod bisim;
pub mod class_set;
pub mod exec;
pub mod index;
pub mod interest;
mod intern;
pub mod maintain;
pub mod optimize;
mod packed_keys;
mod pair_column;
pub mod paths;
pub mod pool;
pub mod serialize;
mod validate;

pub use bisim::{cpq_path_partition, ClassId, Partition, RefinementBase};
pub use class_set::ClassSet;
pub use exec::{ExecOptions, Executor, Intermediate};
pub use index::{CpqxIndex, Fragmentation, IndexStats};
pub use interest::normalize_interests;
pub use optimize::{estimate_plan_cost, optimize_query, optimize_query_costed};
pub use pair_column::PairColumn;
