//! `cpqx-engine` — a concurrent query-serving layer over the CPQx index
//! family.
//!
//! The core crates reproduce the paper faithfully but leave every caller
//! holding a bare [`cpqx_core::CpqxIndex`]: no concurrency story, no
//! caching. This crate adds the three layers a serving deployment needs:
//!
//! 1. **Timed builds** ([`build`]): every engine build — initial, manual
//!    rebuild, auto-rebuild — is Algorithm 1's single pass (pruned to the
//!    interest set for iaCPQx), then index materialization, with each
//!    phase timed for [`Engine::stats`] and the obs layer.
//! 2. **Concurrent read path** ([`engine`]): an [`Engine`] holds the
//!    graph + index behind an atomically swappable [`Snapshot`] `Arc`.
//!    Maintenance (edge/vertex/interest updates, rebuilds) clones, applies
//!    the paper's lazy update procedures to the clone, and installs the
//!    result; in-flight readers keep the version they started with and
//!    are never blocked (snapshot isolation).
//! 3. **Serving layer** ([`engine`] + [`batch`]): a per-snapshot plan
//!    cache and a cross-query LRU result cache, both keyed on the
//!    *canonical* form of the query ([`cpqx_query::canonical`]) so
//!    syntactic variants share entries; a [`Engine::evaluate_batch`] API
//!    fanning a workload across a worker pool against one pinned
//!    snapshot; and hit-rate / p50 / p99 statistics ([`Engine::stats`]).
//!
//! ```
//! use cpqx_engine::{Engine, BatchOptions};
//! use cpqx_graph::generate::gex;
//! use cpqx_query::parse_cpq;
//!
//! let engine = Engine::build(gex(), 2);
//! let snap = engine.snapshot();
//! let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
//! assert_eq!(engine.query(&q).len(), 3);   // executes
//! assert_eq!(engine.query(&q).len(), 3);   // served from cache
//! assert!(engine.stats().result_hit_rate > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod build;
pub mod cache;
pub mod delta;
pub mod durability;
pub mod engine;
pub mod stats;

pub use batch::{BatchOptions, BatchOutcome};
pub use build::{build_sharded_with_report, BuildOptions, BuildReport};
pub use cache::LruCache;
pub use cpqx_core::ExecOptions;
pub use delta::{apply_ops, Delta, DeltaError, DeltaOp, DeltaReport, OpOutcome};
pub use durability::{CheckpointReport, DurabilityOptions, DurabilitySink};
pub use engine::{CachedAnswer, Engine, EngineOptions, PlannedQuery, Snapshot};
pub use stats::StatsReport;
// Observability types callers configure or consume through the engine
// ([`EngineOptions::obs`], [`Engine::obs`]) — re-exported so engine
// users don't need a direct `cpqx-obs` dependency.
pub use cpqx_obs::{ObsOptions, Recorder};
