//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. VI).
//!
//! Each bench target under `benches/` is a `harness = false` binary that
//! prints the paper's rows/series to stdout and mirrors them as TSV under
//! `results/`. Absolute numbers differ from the paper's testbed (synthetic
//! stand-in datasets, different hardware — see EXPERIMENTS.md); the harness
//! reproduces the *shape*: which method wins per template, pruning-power
//! gaps, size orderings, and k/interest behaviour.
//!
//! Scaling knobs (environment variables):
//!
//! * `CPQX_EDGE_BUDGET` — max base edges per generated dataset (default
//!   10 000; raise for closer-to-paper scales),
//! * `CPQX_QUERIES` — queries per template (paper: 10; default 5),
//! * `CPQX_REPS` — timing repetitions per query (default 3),
//! * `CPQX_CELL_MS` — wall-clock budget per table cell before a method is
//!   reported as timed out (default 2 000 ms; the paper used 2 h),
//! * `CPQX_K` — index path-length parameter (default 2, as in the paper).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod harness;
pub mod table;

pub use config::BenchConfig;
pub use engine::{Engine, Method};
pub use harness::{avg_query_time, interests_from_queries, workload_for, Timing};
pub use table::Table;
