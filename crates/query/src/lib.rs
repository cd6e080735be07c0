//! The CPQ (conjunctive path query) language of the paper, Sec. III-B.
//!
//! A CPQ is built from the nullary operations *identity* (`id`) and *edge
//! labels* (`ℓ`, `ℓ⁻¹`) with the binary operations *join* (`∘`) and
//! *conjunction* (`∩`):
//!
//! ```text
//! CPQ ::= id | ℓ | CPQ ∘ CPQ | CPQ ∩ CPQ | (CPQ)
//! ```
//!
//! Evaluating a CPQ on a graph yields a set of source-target vertex pairs
//! ([`cpqx_graph::Pair`]). This crate provides:
//!
//! * [`ast`] — the query algebra, diameter, and the 12 query templates of
//!   the paper's Fig. 5 ([`ast::Template`]),
//! * [`parser`] — a text syntax (`(f . f) & f^-1`),
//! * [`canonical`] — canonical forms and stable cache keys for
//!   semantically equal queries (conjunct sorting, identity rewrites),
//! * [`plan`] — the physical parse tree of Sec. IV-D / Fig. 4: label chains
//!   chunked into `LOOKUP`s of length ≤ k, `q ∘ id → q` rewriting, and
//!   identity fused into the three operators,
//! * [`ops`] — the sorted-merge physical operators shared by every engine,
//! * [`eval`] — a naive reference evaluator (the correctness oracle) and the
//!   index-free BFS baseline of Sec. VI,
//! * [`workload`] — seeded template instantiation with the paper's
//!   "all length-2 sub-paths non-empty" filter,
//! * [`benchqueries`] — CPQ translations of the YAGO2 (Y1–Y4), LUBM (L1–L7)
//!   and WatDiv (L1–L5, S1–S7) benchmark queries used in Figs. 9–10.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod benchqueries;
pub mod canonical;
pub mod eval;
pub mod ops;
pub mod parser;
pub mod plan;
pub mod workload;

pub use ast::{Cpq, Template};
pub use canonical::{cache_key, canonical_key, canonicalize};
pub use parser::{parse_cpq, ParseError, ParseErrorKind};
pub use plan::{plan_query, Plan};
