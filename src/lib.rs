//! `cpqx` — a Rust reproduction of *Language-aware Indexing for Conjunctive
//! Path Queries* (Sasaki, Fletcher, Onizuka; ICDE 2022).
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`graph`] — directed edge-labeled graphs, generators, dataset stand-ins,
//! * [`query`] — the CPQ language: AST, parser, planner, canonicalizer,
//!   evaluators, workloads,
//! * [`index`] — CPQx and iaCPQx, the paper's CPQ-aware path indexes,
//! * [`engine`] — sharded parallel index construction and the concurrent
//!   serving layer (snapshots, caches, batch evaluation),
//! * [`net`] — the network front-end: a versioned binary wire protocol, a
//!   TCP server over the engine (one `epoll` event loop plus a worker
//!   pool), and a blocking client,
//! * [`store`] — the opt-in durability layer: an append-only WAL of typed
//!   delta transactions, chunk-granular incremental snapshots, and
//!   crash recovery into a fresh engine (spec in `STORAGE.md`),
//! * [`obs`] — the observability layer: sampled per-query traces,
//!   mergeable log-bucketed latency histograms, the slow-query ring, and
//!   the observed-workload table exposed over the wire via METRICS,
//! * [`pathindex`] — the language-unaware Path/iaPath baseline (EDBT 2016),
//! * [`matcher`] — homomorphic subgraph-matching baselines (TurboHom++- and
//!   Tentris-style engines).
//!
//! # Quickstart
//!
//! ```
//! use cpqx::graph::generate::gex;
//! use cpqx::index::CpqxIndex;
//! use cpqx::query::parse_cpq;
//!
//! // The paper's running example: people and their followers in a triad.
//! let g = gex();
//! let index = CpqxIndex::build(&g, 2);
//! let q = parse_cpq("(f . f) & f^-1", &g).unwrap();
//! let result = index.evaluate(&g, &q);
//! assert_eq!(result.len(), 3); // (sue,zoe), (joe,sue), (zoe,joe)
//! ```
//!
//! # Serving
//!
//! For anything beyond one-shot evaluation, wrap the graph in an
//! [`engine::Engine`]: it builds the index in parallel, serves queries
//! through plan/result caches, and applies maintenance by atomically
//! swapping snapshots so readers are never blocked.
//!
//! ```
//! use cpqx::engine::Engine;
//! use cpqx::graph::generate::gex;
//! use cpqx::query::parse_cpq;
//!
//! let engine = Engine::build(gex(), 2);
//! let snap = engine.snapshot();
//! let q = parse_cpq("(f . f) & f^-1", snap.graph()).unwrap();
//! assert_eq!(engine.query(&q).len(), 3); // executes
//! assert_eq!(engine.query(&q).len(), 3); // served from the result cache
//! ```
//!
//! # Network serving
//!
//! The [`net`] module puts the engine on the wire: a versioned binary
//! protocol (spec in `PROTOCOL.md`), a TCP server — one `epoll` event
//! loop that owns every connection, plus a worker pool that evaluates
//! cache misses — that stays available during maintenance, and a blocking
//! client.
//!
//! ```
//! use cpqx::engine::Engine;
//! use cpqx::graph::generate::gex;
//! use cpqx::net::{Client, Server, ServerOptions};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::build(gex(), 2));
//! let server = Server::bind(engine, "127.0.0.1:0", ServerOptions::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! assert_eq!(client.query("(f . f) & f^-1")?.pairs.len(), 3);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use cpqx_core as index;
pub use cpqx_engine as engine;
pub use cpqx_graph as graph;
pub use cpqx_matcher as matcher;
pub use cpqx_net as net;
pub use cpqx_obs as obs;
pub use cpqx_pathindex as pathindex;
pub use cpqx_query as query;
pub use cpqx_store as store;
