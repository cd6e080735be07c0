//! The metric vocabulary: every name `ledger` prints, with its unit and
//! which direction is better. `BENCHMARK.json` lists the same names; a
//! test holds the two together.

/// Bounded end-to-end metrics every workload reports (`--trace 0`):
/// name, unit, better, regression bound.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("index_bytes_per_edge", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics (`--trace 1`): name, unit, better. The first
/// eight come from the end-to-end run (tracing off) that precedes the
/// traced pass (README, "End-to-end metrics", says why they are listed
/// here); the rest from the traced pass.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("delta_p50_ms", "ms", "lower"),
    ("delta_p95_ms", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("disk_bytes_per_edge", "B", "lower"),
    ("gen_lag_ms_p99", "ms", "lower"),
    ("query.parse_us", "us", "lower"),
    ("query.canonicalize_us", "us", "lower"),
    ("core.optimize_us", "us", "lower"),
    ("core.exec_us_p50", "us", "lower"),
    ("core.exec_us_p99", "us", "lower"),
    ("core.exec_us_mean", "us", "lower"),
    ("core.pairs_per_result", "ratio", "lower"),
    ("core.lookups_per_query", "count", "lower"),
    ("core.class_conj_share", "ratio", "higher"),
    ("core.csr_join_share", "ratio", "higher"),
    ("core.maintain_ms_per_op", "ms", "lower"),
    ("core.index_clone_us", "us", "lower"),
    ("core.fragmentation_ratio", "ratio", "lower"),
    ("core.classes", "count", "lower"),
    ("core.pairs", "count", "lower"),
    ("core.postings", "count", "lower"),
    ("core.gamma", "ratio", "lower"),
    ("core.ia_build_s", "s", "lower"),
    ("core.ia_bytes_per_edge", "B", "lower"),
    ("core.ia_exec_us_p50", "us", "lower"),
    ("graph.clone_us", "us", "lower"),
    ("graph.csr_build_ms", "ms", "lower"),
    ("engine.build_s", "s", "lower"),
    ("engine.build_level1_s", "s", "lower"),
    ("engine.build_refine_s", "s", "lower"),
    ("engine.build_merge_s", "s", "lower"),
    ("engine.query_hit_us", "us", "lower"),
    ("engine.query_miss_us", "us", "lower"),
    ("engine.overhead_miss_us", "us", "lower"),
    ("engine.result_hit_rate", "ratio", "higher"),
    ("engine.plan_hit_rate", "ratio", "higher"),
    ("engine.invalidated_results", "count", "lower"),
    ("engine.apply_delta_ms", "ms", "lower"),
    ("engine.delta_self_ms", "ms", "lower"),
    ("engine.cow_copied_share", "ratio", "lower"),
    ("engine.rebuilds", "count", "lower"),
    ("net.encode_request_us", "us", "lower"),
    ("net.decode_request_us", "us", "lower"),
    ("net.encode_response_us", "us", "lower"),
    ("net.decode_response_us", "us", "lower"),
    ("net.frame_assemble_us", "us", "lower"),
    ("net.response_bytes_per_query", "B", "lower"),
    ("net.ping_rtt_us", "us", "lower"),
    ("net.rtt_us_p50", "us", "lower"),
    ("net.unattributed_us", "us", "lower"),
    ("net.unattributed_share", "ratio", "lower"),
    ("net.busy_rejects", "count", "lower"),
    ("net.error_responses", "count", "lower"),
    ("store.bootstrap_s", "s", "lower"),
    ("store.wal_append_us", "us", "lower"),
    ("store.wal_bytes_per_op", "B", "lower"),
    ("store.checkpoint_ms", "ms", "lower"),
    ("store.checkpoint_written_share", "ratio", "lower"),
    ("store.recover_manifest_ms", "ms", "lower"),
    ("store.recover_chunks_ms", "ms", "lower"),
    ("store.recover_replay_ms", "ms", "lower"),
    ("store.replayed_txns", "count", "lower"),
    ("obs.overhead_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// How many of [`PER_LAYER`]'s names, from the top, the end-to-end run
/// supplies.
pub const FROM_END_TO_END_RUN: usize = 7;
