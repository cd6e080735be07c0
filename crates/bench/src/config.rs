//! Environment-driven benchmark configuration.

/// Scaling knobs for all bench targets; see the crate docs for the
/// corresponding environment variables.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Maximum base edges per generated stand-in dataset.
    pub edge_budget: usize,
    /// Queries per template (the paper uses 10).
    pub queries_per_template: usize,
    /// Timing repetitions per query (averaged).
    pub reps: usize,
    /// Wall-clock budget per table cell, in milliseconds; a method
    /// exceeding it is reported as `timeout` (the paper used two hours).
    pub cell_budget_ms: u64,
    /// Index path-length parameter `k` (paper default: 2).
    pub k: usize,
    /// Master RNG seed.
    pub seed: u64,
}

/// Parses an environment variable, falling back to `default` when the
/// variable is unset or malformed.
fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl BenchConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        BenchConfig {
            edge_budget: env_parse("CPQX_EDGE_BUDGET", 10_000),
            queries_per_template: env_parse("CPQX_QUERIES", 5),
            reps: env_parse("CPQX_REPS", 3),
            cell_budget_ms: env_parse("CPQX_CELL_MS", 2_000),
            k: env_parse("CPQX_K", 2),
            seed: env_parse("CPQX_SEED", 20220509), // ICDE 2022 opening day
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::from_env()
    }
}
