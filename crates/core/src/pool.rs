//! Minimal scoped-thread worker helpers.
//!
//! The build environment is offline, so instead of `rayon` the workspace
//! uses `std::thread::scope` — enough for the coarse-grained parallelism
//! of batch evaluation ([`spawn_workers`]: each worker pulls queries from
//! a shared atomic cursor, so skewed per-query costs still balance), with
//! no unsafe code and no external dependencies.

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f(0..threads)` concurrently, one invocation per worker index, and
/// returns the outputs in worker order. Used for long-lived reader/writer
/// roles (e.g. batch evaluation workers that pull from a shared cursor).
pub fn spawn_workers<U, F>(threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || f(w))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_observe_indices() {
        let mut idx = spawn_workers(4, |w| w);
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
