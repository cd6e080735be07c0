//! Minimal scoped-thread work-sharing helpers.
//!
//! The build environment is offline, so instead of `rayon` the workspace
//! uses `std::thread::scope` with a shared atomic work cursor — enough for
//! the coarse-grained parallelism of index builds and batch evaluation,
//! with no unsafe code and no external dependencies. Items are claimed
//! dynamically (not pre-chunked), so skewed per-item costs still balance.
//!
//! The module lives in `cpqx-core`, below the engine, next to the
//! per-range partition builders it fans out: the engine's sharded builds
//! run `RefinementBase::partition_range` and the interest-aware range
//! partitions through [`parallel_map`], batch evaluation runs on
//! [`spawn_workers`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item, running up to `threads` workers, and returns
/// the outputs in input order. Falls back to a plain sequential map when
/// one worker suffices. Panics in workers propagate.
pub fn parallel_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Claim items through an atomic cursor; write results into
    // pre-allocated per-item slots so output order matches input order.
    let slots: Vec<std::sync::Mutex<Option<U>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let work: Vec<std::sync::Mutex<Option<T>>> =
        items.into_iter().map(|t| std::sync::Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().unwrap().take().expect("item claimed twice");
                let out = f(item);
                *slots[i].lock().unwrap() = Some(out);
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
    });

    slots.into_iter().map(|s| s.into_inner().unwrap().expect("missing result slot")).collect()
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
    fn maps_in_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), 4, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallbacks() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(Vec::<i32>::new(), 8, |x| x), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], 8, |x| x), vec![7]);
    }

    #[test]
    fn skewed_work_balances() {
        // One expensive item must not serialize the rest behind it.
        let out = parallel_map((0..32).collect::<Vec<_>>(), 8, |x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn workers_observe_indices() {
        let mut idx = spawn_workers(4, |w| w);
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }
}
