//! The build's heap peak, counted, against the size of what it builds.
//!
//! A build's transient buffers — the refinement levels, the block-tuple
//! interner, the per-pair class ids, the class-major rows — are what sets
//! the process's peak memory, not the index it returns. These tests hold
//! that peak to a multiple of the index's [`IndexStats::total_bytes`]:
//! a counting global allocator records the most heap bytes live at once
//! while one build runs, above what was live when it started.
//!
//! A `realloc` counts as its old plus its new size until it returns: a
//! growing vector may be copied, and for that moment both buffers exist.
//! The count is a property of the code and the input alone — it repeats
//! exactly from run to run — unlike the process's resident set, which
//! depends on the allocator's page reuse.
//!
//! # Safety
//!
//! The one `unsafe` here is [`Counting`]'s `GlobalAlloc` implementation,
//! and it rests on one invariant: **every call is forwarded to
//! [`System`] with the caller's own pointer, layout and size, and its
//! result is returned unchanged.** The wrapper adds atomic counter updates
//! around each call and never reads, writes or keeps the memory, so each
//! method meets `GlobalAlloc`'s contract exactly when its caller meets it
//! for `Counting`.
//!
//! [`IndexStats::total_bytes`]: cpqx_core::IndexStats::total_bytes

use cpqx_core::CpqxIndex;
use cpqx_graph::datasets::Dataset;
use cpqx_graph::{generate, Graph, LabelSeq};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// [`System`] with a count of the bytes live and the most ever live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged (module docs).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed on (module docs).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed on (module docs).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed on (module docs).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both buffers count until the call returns.
        grow(new_size);
        // SAFETY: the caller's pointer, layout and size, passed on (module
        // docs).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(if p.is_null() { new_size } else { layout.size() }, Relaxed);
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test from start to end: the counters are process-wide,
/// so a test that allocates beside a measurement would be counted in it.
static ONE_TEST_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The heap peak of `build`, above the bytes live when it started, as a
/// multiple of the built index's `total_bytes`.
fn peak_over_index(build: impl FnOnce() -> CpqxIndex) -> f64 {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let index = build();
    let peak = PEAK.load(Relaxed) - before;
    peak as f64 / index.stats().total_bytes as f64
}

/// The two graphs every bound is checked on: a small social graph and
/// the Epinions stand-in the benchmark's in-process workload scales.
fn graphs() -> [(&'static str, Graph); 2] {
    [
        ("social", generate::random_graph(&generate::RandomGraphConfig::social(400, 2000, 3, 7))),
        ("epinions", Dataset::Epinions.generate(4000, 20220509)),
    ]
}

#[test]
fn a_full_build_peaks_under_four_and_a_half_index_sizes() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g) in graphs() {
        let ratio = peak_over_index(|| CpqxIndex::build(&g, 2));
        eprintln!("{name}: full build peaks at {ratio:.3}× the index");
        assert!(ratio <= 4.5, "{name}: the build's heap peak is {ratio:.2}× the index");
    }
}

#[test]
fn an_interest_aware_build_peaks_under_six_and_a_half_index_sizes() {
    let _serial = ONE_TEST_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g) in graphs() {
        // Every length-2 sequence over the first three labels, forward.
        let labels: Vec<_> = g.labels().take(3).map(|l| l.fwd()).collect();
        let interests: Vec<LabelSeq> = labels
            .iter()
            .flat_map(|&a| labels.iter().map(move |&b| LabelSeq::from_slice(&[a, b])))
            .collect();
        assert_eq!(interests.len(), 9);
        let ratio = peak_over_index(|| CpqxIndex::build_interest_aware(&g, 2, interests));
        eprintln!("{name}: interest-aware build peaks at {ratio:.3}× the index");
        assert!(ratio <= 6.5, "{name}: the build's heap peak is {ratio:.2}× the index");
    }
}
