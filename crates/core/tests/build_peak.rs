//! The build's heap peak, counted, against the size of what it builds.
//!
//! A build's transient buffers — the refinement levels, the class
//! interner, the per-pair `(target, class)` list, the class-major rows —
//! are what sets the process's peak memory, not the index it returns. A
//! counting global allocator records the most heap bytes live at once
//! while one build runs, above what was live when it started, and each
//! test holds that peak to two bounds per graph:
//!
//! * a **ceiling in bytes**. The peak is set by the partition, not by the
//!   rows' encoding, so a change to the index's bytes alone leaves it
//!   where it was. The ceilings were the counts at the commit that
//!   width-packed the `Ic2p` rows (3,663,320 B social, 13,532,864 B
//!   Epinions for full builds; 1,622,232 B and 3,322,360 B for
//!   interest-aware ones) until two changes to the build:
//!   - The last refinement level was fused with class assembly — one walk
//!     per source, no block-tuple interner, no second grouping of tuples
//!     into classes. The full builds' peaks fell to 1,771,360 B and
//!     10,380,760 B (3.89× and 7.19× the index, from 8.04× and 9.37×).
//!   - The interest-aware build became that walk, pruned by its interests
//!     — no list of `(pair, sequence)` hits, no global sort of it. Its
//!     peaks fell to 544,218 B and 1,103,996 B (5.22× and 5.16× the
//!     index, from 15.56× and 15.53×).
//!
//!   Each time the ceilings became the new counts plus 25 % headroom;
//! * a **ratio** to the index's [`IndexStats::total_bytes`]. Twice a
//!   change to the index's bytes alone shrank the divisor while the peak
//!   stayed put, so the ratios rose:
//!   - Packing the rows (8 bytes a pair → 3 on these graphs): a full
//!     index shrank by about a quarter, its builds from 3.37× and 3.58× to
//!     4.72× and 4.64×; an interest-aware index is mostly rows and halved,
//!     from 6.06× and 6.01× to 12.92× and 13.21×. The bounds became 6×
//!     and 16.5×.
//!   - Storing `Il2c` postings as array|bitmap containers: a full index
//!     shrank by 30 % (social) and 39 % (Epinions), its builds from 4.72×
//!     and 4.64× to 6.70× and 7.58×; an interest-aware index, with few
//!     postings, by 11 % and 10 %, from 12.92× and 13.21× to 14.47× and
//!     14.61×. The bounds became 9.5× and 18.5×.
//!
//!   Each time the bounds were re-set from the ratios after, with ~25 %
//!   headroom, and the byte ceilings stayed as they were. A ratio bound
//!   never loosens without the byte ceiling beside it. When the
//!   interest-aware build became the pruned walk its bound tightened to
//!   the full build's 9.5×.
//!
//! Only the thread running the build is counted, so the test harness's
//! own threads (reporting a finished test, starting the next) never add to
//! a peak: the build runs on one thread, and the count is exact. A
//! `realloc` counts as its old plus its new size until it returns: a
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
//! result is returned unchanged.** The wrapper adds a thread-local counter
//! update around each call (a `const`-initialized `Cell`, which never
//! allocates) and never reads, writes or keeps the memory, so each method
//! meets `GlobalAlloc`'s contract exactly when its caller meets it for
//! `Counting`.
//!
//! [`IndexStats::total_bytes`]: cpqx_core::IndexStats::total_bytes

use cpqx_core::CpqxIndex;
use cpqx_graph::datasets::Dataset;
use cpqx_graph::{generate, Graph, LabelSeq};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`] with a count of the bytes live and the most ever live on a
/// measuring thread.
struct Counting;

thread_local! {
    /// `(live, peak)`: bytes allocated minus bytes freed on this thread
    /// since its measurement began, and their maximum. `None` on a thread
    /// that is not measuring.
    static COUNT: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

/// Adds `bytes` (negative: frees) to the count of a measuring thread.
fn count(bytes: isize) {
    COUNT.with(|c| {
        if let Some((live, peak)) = c.get() {
            let live = live + bytes;
            c.set(Some((live, peak.max(live))));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged (module docs).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed on (module docs).
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, passed on (module docs).
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed on (module docs).
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both buffers count until the call returns.
        count(new_size as isize);
        // SAFETY: the caller's pointer, layout and size, passed on (module
        // docs).
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        count(-(if p.is_null() { new_size } else { layout.size() } as isize));
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one build leaves on the heap, counted.
struct Built {
    /// The most bytes live at once during the build, above the bytes live
    /// when it started.
    peak: usize,
    /// The bytes still live when it returned: the index's own heap,
    /// capacity included.
    live: usize,
    /// The built index's `total_bytes`.
    index_bytes: usize,
}

/// Runs `build` on a measuring thread.
fn peak_of(build: impl FnOnce() -> CpqxIndex) -> Built {
    COUNT.with(|c| c.set(Some((0, 0))));
    let index = build();
    let (live, peak) = COUNT.with(|c| c.take()).expect("this thread was measuring");
    Built { peak: peak as usize, live: live as usize, index_bytes: index.stats().total_bytes }
}

/// Checks one build's peak against its byte ceiling and its ratio bound.
/// The index's live heap is printed beside its `total_bytes`, as a check
/// that the count follows the bytes the index really holds.
fn check(what: &str, built: Built, ceiling: usize, ratio_bound: f64) {
    let Built { peak, live, index_bytes } = built;
    let ratio = peak as f64 / index_bytes as f64;
    eprintln!(
        "{what}: peaks at {peak} B, {ratio:.3}× the index ({index_bytes} B; {live} B live after \
         the build)"
    );
    assert!(peak <= ceiling, "{what}: the build's heap peak is {peak} B, over {ceiling} B");
    assert!(ratio <= ratio_bound, "{what}: the build's heap peak is {ratio:.2}× the index");
}

/// The two graphs every bound is checked on — a small social graph and
/// the Epinions stand-in the benchmark's in-process workload scales —
/// each with the byte ceilings of its full and its interest-aware build.
fn graphs() -> [(&'static str, Graph, usize, usize); 2] {
    [
        (
            "social",
            generate::random_graph(&generate::RandomGraphConfig::social(400, 2000, 3, 7)),
            FULL_SOCIAL,
            IA_SOCIAL,
        ),
        ("epinions", Dataset::Epinions.generate(4000, 20220509), FULL_EPINIONS, IA_EPINIONS),
    ]
}

/// Byte ceilings: the counted peaks of the full builds with the last level
/// fused with class assembly, and of the interest-aware builds as that walk
/// pruned by their interests, plus 25 % (module docs).
const FULL_SOCIAL: usize = 2_214_200;
const FULL_EPINIONS: usize = 12_975_950;
const IA_SOCIAL: usize = 680_273;
const IA_EPINIONS: usize = 1_379_995;

#[test]
fn a_full_build_peaks_under_nine_and_a_half_index_sizes() {
    for (name, g, ceiling, _) in graphs() {
        let peak = peak_of(|| CpqxIndex::build(&g, 2));
        check(&format!("{name}, full build"), peak, ceiling, 9.5);
    }
}

#[test]
fn an_interest_aware_build_peaks_under_nine_and_a_half_index_sizes() {
    for (name, g, _, ceiling) in graphs() {
        // Every length-2 sequence over the first three labels, forward.
        let labels: Vec<_> = g.labels().take(3).map(|l| l.fwd()).collect();
        let interests: Vec<LabelSeq> = labels
            .iter()
            .flat_map(|&a| labels.iter().map(move |&b| LabelSeq::from_slice(&[a, b])))
            .collect();
        assert_eq!(interests.len(), 9);
        let peak = peak_of(|| CpqxIndex::build_interest_aware(&g, 2, interests));
        check(&format!("{name}, interest-aware build"), peak, ceiling, 9.5);
    }
}
