//! Physical pair-set operators shared by every engine.
//!
//! All operators consume and produce *normalized* pair sets: sorted
//! source-major, deduplicated. The index executors (Sec. IV-D), the Path
//! baseline, and the BFS baseline all reuse these, so engine comparisons in
//! the benchmarks measure index design rather than operator implementations
//! (the paper does the same: "we used the same query plans for all methods").
//!
//! **Joins emit in source order.** Every join operator makes one pass over
//! its already source-sorted left operand: per source `v` it gathers the
//! targets reachable through each `(v, u)`, puts that one source's buffer
//! in order without duplicates, and appends it — the output is born
//! normalized, no operand is re-keyed and nothing is sorted globally. What
//! differs between the operators is only where `u`'s targets come from: a
//! source-run directory of the right operand
//! ([`EvalContext::join_pairs`]), the graph's own per-vertex label runs
//! ([`expand_adjacency`]), or — for a label *left* operand — the graph's
//! own source-major label relation streamed as the left side
//! ([`EvalContext::join_label_left`]).

use cpqx_graph::{ExtLabel, Graph, Pair, VertexId};

/// Reusable per-evaluation scratch state for the pair-set joins.
///
/// One evaluation (a plan execution, a BFS recursion, a path-index
/// recursion) creates a context up front and threads it through its
/// joins; the directory and the per-source buffers then grow to the
/// largest operand once and are reused by every subsequent join. All
/// scratch is sized by the operands, never by the graph's vertex count:
/// the directory by the right operand's distinct sources, the target
/// buffer by one source's gathered targets, and the bitset that
/// deduplicates them by their id *range* — used only while that range is
/// at most 64 × the gathered count, i.e. one word per target.
#[derive(Default)]
pub struct EvalContext {
    /// Source-run directory of the current right operand (rebuilt per
    /// join).
    runs: RunDirectory,
    /// One source's gathered targets.
    targets: SourceTargets,
}

/// One source's gathered join targets and the scratch that puts them in
/// order.
#[derive(Default)]
struct SourceTargets {
    /// The targets, as gathered — then sorted and distinct.
    ids: Vec<VertexId>,
    /// One bit per id of the gathered range; all zero between calls.
    bits: Vec<u64>,
}

impl SourceTargets {
    /// Sorts and deduplicates `ids`, all of which lie in `lo..=hi`.
    /// Targets gathered for one source are dense — neighbours of
    /// neighbours, drawn from one graph's id space — so while that range
    /// is at most 64 × their count they are marked in a bitset over it and
    /// read back in order, clearing each word as it is read: linear in the
    /// count, no comparisons. A wide sparse range falls back to a
    /// comparison sort.
    fn normalize(&mut self, lo: VertexId, hi: VertexId) {
        debug_assert!(self.ids.iter().all(|id| (lo..=hi).contains(id)));
        let words = ((hi - lo) >> 6) as usize + 1;
        if words > self.ids.len() {
            self.ids.sort_unstable();
            self.ids.dedup();
            return;
        }
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        for &id in &self.ids {
            let at = id - lo;
            self.bits[(at >> 6) as usize] |= 1 << (at & 63);
        }
        self.ids.clear();
        for (w, word) in self.bits[..words].iter_mut().enumerate() {
            let mut set = std::mem::take(word);
            while set != 0 {
                self.ids.push(lo + ((w as u32) << 6) + set.trailing_zeros());
                set &= set - 1;
            }
        }
    }
}

/// Where each source's run starts in a normalized pair set: an
/// open-addressing table over the distinct sources, at most half full.
#[derive(Default)]
struct RunDirectory {
    /// `source | (run + 1) << 32`; 0 marks an empty slot.
    slots: Vec<u64>,
    /// Start offset of each run, plus the operand length as a sentinel.
    starts: Vec<u32>,
    /// `64 - log2(slots.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
}

impl RunDirectory {
    #[inline]
    fn slot_of(&self, v: VertexId) -> usize {
        ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Indexes the source runs of the normalized pair set `pairs`.
    fn rebuild(&mut self, pairs: &[Pair]) {
        assert!(pairs.len() < u32::MAX as usize, "pair set too large for a run directory");
        self.starts.clear();
        for (i, p) in pairs.iter().enumerate() {
            if i == 0 || pairs[i - 1].src() != p.src() {
                self.starts.push(i as u32);
            }
        }
        let runs = self.starts.len();
        self.starts.push(pairs.len() as u32);
        let capacity = (2 * runs).next_power_of_two().max(2);
        self.shift = 64 - capacity.trailing_zeros();
        self.slots.clear();
        self.slots.resize(capacity, 0);
        for run in 0..runs {
            let v = pairs[self.starts[run] as usize].src();
            let mut at = self.slot_of(v);
            while self.slots[at] != 0 {
                at = (at + 1) & (capacity - 1);
            }
            self.slots[at] = (run as u64 + 1) << 32 | v as u64;
        }
    }

    /// The run of source `v` in `pairs` (the set this directory was built
    /// over); empty if `v` is not a source.
    #[inline]
    fn run<'p>(&self, pairs: &'p [Pair], v: VertexId) -> &'p [Pair] {
        let mut at = self.slot_of(v);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return &[];
            }
            if slot as u32 == v {
                let run = (slot >> 32) as usize - 1;
                return &pairs[self.starts[run] as usize..self.starts[run + 1] as usize];
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }
}

/// Whether `pairs` is sorted source-major and deduplicated (the operand
/// contract of every operator here; checked in debug builds).
fn is_normalized(pairs: &[Pair]) -> bool {
    pairs.windows(2).all(|w| w[0] < w[1])
}

/// The source-major join core: one pass over the source-sorted `left`.
/// Per source `v`, `gather(u, buf)` appends the targets reachable through
/// each `(v, u)` — sorted and deduplicated per call — and the source's
/// results are appended to `out` in target order.
fn join_by_source(
    left: &[Pair],
    buf: &mut SourceTargets,
    out: &mut Vec<Pair>,
    mut gather: impl FnMut(VertexId, &mut Vec<VertexId>),
) {
    for run in left.chunk_by(|a, b| a.src() == b.src()) {
        buf.ids.clear();
        // Each contribution is sorted, so its ends bound its id range.
        let (mut contributors, mut lo, mut hi) = (0usize, VertexId::MAX, 0);
        for p in run {
            let before = buf.ids.len();
            gather(p.dst(), &mut buf.ids);
            if let Some(&first) = buf.ids.get(before) {
                contributors += 1;
                lo = lo.min(first);
                hi = hi.max(buf.ids[buf.ids.len() - 1]);
            }
        }
        // One contributor's targets are already sorted and distinct.
        if contributors > 1 {
            buf.normalize(lo, hi);
        }
        let v = run[0].src();
        out.extend(buf.ids.iter().map(|&y| Pair::new(v, y)));
    }
}

/// The cycle-closing variant of [`join_by_source`]: emits `(v, v)` for
/// every source `v` with some `(v, u)` for which `closes(v, u)` holds.
fn loops_by_source(
    left: &[Pair],
    out: &mut Vec<Pair>,
    mut closes: impl FnMut(VertexId, VertexId) -> bool,
) {
    for run in left.chunk_by(|a, b| a.src() == b.src()) {
        let v = run[0].src();
        if run.iter().any(|p| closes(v, p.dst())) {
            out.push(Pair::new(v, v));
        }
    }
}

impl EvalContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join `{(v, y) | (v, u) ∈ left, (u, y) ∈ right}`.
    ///
    /// Both operands must be normalized; so is the output.
    pub fn join_pairs(&mut self, left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        self.join_segments(std::iter::once(left), right, false)
    }

    /// The paper's fused `JOIN-ID`: like [`EvalContext::join_pairs`] but
    /// keeps only cyclic results (`v = y`).
    pub fn join_pairs_id(&mut self, left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        self.join_segments(std::iter::once(left), right, true)
    }

    /// Join `⟦ℓ⟧ ⋈ right` with the left operand streamed from the graph:
    /// the per-chunk segments of `⟦ℓ⟧` are already source-major and follow
    /// ascending vertex ranges, so they are joined in place, one after the
    /// other — the label relation is never copied, expanded from an index,
    /// or sorted. With `require_loop`, keeps only cyclic results (fused
    /// `JOIN-ID`). `right` must be normalized; so is the output.
    pub fn join_label_left(
        &mut self,
        g: &Graph,
        l: ExtLabel,
        right: &[Pair],
        require_loop: bool,
    ) -> Vec<Pair> {
        self.join_segments(g.edge_pairs(l).segments(), right, require_loop)
    }

    /// Joins a left operand given as normalized segments over ascending
    /// source ranges against `right`, building `right`'s run directory
    /// once.
    fn join_segments<'a>(
        &mut self,
        left: impl Iterator<Item = &'a [Pair]>,
        right: &[Pair],
        loops: bool,
    ) -> Vec<Pair> {
        debug_assert!(is_normalized(right), "join operands must be normalized");
        let mut out = Vec::new();
        if right.is_empty() {
            return out;
        }
        self.runs.rebuild(right);
        let runs = &self.runs;
        for segment in left {
            debug_assert!(is_normalized(segment), "join operands must be normalized");
            if loops {
                loops_by_source(segment, &mut out, |v, u| {
                    runs.run(right, u).binary_search(&Pair::new(u, v)).is_ok()
                });
            } else {
                join_by_source(segment, &mut self.targets, &mut out, |u, buf| {
                    buf.extend(runs.run(right, u).iter().map(|p| p.dst()));
                });
            }
        }
        out
    }
}

/// One-shot convenience wrapper over [`EvalContext::join_pairs`] (tests,
/// cold paths). Hot loops should hold a context instead.
pub fn join_pairs(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    EvalContext::new().join_pairs(left, right)
}

/// One-shot convenience wrapper over [`EvalContext::join_pairs_id`].
pub fn join_pairs_id(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    EvalContext::new().join_pairs_id(left, right)
}

/// Sorted intersection of two normalized pair sets (galloping on skewed
/// inputs — see [`cpqx_graph::pair::intersect_sorted`]).
pub fn intersect_pairs(a: &[Pair], b: &[Pair]) -> Vec<Pair> {
    let mut out = Vec::new();
    cpqx_graph::pair::intersect_sorted(a, b, &mut out);
    out
}

/// Filters a normalized pair set to cyclic pairs (the bare `IDENTITY`
/// operator applied to a pair set).
pub fn filter_loops(pairs: &[Pair]) -> Vec<Pair> {
    pairs.iter().copied().filter(|p| p.is_loop()).collect()
}

/// Expands a normalized pair set by one adjacency step: for every `(v, u)`
/// and every edge `(u, t, ℓ)`, emits `(v, t)`. This is the frontier
/// expansion the index-free BFS baseline uses for chain suffixes, served
/// from the graph's label runs ([`Graph::label_run`]: two offset loads per
/// step). Output is normalized, emitted source by source.
pub fn expand_adjacency(g: &Graph, pairs: &[Pair], l: ExtLabel) -> Vec<Pair> {
    debug_assert!(is_normalized(pairs), "join operands must be normalized");
    let mut out = Vec::new();
    join_by_source(pairs, &mut SourceTargets::default(), &mut out, |u, buf| {
        buf.extend(g.label_run(u, l).iter().map(|p| p.dst()));
    });
    out
}

/// Fused `expand ∩ id`: like [`expand_adjacency`] but keeps only cyclic
/// results `(v, v)` — the one-label-suffix form of `JOIN-ID`. A pair
/// `(v, u)` closes iff the graph holds the edge `u →ℓ v`.
pub fn expand_adjacency_id(g: &Graph, pairs: &[Pair], l: ExtLabel) -> Vec<Pair> {
    debug_assert!(is_normalized(pairs), "join operands must be normalized");
    let mut out = Vec::new();
    loops_by_source(pairs, &mut out, |v, u| g.has_edge(u, v, l));
    out
}

/// The full identity relation `{(v, v)}` of a graph.
pub fn all_loops(g: &Graph) -> Vec<Pair> {
    g.vertices().map(|v| Pair::new(v, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::generate;
    use proptest::prelude::*;

    fn p(v: u32, u: u32) -> Pair {
        Pair::new(v, u)
    }

    #[test]
    fn join_matches_middle() {
        let left = vec![p(0, 1), p(0, 2), p(5, 1)];
        let right = vec![p(1, 7), p(2, 8), p(3, 9)];
        assert_eq!(join_pairs(&left, &right), vec![p(0, 7), p(0, 8), p(5, 7)]);
    }

    #[test]
    fn join_dedups() {
        let left = vec![p(0, 1), p(0, 2)];
        let right = vec![p(1, 7), p(2, 7)];
        assert_eq!(join_pairs(&left, &right), vec![p(0, 7)]);
    }

    #[test]
    fn join_id_keeps_cycles_only() {
        let left = vec![p(0, 1), p(7, 2)];
        let right = vec![p(1, 0), p(2, 8)];
        assert_eq!(join_pairs_id(&left, &right), vec![p(0, 0)]);
    }

    #[test]
    fn join_empty_sides() {
        assert!(join_pairs(&[], &[p(0, 1)]).is_empty());
        assert!(join_pairs(&[p(0, 1)], &[]).is_empty());
    }

    #[test]
    fn context_reuse_matches_one_shot() {
        let mut ctx = EvalContext::new();
        let left = vec![p(0, 1), p(0, 2), p(5, 1)];
        let right = vec![p(1, 7), p(2, 8), p(3, 9)];
        let a = ctx.join_pairs(&left, &right);
        // Second join with a different shape rebuilds the same scratch.
        let b = ctx.join_pairs(&right, &left);
        assert_eq!(a, join_pairs(&left, &right));
        assert_eq!(b, join_pairs(&right, &left));
        assert_eq!(ctx.join_pairs_id(&[p(0, 1)], &[p(1, 0)]), vec![p(0, 0)]);
    }

    #[test]
    fn label_left_join_streams_graph_segments() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let v = g.label_named("v").unwrap().fwd();
        for l in [f, v] {
            let left = g.edge_pairs(l).to_vec();
            let right = g.edge_pairs(f).to_vec();
            let mut ctx = EvalContext::new();
            assert_eq!(ctx.join_label_left(&g, l, &right, false), join_pairs(&left, &right));
            assert_eq!(ctx.join_label_left(&g, l, &right, true), join_pairs_id(&left, &right));
        }
        assert!(EvalContext::new().join_label_left(&g, f, &[], false).is_empty());
    }

    #[test]
    fn expand_matches_join_on_edge_relation() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let v = g.label_named("v").unwrap().fwd();
        let base = g.edge_pairs(f).to_vec();
        let a = expand_adjacency(&g, &base, v);
        let b = join_pairs(&base, &g.edge_pairs(v).to_vec());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let a_id = expand_adjacency_id(&g, &base, v);
        let b_id = join_pairs_id(&base, &g.edge_pairs(v).to_vec());
        assert_eq!(a_id, b_id);
    }

    /// Contributions for one source: sorted distinct target lists whose
    /// ids sit in a window of `spread` ids starting at `base` — dense
    /// windows take the bitset, wide ones the comparison sort.
    fn contributions() -> impl Strategy<Value = Vec<Vec<VertexId>>> {
        let base = prop_oneof![Just(0u32), Just(61), Just(u32::MAX - 70_000)];
        let spread = prop_oneof![1u32..70, 1000u32..70_000];
        (base, spread, prop::collection::vec(prop::collection::vec(any::<u32>(), 0..12), 0..6))
            .prop_map(|(base, spread, raw)| {
                raw.into_iter()
                    .map(|list| {
                        let mut list: Vec<_> = list.iter().map(|r| base + r % spread).collect();
                        list.sort_unstable();
                        list.dedup();
                        list
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One scratch joins sources of different target ranges back to
        /// back: every source's output is the sorted distinct union of its
        /// contributions (a single contributor passes through untouched),
        /// and the bitset is all zero again after each of them.
        #[test]
        fn source_targets_merge_like_sort_dedup(sources in prop::collection::vec(contributions(), 1..5)) {
            let mut scratch = SourceTargets::default();
            for (v, lists) in sources.iter().enumerate() {
                let left: Vec<Pair> = (0..lists.len()).map(|u| Pair::new(v as u32, u as u32)).collect();
                let mut out = Vec::new();
                join_by_source(&left, &mut scratch, &mut out, |u, buf| {
                    buf.extend_from_slice(&lists[u as usize]);
                });
                let mut expected: Vec<VertexId> = lists.concat();
                expected.sort_unstable();
                expected.dedup();
                let targets: Vec<VertexId> = out.iter().map(|p| p.dst()).collect();
                prop_assert_eq!(targets, expected);
                prop_assert!(out.iter().all(|p| p.src() == v as u32));
                prop_assert!(scratch.bits.iter().all(|&w| w == 0), "bitset left dirty");
            }
        }
    }

    #[test]
    fn sparse_targets_fall_back_and_leave_no_bitset() {
        // Two targets 2³¹ apart: a bitset over their range would be 32 Mi
        // words for two ids, so the comparison sort runs and no bitset is
        // ever allocated; a dense follow-up then sizes it by its own range.
        let mut scratch = SourceTargets { ids: vec![1 << 31, 5, 1 << 31], bits: Vec::new() };
        scratch.normalize(5, 1 << 31);
        assert_eq!(scratch.ids, vec![5, 1 << 31]);
        assert!(scratch.bits.is_empty());
        scratch.ids = vec![u32::MAX, u32::MAX - 100, u32::MAX - 3, u32::MAX];
        scratch.normalize(u32::MAX - 100, u32::MAX);
        assert_eq!(scratch.ids, vec![u32::MAX - 100, u32::MAX - 3, u32::MAX]);
        assert_eq!(scratch.bits, vec![0, 0]);
    }

    #[test]
    fn loops_filter() {
        let pairs = vec![p(0, 0), p(0, 1), p(2, 2)];
        assert_eq!(filter_loops(&pairs), vec![p(0, 0), p(2, 2)]);
        let g = generate::cycle(4, "f");
        assert_eq!(all_loops(&g).len(), 4);
    }
}
