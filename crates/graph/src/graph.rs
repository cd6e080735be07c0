//! The directed edge-labeled graph type and its builder.

use crate::label::{ExtLabel, Label};
use crate::pair::Pair;
use std::collections::HashMap;
use std::sync::Arc;

/// Dense vertex identifier (`u32`, per the small-integer-id guideline).
pub type VertexId = u32;

/// One decoded topology chunk as the store persists it: the chunk's
/// first vertex id plus each vertex's [`Graph::out_edges`] as a row — input
/// to [`Graph::from_chunk_parts`], which keeps only the runs built from it.
pub type TopologyChunkParts = (VertexId, Vec<Vec<(u16, VertexId)>>);

/// Target total extended edges per copy-on-write chunk. Chunk
/// boundaries are computed with [`crate::view::balanced_ranges_by_weight`]
/// over the extended degrees, so every chunk carries roughly this much
/// data regardless of degree skew — the unit a write transaction copies.
/// Deliberately fine-grained: an edge op touches exactly two chunks, so
/// sharing quality is `1 − touched/total`, and cloning even hundreds of
/// thousands of `Arc`s is still orders of magnitude cheaper than one
/// deep copy.
const TARGET_CHUNK_WEIGHT: usize = 1 << 9;

/// Row count past which [`Graph::add_vertex`] opens a fresh chunk instead
/// of growing the last one (keeps append-heavy workloads from
/// concentrating all new vertices in one ever-growing chunk).
const CHUNK_SPLIT_ROWS: usize = 4096;

/// One extended label's share of a chunk: the sorted pairs of `⟦ℓ⟧` whose
/// source lies in the chunk's range, and where each vertex row's run of
/// them starts.
#[derive(Clone, Default)]
pub(crate) struct LabelRuns {
    /// Sorted source-major: a source-contiguous segment of the global
    /// relation.
    pairs: Vec<Pair>,
    /// `pairs[offsets[r]..offsets[r + 1]]` is the run of vertex
    /// `start + r`. Length `rows + 1` — or empty while the label has no
    /// pair in the chunk, so a wide alphabet pays nothing for the labels a
    /// chunk does not use.
    offsets: Vec<u32>,
}

impl LabelRuns {
    /// The runs of a sorted segment whose sources all lie in
    /// `[start, start + rows)`.
    fn from_sorted(start: VertexId, rows: usize, pairs: Vec<Pair>) -> LabelRuns {
        if pairs.is_empty() {
            return LabelRuns::default();
        }
        let mut offsets = vec![0u32; rows + 1];
        for p in &pairs {
            offsets[(p.src() - start) as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        LabelRuns { pairs, offsets }
    }

    /// The pairs of in-chunk row `r`, sorted by target.
    #[inline]
    fn run(&self, r: usize) -> &[Pair] {
        if self.offsets.is_empty() {
            return &[];
        }
        &self.pairs[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Where `p` sits (or would sit) in `pairs`, searching row `r`'s run
    /// only.
    fn position(&self, r: usize, p: Pair) -> Result<usize, usize> {
        let lo = self.offsets[r] as usize;
        let run = &self.pairs[lo..self.offsets[r + 1] as usize];
        run.binary_search(&p).map(|i| lo + i).map_err(|i| lo + i)
    }

    /// Adds `p` to row `r` of a chunk holding `rows` rows.
    fn insert(&mut self, r: usize, rows: usize, p: Pair) {
        if self.offsets.is_empty() {
            self.offsets = vec![0; rows + 1];
        }
        let i = self.position(r, p).expect_err("pair half already present");
        self.pairs.insert(i, p);
        self.offsets[r + 1..].iter_mut().for_each(|o| *o += 1);
    }

    /// Removes `p` from row `r`; the last pair out takes the offsets with
    /// it.
    fn remove(&mut self, r: usize, p: Pair) {
        let i = self.position(r, p).expect("pair half present");
        self.pairs.remove(i);
        if self.pairs.is_empty() {
            *self = LabelRuns::default();
        } else {
            self.offsets[r + 1..].iter_mut().for_each(|o| *o -= 1);
        }
    }

    /// Appends an empty row.
    fn push_row(&mut self) {
        if let Some(&end) = self.offsets.last() {
            self.offsets.push(end);
        }
    }
}

/// One contiguous vertex range of the graph's topology storage: the
/// per-extended-label pair runs of the vertices in `start..start + rows`,
/// the only record of the chunk's edges. A vertex's edges in
/// `(label, target)` order are its run of each label in `labels`.
///
/// Chunks are the copy-on-write unit: [`Graph`] holds them behind [`Arc`]
/// and mutates through [`Arc::make_mut`], so cloning a graph is
/// O(#chunks) and an edge mutation copies only the chunks of the touched
/// endpoints — everything else stays structurally shared with the
/// original (see [`Graph::cow_diff`]). Display names live in a parallel
/// per-range store ([`Graph::names`]) so that edge churn never pays for
/// copying `String`s: name chunks are only touched by
/// [`Graph::add_vertex`] appends.
#[derive(Clone)]
pub(crate) struct VertexChunk {
    /// First vertex id of this chunk's range.
    start: VertexId,
    /// Number of vertices in the range.
    rows: usize,
    /// The extended labels with a pair in this chunk, ascending: derived
    /// from `runs` like their offsets, so a vertex's edges are found
    /// without visiting every label of a wide alphabet.
    labels: Vec<u16>,
    /// Per extended label: the pairs of `⟦ℓ⟧` whose *source* lies in this
    /// chunk's range, with their per-row offsets.
    runs: Vec<LabelRuns>,
}

impl VertexChunk {
    /// The chunk's sorted segment of `⟦ℓ⟧`.
    #[inline]
    fn segment(&self, label: usize) -> &[Pair] {
        &self.runs[label].pairs
    }

    /// A chunk over sorted `(label, target)` rows, its label runs derived
    /// from them: rows ascend by vertex, so each label's segment comes out
    /// sorted for free. The rows are dropped.
    fn from_rows(start: VertexId, rows: Vec<Vec<(u16, VertexId)>>, ext_labels: usize) -> Self {
        let mut segments = vec![Vec::new(); ext_labels];
        for (off, row) in rows.iter().enumerate() {
            for &(el, t) in row {
                segments[el as usize].push(Pair::new(start + off as u32, t));
            }
        }
        let labels = (0..ext_labels as u16).filter(|&l| !segments[l as usize].is_empty()).collect();
        let runs = segments.into_iter().map(|s| LabelRuns::from_sorted(start, rows.len(), s));
        VertexChunk { start, rows: rows.len(), labels, runs: runs.collect() }
    }

    /// Adds the extended edge `(start + off, y, ℓ)`.
    fn insert_half(&mut self, off: usize, l: ExtLabel, y: VertexId) {
        let runs = &mut self.runs[l.0 as usize];
        if runs.pairs.is_empty() {
            let i = self.labels.binary_search(&l.0).expect_err("label listed without pairs");
            self.labels.insert(i, l.0);
        }
        runs.insert(off, self.rows, Pair::new(self.start + off as u32, y));
    }

    /// Removes the extended edge `(start + off, y, ℓ)`.
    fn remove_half(&mut self, off: usize, l: ExtLabel, y: VertexId) {
        let runs = &mut self.runs[l.0 as usize];
        runs.remove(off, Pair::new(self.start + off as u32, y));
        if runs.pairs.is_empty() {
            let i = self.labels.binary_search(&l.0).expect("label with pairs is listed");
            self.labels.remove(i);
        }
    }
}

/// Per extended label, the pairs all `chunks` hold of it.
fn count_pairs(chunks: &[Arc<VertexChunk>], ext_labels: usize) -> Vec<usize> {
    let mut counts = vec![0; ext_labels];
    for c in chunks {
        for (n, r) in counts.iter_mut().zip(&c.runs) {
            *n += r.pairs.len();
        }
    }
    counts
}

/// Structural-sharing report of [`Graph::cow_diff`] /
/// `CpqxIndex::cow_diff` (in `cpqx-core`): how many copy-on-write chunks
/// of a descendant state were freshly copied versus still shared with the
/// state it was cloned from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowDiff {
    /// Chunks not shared with the predecessor (copied or newly created).
    pub chunks_copied: usize,
    /// Chunks physically shared (`Arc::ptr_eq`) with the predecessor.
    pub chunks_shared: usize,
}

impl CowDiff {
    /// Accumulates another diff into this one.
    pub fn merge(self, other: CowDiff) -> CowDiff {
        CowDiff {
            chunks_copied: self.chunks_copied + other.chunks_copied,
            chunks_shared: self.chunks_shared + other.chunks_shared,
        }
    }

    /// Classifies one chunked store positionally against its predecessor:
    /// an `Arc` at the same index that is `ptr_eq` counts as shared,
    /// anything else (copied by `Arc::make_mut`, newly created, or absent
    /// before) as copied. The single classification rule behind every
    /// `cow_diff` implementation.
    pub fn record_arcs<T>(&mut self, now: &[Arc<T>], before: &[Arc<T>]) {
        for (i, c) in now.iter().enumerate() {
            match before.get(i) {
                Some(b) if Arc::ptr_eq(b, c) => self.chunks_shared += 1,
                _ => self.chunks_copied += 1,
            }
        }
    }
}

/// A borrowed view of a per-label pair relation `⟦ℓ⟧`, stored as
/// source-contiguous segments — one per copy-on-write chunk of the graph.
///
/// The concatenation of [`PairList::segments`] is globally sorted (pair
/// order is source-major and segments follow ascending vertex ranges), so
/// sorted-merge consumers can process segments in order; point and bulk
/// access goes through [`PairList::iter`] / [`PairList::to_vec`] /
/// [`PairList::contains`].
#[derive(Clone, Copy)]
pub struct PairList<'g> {
    chunks: &'g [Arc<VertexChunk>],
    label: u16,
    len: usize,
}

impl<'g> PairList<'g> {
    /// Number of pairs in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The non-empty sorted segments of the view, in ascending source
    /// order. Their concatenation is the whole relation.
    pub fn segments(self) -> impl Iterator<Item = &'g [Pair]> {
        let label = self.label as usize;
        self.chunks.iter().map(move |c| c.segment(label)).filter(|seg| !seg.is_empty())
    }

    /// Iterates the pairs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Pair> + 'g {
        self.segments().flat_map(|s| s.iter().copied())
    }

    /// Collects the view into an owned sorted vector.
    pub fn to_vec(self) -> Vec<Pair> {
        let mut out = Vec::with_capacity(self.len);
        for s in self.segments() {
            out.extend_from_slice(s);
        }
        out
    }

    /// Whether the view contains `p`: the source vertex routes to the
    /// single chunk that can hold it (partition point over the chunk
    /// starts), followed by one binary search inside that chunk's segment
    /// — O(log) regardless of how many chunks the view spans.
    pub fn contains(self, p: Pair) -> bool {
        let ci = self.chunks.partition_point(|c| c.start <= p.src());
        if ci == 0 {
            return false;
        }
        self.chunks[ci - 1].segment(self.label as usize).binary_search(&p).is_ok()
    }
}

impl<'g> IntoIterator for PairList<'g> {
    type Item = Pair;
    type IntoIter = Box<dyn Iterator<Item = Pair> + 'g>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::fmt::Debug for PairList<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A directed edge-labeled graph `G = (V, E, L)` in its *extended* form.
///
/// Every base edge `(v, u, ℓ)` is stored as two extended edges: `(v, u, ℓ)`
/// and its inverse `(u, v, ℓ⁻¹)`, mirroring the paper's extension of `E`
/// and `L` (Sec. III-A). Each extended edge is stored once, as a pair of its
/// label's sorted relation `⟦ℓ⟧`, and every access path reads those pairs:
///
/// * per extended label, `⟦ℓ⟧` as a segmented [`PairList`] — index
///   construction, LOOKUP leaves of the baseline engines, the matchers;
/// * per `(v, ℓ)`, `v`'s run of `⟦ℓ⟧` ([`Graph::label_run`]), because each
///   chunk keeps the row offsets of its segment — the executor's joins and
///   [`Graph::has_edge`];
/// * per vertex, [`Graph::out_edges`]: `v`'s runs of the labels its chunk
///   holds, in `(label, target)` order — the maintenance walks.
///
/// [`Graph::insert_edge`] / [`Graph::remove_edge`] write each half once,
/// which the maintenance experiments (Tables V–VII, Fig. 13) rely on.
/// Multi-edges collapse (`E` is a set).
///
/// # Copy-on-write storage
///
/// All vertex-indexed state lives in contiguous-range chunks behind
/// `Arc`, with boundaries balanced by extended degree
/// ([`crate::view::balanced_ranges_by_weight`]): topology (label runs) in
/// `VertexChunk`s, display names in a parallel
/// per-range store so edge churn never copies `String`s. `Graph::clone`
/// is therefore O(#chunks) — pointer bumps — and an edge mutation copies
/// only the two endpoint topology chunks via `Arc::make_mut`. This is
/// what makes the engine's snapshot-per-write transaction O(changed)
/// instead of O(graph); [`Graph::cow_diff`] reports the sharing between
/// two snapshots.
#[derive(Clone)]
pub struct Graph {
    label_names: Vec<String>,
    chunks: Vec<Arc<VertexChunk>>,
    /// Display names in ranges parallel to `chunks` (same boundaries,
    /// same routing). Kept outside [`VertexChunk`] so edge mutations
    /// never copy `String`s — only [`Graph::add_vertex`] touches the
    /// last name chunk.
    names: Vec<Arc<Vec<String>>>,
    /// Ascending chunk start ids (`chunk_starts[i] == chunks[i].start`);
    /// vertex → chunk routing is a partition point over this.
    chunk_starts: Vec<VertexId>,
    /// Per extended label: total pairs across all chunk segments (keeps
    /// [`PairList::len`] O(1)).
    pair_counts: Vec<usize>,
    vertex_count: u32,
    base_edge_count: usize,
}

impl Graph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> u32 {
        self.vertex_count
    }

    /// Number of *base* edges (the paper's Table II counts `|E|` with
    /// inverses; that is `2 ×` this value).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.base_edge_count
    }

    /// Number of base labels `|L|` (Table II's `|L|` is `2 ×` this).
    #[inline]
    pub fn base_label_count(&self) -> u16 {
        self.label_names.len() as u16
    }

    /// Number of extended labels (`2 × |L|`).
    #[inline]
    pub fn ext_label_count(&self) -> u16 {
        (self.label_names.len() * 2) as u16
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count()
    }

    /// Iterates over all extended labels.
    pub fn ext_labels(&self) -> impl Iterator<Item = ExtLabel> + '_ {
        (0..self.ext_label_count()).map(ExtLabel)
    }

    /// Iterates over all base labels.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.base_label_count()).map(Label)
    }

    /// The chunk index and in-chunk offset of a vertex.
    #[inline]
    fn locate(&self, v: VertexId) -> (usize, usize) {
        debug_assert!(v < self.vertex_count, "vertex {v} out of range");
        let ci = self.chunk_starts.partition_point(|&s| s <= v) - 1;
        (ci, (v - self.chunks[ci].start) as usize)
    }

    /// The sorted relation `⟦ℓ⟧ = {(v, u) | (v, u, ℓ) ∈ E}` for an extended
    /// label, as a segmented view.
    #[inline]
    pub fn edge_pairs(&self, l: ExtLabel) -> PairList<'_> {
        PairList { chunks: &self.chunks, label: l.0, len: self.pair_counts[l.0 as usize] }
    }

    /// Whether the extended edge `(v, u, ℓ)` exists.
    pub fn has_edge(&self, v: VertexId, u: VertexId, l: ExtLabel) -> bool {
        self.label_run(v, l).binary_search(&Pair::new(v, u)).is_ok()
    }

    /// The extended edges out of `v` as `(label, target)`, sorted: `v`'s
    /// run of each label its chunk holds, labels ascending.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (ExtLabel, VertexId)> + '_ {
        let (ci, off) = self.locate(v);
        let c = &self.chunks[ci];
        c.labels.iter().flat_map(move |&l| {
            c.runs[l as usize].run(off).iter().map(move |p| (ExtLabel(l), p.dst()))
        })
    }

    /// The base edges touching `v` as `(src, dst, label)`, in `v`'s
    /// [`Graph::out_edges`] order. A self-loop, which `v` holds as a
    /// forward and an inverse half, is listed once.
    pub fn incident_edges(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, VertexId, Label)> + '_ {
        self.out_edges(v).filter_map(move |(el, t)| match el.is_inverse() {
            false => Some((v, t, el.base())),
            true => (t != v).then_some((t, v, el.base())),
        })
    }

    /// Total extended degree of `v` (forward + inverse edges).
    #[inline]
    pub fn ext_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).count()
    }

    /// Maximum extended degree `d` over all vertices (Thm. 4.3's `d`).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.ext_degree(v)).max().unwrap_or(0)
    }

    /// The pairs `(v, t)` of `⟦ℓ⟧` with source `v`, sorted by target: two
    /// offset loads after the chunk routing.
    #[inline]
    pub fn label_run(&self, v: VertexId, l: ExtLabel) -> &[Pair] {
        let (ci, off) = self.locate(v);
        self.chunks[ci].runs[l.0 as usize].run(off)
    }

    /// Does nothing: no view of the graph is lazy any more. Kept only
    /// because the benchmark package times this call
    /// (`graph.csr_build_ms`); goes when a `benchmark` PR drops it there.
    pub fn ensure_csr(&self) {}

    /// Adds an isolated vertex, returning its id.
    pub fn add_vertex(&mut self, name: impl Into<String>) -> VertexId {
        let id = self.vertex_count;
        let open_new = match self.chunks.last() {
            None => true,
            Some(c) => c.rows >= CHUNK_SPLIT_ROWS,
        };
        if open_new {
            let ext_labels = self.label_names.len() * 2;
            self.chunks.push(Arc::new(VertexChunk::from_rows(id, vec![Vec::new()], ext_labels)));
            self.names.push(Arc::new(vec![name.into()]));
            self.chunk_starts.push(id);
        } else {
            let c = Arc::make_mut(self.chunks.last_mut().expect("checked non-empty"));
            c.rows += 1;
            for &l in &c.labels {
                c.runs[l as usize].push_row();
            }
            Arc::make_mut(self.names.last_mut().unwrap()).push(name.into());
        }
        self.vertex_count += 1;
        id
    }

    /// Inserts the base edge `(v, u, ℓ)` together with its inverse extended
    /// edge. Returns `false` if it already existed.
    ///
    /// # Panics
    /// Panics if `v`, `u` or `ℓ` are out of range.
    pub fn insert_edge(&mut self, v: VertexId, u: VertexId, l: Label) -> bool {
        assert!(v < self.vertex_count() && u < self.vertex_count(), "vertex out of range");
        assert!(l.0 < self.base_label_count(), "label out of range");
        // Existence check before `make_mut`: a duplicate insert must not
        // copy any chunk.
        if self.has_edge(v, u, l.fwd()) {
            return false;
        }
        self.edge_halves(v, u, l, VertexChunk::insert_half);
        self.pair_counts[l.fwd().0 as usize] += 1;
        self.pair_counts[l.inv().0 as usize] += 1;
        self.base_edge_count += 1;
        true
    }

    /// Removes the base edge `(v, u, ℓ)` and its inverse extended edge.
    /// Returns `false` if it did not exist.
    pub fn remove_edge(&mut self, v: VertexId, u: VertexId, l: Label) -> bool {
        if v >= self.vertex_count() || l.0 >= self.base_label_count() {
            return false;
        }
        if !self.has_edge(v, u, l.fwd()) {
            return false;
        }
        self.edge_halves(v, u, l, VertexChunk::remove_half);
        self.pair_counts[l.fwd().0 as usize] -= 1;
        self.pair_counts[l.inv().0 as usize] -= 1;
        self.base_edge_count -= 1;
        true
    }

    /// Applies `apply` to both halves of the base edge `(v, u, ℓ)`: the
    /// forward half in `v`'s chunk and the inverse half in `u`'s chunk —
    /// the only chunks an edge mutation copies.
    fn edge_halves(
        &mut self,
        v: VertexId,
        u: VertexId,
        l: Label,
        apply: fn(&mut VertexChunk, usize, ExtLabel, VertexId),
    ) {
        for (x, y, el) in [(v, u, l.fwd()), (u, v, l.inv())] {
            let (ci, off) = self.locate(x);
            apply(Arc::make_mut(&mut self.chunks[ci]), off, el, y);
        }
    }

    /// Removes every edge incident to `v` (the paper's vertex-deletion
    /// procedure composes edge deletions) and returns the removed base
    /// edges as `(src, dst, label)` triples. The vertex id itself remains
    /// allocated but isolated.
    pub fn isolate_vertex(&mut self, v: VertexId) -> Vec<(VertexId, VertexId, Label)> {
        let incident: Vec<_> = self.incident_edges(v).collect();
        for &(src, dst, l) in &incident {
            self.remove_edge(src, dst, l);
        }
        incident
    }

    /// Iterates over all base edges as `(v, u, label)`.
    pub fn base_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Label)> + '_ {
        self.labels()
            .flat_map(move |l| self.edge_pairs(l.fwd()).iter().map(move |p| (p.src(), p.dst(), l)))
    }

    /// The display name of a vertex.
    pub fn vertex_name(&self, v: VertexId) -> &str {
        let (ci, off) = self.locate(v);
        &self.names[ci][off]
    }

    /// The display name of a base label.
    pub fn label_name(&self, l: Label) -> &str {
        &self.label_names[l.0 as usize]
    }

    /// The display form of an extended label (`name` or `name⁻¹`).
    pub fn ext_label_name(&self, l: ExtLabel) -> String {
        if l.is_inverse() {
            format!("{}⁻¹", self.label_name(l.base()))
        } else {
            self.label_name(l.base()).to_string()
        }
    }

    /// Looks up a vertex by name (linear scan; intended for examples/tests).
    pub fn vertex_named(&self, name: &str) -> Option<VertexId> {
        self.chunks
            .iter()
            .zip(&self.names)
            .find_map(|(c, names)| names.iter().position(|n| n == name).map(|i| c.start + i as u32))
    }

    /// Looks up a base label by name (linear scan over the small alphabet).
    pub fn label_named(&self, name: &str) -> Option<Label> {
        self.label_names.iter().position(|n| n == name).map(|i| Label(i as u16))
    }

    /// Looks up a vertex-tag label (`@tag`); see
    /// [`GraphBuilder::tag_vertex`].
    pub fn tag_label(&self, tag: &str) -> Option<Label> {
        self.label_named(&format!("@{tag}"))
    }

    /// Whether `v` carries the vertex tag.
    pub fn vertex_has_tag(&self, v: VertexId, tag: &str) -> bool {
        self.tag_label(tag).is_some_and(|l| self.has_edge(v, v, l.fwd()))
    }

    /// Number of copy-on-write units backing this graph (topology chunks
    /// plus the parallel name chunks).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len() + self.names.len()
    }

    /// Structural-sharing report against the graph this one was cloned
    /// from: per chunk position (topology chunks and name chunks),
    /// whether the `Arc` is still shared with `before` or was copied (by
    /// `Arc::make_mut`) / newly created.
    pub fn cow_diff(&self, before: &Graph) -> CowDiff {
        let mut diff = CowDiff::default();
        diff.record_arcs(&self.chunks, &before.chunks);
        diff.record_arcs(&self.names, &before.names);
        diff
    }

    /// The base label name table, in label-id order. Persistence surface:
    /// snapshot headers store this verbatim so recovered graphs resolve
    /// names to the same label ids.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Number of topology chunks (the copy-on-write units carrying the
    /// label runs). Persistence surface: snapshot writers emit one record
    /// per topology chunk.
    pub fn topology_chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of name chunks (the per-range display-name stores parallel
    /// to the topology chunks).
    pub fn name_chunk_count(&self) -> usize {
        self.names.len()
    }

    /// The vertex range of the `i`-th topology chunk. A snapshot persists
    /// a chunk as the [`Graph::out_edges`] of each vertex in its range,
    /// which [`Graph::from_chunk_parts`] turns back into label runs.
    pub fn topology_chunk_range(&self, i: usize) -> std::ops::Range<VertexId> {
        let c = &self.chunks[i];
        c.start..c.start + c.rows as VertexId
    }

    /// The `i`-th name chunk: display names of the vertices in the
    /// parallel topology chunk's range.
    pub fn name_chunk(&self, i: usize) -> &[String] {
        &self.names[i]
    }

    /// Reassembles a graph from persisted chunk parts, building the label
    /// runs from the rows and all derived state (present labels, pair
    /// counts, chunk routing, edge count) exactly as
    /// [`GraphBuilder::build`] would; the rows themselves are dropped.
    ///
    /// `topology[i]` is `(start, rows)`: the chunk's
    /// [`Graph::topology_chunk_range`] start and the [`Graph::out_edges`]
    /// of each vertex in it. `names[i]` is the parallel name chunk. The
    /// input is validated (contiguous chunk ranges, parallel name chunks,
    /// in-range strictly sorted rows, forward/inverse symmetry of the pair
    /// totals) so a corrupt snapshot surfaces as an error instead of a
    /// graph that panics later.
    pub fn from_chunk_parts(
        label_names: Vec<String>,
        topology: Vec<TopologyChunkParts>,
        names: Vec<Vec<String>>,
    ) -> Result<Graph, &'static str> {
        let nl = label_names.len();
        if nl > (u16::MAX as usize).div_ceil(2) {
            return Err("label table too large");
        }
        if topology.len() != names.len() {
            return Err("topology/name chunk counts differ");
        }
        let mut next = 0u32;
        for ((start, rows), ns) in topology.iter().zip(&names) {
            if *start != next {
                return Err("chunk starts not contiguous");
            }
            if rows.is_empty() {
                return Err("empty topology chunk");
            }
            if rows.len() != ns.len() {
                return Err("name chunk rows differ from topology chunk");
            }
            next = match next.checked_add(rows.len() as u32) {
                Some(n) => n,
                None => return Err("vertex count overflows u32"),
            };
        }
        let vertex_count = next;
        let mut chunks = Vec::with_capacity(topology.len());
        let mut name_chunks = Vec::with_capacity(names.len());
        let mut chunk_starts = Vec::with_capacity(topology.len());
        for ((start, rows), ns) in topology.into_iter().zip(names) {
            for row in &rows {
                if !row.windows(2).all(|w| w[0] < w[1]) {
                    return Err("topology row not strictly sorted");
                }
                if row.last().is_some_and(|&(el, _)| el as usize >= nl * 2) {
                    return Err("topology label out of range");
                }
                if row.iter().any(|&(_, t)| t >= vertex_count) {
                    return Err("topology target out of range");
                }
            }
            chunk_starts.push(start);
            chunks.push(Arc::new(VertexChunk::from_rows(start, rows, nl * 2)));
            name_chunks.push(Arc::new(ns));
        }
        let pair_counts = count_pairs(&chunks, nl * 2);
        let fwd_total: usize = (0..nl).map(|l| pair_counts[l * 2]).sum();
        let inv_total: usize = (0..nl).map(|l| pair_counts[l * 2 + 1]).sum();
        if fwd_total != inv_total {
            return Err("forward/inverse pair counts disagree");
        }
        Ok(Graph {
            label_names,
            chunks,
            names: name_chunks,
            chunk_starts,
            pair_counts,
            vertex_count,
            base_edge_count: fwd_total,
        })
    }

    /// Approximate deep memory footprint in bytes (graph accounting used by
    /// the experiment harness).
    pub fn size_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                let runs = c.runs.iter().map(|r| r.pairs.capacity() * 8 + r.offsets.capacity() * 4);
                runs.sum::<usize>()
                    + c.runs.len() * std::mem::size_of::<LabelRuns>()
                    + c.labels.capacity() * 2
            })
            .sum()
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("vertices", &self.vertex_count())
            .field("base_edges", &self.edge_count())
            .field("base_labels", &self.base_label_count())
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Vertices and labels can be interned by name ([`GraphBuilder::vertex`],
/// [`GraphBuilder::label`]) or created anonymously in bulk
/// ([`GraphBuilder::ensure_vertices`], [`GraphBuilder::ensure_labels`]).
#[derive(Default)]
pub struct GraphBuilder {
    vertex_names: Vec<String>,
    vertex_index: HashMap<String, VertexId>,
    label_names: Vec<String>,
    label_index: HashMap<String, Label>,
    edges: Vec<(VertexId, VertexId, Label)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a vertex by name, returning its id.
    pub fn vertex(&mut self, name: &str) -> VertexId {
        if let Some(&id) = self.vertex_index.get(name) {
            return id;
        }
        let id = self.vertex_names.len() as VertexId;
        self.vertex_names.push(name.to_string());
        self.vertex_index.insert(name.to_string(), id);
        id
    }

    /// Ensures at least `n` anonymous vertices (named by their index) exist.
    pub fn ensure_vertices(&mut self, n: u32) {
        while (self.vertex_names.len() as u32) < n {
            let id = self.vertex_names.len();
            self.vertex_names.push(id.to_string());
        }
    }

    /// Interns a base label by name.
    pub fn label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.label_index.get(name) {
            return l;
        }
        let l = Label(self.label_names.len() as u16);
        self.label_names.push(name.to_string());
        self.label_index.insert(name.to_string(), l);
        l
    }

    /// Ensures at least `n` anonymous labels (named `l0`, `l1`, …) exist.
    pub fn ensure_labels(&mut self, n: u16) {
        while (self.label_names.len() as u16) < n {
            let name = format!("l{}", self.label_names.len());
            self.label(&name);
        }
    }

    /// Adds a base edge by vertex/label ids.
    pub fn add_edge(&mut self, v: VertexId, u: VertexId, l: Label) {
        self.edges.push((v, u, l));
    }

    /// Adds a base edge by names, interning as needed.
    pub fn add_edge_named(&mut self, v: &str, u: &str, l: &str) {
        let (v, u, l) = (self.vertex(v), self.vertex(u), self.label(l));
        self.add_edge(v, u, l);
    }

    /// Tags a vertex with a (vertex-label) tag — the standard encoding for
    /// vertex labels the paper's footnote 5 alludes to: a self-loop edge
    /// carrying the reserved label `@tag`. A CPQ can then filter endpoints
    /// by composing with the tag atom, e.g. `@person ∘ f` finds `f`-edges
    /// whose source is tagged `person`, and `@person ∩ id` all tagged
    /// vertices.
    pub fn tag_vertex(&mut self, v: &str, tag: &str) {
        let v = self.vertex(v);
        self.tag_vertex_id(v, tag);
    }

    /// Tags a vertex by id; see [`GraphBuilder::tag_vertex`].
    pub fn tag_vertex_id(&mut self, v: VertexId, tag: &str) {
        let l = self.label(&format!("@{tag}"));
        self.add_edge(v, v, l);
    }

    /// Finalizes the graph with the default copy-on-write chunk
    /// granularity: collapses multi-edges, tiles the vertices into
    /// degree-balanced chunks, and builds each chunk's label runs.
    pub fn build(self) -> Graph {
        self.build_with_chunk_weight(TARGET_CHUNK_WEIGHT)
    }

    /// Like [`GraphBuilder::build`] with an explicit target extended-edge
    /// weight per copy-on-write chunk — smaller targets mean more, finer
    /// chunks (more sharing under mutation, more `Arc`s to clone). Exposed
    /// for tests and benchmarks that need multi-chunk graphs at small
    /// sizes.
    pub fn build_with_chunk_weight(self, target_weight: usize) -> Graph {
        let n = self.vertex_names.len();
        let nl = self.label_names.len();
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        let mut deg = vec![0usize; n];
        for &(v, u, l) in &edges {
            assert!((v as usize) < n && (u as usize) < n, "edge endpoint out of range");
            assert!((l.0 as usize) < nl, "edge label out of range");
            deg[v as usize] += 1;
            deg[u as usize] += 1;
        }
        // Degree-balanced chunk boundaries (each vertex weighs at least 1
        // in the balancer, so the target is honored against Σ max(deg, 1)).
        let total: usize = deg.iter().map(|&d| d.max(1)).sum();
        let parts = total.div_ceil(target_weight.max(1)).max(1);
        let ranges = crate::view::balanced_ranges_by_weight(n as u32, parts, |v| deg[v as usize]);

        // Per-vertex `(label, target)` rows: transient input to each
        // chunk's runs.
        let mut rows = vec![Vec::new(); n];
        for &(v, u, l) in &edges {
            rows[v as usize].push((l.fwd().0, u));
            rows[u as usize].push((l.inv().0, v));
        }
        rows.iter_mut().for_each(|row| row.sort_unstable());

        let mut name_iter = self.vertex_names.into_iter();
        let mut row_iter = rows.into_iter();
        let mut chunks: Vec<Arc<VertexChunk>> = Vec::with_capacity(ranges.len());
        let mut names: Vec<Arc<Vec<String>>> = Vec::with_capacity(ranges.len());
        let mut chunk_starts: Vec<VertexId> = Vec::with_capacity(ranges.len());
        for r in &ranges {
            let len = (r.end - r.start) as usize;
            let chunk_rows = row_iter.by_ref().take(len).collect();
            chunks.push(Arc::new(VertexChunk::from_rows(r.start, chunk_rows, nl * 2)));
            names.push(Arc::new(name_iter.by_ref().take(len).collect()));
            chunk_starts.push(r.start);
        }
        Graph {
            label_names: self.label_names,
            pair_counts: count_pairs(&chunks, nl * 2),
            chunks,
            names,
            chunk_starts,
            vertex_count: n as u32,
            base_edge_count: edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("b", "c", "f");
        b.add_edge_named("a", "c", "v");
        b.add_edge_named("c", "c", "f");
        b.build()
    }

    #[test]
    fn build_counts() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.base_label_count(), 2);
        assert_eq!(g.ext_label_count(), 4);
        // c: f-in from b, self-loop f (both directions), v-in from a → 4.
        assert_eq!(g.max_degree(), 4);
        assert_eq!(GraphBuilder::new().build().max_degree(), 0);
    }

    #[test]
    fn inverse_edges_are_materialized() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, b) = (g.vertex_named("a").unwrap(), g.vertex_named("b").unwrap());
        assert!(g.has_edge(a, b, f.fwd()));
        assert!(g.has_edge(b, a, f.inv()));
        assert!(!g.has_edge(b, a, f.fwd()));
        assert_eq!(g.edge_pairs(f.fwd()).len(), 3);
        assert_eq!(g.edge_pairs(f.inv()).len(), 3);
    }

    #[test]
    fn neighbors_are_label_scoped() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let v = g.label_named("v").unwrap();
        let a = g.vertex_named("a").unwrap();
        let nf: Vec<_> = g.label_run(a, f.fwd()).iter().map(|p| p.dst()).collect();
        let nv: Vec<_> = g.label_run(a, v.fwd()).iter().map(|p| p.dst()).collect();
        assert_eq!(nf, vec![g.vertex_named("b").unwrap()]);
        assert_eq!(nv, vec![g.vertex_named("c").unwrap()]);
    }

    #[test]
    fn multi_edges_collapse() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("a", "b", "f");
        b.add_edge_named("a", "b", "f");
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, c) = (g.vertex_named("a").unwrap(), g.vertex_named("c").unwrap());
        assert!(!g.has_edge(a, c, f.fwd()));
        assert!(g.insert_edge(a, c, f));
        assert!(!g.insert_edge(a, c, f), "duplicate insert must be a no-op");
        assert!(g.has_edge(a, c, f.fwd()));
        assert!(g.has_edge(c, a, f.inv()));
        assert_eq!(g.edge_count(), 5);
        assert!(g.remove_edge(a, c, f));
        assert!(!g.remove_edge(a, c, f));
        assert!(!g.has_edge(a, c, f.fwd()));
        assert!(!g.has_edge(c, a, f.inv()));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn insert_keeps_views_consistent() {
        let mut g = tiny();
        let f = g.label_named("f").unwrap();
        let (a, c) = (g.vertex_named("a").unwrap(), g.vertex_named("c").unwrap());
        g.insert_edge(a, c, f);
        let fwd = g.edge_pairs(f.fwd()).to_vec();
        assert!(fwd.windows(2).all(|w| w[0] < w[1]), "pair list stays sorted");
        assert!(g.edge_pairs(f.fwd()).contains(Pair::new(a, c)));
        assert!(g.edge_pairs(f.inv()).contains(Pair::new(c, a)));
        assert_eq!(g.edge_pairs(f.fwd()).len(), fwd.len());
    }

    #[test]
    fn isolate_vertex_removes_all_incident() {
        let mut g = tiny();
        let b = g.vertex_named("b").unwrap();
        let removed = g.isolate_vertex(b);
        assert_eq!(removed.len(), 2);
        assert_eq!(g.ext_degree(b), 0);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn self_loop_handling() {
        let g = tiny();
        let f = g.label_named("f").unwrap();
        let c = g.vertex_named("c").unwrap();
        assert!(g.has_edge(c, c, f.fwd()));
        assert!(g.has_edge(c, c, f.inv()));
        assert!(g.edge_pairs(f.fwd()).contains(Pair::new(c, c)));
    }

    #[test]
    fn add_vertex_grows() {
        let mut g = tiny();
        let d = g.add_vertex("d");
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.vertex_name(d), "d");
        assert_eq!(g.ext_degree(d), 0);
    }

    #[test]
    fn base_edges_iterates_forward_only() {
        let g = tiny();
        assert_eq!(g.base_edges().count(), g.edge_count());
    }

    #[test]
    fn vertex_tags_are_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge_named("alice", "post1", "wrote");
        b.tag_vertex("alice", "person");
        b.tag_vertex("post1", "post");
        let g = b.build();
        let alice = g.vertex_named("alice").unwrap();
        let post = g.vertex_named("post1").unwrap();
        assert!(g.vertex_has_tag(alice, "person"));
        assert!(!g.vertex_has_tag(alice, "post"));
        assert!(g.vertex_has_tag(post, "post"));
        assert!(!g.vertex_has_tag(post, "person"));
        assert!(g.tag_label("person").is_some());
        assert!(g.tag_label("nosuch").is_none());
        // Tags are ordinary labels: the tag self-loop is a base edge.
        let tl = g.tag_label("person").unwrap();
        assert!(g.has_edge(alice, alice, tl.fwd()));
    }

    /// A multi-chunk graph built with a tiny chunk weight so chunk
    /// boundaries fall inside the data.
    fn chunky(n: u32, weight: usize) -> Graph {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(n);
        let l = b.label("f");
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, l);
            b.add_edge(v, (v + 7) % n, l);
        }
        b.build_with_chunk_weight(weight)
    }

    #[test]
    fn chunked_build_matches_monolithic() {
        let mono = chunky(64, usize::MAX);
        let multi = chunky(64, 8);
        assert_eq!(mono.chunk_count(), 2, "one topology chunk + one name chunk");
        assert!(multi.chunk_count() > 8, "weight 8 must split 64 vertices");
        assert_eq!(mono.edge_count(), multi.edge_count());
        for v in mono.vertices() {
            assert!(mono.out_edges(v).eq(multi.out_edges(v)), "out-edges of {v}");
            assert_eq!(mono.vertex_name(v), multi.vertex_name(v));
        }
        for l in mono.ext_labels() {
            assert_eq!(mono.edge_pairs(l).to_vec(), multi.edge_pairs(l).to_vec());
            assert_eq!(mono.edge_pairs(l).len(), multi.edge_pairs(l).len());
        }
    }

    #[test]
    fn clone_shares_chunks_and_mutation_copies_only_touched() {
        let base = chunky(64, 8);
        let mut g = base.clone();
        let d0 = g.cow_diff(&base);
        assert_eq!(d0.chunks_copied, 0, "a fresh clone shares everything");
        assert_eq!(d0.chunks_shared, base.chunk_count());
        let f = g.label_named("f").unwrap();
        assert!(g.insert_edge(3, 40, f));
        let d1 = g.cow_diff(&base);
        assert!(d1.chunks_copied >= 1 && d1.chunks_copied <= 2, "endpoint chunks only: {d1:?}");
        assert_eq!(d1.chunks_copied + d1.chunks_shared, g.chunk_count());
        // The original is untouched.
        assert!(!base.has_edge(3, 40, f.fwd()));
        assert_eq!(base.edge_count() + 1, g.edge_count());
    }

    #[test]
    fn noop_mutations_copy_nothing() {
        let base = chunky(64, 8);
        let mut g = base.clone();
        let f = g.label_named("f").unwrap();
        assert!(!g.insert_edge(0, 1, f), "edge exists");
        assert!(!g.remove_edge(0, 2, f), "edge absent");
        let d = g.cow_diff(&base);
        assert_eq!(d.chunks_copied, 0, "no-ops must not break sharing");
    }

    #[test]
    fn pair_list_views() {
        let g = chunky(64, 8);
        let f = g.label_named("f").unwrap();
        let all = g.edge_pairs(f.fwd());
        assert_eq!(all.len(), 128);
        assert_eq!(all.iter().count(), all.len());
        let flat = all.to_vec();
        assert!(flat.windows(2).all(|w| w[0] < w[1]), "segment concat stays sorted");
        for &p in &flat {
            assert!(all.contains(p));
        }
        assert!(!all.contains(Pair::new(40, 42)));
    }

    /// The stored shape of every chunk's label runs: offsets exist exactly
    /// while the label has pairs in the chunk, one per row plus the end,
    /// and the chunk lists exactly those labels.
    fn check_runs(g: &Graph) {
        for c in &g.chunks {
            for r in &c.runs {
                if r.pairs.is_empty() {
                    assert!(r.offsets.is_empty(), "a label without pairs keeps no offsets");
                } else {
                    assert_eq!(r.offsets.len(), c.rows + 1);
                    assert_eq!((r.offsets[0], r.offsets[c.rows] as usize), (0, r.pairs.len()));
                }
            }
            let present =
                (0..c.runs.len() as u16).filter(|&l| !c.runs[l as usize].pairs.is_empty());
            assert!(present.eq(c.labels.iter().copied()), "present labels of chunk {}", c.start);
        }
    }

    #[test]
    fn emptied_label_keeps_no_offsets() {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(12);
        let (f, v) = (b.label("f"), b.label("v"));
        (0..12).for_each(|x| b.add_edge(x, (x + 1) % 12, f));
        b.add_edge(2, 9, v);
        b.add_edge(2, 3, v);
        let mut g = b.build_with_chunk_weight(8);
        check_runs(&g);
        assert!(g.remove_edge(2, 9, v) && g.remove_edge(2, 3, v));
        check_runs(&g);
        // Rows appended while the label is absent exist once it comes back.
        let d = g.add_vertex("d");
        assert!(g.insert_edge(d, 2, v));
        check_runs(&g);
        assert_eq!(g.label_run(d, v.fwd()), [Pair::new(d, 2)]);
        assert_eq!(g.label_run(2, v.inv()), [Pair::new(2, d)]);
    }

    /// The persisted parts of `g`: per topology chunk its start and each
    /// vertex's out-edges, and the name chunks.
    fn parts(g: &Graph) -> (Vec<String>, Vec<TopologyChunkParts>, Vec<Vec<String>>) {
        let rows = |v| g.out_edges(v).map(|(l, t)| (l.0, t)).collect();
        let topo = (0..g.topology_chunk_count())
            .map(|i| g.topology_chunk_range(i))
            .map(|r| (r.start, r.map(rows).collect()))
            .collect();
        let names = (0..g.name_chunk_count()).map(|i| g.name_chunk(i).to_vec()).collect();
        (g.label_names().to_vec(), topo, names)
    }

    /// Disassembles a graph through the persistence accessors and
    /// reassembles it via `from_chunk_parts`.
    fn chunk_roundtrip(g: &Graph) -> Graph {
        let (labels, topo, names) = parts(g);
        Graph::from_chunk_parts(labels, topo, names).expect("valid parts")
    }

    #[test]
    fn chunk_parts_roundtrip_rebuilds_derived_state() {
        let mut g = chunky(64, 8);
        let f = g.label_named("f").unwrap();
        g.insert_edge(3, 40, f);
        g.remove_edge(0, 1, f);
        let d = g.add_vertex("extra");
        g.insert_edge(d, 5, f);
        let r = chunk_roundtrip(&g);
        assert_eq!(r.vertex_count(), g.vertex_count());
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.label_names(), g.label_names());
        for v in g.vertices() {
            assert!(r.out_edges(v).eq(g.out_edges(v)), "out-edges of {v}");
            assert_eq!(r.vertex_name(v), g.vertex_name(v));
        }
        for l in g.ext_labels() {
            assert_eq!(r.edge_pairs(l).to_vec(), g.edge_pairs(l).to_vec());
            assert_eq!(r.edge_pairs(l).len(), g.edge_pairs(l).len());
        }
        check_runs(&r);
        // The rebuilt graph is fully maintainable.
        let mut r = r;
        assert!(r.insert_edge(1, 2, f) || r.remove_edge(1, 2, f));
    }

    #[test]
    fn from_chunk_parts_rejects_corrupt_input() {
        let g = chunky(16, 8);
        let take = parts;
        // Non-contiguous starts.
        let (l, mut topo, names) = take(&g);
        topo.last_mut().unwrap().0 += 1;
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Out-of-range target.
        let (l, mut topo, names) = take(&g);
        topo[0].1[0].push((0, 10_000));
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Out-of-range label.
        let (l, mut topo, names) = take(&g);
        topo[0].1[0].insert(0, (0, 0));
        topo[0].1[0][0].0 = 99;
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Name chunk length mismatch.
        let (l, topo, mut names) = take(&g);
        names[0].pop();
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
        // Asymmetric halves: drop one inverse entry.
        let (l, mut topo, names) = take(&g);
        let row = topo[0].1.iter_mut().find(|r| !r.is_empty()).unwrap();
        row.pop();
        assert!(Graph::from_chunk_parts(l, topo, names).is_err());
    }

    #[test]
    fn add_vertex_opens_chunks_past_split() {
        let mut g = GraphBuilder::new().build();
        assert_eq!(g.chunk_count(), 0);
        for i in 0..(CHUNK_SPLIT_ROWS + 10) {
            g.add_vertex(format!("v{i}"));
        }
        assert_eq!(g.vertex_count() as usize, CHUNK_SPLIT_ROWS + 10);
        assert_eq!(g.chunk_count(), 4, "split threshold opens a second chunk pair");
        assert_eq!(g.vertex_name(0), "v0");
        let last = g.vertex_count() - 1;
        assert_eq!(g.vertex_name(last), format!("v{}", last));
        assert_eq!(g.ext_degree(last), 0);
        check_runs(&g);
    }
}
