//! Per-chunk, per-label **bidirectional CSR read faces**.
//!
//! The copy-on-write [`VertexChunk`](crate::graph) storage is shaped for
//! writes: per-vertex adjacency rows and per-label pair segments that an
//! edge mutation can update in O(log) after copying one chunk. Reads
//! deserve a denser form. A [`ChunkCsr`] is the read-optimized face of one
//! chunk: for every extended label that has pairs in the chunk, a
//! [`LabelFace`] holding
//!
//! * a **forward** CSR — one `u32` offset per vertex row into a flat
//!   sorted target array, so `targets(v, ℓ)` is two array loads instead of
//!   two binary searches over the mixed-label adjacency row, and
//! * a **reverse** CSR — the chunk's pairs re-keyed by *target*:
//!   compacted sorted target keys, offsets, and grouped source arrays, for
//!   consumers that need the relation target-major without materializing
//!   or re-sorting anything.
//!
//! # Invariants
//!
//! * `fwd` targets per row are strictly sorted; their concatenation in row
//!   order equals the chunk's source-contiguous pair segment for the
//!   label. `rev` keys are strictly sorted and each key's source group is
//!   strictly sorted — the reverse face is exactly the segment's pairs
//!   swapped and re-sorted.
//! * A face is **built lazily** on first read after construction or
//!   mutation ([`Graph::csr_chunk`](crate::Graph::csr_chunk) /
//!   [`Graph::csr_targets`](crate::Graph::csr_targets)) and cached inside
//!   the chunk behind an `Arc`, so `Graph::clone` (and therefore engine
//!   snapshot installs) share built faces by pointer — a snapshot install
//!   never copies or rebuilds a face.
//! * Every chunk mutation (`Arc::make_mut` copy-on-write in
//!   `Graph::insert_edge` / `Graph::remove_edge` / `Graph::add_vertex`)
//!   **invalidates** the touched chunk's cached face; untouched chunks
//!   keep theirs. The write path therefore stays O(changed): it drops a
//!   cache, it never rebuilds one.
//!
//! Stale reads are impossible by construction: the only way to mutate a
//! chunk is through the invalidating seam, and a cloned chunk carries a
//! cache describing bytes that are still identical.

use crate::graph::VertexId;
use crate::label::ExtLabel;
use crate::pair::Pair;

/// The bidirectional CSR of one extended label inside one chunk (see the
/// module docs for the invariants).
pub struct LabelFace {
    /// `fwd_offsets[r]..fwd_offsets[r + 1]` indexes `fwd_targets` with the
    /// sorted targets of vertex `start + r`. Length `rows + 1`.
    fwd_offsets: Vec<u32>,
    fwd_targets: Vec<VertexId>,
    /// Compacted strictly-sorted target keys of the reverse face.
    rev_keys: Vec<VertexId>,
    /// `rev_offsets[i]..rev_offsets[i + 1]` indexes `rev_sources` with the
    /// sorted sources reaching `rev_keys[i]`. Length `rev_keys.len() + 1`.
    rev_offsets: Vec<u32>,
    rev_sources: Vec<VertexId>,
}

impl LabelFace {
    /// Builds the face of one source-contiguous sorted pair segment whose
    /// sources all lie in `[start, start + rows)`.
    fn build(start: VertexId, rows: usize, segment: &[Pair]) -> LabelFace {
        let mut fwd_offsets = Vec::with_capacity(rows + 1);
        let mut fwd_targets = Vec::with_capacity(segment.len());
        fwd_offsets.push(0);
        let mut i = 0;
        for r in 0..rows {
            let v = start + r as u32;
            while i < segment.len() && segment[i].src() == v {
                fwd_targets.push(segment[i].dst());
                i += 1;
            }
            fwd_offsets.push(fwd_targets.len() as u32);
        }
        debug_assert_eq!(i, segment.len(), "segment sources outside chunk range");

        let mut swapped: Vec<Pair> = segment.iter().map(|p| p.swap()).collect();
        swapped.sort_unstable();
        let mut rev_keys = Vec::new();
        let mut rev_offsets = Vec::new();
        let mut rev_sources = Vec::with_capacity(swapped.len());
        for p in swapped {
            if rev_keys.last() != Some(&p.src()) {
                rev_keys.push(p.src());
                rev_offsets.push(rev_sources.len() as u32);
            }
            rev_sources.push(p.dst());
        }
        rev_offsets.push(rev_sources.len() as u32);
        LabelFace { fwd_offsets, fwd_targets, rev_keys, rev_offsets, rev_sources }
    }

    /// Number of pairs the face covers.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.fwd_targets.len()
    }

    /// Sorted targets of the vertex at in-chunk row `r`.
    #[inline]
    pub fn targets_of_row(&self, r: usize) -> &[VertexId] {
        &self.fwd_targets[self.fwd_offsets[r] as usize..self.fwd_offsets[r + 1] as usize]
    }

    /// The strictly-sorted compacted target keys of the reverse face.
    #[inline]
    pub fn rev_keys(&self) -> &[VertexId] {
        &self.rev_keys
    }

    /// Sorted sources reaching `rev_keys()[i]`.
    #[inline]
    pub fn rev_sources(&self, i: usize) -> &[VertexId] {
        &self.rev_sources[self.rev_offsets[i] as usize..self.rev_offsets[i + 1] as usize]
    }

    /// Iterates the reverse face as `(target, sorted sources)` groups in
    /// ascending target order.
    pub fn rev_groups(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.rev_keys.iter().enumerate().map(|(i, &t)| (t, self.rev_sources(i)))
    }
}

/// The read-optimized face of one copy-on-write chunk: a [`LabelFace`] per
/// extended label that has pairs in the chunk (`None` for absent labels,
/// so wide alphabets cost one machine word per empty label).
pub struct ChunkCsr {
    start: VertexId,
    rows: u32,
    faces: Vec<Option<Box<LabelFace>>>,
}

impl ChunkCsr {
    /// Builds all faces of a chunk from its per-label sorted pair
    /// segments (`segments[ℓ]` holds the chunk's pairs of extended label
    /// `ℓ`, sources in `[start, start + rows)`).
    pub(crate) fn build(start: VertexId, rows: usize, segments: &[Vec<Pair>]) -> ChunkCsr {
        let faces = segments
            .iter()
            .map(|seg| (!seg.is_empty()).then(|| Box::new(LabelFace::build(start, rows, seg))))
            .collect();
        ChunkCsr { start, rows: rows as u32, faces }
    }

    /// First vertex id of the chunk's range.
    #[inline]
    pub fn start(&self) -> VertexId {
        self.start
    }

    /// Number of vertex rows in the chunk.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The face of an extended label, if the chunk has pairs for it.
    #[inline]
    pub fn face(&self, l: ExtLabel) -> Option<&LabelFace> {
        self.faces.get(l.0 as usize).and_then(|f| f.as_deref())
    }

    /// Sorted targets of `(v, ℓ)` where `v` lies in this chunk's range.
    #[inline]
    pub fn targets(&self, v: VertexId, l: ExtLabel) -> &[VertexId] {
        debug_assert!(v >= self.start && v - self.start < self.rows);
        match self.face(l) {
            Some(f) => f.targets_of_row((v - self.start) as usize),
            None => &[],
        }
    }
}
