//! The runtime index structure `Ik = (Il2c, Ic2p)` of Def. 4.3, serving both
//! CPQx and iaCPQx (they differ only in how the partition is computed).

use crate::bisim::{cpq_path_partition, ClassId, Partition, SeqId};
use crate::exec::Executor;
use crate::interest::{interest_partition, normalize_interests};
use crate::intern::{PairHasher, SeqDict};
use cpqx_graph::{CowDiff, Graph, LabelSeq, Pair};
use cpqx_query::plan::{plan_query, Plan};
use cpqx_query::workload::SeqProbe;
use cpqx_query::Cpq;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Classes per copy-on-write chunk of the class partition store.
/// Fine-grained on purpose: a lazy update touches the chunks of the
/// affected pairs' (scattered) class ids plus the tail, so the shared
/// fraction improves directly with chunk count while the per-clone cost
/// stays a vector of `Arc` bumps.
pub(crate) const CLASS_CHUNK: usize = 1 << 8;

/// Source-vertex ids per copy-on-write shard of the pair → class map
/// (fine-grained for the same touched/total reason as [`CLASS_CHUNK`]).
const P2C_SHARD_BITS: u32 = 8;

/// One shard of the pair → class map (see [`PairHasher`] for why it does
/// not use the default hasher).
type PairMap = HashMap<Pair, ClassId, BuildHasherDefault<PairHasher>>;

/// One fixed-width class-id range of the index's partition storage: the
/// `Ic2p` rows, loop flags and sequence sets of up to [`CLASS_CHUNK`]
/// consecutive classes. Chunks sit behind `Arc` and mutate through
/// `Arc::make_mut`, so `CpqxIndex::clone` is O(#chunks) and a lazy
/// update copies only the chunks holding touched classes — fresh classes
/// append to the last chunk only.
///
/// A sequence set is a list of 4-byte [`SeqId`]s into the index's
/// sequence dictionary, not of the 18-byte sequences themselves: the sets
/// are `Il2c` transposed, one entry per posting entry, and spelled out as
/// sequences they would be over half the index's bytes.
///
/// Rows are **flat**: the pair rows of a chunk's classes lie back to back
/// in one vector, delimited by per-class end offsets, and so do their
/// sequence sets. Expanding a posting list is a forward sweep over a few
/// arrays instead of a pointer chase per class, and copying a chunk for a
/// write is five `memcpy`s, whatever the number of classes in it. The
/// writer pays with one rebuild of a touched chunk's pair array per lazy
/// update ([`ClassChunk::edit_rows`]) instead of per-row edits.
#[derive(Clone, Default)]
pub(crate) struct ClassChunk {
    /// `Ic2p` rows, back to back in class order; each row sorted.
    pairs: Vec<Pair>,
    /// Per class: where its row ends in `pairs` (it starts where the
    /// previous class's ends).
    pair_ends: Vec<u32>,
    /// Per-class cyclicity flags.
    loops: Vec<bool>,
    /// Per-class `L≤k` sequence sets, back to back in class order, as
    /// dictionary ids; each class's ids are ordered by the sequences they
    /// name, so equal sets are equal lists.
    seqs: Vec<SeqId>,
    /// Per class: where its sequence set ends in `seqs`.
    seq_ends: Vec<u32>,
}

/// The range the `off`-th row occupies, given the rows' end offsets.
#[inline]
fn row_span(ends: &[u32], off: usize) -> std::ops::Range<usize> {
    let start = if off == 0 { 0 } else { ends[off - 1] };
    start as usize..ends[off] as usize
}

/// A flat store's length as the end offset of its last row.
fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a class chunk holds fewer than 2^32 pairs and sequences")
}

impl ClassChunk {
    /// An empty chunk with room for exactly `classes` classes holding
    /// `pairs` pairs and `seqs` sequences in total.
    pub(crate) fn with_capacity(classes: usize, pairs: usize, seqs: usize) -> Self {
        ClassChunk {
            pairs: Vec::with_capacity(pairs),
            pair_ends: Vec::with_capacity(classes),
            loops: Vec::with_capacity(classes),
            seqs: Vec::with_capacity(seqs),
            seq_ends: Vec::with_capacity(classes),
        }
    }

    /// Number of classes in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.loops.len()
    }

    /// The pair row of the `off`-th class.
    #[inline]
    fn row(&self, off: usize) -> &[Pair] {
        &self.pairs[row_span(&self.pair_ends, off)]
    }

    /// The sequence ids of the `off`-th class.
    #[inline]
    fn seq_set(&self, off: usize) -> &[SeqId] {
        &self.seqs[row_span(&self.seq_ends, off)]
    }

    /// `(sequence count, pair count)` of every class, in class order.
    fn class_sizes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len())
            .map(|off| (row_span(&self.seq_ends, off).len(), row_span(&self.pair_ends, off).len()))
    }

    /// Appends a class (`seqs` in sequence order, `pairs` sorted).
    pub(crate) fn push(&mut self, is_loop: bool, seqs: &[SeqId], pairs: &[Pair]) {
        self.pairs.extend_from_slice(pairs);
        self.pair_ends.push(end_offset(self.pairs.len()));
        self.loops.push(is_loop);
        self.seqs.extend_from_slice(seqs);
        self.seq_ends.push(end_offset(self.seqs.len()));
    }

    /// Detaches and attaches pairs in one rebuild of the flat pair array:
    /// both edit lists are `(class, pair)` sorted ascending without
    /// duplicates, their classes all in this chunk, whose first class is
    /// `first`. A detached pair that is absent and an attached one that is
    /// present are no-ops. Cost is one pass over the chunk however many
    /// edits there are — where per-pair edits would each shift its tail.
    pub(crate) fn edit_rows(
        &mut self,
        first: ClassId,
        detached: &[(ClassId, Pair)],
        attached: &[(ClassId, Pair)],
    ) {
        let mut pairs = Vec::with_capacity(self.pairs.len() + attached.len());
        let (mut detached, mut attached) = (detached, attached);
        let mut start = 0;
        for (off, end) in self.pair_ends.iter_mut().enumerate() {
            let c = first + off as ClassId;
            let row = &self.pairs[start..*end as usize];
            let (gone, rest) = detached.split_at(detached.partition_point(|e| e.0 == c));
            let (come, more) = attached.split_at(attached.partition_point(|e| e.0 == c));
            (detached, attached) = (rest, more);
            // Cut the row at each edited pair (binary search) and copy the
            // stretches between cuts whole: a row of any length costs its
            // `memcpy` plus a search per edit.
            let mut edits: Vec<(Pair, bool)> =
                gone.iter().map(|e| (e.1, false)).chain(come.iter().map(|e| (e.1, true))).collect();
            edits.sort_unstable();
            let mut from = 0;
            for (pair, attach) in edits {
                let at = from + row[from..].partition_point(|&p| p < pair);
                pairs.extend_from_slice(&row[from..at]);
                // The row's own copy of `pair` is dropped either way.
                from = at + usize::from(row.get(at) == Some(&pair));
                if attach {
                    pairs.push(pair);
                }
            }
            pairs.extend_from_slice(&row[from..]);
            start = *end as usize;
            *end = end_offset(pairs.len());
        }
        debug_assert!(detached.is_empty() && attached.is_empty(), "edits outside the chunk");
        self.pairs = pairs;
    }
}

/// One `Il2c` entry: the classes carrying a sequence and, beside them,
/// the cyclic ones among them — IDENTITY (the paper's third optimisation,
/// Sec. IV-D) as a posting list of its own, so `⟦seq⟧ ∩ id` is a borrow
/// instead of a filter over the full list. At most |V| pairs are loops,
/// so the sub-lists are a rounding error next to the lists themselves.
#[derive(Clone, Default)]
pub(crate) struct Posting {
    /// Sorted ids of every class carrying the sequence.
    pub(crate) all: Vec<ClassId>,
    /// The sorted sub-list of `all` whose classes are cyclic.
    pub(crate) cyclic: Vec<ClassId>,
}

impl Posting {
    /// Lists `c`, a class id above every listed one.
    pub(crate) fn push(&mut self, c: ClassId, is_loop: bool) {
        self.all.push(c);
        if is_loop {
            self.cyclic.push(c);
        }
    }

    /// Lists `c` at its sorted place unless it is listed already (an
    /// interest registered again finds its old classes still carrying it).
    pub(crate) fn insert(&mut self, c: ClassId, is_loop: bool) {
        if let Err(at) = self.all.binary_search(&c) {
            self.all.insert(at, c);
            if is_loop {
                let at = self.cyclic.partition_point(|&listed| listed < c);
                self.cyclic.insert(at, c);
            }
        }
    }
}

/// A CPQ-aware path index (CPQx, Sec. IV) or its interest-aware variant
/// (iaCPQx, Sec. V).
///
/// Two data structures, per Def. 4.3:
///
/// * `Il2c : L≤k → {c}` — label sequence to sorted class-id posting list,
/// * `Ic2p : c → P(c)` — class id to sorted s-t pair list,
///
/// plus the auxiliary structures the paper's maintenance procedures need:
/// per-class loop flags (O(1) IDENTITY), per-class sequence sets (to decide
/// whether an affected pair's `L≤k` changed), and the pair → class inverted
/// index of Sec. IV-E.
///
/// No query reads the pair → class map, so no build and no load makes it:
/// the first write builds it from the `Ic2p` rows
/// ([`CpqxIndex::build_pair_map`]), and from then on the written index and
/// its clones share it. A read-only index never holds one, and
/// [`IndexStats::total_bytes`] counts the map only once it is built.
///
/// Label sequences are stored once, in a **sequence dictionary** that
/// names each distinct sequence by a dense 4-byte [`SeqId`]: `Il2c` is a
/// vector of postings indexed by id, and a class's sequence set is a list
/// of ids. A lookup resolves its sequence through the dictionary's hash
/// once; [`CpqxIndex::class_sequences`] reads a set back through it.
///
/// The type is `Clone` so a serving layer can snapshot it, apply
/// maintenance to the copy, and atomically publish the result without
/// blocking readers of the old version (see the `cpqx-engine` crate).
///
/// # Copy-on-write storage
///
/// The heavyweight stores are structurally shared between clones:
///
/// * the class partition (`Ic2p` rows, loop flags, sequence-id sets)
///   lives in fixed-width [`ClassChunk`]s behind `Arc`, each a handful of
///   flat arrays,
/// * the pair → class inverted index, once built, is sharded by
///   source-vertex range behind `Arc`,
/// * `Il2c` entries — a posting list and its cyclic sub-list
///   ([`Posting`]) — sit individually behind `Arc` (the key set is small
///   — O(|L|ᵏ) sequences — so the vector itself clones cheaply),
/// * the sequence dictionary sits behind one `Arc`: only a write that
///   meets a never-seen sequence copies it.
///
/// Cloning is therefore O(#chunks + #shards + #sequences), and the lazy
/// maintenance procedures copy only what they touch via `Arc::make_mut`
/// — the property that makes the engine's per-transaction snapshot
/// O(changed) instead of O(index). [`CpqxIndex::cow_diff`] reports the
/// sharing between two descendants.
#[derive(Clone)]
pub struct CpqxIndex {
    pub(crate) k: usize,
    /// `None` for full CPQx; `Some(Lq)` for iaCPQx (length-1 sequences are
    /// implicit and not stored here).
    pub(crate) interests: Option<BTreeSet<LabelSeq>>,
    /// The sequence dictionary every `SeqId` of the index refers to.
    pub(crate) seqs: Arc<SeqDict>,
    /// `Il2c`, indexed by `SeqId`: `None` where a sequence is no lookup
    /// key (a deleted interest a class still carries, or a trailing id
    /// the vector has not grown to).
    pub(crate) il2c: Vec<Option<Arc<Posting>>>,
    /// Class partition store, chunked by class-id range.
    pub(crate) classes: Vec<Arc<ClassChunk>>,
    /// Allocated class slots (tombstones included) across all chunks.
    pub(crate) class_count: usize,
    /// Pair → class map, sharded by source-vertex range; `None` until the
    /// first write builds it.
    pub(crate) p2c: Option<Vec<Arc<PairMap>>>,
    /// Indexed pairs across all class rows.
    pub(crate) pair_count: usize,
    pub(crate) frag: FragCounters,
}

/// Cumulative lazy-maintenance accounting, reset by every full build (see
/// [`CpqxIndex::fragmentation`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FragCounters {
    /// Class count of the full build this index descends from — the
    /// minimal-partition baseline fragmentation is measured against.
    pub(crate) baseline_classes: usize,
    /// Fresh classes created by lazy updates since that build.
    pub(crate) fresh_classes: u64,
    /// Pairs detached and regrouped by lazy updates since that build.
    pub(crate) refreshed_pairs: u64,
}

/// Point-in-time fragmentation report of a lazily maintained index.
///
/// The lazy update procedures (Secs. IV-E / V-C) never merge classes:
/// affected pairs are detached into *fresh* classes, so between full
/// builds the class-slot count only grows and detached-from classes may
/// become empty tombstones. This is exactly the degradation Table VII
/// measures as a size ratio; [`Fragmentation::ratio`] is its live,
/// class-count form, used by serving layers to decide when a
/// defragmenting rebuild pays off.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fragmentation {
    /// Class count of the full build this index descends from.
    pub baseline_classes: usize,
    /// Allocated class slots right now, tombstones included.
    pub class_slots: usize,
    /// Classes with at least one member pair.
    pub live_classes: usize,
    /// Fresh classes created by lazy maintenance since the last build.
    pub fresh_classes: u64,
    /// Pairs detached and regrouped by lazy maintenance since the last
    /// build.
    pub refreshed_pairs: u64,
}

impl Fragmentation {
    /// `class_slots / baseline_classes` — 1.0 for a fresh build, growing
    /// monotonically under lazy maintenance (classes are never merged).
    ///
    /// An index built from an **empty** graph has `baseline_classes == 0`;
    /// such an index is treated as fresh (ratio 1.0) rather than
    /// infinitely fragmented — the first lazy update re-baselines it (see
    /// `CpqxIndex::refresh_pairs`), so an empty-seeded serving layer never
    /// trips its rebuild threshold on the very first insert.
    pub fn ratio(&self) -> f64 {
        if self.baseline_classes == 0 {
            return 1.0;
        }
        self.class_slots as f64 / self.baseline_classes as f64
    }

    /// Empty class slots left behind by detached pairs.
    pub fn tombstones(&self) -> usize {
        self.class_slots - self.live_classes
    }
}

/// Summary statistics used by the experiment harness (Tables III–IV).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    /// `k`.
    pub k: usize,
    /// `|C|` — number of (non-empty) classes.
    pub classes: usize,
    /// `|P≤k|` — number of indexed s-t pairs.
    pub pairs: usize,
    /// Number of distinct label sequences keyed in `Il2c`.
    pub sequences: usize,
    /// Total posting-list entries in `Il2c` (≈ γ·|C|); the cyclic
    /// sub-lists repeat some of them and are not counted again.
    pub postings: usize,
    /// γ — average `|L≤k(v,u)|` over indexed pairs.
    pub gamma: f64,
    /// Core index bytes: `Il2c` (the sequence dictionary, posting lists and
    /// their cyclic sub-lists) + `Ic2p` (Def. 4.3's structures, the
    /// quantity Thm. 4.2 bounds and Table IV reports).
    pub core_bytes: usize,
    /// Total bytes including the maintenance structures (per-class
    /// sequence-id sets, loop flags, and the pair → class map once the
    /// first write has built it). Packed accounting: what each structure
    /// stores, at the size of the element type it stores it as, plus a
    /// 4-byte offset per list; container headers and hash-table slack are
    /// not counted.
    pub total_bytes: usize,
}

impl CpqxIndex {
    /// Builds the full CPQ-aware index of `g` with path-length parameter
    /// `k` (Algorithms 1 and 2).
    pub fn build(g: &Graph, k: usize) -> Self {
        Self::from_partition(k, None, cpq_path_partition(g, k))
    }

    /// Builds the interest-aware index (Sec. V). `interests` may contain
    /// sequences longer than `k`; they are normalized by prefix-splitting.
    /// All length-1 sequences are always indexed.
    pub fn build_interest_aware(
        g: &Graph,
        k: usize,
        interests: impl IntoIterator<Item = LabelSeq>,
    ) -> Self {
        let lq = normalize_interests(interests, k);
        let partition = interest_partition(g, k, &lq);
        Self::from_partition(k, Some(lq), partition)
    }

    /// Materializes the runtime index `(Il2c, Ic2p)` from an
    /// already-computed partition — the last step of every build (the
    /// engine calls it itself so it can time the partition and this step
    /// apart).
    ///
    /// `p` must be a valid partition of the graph's `P≤k`: pairs sorted
    /// ascending, every class homogeneous in `(cyclicity, L≤k)` — as
    /// produced by [`cpq_path_partition`] or by
    /// [`crate::interest::interest_partition`].
    pub fn from_partition(
        k: usize,
        interests: Option<BTreeSet<LabelSeq>>,
        mut p: Partition,
    ) -> Self {
        let nc = p.class_count();
        debug_assert!(p.pair_classes.windows(2).all(|w| w[0].0 < w[1].0), "pairs must be sorted");

        // The dictionary and `Il2c`: renumber the partition's sequence ids
        // in place by first occurrence along the classes, so the numbering
        // depends on the classes alone, not on the order the build met the
        // sequences in (renumbering keeps every set's sequence order). Each sequence's
        // posting lists grow as plain vectors beside it — classes are
        // visited in ascending id order, so postings come out sorted — and
        // are wrapped in their `Arc` once, at the end.
        let mut seqs = SeqDict::default();
        let mut renumbered = vec![SeqId::MAX; p.seqs.len()];
        let mut postings: Vec<Posting> = Vec::new();
        let mut start = 0;
        for (c, (&end, &is_loop)) in p.seq_ends.iter().zip(&p.class_loop).enumerate() {
            for id in &mut p.seq_ids[start..end] {
                let to = &mut renumbered[*id as usize];
                if *to == SeqId::MAX {
                    *to = seqs.intern(p.seqs[*id as usize]);
                    postings.push(Posting::default());
                }
                *id = *to;
                postings[*id as usize].push(c as ClassId, is_loop);
            }
            start = end;
        }
        let il2c = postings.into_iter().map(|posting| Some(Arc::new(posting))).collect();

        // `Ic2p`: every chunk is laid out at its exact size from the row
        // sizes, then the pairs are scattered straight into place —
        // `pair_classes` is sorted by pair, so each row fills sorted. The
        // size of a class's row becomes the write cursor into it.
        let mut cursors = vec![0u32; nc];
        for &(_, c) in &p.pair_classes {
            cursors[c as usize] += 1;
        }
        let mut chunks: Vec<ClassChunk> = Vec::with_capacity(nc.div_ceil(CLASS_CHUNK));
        let mut seq_start = 0;
        for ((loops, seq_ends), cursors) in p
            .class_loop
            .chunks(CLASS_CHUNK)
            .zip(p.seq_ends.chunks(CLASS_CHUNK))
            .zip(cursors.chunks_mut(CLASS_CHUNK))
        {
            let seq_end = seq_ends[seq_ends.len() - 1];
            let mut chunk = ClassChunk::with_capacity(loops.len(), 0, seq_end - seq_start);
            chunk.loops.extend_from_slice(loops);
            chunk.seqs.extend_from_slice(&p.seq_ids[seq_start..seq_end]);
            chunk.seq_ends.extend(seq_ends.iter().map(|&end| end_offset(end - seq_start)));
            seq_start = seq_end;
            let mut at = 0usize;
            for cursor in cursors {
                let size = std::mem::replace(cursor, end_offset(at)) as usize;
                at += size;
                chunk.pair_ends.push(end_offset(at));
            }
            chunk.pairs = vec![Pair(0); at];
            chunks.push(chunk);
        }
        for &(pair, c) in &p.pair_classes {
            let cursor = &mut cursors[c as usize];
            chunks[c as usize / CLASS_CHUNK].pairs[*cursor as usize] = pair;
            *cursor += 1;
        }

        CpqxIndex {
            k,
            interests,
            seqs: Arc::new(seqs),
            il2c,
            classes: chunks.into_iter().map(Arc::new).collect(),
            class_count: nc,
            p2c: None,
            pair_count: p.pair_classes.len(),
            frag: FragCounters { baseline_classes: nc, ..FragCounters::default() },
        }
    }

    // ---------------------------------------- chunked-store primitives --

    /// The chunk and in-chunk offset of a class (read path).
    #[inline]
    fn class_slot(&self, c: ClassId) -> (&ClassChunk, usize) {
        (&self.classes[c as usize / CLASS_CHUNK], c as usize % CLASS_CHUNK)
    }

    /// Appends an empty class slot (its pairs and their pair → class
    /// entries are the caller's to add), returning its id. Only the last
    /// chunk is touched.
    pub(crate) fn push_class(&mut self, is_loop: bool, seqs: &[SeqId]) -> ClassId {
        let c = self.class_count as ClassId;
        if self.class_count.is_multiple_of(CLASS_CHUNK) {
            self.classes.push(Arc::new(ClassChunk::default()));
        }
        let chunk = Arc::make_mut(self.classes.last_mut().expect("chunk just ensured"));
        chunk.push(is_loop, seqs, &[]);
        self.class_count += 1;
        c
    }

    /// The p2c shard index of a pair (by source-vertex range).
    #[inline]
    fn p2c_shard(p: Pair) -> usize {
        (p.src() >> P2C_SHARD_BITS) as usize
    }

    /// Builds the pair → class map of Sec. IV-E's lazy maintenance from the
    /// `Ic2p` rows, unless it is built already. Every write calls this
    /// first, so a caller needs it only to take the one-time cost out of a
    /// timed write, or before asking [`CpqxIndex::class_of`] about many
    /// pairs. Cost: one pass over the rows to size each shard, then one
    /// class-major pass filling them.
    pub fn build_pair_map(&mut self) {
        if self.p2c.is_some() {
            return;
        }
        let mut sizes: Vec<usize> = Vec::new();
        for &p in self.classes.iter().flat_map(|ch| &ch.pairs) {
            let s = Self::p2c_shard(p);
            if s >= sizes.len() {
                sizes.resize(s + 1, 0);
            }
            sizes[s] += 1;
        }
        let mut shards: Vec<PairMap> = sizes
            .into_iter()
            .map(|n| PairMap::with_capacity_and_hasher(n, Default::default()))
            .collect();
        for (ci, chunk) in self.classes.iter().enumerate() {
            for off in 0..chunk.len() {
                let c = (ci * CLASS_CHUNK + off) as ClassId;
                for &p in chunk.row(off) {
                    shards[Self::p2c_shard(p)].insert(p, c);
                }
            }
        }
        self.p2c = Some(shards.into_iter().map(Arc::new).collect());
    }

    /// Whether the pair → class map is built (see
    /// [`CpqxIndex::build_pair_map`]).
    pub fn has_pair_map(&self) -> bool {
        self.p2c.is_some()
    }

    /// The pair → class map of a write in progress.
    fn pair_map_mut(&mut self) -> &mut Vec<Arc<PairMap>> {
        self.p2c.as_mut().expect("a write builds the pair map before it edits it")
    }

    /// Maps `p` to `c` in the pair → class map, copying only the pair's
    /// shard.
    pub(crate) fn p2c_insert(&mut self, p: Pair, c: ClassId) {
        let s = Self::p2c_shard(p);
        let map = self.pair_map_mut();
        if s >= map.len() {
            map.resize_with(s + 1, Default::default);
        }
        if Arc::make_mut(&mut map[s]).insert(p, c).is_none() {
            self.pair_count += 1;
        }
    }

    /// Removes `p` from the pair → class map; absent pairs copy nothing.
    pub(crate) fn p2c_remove(&mut self, p: Pair) {
        let Some(shard) = self.pair_map_mut().get_mut(Self::p2c_shard(p)) else { return };
        if shard.contains_key(&p) {
            Arc::make_mut(shard).remove(&p);
            self.pair_count -= 1;
        }
    }

    /// Applies a lazy update's row edits — `(class, pair)` detachments and
    /// attachments, in any order — rebuilding each touched chunk's rows
    /// once (and copying the chunk first if it is shared).
    pub(crate) fn edit_rows(
        &mut self,
        mut detached: Vec<(ClassId, Pair)>,
        mut attached: Vec<(ClassId, Pair)>,
    ) {
        detached.sort_unstable();
        detached.dedup();
        attached.sort_unstable();
        attached.dedup();
        let chunk_of = |e: &(ClassId, Pair)| e.0 as usize / CLASS_CHUNK;
        let (mut detached, mut attached) = (&detached[..], &attached[..]);
        while let Some(ci) =
            detached.first().into_iter().chain(attached.first()).map(chunk_of).min()
        {
            let (gone, rest) = detached.split_at(detached.partition_point(|e| chunk_of(e) == ci));
            let (come, more) = attached.split_at(attached.partition_point(|e| chunk_of(e) == ci));
            (detached, attached) = (rest, more);
            let first = (ci * CLASS_CHUNK) as ClassId;
            Arc::make_mut(&mut self.classes[ci]).edit_rows(first, gone, come);
        }
    }

    /// The id of `s`, registering it in the dictionary if it is new — the
    /// one write that copies a shared dictionary.
    pub(crate) fn seq_id_or_insert(&mut self, s: LabelSeq) -> SeqId {
        match self.seqs.get(&s) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.seqs).intern(s),
        }
    }

    /// The `Il2c` entry of sequence `id`, made a lookup key if it is not
    /// one, and copied first if it is shared.
    pub(crate) fn il2c_entry(&mut self, id: SeqId) -> &mut Posting {
        let id = id as usize;
        if id >= self.il2c.len() {
            self.il2c.resize(id + 1, None);
        }
        Arc::make_mut(self.il2c[id].get_or_insert_with(Default::default))
    }

    /// Lists `c` — a class id above every listed one — under sequence `id`
    /// (and under `id ∩ id` if the class is cyclic), copying only that
    /// entry.
    pub(crate) fn il2c_push(&mut self, id: SeqId, c: ClassId, is_loop: bool) {
        self.il2c_entry(id).push(c, is_loop);
    }

    /// The `Il2c` entry of `seq`, if `seq` is a lookup key.
    fn posting(&self, seq: &LabelSeq) -> Option<&Posting> {
        let id = self.seqs.get(seq)?;
        self.il2c.get(id as usize)?.as_deref()
    }

    /// The index path-length parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether this is the interest-aware variant.
    pub fn is_interest_aware(&self) -> bool {
        self.interests.is_some()
    }

    /// The interest set (iaCPQx only; length-1 sequences are implicit).
    pub fn interests(&self) -> Option<&BTreeSet<LabelSeq>> {
        self.interests.as_ref()
    }

    /// `Il2c(ℓ)` — the sorted class ids whose pairs match `seq`.
    pub fn lookup(&self, seq: &LabelSeq) -> &[ClassId] {
        self.posting(seq).map_or(&[], |p| &p.all)
    }

    /// `Il2c(ℓ) ∩ id` — the sorted ids of the *cyclic* classes whose pairs
    /// match `seq`: the sub-list of [`CpqxIndex::lookup`] for which
    /// [`CpqxIndex::class_is_loop`] holds, kept beside it.
    pub fn lookup_cyclic(&self, seq: &LabelSeq) -> &[ClassId] {
        self.posting(seq).map_or(&[], |p| &p.cyclic)
    }

    /// `Ic2p(c)` — the sorted s-t pairs of class `c`.
    pub fn class_pairs(&self, c: ClassId) -> &[Pair] {
        let (chunk, off) = self.class_slot(c);
        chunk.row(off)
    }

    /// `⋃_{c ∈ cs} Ic2p(c)` in class order (not normalized), allocated at
    /// its exact size — one forward sweep per touched chunk over its end
    /// offsets and its flat pair array (`cs` is sorted, so chunks are
    /// visited once, in order).
    pub(crate) fn gather_rows(&self, cs: &[ClassId]) -> Vec<Pair> {
        let rows = || {
            cs.chunk_by(|a, b| *a as usize / CLASS_CHUNK == *b as usize / CLASS_CHUNK).flat_map(
                |run| {
                    let chunk: &ClassChunk = &self.classes[run[0] as usize / CLASS_CHUNK];
                    let span = |&c| row_span(&chunk.pair_ends, c as usize % CLASS_CHUNK);
                    run.iter().map(move |c| (chunk, span(c)))
                },
            )
        };
        let mut out = Vec::with_capacity(rows().map(|(_, span)| span.len()).sum());
        for (chunk, span) in rows() {
            // Most rows hold one or two pairs: a plain loop beats a
            // `memcpy` call per row.
            for &p in &chunk.pairs[span] {
                out.push(p);
            }
        }
        out
    }

    /// Whether all pairs of class `c` are cyclic (`v = u`) — the O(1)
    /// IDENTITY check (all members share cyclicity by construction).
    pub fn class_is_loop(&self, c: ClassId) -> bool {
        let (chunk, off) = self.class_slot(c);
        chunk.loops[off]
    }

    /// The label-sequence set shared by all pairs of class `c`, in sorted
    /// order, read through the sequence dictionary.
    pub fn class_sequences(
        &self,
        c: ClassId,
    ) -> impl ExactSizeIterator<Item = LabelSeq> + Clone + '_ {
        self.class_seq_ids(c).iter().map(|&id| self.seqs.seq(id))
    }

    /// Class `c`'s sequence set as dictionary ids, in sequence order.
    pub(crate) fn class_seq_ids(&self, c: ClassId) -> &[SeqId] {
        let (chunk, off) = self.class_slot(c);
        chunk.seq_set(off)
    }

    /// The class of an s-t pair, if indexed.
    ///
    /// One hash probe once the pair → class map is built (by the first
    /// write, or [`CpqxIndex::build_pair_map`]). Before that this searches
    /// the rows: a binary search in every class of the pair's cyclicity,
    /// O(#classes · log row) per call, so a caller asking about many pairs
    /// of an unwritten index should build the map first.
    pub fn class_of(&self, p: Pair) -> Option<ClassId> {
        match &self.p2c {
            Some(map) => map.get(Self::p2c_shard(p))?.get(&p).copied(),
            None => (0..self.class_count as ClassId).find(|&c| {
                self.class_is_loop(c) == p.is_loop()
                    && self.class_pairs(c).binary_search(&p).is_ok()
            }),
        }
    }

    /// Whether one LOOKUP can answer `seq`: full indexes answer every
    /// sequence of length ≤ k; interest-aware indexes the interests plus all
    /// length-1 sequences (Sec. V-B — the planner consults this).
    pub fn is_indexed(&self, seq: &LabelSeq) -> bool {
        if seq.is_empty() || seq.len() > self.k {
            return false;
        }
        match &self.interests {
            None => true,
            Some(lq) => seq.len() == 1 || lq.contains(seq),
        }
    }

    /// Lowers `q` to a physical plan against this index.
    pub fn plan(&self, q: &Cpq) -> Plan {
        plan_query(q, self.k, &|s| self.is_indexed(s))
    }

    /// Evaluates `q`, returning the normalized pair set (Algorithm 3).
    pub fn evaluate(&self, g: &Graph, q: &Cpq) -> Vec<Pair> {
        Executor::new(self, g).run(&self.plan(q))
    }

    /// Evaluates `q` but stops at the first result (Fig. 7's
    /// first-answer measurements). Returns `None` for empty answers.
    pub fn evaluate_first(&self, g: &Graph, q: &Cpq) -> Option<Pair> {
        Executor::new(self, g).run_first(&self.plan(q))
    }

    /// Evaluates `q` and reports the execution work counters alongside the
    /// answers (EXPLAIN ANALYZE-style; Table III's pruning-power numbers
    /// are `classes_touched` here versus pair volume on the Path index).
    pub fn explain(&self, g: &Graph, q: &Cpq) -> (Vec<Pair>, crate::exec::ExecStats) {
        Executor::new(self, g).run_explained(&self.plan(q))
    }

    /// Number of classes with at least one pair (freshly built indexes have
    /// no empty classes; lazy maintenance can leave tombstones behind).
    pub fn live_class_count(&self) -> usize {
        self.classes.iter().flat_map(|ch| ch.class_sizes()).filter(|&(_, pairs)| pairs > 0).count()
    }

    /// Total allocated class slots, including tombstones.
    pub fn class_slots(&self) -> usize {
        self.class_count
    }

    /// `class_slots / baseline_classes` in O(1) — the fragmentation
    /// trigger serving layers poll after every write transaction (see
    /// [`Fragmentation::ratio`]; the full report is
    /// [`CpqxIndex::fragmentation`]). A zero baseline (index built from an
    /// empty graph) reads as fresh: 1.0, never `class_slots` — the first
    /// lazy update re-baselines instead (see the module docs of
    /// `maintain`), so empty-seeded engines cannot thrash their
    /// auto-rebuild threshold.
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.frag.baseline_classes == 0 {
            return 1.0;
        }
        self.class_count as f64 / self.frag.baseline_classes as f64
    }

    /// Class count of the full build this index descends from — the
    /// denominator of [`CpqxIndex::fragmentation_ratio`], in O(1).
    pub fn baseline_class_count(&self) -> usize {
        self.frag.baseline_classes
    }

    /// The full fragmentation report (O(classes): counts live classes).
    pub fn fragmentation(&self) -> Fragmentation {
        Fragmentation {
            baseline_classes: self.frag.baseline_classes,
            class_slots: self.class_slots(),
            live_classes: self.live_class_count(),
            fresh_classes: self.frag.fresh_classes,
            refreshed_pairs: self.frag.refreshed_pairs,
        }
    }

    /// Number of indexed s-t pairs.
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// Index statistics (sizes follow Thm. 4.2's accounting; see
    /// [`IndexStats`]).
    pub fn stats(&self) -> IndexStats {
        let keys = || self.il2c.iter().flatten();
        let postings: usize = keys().map(|p| p.all.len()).sum();
        let pairs = self.pair_count();
        // γ = average |L≤k(v,u)| over pairs = Σ_c |seqs(c)|·|P(c)| / |P≤k|.
        let weighted: usize = self
            .classes
            .iter()
            .flat_map(|ch| ch.class_sizes())
            .map(|(seqs, pairs)| seqs * pairs)
            .sum();
        let gamma = if pairs == 0 { 0.0 } else { weighted as f64 / pairs as f64 };
        // Packed (CSR-equivalent) accounting: entries + offsets, each at
        // the size of the type it is stored as. Container headers are an
        // implementation detail, so sizes stay comparable across index
        // designs (Table IV's IS). The dictionary holds each sequence once
        // (id → sequence, and the sequence → id entry); `Il2c` is indexed
        // by id, and a cyclic sub-list shares its key with the full list.
        let id_bytes = std::mem::size_of::<ClassId>();
        let seq_id_bytes = std::mem::size_of::<SeqId>();
        let dict_bytes = self.seqs.len() * (std::mem::size_of::<LabelSeq>() + seq_id_bytes);
        let il2c_bytes: usize = keys()
            .map(|p| {
                let cyclic = if p.cyclic.is_empty() { 0 } else { p.cyclic.len() * id_bytes + 4 };
                p.all.len() * id_bytes + 4 + cyclic
            })
            .sum();
        let ic2p_bytes: usize = pairs * std::mem::size_of::<Pair>() + (self.class_count + 1) * 4;
        let core_bytes = dict_bytes + il2c_bytes + ic2p_bytes;
        let class_seq_bytes: usize =
            self.classes.iter().map(|ch| ch.seqs.len() * seq_id_bytes + ch.len() * 4).sum();
        let p2c_entries: usize = self.pair_map_shards().iter().map(|shard| shard.len()).sum();
        let p2c_bytes = p2c_entries * (std::mem::size_of::<Pair>() + id_bytes);
        IndexStats {
            k: self.k,
            classes: self.live_class_count(),
            pairs,
            sequences: keys().count(),
            postings,
            gamma,
            core_bytes,
            total_bytes: core_bytes + class_seq_bytes + p2c_bytes + self.class_count,
        }
    }

    /// Core index size in bytes (`Il2c` + `Ic2p`), the Table IV quantity.
    pub fn size_bytes(&self) -> usize {
        self.stats().core_bytes
    }

    /// Structural-sharing report against the index this one was cloned
    /// from, covering the two chunked stores (class chunks + p2c shards):
    /// per position, whether the `Arc` is still shared with `before` or
    /// was copied / newly created — so the first write after a build or a
    /// load, which builds the pair → class map, reports every map shard as
    /// copied. The engine sums this into its `cow_chunks_copied` /
    /// `cow_chunks_shared` gauges after every write transaction.
    pub fn cow_diff(&self, before: &CpqxIndex) -> CowDiff {
        let mut diff = CowDiff::default();
        diff.record_arcs(&self.classes, &before.classes);
        diff.record_arcs(self.pair_map_shards(), before.pair_map_shards());
        diff
    }

    /// The pair → class map's shards; none before the map is built.
    fn pair_map_shards(&self) -> &[Arc<PairMap>] {
        self.p2c.as_deref().unwrap_or_default()
    }

    /// Number of copy-on-write units backing this index (class chunks +
    /// p2c shards, once the map is built).
    pub fn chunk_count(&self) -> usize {
        self.classes.len() + self.pair_map_shards().len()
    }

    // ------------------------------------------- persistence surface --

    /// Maximum classes per class chunk — persistence readers use this to
    /// map class-id ranges onto chunk records (chunk `i` holds classes
    /// `i·span .. i·span + len`).
    pub fn class_chunk_span() -> usize {
        CLASS_CHUNK
    }

    /// Number of class chunks backing the partition store. Persistence
    /// surface: snapshot writers emit one record per class chunk (`Il2c`
    /// postings are derived state, rebuilt on load; the pair → class map
    /// is derived too, and built by the first write).
    pub fn class_chunk_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of classes in the `i`-th class chunk (all chunks but the
    /// last hold exactly [`CpqxIndex::class_chunk_span`]).
    pub fn class_chunk_len(&self, i: usize) -> usize {
        self.classes[i].len()
    }

    /// Whether the `i`-th class chunk is physically shared
    /// (`Arc::ptr_eq`) with the chunk at the same position of `before`.
    ///
    /// The incremental-snapshot change detector: mutation always goes
    /// through `Arc::make_mut`, so while `before` (the last-persisted
    /// state) is kept alive, pointer equality proves the chunk's classes
    /// are byte-identical (same rule as [`CpqxIndex::cow_diff`]).
    pub fn class_chunk_shared_with(&self, before: &CpqxIndex, i: usize) -> bool {
        matches!(before.classes.get(i), Some(b) if Arc::ptr_eq(b, &self.classes[i]))
    }
}

impl SeqProbe for CpqxIndex {
    fn seq_nonempty(&self, seq: &LabelSeq) -> bool {
        if self.is_indexed(seq) {
            self.lookup(seq).iter().any(|&c| !self.class_pairs(c).is_empty())
        } else {
            // Conservative: split into indexed chunks and check each piece.
            // (Non-empty pieces do not guarantee a non-empty whole, but the
            // workload filter only needs length-≤2 windows, which are always
            // indexed.)
            (0..seq.len()).all(|i| {
                let s = LabelSeq::single(seq.get(i));
                self.lookup(&s).iter().any(|&c| !self.class_pairs(c).is_empty())
            })
        }
    }
}

impl std::fmt::Debug for CpqxIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(if self.is_interest_aware() { "iaCPQx" } else { "CPQx" })
            .field("k", &self.k)
            .field("classes", &self.live_class_count())
            .field("pairs", &self.pair_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_edits_rebuild_a_chunk_like_per_row_edits() {
        let p = |v, u| Pair::new(v, u);
        let mut chunk = ClassChunk::default();
        chunk.push(false, &[], &[p(1, 2), p(1, 5), p(3, 4)]);
        chunk.push(true, &[], &[]);
        chunk.push(false, &[], &[p(7, 8)]);
        // Classes 10, 11, 12: detach from the first and the last (one pair
        // absent), attach to all three (one pair present already).
        chunk.edit_rows(
            10,
            &[(10, p(1, 5)), (10, p(2, 2)), (12, p(7, 8))],
            &[(10, p(0, 9)), (10, p(3, 4)), (11, p(6, 6)), (12, p(7, 7)), (12, p(9, 9))],
        );
        assert_eq!(chunk.row(0), [p(0, 9), p(1, 2), p(3, 4)]);
        assert_eq!(chunk.row(1), [p(6, 6)]);
        assert_eq!(chunk.row(2), [p(7, 7), p(9, 9)]);
        assert_eq!(chunk.class_sizes().map(|(_, pairs)| pairs).sum::<usize>(), chunk.pairs.len());
        // No edits: nothing moves.
        let before = chunk.pairs.clone();
        chunk.edit_rows(10, &[], &[]);
        assert_eq!(chunk.pairs, before);
    }

    /// `total_bytes` is what the structures store, each counted at the
    /// size of the element type it is actually stored as — so the number
    /// falls only if the stored bytes do. A fresh build stores no pair
    /// → class map; once built, the map holds one entry per pair.
    #[test]
    fn total_bytes_counts_the_stored_elements() {
        use std::mem::{size_of, size_of_val};
        let g = cpqx_graph::generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let builds = [
            CpqxIndex::build(&g, 2),
            CpqxIndex::build_interest_aware(&g, 2, [LabelSeq::from_slice(&[f, f])]),
        ];
        for (mut idx, has_map) in
            builds.into_iter().flat_map(|idx| [(idx.clone(), false), (idx, true)])
        {
            if has_map {
                idx.build_pair_map();
            }
            assert_eq!(idx.has_pair_map(), has_map);
            let chunks = || idx.classes.iter();
            let offsets = |lists: usize| lists * size_of::<u32>();
            // The dictionary: id → sequence, and each sequence's id.
            let dict = idx.seqs.len() * size_of::<LabelSeq>() + idx.seqs.len() * size_of::<SeqId>();
            let il2c: usize = idx
                .il2c
                .iter()
                .flatten()
                .map(|p| {
                    let cyclic = size_of_val(p.cyclic.as_slice());
                    size_of_val(p.all.as_slice())
                        + offsets(1)
                        + cyclic
                        + offsets(usize::from(cyclic > 0))
                })
                .sum();
            let ic2p: usize = chunks().map(|ch| size_of_val(ch.pairs.as_slice())).sum::<usize>()
                + offsets(idx.class_count + 1);
            let class_sets: usize =
                chunks().map(|ch| size_of_val(ch.seqs.as_slice()) + offsets(ch.len())).sum();
            let entry = size_of::<Pair>() + size_of::<ClassId>();
            let p2c: usize = idx.pair_map_shards().iter().map(|shard| shard.len() * entry).sum();
            assert_eq!(p2c, if has_map { idx.pair_count() * entry } else { 0 });
            let loops: usize = chunks().map(|ch| size_of_val(ch.loops.as_slice())).sum();
            let stats = idx.stats();
            assert_eq!(stats.core_bytes, dict + il2c + ic2p);
            assert_eq!(stats.total_bytes, dict + il2c + ic2p + class_sets + p2c + loops);
            // A class-set entry is one 4-byte id.
            let entries: usize = chunks().map(|ch| ch.seqs.len()).sum();
            assert_eq!(
                chunks().map(|ch| size_of_val(ch.seqs.as_slice())).sum::<usize>(),
                4 * entries
            );
        }
    }
}
