//! The runtime index structure `Ik = (Il2c, Ic2p)` of Def. 4.3, serving both
//! CPQx and iaCPQx (they differ only in how the partition is computed).

use crate::bisim::{cpq_path_partition, ClassId, Partition, SeqId};
use crate::class_set::ClassSet;
use crate::exec::Executor;
use crate::interest::{interest_partition, normalize_interests};
use crate::intern::SeqDict;
use crate::narrow_column::{with_values, NarrowColumn};
use crate::packed_keys::{self, bits_for, KeyWriter, PackedKeys};
use crate::pair_column::{PairColumn, Shard};
use cpqx_graph::{CowDiff, Graph, LabelSeq, Pair, VertexId};
use cpqx_query::plan::{plan_query, Plan};
use cpqx_query::workload::SeqProbe;
use cpqx_query::Cpq;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// Classes per copy-on-write chunk of the class partition store.
/// Fine-grained on purpose: a lazy update touches the chunks of the
/// affected pairs' (scattered) class ids plus the tail, so the shared
/// fraction improves directly with chunk count while the per-clone cost
/// stays a vector of `Arc` bumps.
pub(crate) const CLASS_CHUNK: usize = 1 << 8;

/// One fixed-width class-id range of the index's partition storage: the
/// `Ic2p` rows, loop flags and sequence-set sizes of up to [`CLASS_CHUNK`]
/// consecutive classes. Chunks sit behind `Arc` and mutate through
/// `Arc::make_mut`, so `CpqxIndex::clone` is O(#chunks) and a lazy
/// update copies only the chunks holding touched classes — fresh classes
/// append to the last chunk only.
///
/// A chunk does not record *which* sequences its classes carry: `Il2c`
/// does, and a class's set is read back from the postings that list it
/// ([`CpqxIndex::class_seq_sets`]). Kept here as well, the sets would be
/// `Il2c` transposed — one 4-byte id per posting entry, 30 % of
/// `total_bytes` on an Epinions-like graph at k = 2 — storing every fact
/// twice. The chunk keeps each set's
/// *size*, which is what maintenance compares first and what a reader of
/// a class range sizes its output by.
///
/// Rows are **flat**: the pair rows of a chunk's classes lie back to back
/// in one byte vector, delimited by per-class end offsets. Expanding a
/// posting set is a forward sweep over a few arrays instead of a pointer
/// chase per class, and copying a chunk for a write is three `memcpy`s
/// and a 32-byte copy, whatever the number of classes in it. The writer
/// pays with one rebuild of a touched chunk's rows per lazy update
/// ([`ClassChunk::edit_rows`]) instead of per-row edits.
///
/// Rows are **width-packed**: pair `(s, t)` is stored as the key
/// `s << shift | t` in `⌈2·shift / 8⌉` little-endian bytes, where `shift`
/// is the bit width of the chunk's largest vertex id — 3 bytes a pair on a
/// graph of up to 4,096 vertices, where a [`Pair`] takes 8. Keys sort as
/// their pairs do, and 7 zero bytes after the last one make reading any
/// pair one unaligned 8-byte load plus a mask ([`Keys::get`]). [`pack`]
/// chooses the width: a build and a load pack each chunk whole, and a row
/// edit splices keys at the chunk's width, re-packing the chunk only when
/// an attached id needs more bits or the last id of the top bit width
/// leaves — so the width always fits the chunk's current largest id. End
/// offsets count pairs, not bytes, so a row's length is read without
/// touching its bytes.
///
/// The per-class **metadata is narrow** too. The end offsets and the set
/// sizes are each a [`NarrowColumn`]: 1, 2 or 4 bytes a class, the
/// narrowest that fits the column's largest value — the chunk's pair
/// total for the ends, so 2 bytes on a chunk of fewer than 65,536 pairs.
/// The loop flags are one bit a class. A reader resolves a column's width
/// once per chunk it visits (`with_values!`).
#[derive(Clone, Default)]
pub(crate) struct ClassChunk {
    /// `Ic2p` rows, back to back in class order, each sorted, as packed
    /// keys ([`pack`]); empty while the chunk holds no pair.
    keys: Vec<u8>,
    /// The keys' source shift: the bit width of the chunk's largest vertex
    /// id, at least 1 (0 while the chunk holds no pair).
    shift: u8,
    /// Per class: where its row ends, counted in pairs (it starts where
    /// the previous class's ends), at the width the chunk's pair total
    /// needs.
    pub(crate) pair_ends: NarrowColumn,
    /// Per-class cyclicity flags: class `off`'s is bit `off % 64` of word
    /// `off / 64`. Bits past the chunk's classes are 0.
    pub(crate) loops: [u64; CLASS_CHUNK / 64],
    /// Per class: the size of its `L≤k` set — the number of `Il2c`
    /// entries listing it — at the width the chunk's largest set needs. A
    /// class's set never changes after the class is created, so neither
    /// does this.
    pub(crate) seq_counts: NarrowColumn,
}

/// The range the `off`-th row occupies, given the rows' end offsets at
/// the width they are stored at.
#[inline]
fn row_span<E: Copy + Into<u32>>(ends: &[E], off: usize) -> Range<usize> {
    let start: u32 = if off == 0 { 0 } else { ends[off - 1].into() };
    let end: u32 = ends[off].into();
    start as usize..end as usize
}

/// A flat store's length as the end offset of its last row.
fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a class chunk holds fewer than 2^32 pairs and sequences")
}

/// The key of `p` at source shift `shift`.
#[inline]
fn key(shift: u32, p: Pair) -> u64 {
    (u64::from(p.src()) << shift) | u64::from(p.dst())
}

/// Packs `pairs` — a chunk's rows, back to back — into its `(shift, keys)`
/// (see [`ClassChunk`]): the shift that fits their largest vertex id
/// ([`bits_for`]), and each pair's [`key`] packed at `2·shift` bits
/// ([`packed_keys`]). No pairs pack to no bytes.
fn pack(pairs: &[Pair]) -> (u8, Vec<u8>) {
    let shift = bits_for(pairs.iter().map(|p| p.src().max(p.dst())).max());
    (shift as u8, pack_at(shift, pairs))
}

/// [`pack`]'s keys at a given `shift`, wide enough for every id of
/// `pairs`.
fn pack_at(shift: u32, pairs: &[Pair]) -> Vec<u8> {
    packed_keys::pack(2 * shift, pairs.iter().map(|&p| key(shift, p)))
}

/// A chunk's packed keys with their widths decoded once, for reading.
#[derive(Clone, Copy)]
struct Keys<'a> {
    run: PackedKeys<'a>,
    shift: u32,
}

impl Keys<'_> {
    /// The `i`-th pair of the chunk: one unaligned 8-byte load and a mask.
    #[inline]
    fn get(self, i: usize) -> Pair {
        let key = self.run.get(i);
        let dst = key & ((1 << self.shift) - 1);
        Pair::new((key >> self.shift) as VertexId, dst as VertexId)
    }
}

impl ClassChunk {
    /// An empty chunk with room for exactly `classes` classes holding
    /// `pairs` pairs in all, the largest set of which has `largest_set`
    /// sequences: its columns start at the widths these need, so no push
    /// widens them.
    pub(crate) fn with_capacity(classes: usize, pairs: usize, largest_set: usize) -> Self {
        ClassChunk {
            pair_ends: NarrowColumn::with_capacity(classes, end_offset(pairs)),
            seq_counts: NarrowColumn::with_capacity(classes, end_offset(largest_set)),
            ..ClassChunk::default()
        }
    }

    /// Number of classes in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.seq_counts.len()
    }

    /// Number of pairs across the chunk's rows.
    fn pair_total(&self) -> usize {
        self.pair_ends.last().map_or(0, |end| end as usize)
    }

    /// The range of the chunk's rows the `off`-th row occupies.
    #[inline]
    fn span(&self, off: usize) -> Range<usize> {
        with_values!(&self.pair_ends, |ends| row_span(ends, off))
    }

    /// Whether the `off`-th class is cyclic.
    #[inline]
    fn is_loop(&self, off: usize) -> bool {
        self.loops[off / 64] >> (off % 64) & 1 == 1
    }

    /// A reader of the packed keys.
    #[inline]
    fn keys(&self) -> Keys<'_> {
        let shift = u32::from(self.shift);
        Keys { run: PackedKeys::new(&self.keys, 2 * shift), shift }
    }

    /// The pairs at positions `span` of the chunk's rows, decoded.
    fn pairs(&self, span: Range<usize>) -> impl ExactSizeIterator<Item = Pair> + Clone + '_ {
        let keys = self.keys();
        span.map(move |i| keys.get(i))
    }

    /// The pair row of the `off`-th class, decoded.
    #[inline]
    fn row(&self, off: usize) -> impl ExactSizeIterator<Item = Pair> + Clone + '_ {
        self.pairs(self.span(off))
    }

    /// Whether the `off`-th row holds `p`: a binary search over its
    /// packed keys, unless an id of `p` is too wide for them.
    fn row_holds(&self, off: usize, p: Pair) -> bool {
        let (keys, span) = (self.keys(), self.span(off));
        if bits_for(Some(p.src() | p.dst())) > keys.shift {
            return false;
        }
        let at = keys.run.lower_bound(span.clone(), key(keys.shift, p));
        at < span.end && keys.get(at) == p
    }

    /// Number of classes whose row holds a pair.
    fn live_classes(&self) -> usize {
        with_values!(&self.pair_ends, |ends| {
            (0..ends.len()).filter(|&off| !row_span(ends, off).is_empty()).count()
        })
    }

    /// Appends a class carrying `seq_count` sequences whose row is the
    /// next `row_len` pairs of the chunk's rows — stored, for a row that
    /// is not empty, by the [`ClassChunk::set_rows`] that follows.
    /// Either column widens if the new value needs it.
    pub(crate) fn push(&mut self, is_loop: bool, seq_count: usize, row_len: usize) {
        let off = self.len();
        debug_assert!(off < CLASS_CHUNK, "a push to a full chunk");
        self.pair_ends.push(end_offset(self.pair_total() + row_len));
        self.loops[off / 64] |= u64::from(is_loop) << (off % 64);
        self.seq_counts.push(end_offset(seq_count));
    }

    /// Stores the rows of every pushed class, back to back in class order,
    /// each sorted, packed at the width their largest vertex id needs.
    pub(crate) fn set_rows(&mut self, pairs: &[Pair]) {
        debug_assert_eq!(pairs.len(), self.pair_total(), "rows disagree with the end offsets");
        (self.shift, self.keys) = pack(pairs);
    }

    /// Whether the keys are exactly what [`pack`] makes of the rows they
    /// decode to — in particular, no wider than their largest id needs.
    pub(crate) fn packed_exactly(&self) -> bool {
        let pairs: Vec<Pair> = self.pairs(0..self.pair_total()).collect();
        let (shift, keys) = pack(&pairs);
        shift == self.shift && keys == self.keys
    }

    /// Whether the chunk is in the form a build makes of its classes: the
    /// rows packed exactly, both columns at their narrowest width, and no
    /// loop bit set past the chunk's classes. Returns the first rule
    /// broken.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        if !self.packed_exactly() {
            return Err("rows not packed at their largest id's width");
        }
        if !self.pair_ends.is_narrowest() {
            return Err("row ends not at their narrowest width");
        }
        if !self.seq_counts.is_narrowest() {
            return Err("set sizes not at their narrowest width");
        }
        if (self.len()..CLASS_CHUNK).any(|off| self.is_loop(off)) {
            return Err("a loop bit set past the chunk's classes");
        }
        Ok(())
    }

    /// Detaches and attaches pairs in one rebuild of the chunk's rows:
    /// both edit lists are `(class, pair)` sorted ascending without
    /// duplicates, their classes all in this chunk, whose first class is
    /// `first`. A detached pair that is absent and an attached one that is
    /// present are no-ops. Cost is one pass over the chunk's bytes however
    /// many edits there are — where per-pair edits would each shift its
    /// tail.
    ///
    /// The keys are spliced at the chunk's width, and the width follows
    /// the chunk's largest vertex id both ways: an edited id that needs
    /// more bits re-packs the chunk wider first, and when no id of the top
    /// bit width is left after the splice, the chunk is re-packed narrower.
    /// The end offsets are rebuilt at the width the new pair total needs,
    /// so they narrow too when the chunk shrinks.
    pub(crate) fn edit_rows(
        &mut self,
        first: ClassId,
        detached: &[(ClassId, Pair)],
        attached: &[(ClassId, Pair)],
    ) {
        // Detached pairs count too: a key is searched for at the chunk's
        // width, so it must fit it even when its pair is absent.
        let edited = detached.iter().chain(attached);
        let wider = bits_for(edited.map(|e| e.1.src().max(e.1.dst())).max());
        if wider > u32::from(self.shift) {
            let pairs: Vec<Pair> = self.pairs(0..self.pair_total()).collect();
            (self.shift, self.keys) = (wider as u8, pack_at(wider, &pairs));
        }
        let (keys, shift) = (self.keys(), u32::from(self.shift));
        let mut out = KeyWriter::with_capacity(2 * shift, self.pair_total() + attached.len());
        let mut ends = Vec::with_capacity(self.len());
        let (mut detached, mut attached) = (detached, attached);
        let mut start = 0;
        for (c, end) in (first..).zip(self.pair_ends.to_vec()) {
            let end = end as usize;
            let (gone, rest) = detached.split_at(detached.partition_point(|e| e.0 == c));
            let (come, more) = attached.split_at(attached.partition_point(|e| e.0 == c));
            (detached, attached) = (rest, more);
            // Cut the row at each edited pair (binary search) and copy the
            // stretches of keys between cuts whole: a row of any length
            // costs its `memcpy` plus a search per edit.
            let mut edits: Vec<(Pair, bool)> =
                gone.iter().map(|e| (e.1, false)).chain(come.iter().map(|e| (e.1, true))).collect();
            edits.sort_unstable();
            let mut from = start;
            for (pair, attach) in edits {
                let at = keys.run.lower_bound(from..end, key(shift, pair));
                out.copy(keys.run, from..at);
                // The row's own copy of `pair` is dropped either way.
                from = at + usize::from(at < end && keys.get(at) == pair);
                if attach {
                    out.push(key(shift, pair));
                }
            }
            out.copy(keys.run, from..end);
            ends.push(end_offset(out.len()));
            start = end;
        }
        debug_assert!(detached.is_empty() && attached.is_empty(), "edits outside the chunk");
        let len = out.len();
        self.pair_ends = NarrowColumn::from_values(&ends);
        self.keys = out.finish();
        if len == 0 {
            return self.set_rows(&[]);
        }
        // Usually an early key holds an id of the top bit width: the scan
        // stops there and the width stands.
        let narrower = |p: Pair| bits_for(Some(p.src() | p.dst())) < shift;
        if self.pairs(0..len).all(narrower) {
            let pairs: Vec<Pair> = self.pairs(0..len).collect();
            self.set_rows(&pairs);
        }
    }
}

/// One `Il2c` entry: the classes carrying a sequence and, beside them,
/// the cyclic ones among them — IDENTITY (the paper's third optimisation,
/// Sec. IV-D) as a set of its own, so `⟦seq⟧ ∩ id` is a borrow instead of
/// a filter over the full set.
///
/// Both are [`ClassSet`]s: array and bitmap containers per 64k-id window,
/// read in place by every reader — lookups, the executor's intersections,
/// maintenance and `save`.
#[derive(Clone, Default)]
pub(crate) struct Posting {
    /// Every class carrying the sequence.
    pub(crate) all: ClassSet,
    /// The classes of `all` that are cyclic.
    pub(crate) cyclic: ClassSet,
}

impl Posting {
    /// Lists `c`, a class id above every listed one.
    pub(crate) fn push(&mut self, c: ClassId, is_loop: bool) {
        self.all.push(c);
        if is_loop {
            self.cyclic.push(c);
        }
    }

    /// The entry with its spare capacity freed, ready to be shared.
    fn finished(mut self) -> Arc<Self> {
        self.all.shrink_to_fit();
        self.cyclic.shrink_to_fit();
        Arc::new(self)
    }
}

/// `Il2c` as a build or a load lays it out, listing classes in ascending
/// id order. Each entry's ids in the current 64k-id window are staged as
/// their low halves and stored as one container when the listing moves
/// past the window ([`ClassSet::push_window`]), so no id pays for a look
/// at its set's last window — the staging holds one window of `u16`s.
#[derive(Default)]
pub(crate) struct PostingsBuilder {
    postings: Vec<Posting>,
    /// Per entry: the low halves of its ids in window `key`.
    staged: Vec<Vec<u16>>,
    key: u16,
}

impl PostingsBuilder {
    /// Lists class `c` under entry `e`, at most one past the last entry
    /// (which it adds): `c` is no smaller than any class listed so far.
    pub(crate) fn list(&mut self, e: usize, c: ClassId, is_loop: bool) {
        if e == self.postings.len() {
            self.postings.push(Posting::default());
            self.staged.push(Vec::new());
        }
        let key = (c >> 16) as u16;
        if key != self.key {
            self.store_window();
            self.key = key;
        }
        self.staged[e].push(c as u16);
        if is_loop {
            self.postings[e].cyclic.push(c);
        }
    }

    /// Stores every entry's staged ids as its next window.
    fn store_window(&mut self) {
        for (posting, lows) in self.postings.iter_mut().zip(&mut self.staged) {
            if !lows.is_empty() {
                posting.all.push_window(self.key, lows);
                lows.clear();
            }
        }
    }

    /// The finished entries, each behind its `Arc`.
    pub(crate) fn finish(mut self) -> Vec<Arc<Posting>> {
        self.store_window();
        self.postings.into_iter().map(Posting::finished).collect()
    }
}

/// What a lookup of a sequence without an entry returns.
static NO_CLASSES: ClassSet = ClassSet::new();

/// The sequence sets of a range of classes, transposed out of `Il2c`
/// ([`CpqxIndex::class_seq_sets`]): each class's ids in sequence order,
/// back to back in class order.
pub(crate) struct SeqSets {
    /// The first class of the range.
    first: ClassId,
    pub(crate) ids: Vec<SeqId>,
    /// Per class of the range: where its set ends in `ids`.
    ends: Vec<u32>,
}

impl SeqSets {
    /// The set of class `c`, a class of the range.
    pub(crate) fn get(&self, c: ClassId) -> &[SeqId] {
        &self.ids[row_span(&self.ends, (c - self.first) as usize)]
    }
}

/// A CPQ-aware path index (CPQx, Sec. IV) or its interest-aware variant
/// (iaCPQx, Sec. V).
///
/// Two data structures, per Def. 4.3:
///
/// * `Il2c : L≤k → {c}` — label sequence to class-id posting set, stored
///   as Roaring-style array and bitmap containers ([`ClassSet`]),
/// * `Ic2p : c → P(c)` — class id to sorted s-t pair list,
///
/// plus the auxiliary structures the paper's maintenance procedures need:
/// per-class loop flags (O(1) IDENTITY), per-class sequence-set *sizes*,
/// and the pair → class inverted index of Sec. IV-E.
///
/// `Il2c` is the only record of which sequences a class carries: a
/// class's `L≤k` set is the set of sequences whose entries list it
/// ([`CpqxIndex::class_sequences`]). Maintenance decides whether an
/// affected pair's set changed from the size and one binary search per
/// sequence, and `save` writes class sets by transposing `Il2c` over
/// ranges of class chunks. A class's set is fixed when the class is
/// created: fresh classes get fresh ids, and a deleted interest does not
/// drop its entry but keeps it as a **retained** entry — still listing
/// the classes carrying the sequence, served by no lookup (the sequence is
/// no longer [`CpqxIndex::is_indexed`]) — until the interest is registered
/// again and the entry is a lookup key once more.
///
/// No query reads the pair → class map, so no build and no load makes it:
/// the first write builds it from the `Ic2p` rows
/// ([`CpqxIndex::build_pair_map`]), and from then on the written index and
/// its clones share it. A read-only index never holds one, and
/// [`IndexStats::total_bytes`] counts the map only once it is built.
///
/// Label sequences are stored once, in a **sequence dictionary** that
/// names each distinct sequence by a dense 4-byte [`SeqId`]: `Il2c` is a
/// vector of postings indexed by id, one entry per dictionary sequence. A
/// lookup resolves its sequence through the dictionary's hash once.
///
/// The type is `Clone` so a serving layer can snapshot it, apply
/// maintenance to the copy, and atomically publish the result without
/// blocking readers of the old version (see the `cpqx-engine` crate).
///
/// # Copy-on-write storage
///
/// The heavyweight stores are structurally shared between clones:
///
/// * the class partition (`Ic2p` rows, width-packed, loop flags,
///   sequence-set sizes) lives in fixed-width `ClassChunk`s behind
///   `Arc`, each a handful of flat arrays,
/// * the pair → class inverted index, once built, is a sorted column —
///   per source, its entries sorted by target, each a `(target, class)`
///   key packed at the widths its shard needs — cut into shards of 256
///   sources behind `Arc`,
/// * `Il2c` entries — a posting set and its cyclic set, each flat like a
///   class chunk (`Posting`) — sit individually behind `Arc`, so a
///   write that lists a fresh class copies the two sets' flat vectors
///   (the key set is small — O(|L|ᵏ) sequences — so the vector itself
///   clones cheaply),
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
    /// `Il2c`, indexed by `SeqId`, one entry per dictionary sequence: a
    /// lookup key's posting set, or the retained entry of a sequence that
    /// is no longer indexed (see the type docs).
    pub(crate) il2c: Vec<Arc<Posting>>,
    /// Class partition store, chunked by class-id range.
    pub(crate) classes: Vec<Arc<ClassChunk>>,
    /// Allocated class slots (tombstones included) across all chunks.
    pub(crate) class_count: usize,
    /// Pair → class map, a sorted column sharded by source-vertex range;
    /// `None` until the first write builds it.
    pub(crate) p2c: Option<PairColumn>,
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
    /// Number of distinct label sequences that are `Il2c` lookup keys
    /// (retained entries of deleted interests are not).
    pub sequences: usize,
    /// Total posting-set entries of the lookup keys (≈ γ·|C|); the
    /// cyclic sets repeat some of them and are not counted again.
    pub postings: usize,
    /// γ — average `|L≤k(v,u) ∩ indexed|` over indexed pairs.
    pub gamma: f64,
    /// Core index bytes: `Il2c`'s lookup keys (the sequence dictionary,
    /// posting sets and their cyclic sets) + `Ic2p` (Def. 4.3's
    /// structures, the quantity Thm. 4.2 bounds and Table IV reports).
    /// A class set counts what it stores: a 12-byte header per 64k-id
    /// window, 2 bytes per id of an array window and 8 KB per bitmap
    /// window ([`ClassSet`]).
    /// `Ic2p` counts what it stores: each chunk's width-packed rows, their
    /// 7 padding bytes and one shift byte, plus its row ends at the width
    /// the chunk's pair total needs (1, 2 or 4 bytes a row) and one width
    /// byte — on a graph of up to 4,096 vertices, 3 bytes a pair and 2 a
    /// row.
    pub core_bytes: usize,
    /// Total bytes including the maintenance structures (per-class
    /// sequence-set sizes and loop flags, the retained `Il2c` entries of
    /// deleted interests, and the pair → class map once the first write
    /// has built it). A class's sequence *set* is not counted again: it is
    /// stored only in `Il2c`. Packed accounting: what each structure
    /// stores, at the size of the element type it stores it as (`Ic2p`
    /// rows at their packed width and posting sets by their containers, as
    /// in `core_bytes`; each chunk's set sizes at the width its largest
    /// needs plus a width byte, and its loop flags as 32 bytes of bits; the
    /// pair → class map per 256-source shard as its packed `(target,
    /// class)` keys at the shard's widths with their 7 bytes of padding,
    /// plus its two width bytes), plus a 4-byte offset or length per list
    /// of the map and of `Il2c` — for the map, a start offset per source of
    /// each shard and the shard's entry count; vector headers and capacity
    /// are not counted.
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
    /// `p` must be a valid partition of the graph's `P≤k`: class-major rows,
    /// each sorted, every class homogeneous in `(cyclicity, L≤k)` — as
    /// produced by [`cpq_path_partition`] or by
    /// [`crate::interest::interest_partition`]. Its rows already are the
    /// `Ic2p` rows, at their exact sizes: each `ClassChunk` packs its
    /// classes' rows in one pass, and no pair is counted or regrouped here.
    pub fn from_partition(k: usize, interests: Option<BTreeSet<LabelSeq>>, p: Partition) -> Self {
        let nc = p.class_count();

        // The dictionary and `Il2c`: renumber the partition's sequence ids
        // by first occurrence along the classes, so the numbering depends
        // on the classes alone, not on the order the build met the
        // sequences in. Each sequence's entry grows beside it — classes are
        // visited in ascending id order, so each class lands above the ones
        // listed — and is wrapped in its `Arc` once, at the end.
        let mut seqs = SeqDict::default();
        let mut renumbered = vec![SeqId::MAX; p.seqs.len()];
        let mut il2c = PostingsBuilder::default();
        for (c, &is_loop) in (0..).zip(&p.class_loop) {
            for &id in p.class_seq_ids(c) {
                let to = &mut renumbered[id as usize];
                if *to == SeqId::MAX {
                    *to = seqs.intern(p.seqs[id as usize]);
                }
                il2c.list(*to as usize, c, is_loop);
            }
        }
        let il2c = il2c.finish();

        // `Ic2p`: every chunk's per-class arrays, then every chunk's packed
        // rows, then the chunks' `Arc`s. Allocated in this order, the small
        // arrays a lookup reads before a row sit side by side on the heap
        // instead of between rows (interleaved, they measured ~7 % lower
        // `qps` on the benchmark's in-process workload).
        let mut chunks: Vec<ClassChunk> = Vec::with_capacity(nc.div_ceil(CLASS_CHUNK));
        for (first, loops) in (0..).step_by(CLASS_CHUNK).zip(p.class_loop.chunks(CLASS_CHUNK)) {
            let classes = first..first + loops.len();
            let set_size = |c: usize| p.class_seq_ids(c as ClassId).len();
            let largest_set = classes.clone().map(set_size).max().unwrap_or(0);
            let pairs = p.rows_of(classes).len();
            let mut chunk = ClassChunk::with_capacity(loops.len(), pairs, largest_set);
            for (c, &is_loop) in (first..).zip(loops) {
                let row = p.row(c as ClassId);
                debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "unsorted row");
                chunk.push(is_loop, p.class_seq_ids(c as ClassId).len(), row.len());
            }
            chunks.push(chunk);
        }
        for (first, chunk) in (0..).step_by(CLASS_CHUNK).zip(&mut chunks) {
            chunk.set_rows(p.rows_of(first..first + chunk.len()));
        }

        CpqxIndex {
            k,
            interests,
            seqs: Arc::new(seqs),
            il2c,
            classes: chunks.into_iter().map(Arc::new).collect(),
            class_count: nc,
            p2c: None,
            pair_count: p.pair_count(),
            frag: FragCounters { baseline_classes: nc, ..FragCounters::default() },
        }
    }

    // ---------------------------------------- chunked-store primitives --

    /// The chunk and in-chunk offset of a class (read path).
    #[inline]
    fn class_slot(&self, c: ClassId) -> (&ClassChunk, usize) {
        (&self.classes[c as usize / CLASS_CHUNK], c as usize % CLASS_CHUNK)
    }

    /// Appends an empty class slot carrying the sequences `seqs` (listing
    /// it under them; its pairs and their pair → class entries are the
    /// caller's to add), returning its id. Only the last chunk and the
    /// `Il2c` entries of `seqs` are touched.
    pub(crate) fn push_class(&mut self, is_loop: bool, seqs: &[SeqId]) -> ClassId {
        let c = self.class_count as ClassId;
        if self.class_count.is_multiple_of(CLASS_CHUNK) {
            self.classes.push(Arc::new(ClassChunk::default()));
        }
        let chunk = Arc::make_mut(self.classes.last_mut().expect("chunk just ensured"));
        chunk.push(is_loop, seqs.len(), 0);
        self.class_count += 1;
        // `c` exceeds every listed id, so appending keeps each list sorted.
        for &id in seqs {
            Arc::make_mut(&mut self.il2c[id as usize]).push(c, is_loop);
        }
        c
    }

    /// Builds the pair → class map of Sec. IV-E's lazy maintenance from the
    /// `Ic2p` rows, unless it is built already. Every write calls this
    /// first, so a caller needs it only to take the one-time cost out of a
    /// timed write, or before asking [`CpqxIndex::class_of`] about many
    /// pairs. Cost: one class-major pass over the rows to size each
    /// source's slice and each shard's key widths, one to scatter the
    /// packed keys into the slices, and a sort of each slice
    /// ([`PairColumn::from_rows`]).
    pub fn build_pair_map(&mut self) {
        if self.p2c.is_none() {
            self.p2c = Some(PairColumn::from_rows(|| self.rows_with_classes()));
        }
    }

    /// Every indexed pair with its class, class-major.
    fn rows_with_classes(&self) -> impl Iterator<Item = (Pair, ClassId)> + '_ {
        (0..).step_by(CLASS_CHUNK).zip(&self.classes).flat_map(|(first, chunk)| {
            (first..)
                .zip(0..chunk.len())
                .flat_map(move |(c, off)| chunk.row(off).map(move |p| (p, c)))
        })
    }

    /// Whether the pair → class map is built (see
    /// [`CpqxIndex::build_pair_map`]).
    pub fn has_pair_map(&self) -> bool {
        self.p2c.is_some()
    }

    /// The pair → class map of a write in progress.
    pub(crate) fn pair_map_mut(&mut self) -> &mut PairColumn {
        self.p2c.as_mut().expect("a write builds the pair map before it edits it")
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

    /// The id of `s`, registering it in the dictionary, with an empty
    /// `Il2c` entry, if it is new — the one write that copies a shared
    /// dictionary.
    pub(crate) fn seq_id_or_insert(&mut self, s: LabelSeq) -> SeqId {
        match self.seqs.get(&s) {
            Some(id) => id,
            None => {
                self.il2c.push(Default::default());
                Arc::make_mut(&mut self.seqs).intern(s)
            }
        }
    }

    /// The size of class `c`'s sequence set.
    pub(crate) fn class_seq_count(&self, c: ClassId) -> usize {
        let (chunk, off) = self.class_slot(c);
        chunk.seq_counts.get(off) as usize
    }

    /// Overwrites class `c`'s stored set size, for damaging it: the
    /// column widens if `n` needs it, and does not narrow.
    #[cfg(test)]
    pub(crate) fn set_class_seq_count(&mut self, c: ClassId, n: usize) {
        let chunk = Arc::make_mut(&mut self.classes[c as usize / CLASS_CHUNK]);
        chunk.seq_counts.set(c as usize % CLASS_CHUNK, end_offset(n));
    }

    /// Whether class `c` carries exactly the sequences `ids` (distinct):
    /// its set has `ids.len()` members and every one of the `ids` lists it.
    pub(crate) fn class_carries_exactly(&self, c: ClassId, ids: &[SeqId]) -> bool {
        self.class_seq_count(c) == ids.len()
            && ids.iter().all(|&id| self.il2c[id as usize].all.contains(c))
    }

    /// The `Il2c` entry of `seq`, if `seq` is a lookup key: a retained
    /// entry is served to no one.
    fn posting(&self, seq: &LabelSeq) -> Option<&Posting> {
        if !self.is_indexed(seq) {
            return None;
        }
        Some(&self.il2c[self.seqs.get(seq)? as usize])
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

    /// `Il2c(ℓ)` — the classes whose pairs match `seq`, borrowed as the
    /// index stores them (a [`ClassSet`]: ids ascending, `len` in O(1),
    /// intersections on its containers); empty unless `seq`
    /// [`CpqxIndex::is_indexed`] (a deleted interest's retained entry is
    /// served to no one).
    pub fn lookup(&self, seq: &LabelSeq) -> &ClassSet {
        self.posting(seq).map_or(&NO_CLASSES, |p| &p.all)
    }

    /// `Il2c(ℓ) ∩ id` — the *cyclic* classes whose pairs match `seq`: the
    /// subset of [`CpqxIndex::lookup`] for which
    /// [`CpqxIndex::class_is_loop`] holds, kept beside it as a
    /// [`ClassSet`] of its own; empty unless `seq` is indexed.
    pub fn lookup_cyclic(&self, seq: &LabelSeq) -> &ClassSet {
        self.posting(seq).map_or(&NO_CLASSES, |p| &p.cyclic)
    }

    /// `Ic2p(c)` — the sorted s-t pairs of class `c`, decoded from their
    /// packed keys as they are read (see `ClassChunk`); the length is
    /// known without reading any.
    pub fn class_pairs(&self, c: ClassId) -> impl ExactSizeIterator<Item = Pair> + Clone + '_ {
        let (chunk, off) = self.class_slot(c);
        chunk.row(off)
    }

    /// `⋃_{c ∈ cs} Ic2p(c)` in class order (not normalized), allocated at
    /// its exact size — one forward sweep per touched chunk over its end
    /// offsets and its packed keys. Sizing reads only the end offsets.
    pub fn gather_rows(&self, cs: &ClassSet) -> Vec<Pair> {
        let mut len = 0;
        self.for_each_row(cs, |_, span| len += span.len());
        let mut out = Vec::with_capacity(len);
        self.for_each_row(cs, |keys, span| {
            for i in span {
                out.push(keys.get(i));
            }
        });
        out
    }

    /// Calls `row` with the key reader and the key span of each class of
    /// `cs`, in order. `cs` is ascending, so each chunk it touches is
    /// visited once: the widths of its keys and of its end offsets are
    /// resolved once per visit, not once per class.
    fn for_each_row<'s>(&'s self, cs: &ClassSet, mut row: impl FnMut(Keys<'s>, Range<usize>)) {
        let span = CLASS_CHUNK as ClassId;
        let mut ids = cs.iter();
        let mut next = ids.next();
        while let Some(c) = next {
            let (chunk, first) = (&self.classes[c as usize / CLASS_CHUNK], c - c % span);
            let keys = chunk.keys();
            // Every class of `cs` in this chunk, then the first past it.
            next = with_values!(&chunk.pair_ends, |ends| {
                let mut c = c;
                loop {
                    row(keys, row_span(ends, (c - first) as usize));
                    match ids.next() {
                        Some(d) if d - first < span => c = d,
                        past => break past,
                    }
                }
            });
        }
    }

    /// Whether all pairs of class `c` are cyclic (`v = u`) — the O(1)
    /// IDENTITY check (all members share cyclicity by construction).
    pub fn class_is_loop(&self, c: ClassId) -> bool {
        let (chunk, off) = self.class_slot(c);
        chunk.is_loop(off)
    }

    /// The label-sequence set shared by all pairs of class `c`, in sorted
    /// order, read off the `Il2c` entries that list `c` — retained ones
    /// included, so a deleted interest stays in the set of every class
    /// that carried it. O(#sequences · log) per call.
    pub fn class_sequences(
        &self,
        c: ClassId,
    ) -> impl ExactSizeIterator<Item = LabelSeq> + Clone + '_ {
        let sets = self.class_seq_sets(&self.seq_order(), c..c + 1);
        sets.ids.into_iter().map(|id| self.seqs.seq(id))
    }

    /// Every dictionary id, ordered by the sequence it names — the order
    /// [`CpqxIndex::class_seq_sets`] walks `Il2c` in.
    pub(crate) fn seq_order(&self) -> Vec<SeqId> {
        let mut order: Vec<SeqId> = (0..self.seqs.len() as SeqId).collect();
        order.sort_unstable_by_key(|&id| self.seqs.seq(id));
        order
    }

    /// The sequence sets of the classes in `classes`, read off `Il2c` by
    /// transposing it over that range — how `save` and `validate` read
    /// class sets. Walks the entries in `order` ([`CpqxIndex::seq_order`])
    /// and each posting set from its first class in the range
    /// ([`ClassSet::iter_from`]: a search for the window and one inside
    /// it) to the range's end, so every set comes out in sequence order;
    /// the set sizes lay the output out up front.
    pub(crate) fn class_seq_sets(&self, order: &[SeqId], classes: Range<ClassId>) -> SeqSets {
        let mut ends = Vec::with_capacity(classes.len());
        let mut at = 0;
        for c in classes.clone() {
            at += self.class_seq_count(c) as u32;
            ends.push(at);
        }
        let mut cursors: Vec<u32> =
            std::iter::once(0).chain(ends.iter().copied()).take(ends.len()).collect();
        let mut ids = vec![0; at as usize];
        for &id in order {
            let all = self.il2c[id as usize].all.iter_from(classes.start);
            for c in all.take_while(|&c| c < classes.end) {
                let cursor = &mut cursors[(c - classes.start) as usize];
                ids[*cursor as usize] = id;
                *cursor += 1;
            }
        }
        debug_assert_eq!(cursors, ends, "set sizes disagree with Il2c");
        SeqSets { first: classes.start, ids, ends }
    }

    /// The class of an s-t pair, if indexed.
    ///
    /// A binary search in the slice of the pair's source once the pair →
    /// class map is built (by the first write, or
    /// [`CpqxIndex::build_pair_map`]). Before that this searches
    /// the rows: a binary search over the packed keys of every class of
    /// the pair's cyclicity, O(#classes · log row) per call, so a caller
    /// asking about many pairs of an unwritten index should build the map
    /// first.
    pub fn class_of(&self, p: Pair) -> Option<ClassId> {
        match &self.p2c {
            Some(map) => map.get(p),
            None => (0..self.class_count as ClassId).find(|&c| {
                let (chunk, off) = self.class_slot(c);
                chunk.is_loop(off) == p.is_loop() && chunk.row_holds(off, p)
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
        self.classes.iter().map(|ch| ch.live_classes()).sum()
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
        let (mut keys, mut retained): (Vec<&Posting>, Vec<&Posting>) = Default::default();
        for (id, posting) in self.il2c.iter().enumerate() {
            if self.is_indexed(&self.seqs.seq(id as SeqId)) {
                keys.push(posting);
            } else {
                retained.push(posting);
            }
        }
        let postings: usize = keys.iter().map(|p| p.all.len()).sum();
        let pairs = self.pair_count();
        // γ = average |L≤k(v,u) ∩ indexed| over pairs
        //   = Σ_{lookup keys} Σ_{c listed} |P(c)| / |P≤k|.
        let weighted: usize =
            keys.iter().flat_map(|p| &p.all).map(|c| self.class_pairs(c).len()).sum();
        let gamma = if pairs == 0 { 0.0 } else { weighted as f64 / pairs as f64 };
        // Packed (CSR-equivalent) accounting: entries + offsets, each at
        // the size of the type it is stored as. Vector headers are an
        // implementation detail, so sizes stay comparable across index
        // designs (Table IV's IS). The dictionary holds each sequence once
        // (id → sequence, and the sequence → id entry); `Il2c` is indexed
        // by id, and a cyclic set shares its key with the full set. A class
        // set counts its window headers and both container pools, plus its
        // 4-byte length; an empty cyclic set counts nothing.
        let dict_bytes =
            self.seqs.len() * (std::mem::size_of::<LabelSeq>() + std::mem::size_of::<SeqId>());
        let posting_bytes = |entries: &[&Posting]| -> usize {
            entries
                .iter()
                .map(|p| {
                    let cyclic = if p.cyclic.is_empty() { 0 } else { p.cyclic.stored_bytes() + 4 };
                    p.all.stored_bytes() + 4 + cyclic
                })
                .sum()
        };
        // `Ic2p`: each chunk's packed keys (padding included), its
        // one-byte shift, and its rows' end offsets at their width, with
        // the byte naming the width.
        let ic2p_bytes: usize =
            self.classes.iter().map(|ch| ch.keys.len() + 1 + ch.pair_ends.stored_bytes()).sum();
        let core_bytes = dict_bytes + posting_bytes(&keys) + ic2p_bytes;
        // Per chunk: its set sizes at their width, with their width byte,
        // and its loop bits.
        let class_bytes: usize = self
            .classes
            .iter()
            .map(|ch| ch.seq_counts.stored_bytes() + std::mem::size_of_val(&ch.loops))
            .sum();
        let p2c_bytes = self.p2c.as_ref().map_or(0, PairColumn::stored_bytes);
        IndexStats {
            k: self.k,
            classes: self.live_class_count(),
            pairs,
            sequences: keys.len(),
            postings,
            gamma,
            core_bytes,
            total_bytes: core_bytes + posting_bytes(&retained) + class_bytes + p2c_bytes,
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
    fn pair_map_shards(&self) -> &[Arc<Shard>] {
        self.p2c.as_ref().map_or(&[], PairColumn::shards)
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
            self.lookup(seq).iter().any(|c| self.class_pairs(c).len() > 0)
        } else {
            // Conservative: split into indexed chunks and check each piece.
            // (Non-empty pieces do not guarantee a non-empty whole, but the
            // workload filter only needs length-≤2 windows, which are always
            // indexed.)
            (0..seq.len()).all(|i| {
                let s = LabelSeq::single(seq.get(i));
                self.lookup(&s).iter().any(|c| self.class_pairs(c).len() > 0)
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
        let rows = [p(1, 2), p(1, 5), p(3, 4), p(7, 8)];
        for (is_loop, len) in [(false, 3), (true, 0), (false, 1)] {
            chunk.push(is_loop, 0, len);
        }
        chunk.set_rows(&rows);
        assert!(chunk.row(0).eq(rows[..3].iter().copied()));
        // Classes 10, 11, 12: detach from the first and the last (one pair
        // absent), attach to all three (one pair present already).
        chunk.edit_rows(
            10,
            &[(10, p(1, 5)), (10, p(2, 2)), (12, p(7, 8))],
            &[(10, p(0, 9)), (10, p(3, 4)), (11, p(6, 6)), (12, p(7, 7)), (12, p(9, 9))],
        );
        let row = |off| chunk.row(off).collect::<Vec<_>>();
        assert_eq!(row(0), [p(0, 9), p(1, 2), p(3, 4)]);
        assert_eq!(row(1), [p(6, 6)]);
        assert_eq!(row(2), [p(7, 7), p(9, 9)]);
        // Ids up to 9 take 4 bits, so a key takes one byte.
        assert_eq!((chunk.shift, chunk.keys.len()), (4, 6 + packed_keys::KEY_PAD));
        assert!(chunk.packed_exactly());
        // No edits: nothing moves.
        let before = chunk.keys.clone();
        chunk.edit_rows(10, &[], &[]);
        assert_eq!(chunk.keys, before);
    }

    /// A row edit re-packs its own chunk only, at the width of that chunk's
    /// largest id: attaching a pair with a wider id widens it, detaching
    /// the pair narrows it again. Keys wider than their ids need still
    /// decode, but fail `validate`.
    #[test]
    fn a_row_edit_widens_and_narrows_only_its_chunk() {
        use cpqx_graph::generate::{random_graph, RandomGraphConfig};
        let g = random_graph(&RandomGraphConfig::social(200, 800, 3, 5));
        let mut idx = CpqxIndex::build(&g, 2);
        let shifts = |idx: &CpqxIndex| idx.classes.iter().map(|ch| ch.shift).collect::<Vec<_>>();
        let narrow = shifts(&idx);
        assert!(narrow.len() > 2 && narrow.iter().all(|&s| s <= 8), "{narrow:?}");
        let before = idx.clone();
        let others_shared = |idx: &CpqxIndex| {
            (1..idx.classes.len()).all(|i| Arc::ptr_eq(&idx.classes[i], &before.classes[i]))
        };
        // 70,000 takes 17 bits: 5 bytes a key instead of 2.
        let wide = Pair::new(3, 70_000);
        idx.edit_rows(Vec::new(), vec![(1, wide)]);
        let mut widened = narrow.clone();
        widened[0] = 17;
        assert_eq!(shifts(&idx), widened);
        assert!(idx.class_pairs(1).any(|p| p == wide) && others_shared(&idx));
        assert!(idx.classes[0].packed_exactly());
        idx.edit_rows(vec![(1, wide)], Vec::new());
        assert_eq!(shifts(&idx), narrow);
        assert!(idx.class_pairs(1).eq(before.class_pairs(1)) && others_shared(&idx));
        assert_eq!(idx.validate(&g), Ok(()));

        // Chunk 1 re-packed at 17 bits by hand: it reads the same pairs.
        let chunk = Arc::make_mut(&mut idx.classes[1]);
        let pairs: Vec<Pair> = chunk.pairs(0..chunk.pair_total()).collect();
        let keys = pairs.iter().map(|p| (u64::from(p.src()) << 17) | u64::from(p.dst()));
        chunk.keys = keys.flat_map(|key| key.to_le_bytes().into_iter().take(5)).collect();
        chunk.keys.resize(chunk.keys.len() + packed_keys::KEY_PAD, 0);
        chunk.shift = 17;
        let c = CLASS_CHUNK as ClassId;
        assert!((c..2 * c).all(|c| idx.class_pairs(c).eq(before.class_pairs(c))));
        let err = idx.validate(&g).unwrap_err();
        assert!(err.contains("class chunk 1") && err.contains("width"), "{err}");
    }

    /// A chunk's columns take the width their largest value needs: set
    /// sizes a byte up to 255 and two bytes at 256; row ends two bytes
    /// below 65,536 pairs and four at 65,536 — and two again once a row
    /// edit drops the chunk below 65,536 pairs.
    #[test]
    fn chunk_columns_widen_and_narrow_at_their_boundaries() {
        let mut chunk = ClassChunk::default();
        chunk.push(false, 255, 0);
        assert_eq!((chunk.seq_counts.width(), chunk.pair_ends.width()), (1, 1));
        chunk.push(false, 256, 0);
        assert_eq!(chunk.seq_counts.to_vec(), [255, 256]);
        assert_eq!(chunk.seq_counts.width(), 2);

        // Two classes, 65,535 pairs and one.
        let row: Vec<Pair> = (0..65_535).map(|i| Pair::new(i / 256, i % 256 + 1)).collect();
        let last = Pair::new(300, 0);
        let mut chunk = ClassChunk::default();
        for (len, seqs) in [(row.len(), 1), (1, 2)] {
            chunk.push(false, seqs, len);
        }
        chunk.set_rows(&[&row[..], &[last]].concat());
        assert_eq!(chunk.pair_ends.to_vec(), [65_535, 65_536]);
        assert_eq!(chunk.pair_ends.width(), 4);
        assert_eq!(chunk.check(), Ok(()));
        chunk.edit_rows(0, &[(1, last)], &[]);
        assert_eq!(chunk.pair_ends.to_vec(), [65_535, 65_535]);
        assert_eq!(chunk.pair_ends.width(), 2);
        assert_eq!(chunk.check(), Ok(()));
        assert!(chunk.row(0).eq(row.iter().copied()) && chunk.row(1).len() == 0);
        chunk.edit_rows(0, &[], &[(1, last)]);
        assert_eq!(chunk.pair_ends.width(), 4);
        assert!(chunk.row(1).eq([last]));
    }

    /// A class's loop flag is one bit: those at the ends of each 64-bit
    /// word read back, and no other is set.
    #[test]
    fn loop_bits_read_back_at_word_edges() {
        let looped = [0, 63, 64, 255];
        let mut chunk = ClassChunk::default();
        for off in 0..CLASS_CHUNK {
            chunk.push(looped.contains(&off), 1, 0);
            assert!((0..CLASS_CHUNK).all(|o| chunk.is_loop(o) == (o <= off && looped.contains(&o))));
            assert_eq!(chunk.check(), Ok(()));
        }
        assert_eq!(chunk.loops, [1 | 1 << 63, 1, 0, 1 << 63]);
    }

    /// `total_bytes` is what the structures store, each counted at the
    /// size of the element type it is actually stored as — so the number
    /// falls only if the stored bytes do. A fresh build stores no pair
    /// → class map; once built, the map holds one 8-byte entry per pair
    /// and its sources' offsets. A
    /// posting set's bytes are re-derived from its ids alone: per 64k-id
    /// window, a header and either 2 bytes an id or a 1,024-word bitmap,
    /// whichever is smaller. A chunk's row ends and set sizes are
    /// re-derived from its pair total and from the `Il2c` entries listing
    /// each class: per class, the narrowest of 1, 2 and 4 bytes that holds
    /// the chunk's largest value, plus a width byte per column; its loop
    /// flags are a bit per class slot of the chunk span.
    #[test]
    fn total_bytes_counts_the_stored_elements() {
        use crate::class_set::{Window, ARRAY_MAX};
        use std::mem::{size_of, size_of_val};
        let g = cpqx_graph::generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let ff = LabelSeq::from_slice(&[f, f]);
        let mut deleted = CpqxIndex::build_interest_aware(&g, 2, [ff]);
        assert!(deleted.delete_interest(&ff));
        // Enough classes under one sequence for bitmap windows.
        let many = cpqx_graph::generate::random_graph(
            &cpqx_graph::generate::RandomGraphConfig::social(1200, 6000, 2, 3),
        );
        let builds = [
            CpqxIndex::build(&g, 2),
            CpqxIndex::build_interest_aware(&g, 2, [ff]),
            deleted,
            CpqxIndex::build(&many, 2),
        ];
        let mut windows = [0; 2];
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
            // A class set: per window, its header and its container.
            assert_eq!(size_of::<Window>(), 12);
            let mut set_bytes = |set: &ClassSet| -> usize {
                let ids: Vec<ClassId> = set.iter().collect();
                let per_window = ids.chunk_by(|a, b| a >> 16 == b >> 16).map(|w| {
                    let bitmap = w.len() > ARRAY_MAX;
                    windows[usize::from(bitmap)] += 1;
                    let container =
                        if bitmap { 1024 * size_of::<u64>() } else { w.len() * size_of::<u16>() };
                    size_of::<Window>() + container
                });
                per_window.sum()
            };
            // `Il2c`: lookup keys, and retained entries.
            let mut il2c = |keys: bool| -> usize {
                (0..idx.seqs.len() as SeqId)
                    .filter(|&id| idx.is_indexed(&idx.seqs.seq(id)) == keys)
                    .map(|id| {
                        let p = &idx.il2c[id as usize];
                        let cyclic = set_bytes(&p.cyclic);
                        set_bytes(&p.all) + offsets(1) + cyclic + offsets(usize::from(cyclic > 0))
                    })
                    .sum()
            };
            let (il2c, retained) = (il2c(true), il2c(false));
            assert_eq!(retained > 0, !idx.is_indexed(&ff), "only a deleted interest is retained");
            // `Ic2p`: per chunk, its keys at the width its largest vertex id
            // needs, 7 bytes of padding and the shift byte, and its rows'
            // end offsets at the width its pair total needs.
            let narrowest =
                |largest: usize| [1, 2, 4].into_iter().find(|&w| largest >> (8 * w) == 0);
            let column = |len: usize, largest: usize| len * narrowest(largest).unwrap() + 1;
            for ch in chunks() {
                let largest = ch.pairs(0..ch.pair_total()).map(|p| p.src().max(p.dst())).max();
                let width = packed_keys::key_width(2 * u32::from(ch.shift));
                assert_eq!(u32::from(ch.shift), largest.map_or(0, |v| v.max(1).ilog2() + 1));
                assert_eq!(ch.keys.len(), largest.map_or(0, |_| ch.pair_total() * width + 7));
            }
            let ic2p: usize = chunks()
                .map(|ch| {
                    size_of_val(ch.keys.as_slice())
                        + size_of_val(&ch.shift)
                        + column(ch.len(), ch.pair_total())
                })
                .sum();
            // A class's set is stored in `Il2c` alone; the chunk holds its
            // size, the number of entries listing the class.
            let mut listed = vec![0; idx.class_count];
            for c in idx.il2c.iter().flat_map(|p| &p.all) {
                listed[c as usize] += 1;
            }
            let set_sizes: usize = listed
                .chunks(CLASS_CHUNK)
                .map(|sizes| column(sizes.len(), sizes.iter().copied().max().unwrap_or(0)))
                .sum();
            // The pair → class map: per 256-source shard up to the largest
            // source, each entry as a key of its target and class at the
            // bit widths of the shard's largest target and largest class,
            // 7 bytes of padding after a shard's last key, its two width
            // bytes, and a start offset per source and the entry count.
            let mut shards: Vec<(usize, u32, ClassId)> = Vec::new();
            for c in 0..idx.class_slots() as ClassId {
                for p in idx.class_pairs(c) {
                    let shard = p.src() as usize / 256;
                    if shard >= shards.len() {
                        shards.resize(shard + 1, (0, 0, 0));
                    }
                    let (n, targets, classes) = &mut shards[shard];
                    (*n, *targets, *classes) = (*n + 1, (*targets).max(p.dst()), (*classes).max(c));
                }
            }
            let bits = |largest: u32| largest.max(1).ilog2() + 1;
            let p2c: usize = shards
                .iter()
                .map(|&(n, targets, classes)| {
                    let width = (bits(targets) + bits(classes)).div_ceil(8) as usize;
                    let keys = if n == 0 { 0 } else { n * width + 7 };
                    keys + 2 + offsets(257)
                })
                .sum();
            let p2c = if has_map { p2c } else { 0 };
            assert_eq!(idx.pair_map_shards().len(), if has_map { shards.len() } else { 0 });
            // A loop bit per class slot of each chunk.
            assert!(chunks().all(|ch| size_of_val(&ch.loops) == CLASS_CHUNK / 8));
            let loops = idx.classes.len() * CLASS_CHUNK / 8;
            let stats = idx.stats();
            assert_eq!(stats.core_bytes, dict + il2c + ic2p);
            assert_eq!(stats.total_bytes, dict + il2c + ic2p + retained + set_sizes + p2c + loops);
        }
        assert!(
            windows.iter().all(|&n| n > 0),
            "array and bitmap windows both counted: {windows:?}"
        );
    }

    /// The transposition `save` and `validate` read class sets through
    /// agrees, over any class range, with the sets the partition assigned.
    #[test]
    fn class_sets_read_off_il2c_are_the_partition_sets() {
        let g = cpqx_graph::generate::random_graph(
            &cpqx_graph::generate::RandomGraphConfig::social(60, 260, 3, 4),
        );
        let p = cpq_path_partition(&g, 2);
        let idx = CpqxIndex::build(&g, 2);
        let order = idx.seq_order();
        let n = idx.class_slots() as ClassId;
        for range in [0..n, 0..1, 3..300.min(n), n - 1..n, n..n] {
            let sets = idx.class_seq_sets(&order, range.clone());
            for c in range {
                let seqs: Vec<LabelSeq> = sets.get(c).iter().map(|&id| idx.seqs.seq(id)).collect();
                assert_eq!(seqs, p.class_seqs(c).collect::<Vec<_>>(), "class {c}");
                assert!(idx.class_sequences(c).eq(seqs));
            }
        }
    }
}
