//! Signature interning — the one grouping mechanism of the build path.
//!
//! Every grouping step of index construction asks the same question: *have
//! I seen this `(flag, word sequence)` before, and under which id?* — block
//! signatures `(v = u, sorted (b_{i-1}, b₁) combos)` in level refinement,
//! block-id tuples `⟨b₁,…,b_k⟩` and class invariants `(cyclicity, L≤k)` in
//! class assembly, sequence-id sets in the interest-aware partition,
//! label sequences in the sequence dictionary
//! ([`SeqDict`]) every sequence set of the build and the index refers to.
//! [`SigInterner`] answers it the moment a signature is produced (Algorithm
//! 2's "hash the block-id sequence"), so no step materializes all
//! signatures to sort them.
//!
//! Ids are handed out in **first-occurrence order** and equality is decided
//! on the stored words, never on the hash alone — so the numbering is a
//! function of the input stream only. The hash is a fixed-seed
//! multiply-rotate: no `RandomState` anywhere, hence two builds of one
//! graph, in one process or two, number their classes identically.

use crate::bisim::SeqId;
use cpqx_graph::LabelSeq;
use std::hash::Hasher;

/// Odd multiplier of the multiply-rotate round (2⁶⁴ / golden ratio).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hash of a signature. Every round ends in a multiply, which carries each
/// input bit into the *high* bits of the state — the bits the table
/// indexes by.
fn hash_sig(flag: bool, words: &[u64]) -> u64 {
    let mut h = ((words.len() as u64) << 1 | flag as u64).wrapping_mul(K);
    for &w in words {
        h = (h.rotate_left(23) ^ w).wrapping_mul(K);
    }
    h
}

/// The 32-bit table tag of a signature: the top 31 hash bits, then the
/// flag.
fn tag_of(hash: u64, flag: bool) -> u64 {
    (hash >> 32) & !1 | flag as u64
}

/// Interns `(flag, &[u64])` signatures to dense `u32` ids.
///
/// Storage is two flat vectors — the concatenated words of all distinct
/// signatures and one span end per id — plus an open-addressing table
/// (linear probing, load ≤ ½) whose 64-bit entries pack a 32-bit *tag* —
/// the top 31 hash bits, then the flag — with `id + 1`. The slot index is
/// the leading bits of that stored tag, so growing the table re-places
/// entries without touching the arena, and a probe compares words only
/// where tag and flag already match.
#[derive(Clone, Default)]
pub(crate) struct SigInterner {
    words: Vec<u64>,
    /// `ends[id]` is the end of id's span in `words`; it starts where the
    /// previous id's span ends.
    ends: Vec<usize>,
    /// `tag << 32 | (id + 1)`; zero is an empty slot.
    table: Vec<u64>,
}

impl SigInterner {
    /// Number of distinct signatures interned so far — also the id the next
    /// new signature will receive.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The words of signature `id`.
    pub(crate) fn words(&self, id: u32) -> &[u64] {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.words[start..self.ends[id]]
    }

    /// The id of `(flag, words)`: the id it was given when first seen, or
    /// [`SigInterner::len`] — the next unused id — if it is new.
    pub(crate) fn intern(&mut self, flag: bool, words: &[u64]) -> u32 {
        self.intern_hashed(hash_sig(flag, words), flag, words)
    }

    /// The id of `(flag, words)` if it has been interned, without
    /// registering it otherwise.
    pub(crate) fn get(&self, flag: bool, words: &[u64]) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        self.find(hash_sig(flag, words), flag, words).ok()
    }

    /// [`SigInterner::intern`] under a caller-chosen hash (the seam the
    /// collision test drives).
    fn intern_hashed(&mut self, hash: u64, flag: bool, words: &[u64]) -> u32 {
        if (self.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let slot = match self.find(hash, flag, words) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.len()).expect("more than u32::MAX distinct signatures");
        self.table[slot] = tag_of(hash, flag) << 32 | (id as u64 + 1);
        self.words.extend_from_slice(words);
        self.ends.push(self.words.len());
        id
    }

    /// Probes a non-empty table for `(flag, words)`: its id, or the empty
    /// slot where it would go.
    fn find(&self, hash: u64, flag: bool, words: &[u64]) -> Result<u32, usize> {
        let tag = tag_of(hash, flag);
        let mask = self.table.len() - 1;
        let mut slot = self.home_slot(tag);
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                return Err(slot);
            }
            if entry >> 32 == tag {
                let id = (entry as u32) - 1;
                if self.words(id) == words {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot a tag probes from: its leading `log2(table.len())` bits
    /// (at most 31, so never the flag).
    fn home_slot(&self, tag: u64) -> usize {
        (tag >> (32 - self.table.len().trailing_zeros())) as usize
    }

    /// Doubles the table and re-places every entry from its stored tag.
    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(16);
        assert!(cap as u64 <= 1 << 31, "signature table exceeds 2^31 slots");
        let old = std::mem::replace(&mut self.table, vec![0; cap]);
        for entry in old.into_iter().filter(|&e| e != 0) {
            let mut slot = self.home_slot(entry >> 32);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (cap - 1);
            }
            self.table[slot] = entry;
        }
    }
}

/// A label sequence as interner words: length and labels packed 16 bits
/// apiece, four to a word — one word up to length 3, at most three. The
/// length in the first word makes a concatenation of sequences
/// self-delimiting, so a sorted sequence *set* encodes injectively too.
pub(crate) fn seq_words(s: &LabelSeq) -> ([u64; 3], usize) {
    let mut out = [s.len() as u64, 0, 0];
    for (i, l) in s.iter().enumerate() {
        out[(i + 1) / 4] |= (l.0 as u64) << (16 * ((i + 1) % 4));
    }
    (out, s.len() / 4 + 1)
}

/// A sequence-id list as interner words, two ids to a word; an odd last id
/// is padded with `u32::MAX`, which is never an id, so the encoding is
/// injective. Replaces the contents of `out`.
pub(crate) fn id_words(ids: &[SeqId], out: &mut Vec<u64>) {
    out.clear();
    out.extend(ids.chunks(2).map(|two| {
        let high = two.get(1).copied().unwrap_or(u32::MAX);
        (high as u64) << 32 | two[0] as u64
    }));
}

/// The dictionary of label sequences: every distinct sequence stored once
/// and named by a dense [`SeqId`], handed out in first-occurrence order.
/// Sequence *sets* — a block's or a class's `L≤k` — are then lists of
/// 4-byte ids instead of 18-byte [`LabelSeq`]s, and `Il2c` is a vector
/// indexed by id (Fletcher & Beck's dictionary encoding, PAPERS.md).
///
/// Id → sequence is a vector read; sequence → id is a [`SigInterner`]
/// probe over [`seq_words`], under its fixed-seed hash. Query lookups only
/// probe ([`SeqDict::get`]); sequences are registered only as the graph's
/// edges spell them, so colliding the table takes a writer who inserts
/// one crafted label path per colliding key — the trade [`PairHasher`]
/// makes for pairs.
#[derive(Clone, Default)]
pub(crate) struct SeqDict {
    seqs: Vec<LabelSeq>,
    ids: SigInterner,
}

impl SeqDict {
    /// Number of distinct sequences — also the id the next new one gets.
    pub(crate) fn len(&self) -> usize {
        self.seqs.len()
    }

    /// The sequence `id` names.
    #[inline]
    pub(crate) fn seq(&self, id: SeqId) -> LabelSeq {
        self.seqs[id as usize]
    }

    /// The id of `s`, if it has one.
    pub(crate) fn get(&self, s: &LabelSeq) -> Option<SeqId> {
        let (w, n) = seq_words(s);
        self.ids.get(false, &w[..n])
    }

    /// The id of `s`, registering it under the next id if it is new.
    pub(crate) fn intern(&mut self, s: LabelSeq) -> SeqId {
        let (w, n) = seq_words(&s);
        let id = self.ids.intern(false, &w[..n]);
        if id as usize == self.seqs.len() {
            self.seqs.push(s);
        }
        id
    }

    /// The sequences, indexed by id.
    pub(crate) fn into_seqs(self) -> Vec<LabelSeq> {
        self.seqs
    }
}

/// Hasher of the index's pair → class shards: the 64-bit finalizer of
/// MurmurHash3 over the packed pair, fixed seed.
///
/// **The trade.** `std`'s default SipHash under a per-process random key
/// costs more than the probe it guards on the three paths that insert
/// every indexed pair (build, recovery, maintenance). This hasher is two
/// multiplies, and gives up HashDoS resistance for it. Its keys are
/// `(source, target)` vertex ids — dense integers the graph assigns; a
/// writer chooses only *which* pairs of existing ids become connected — and
/// the finalizer is a bijection on `u64` with full avalanche, so colliding
/// a shard's buckets takes one crafted edge per colliding key, all inside
/// one 256-source shard. A writer with that much access can already cost
/// the index more by inserting edges at a hub.
#[derive(Clone, Copy, Default)]
pub(crate) struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut h = self.0 ^ x;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        self.0 = h ^ (h >> 33);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpqx_graph::ExtLabel;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn ids_follow_first_occurrence() {
        let mut t = SigInterner::default();
        assert_eq!(t.intern(false, &[7, 8]), 0);
        assert_eq!(t.intern(true, &[7, 8]), 1, "the flag is part of the key");
        assert_eq!(t.intern(false, &[]), 2, "the empty signature is a key");
        assert_eq!(t.intern(false, &[7]), 3, "a prefix is a different key");
        assert_eq!(t.intern(false, &[7, 8]), 0);
        assert_eq!(t.intern(true, &[]), 4);
        assert_eq!(t.len(), 5);
        assert_eq!(t.words(0), &[7, 8]);
        assert_eq!(t.words(2), &[] as &[u64]);
        assert_eq!(t.words(3), &[7]);
    }

    #[test]
    fn equal_hashes_with_unequal_words_get_distinct_ids() {
        // Every key under one hash: the tag always matches, so only the
        // word comparison can tell keys apart — across several doublings.
        let mut t = SigInterner::default();
        for i in 0..100u64 {
            assert_eq!(t.intern_hashed(42, i % 2 == 0, &[i, i + 1]), i as u32);
        }
        for i in 0..100u64 {
            assert_eq!(t.intern_hashed(42, i % 2 == 0, &[i, i + 1]), i as u32);
            assert_eq!(t.intern_hashed(42, i % 2 != 0, &[i, i + 1]), 100 + i as u32);
        }
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn seq_words_are_injective_and_self_delimiting() {
        let l = |i: u16| ExtLabel(i);
        let seqs = [
            LabelSeq::single(l(0)),
            LabelSeq::single(l(1)),
            LabelSeq::from_slice(&[l(0), l(0)]),
            LabelSeq::from_slice(&[l(0), l(0), l(0)]),
            LabelSeq::from_slice(&[l(0), l(0), l(0), l(0)]),
            LabelSeq::from_slice(&[l(65534); 7]),
            LabelSeq::from_slice(&[l(65534); 8]),
        ];
        let mut seen = std::collections::HashSet::new();
        for s in &seqs {
            let (w, n) = seq_words(s);
            assert_eq!(n, (s.len() + 1).div_ceil(4), "{s:?}");
            assert_eq!(w[0] & 0xFFFF, s.len() as u64, "length leads the first word");
            assert!(w[n..].iter().all(|&x| x == 0));
            assert!(seen.insert(w[..n].to_vec()), "{s:?} collides");
        }
    }

    #[test]
    fn id_words_are_injective() {
        let lists: [&[SeqId]; 6] = [&[], &[0], &[0, 0], &[0, u32::MAX - 1], &[1, 0], &[0, 0, 0]];
        let mut seen = std::collections::HashSet::new();
        let mut words = vec![7];
        for ids in lists {
            id_words(ids, &mut words);
            assert_eq!(words.len(), ids.len().div_ceil(2));
            assert!(seen.insert(words.clone()), "{ids:?} collides");
        }
    }

    #[test]
    fn seq_dict_names_each_sequence_once() {
        let l = |i: u16| ExtLabel(i);
        let (a, ab, b) =
            (LabelSeq::single(l(0)), LabelSeq::from_slice(&[l(0), l(1)]), LabelSeq::single(l(1)));
        let mut d = SeqDict::default();
        assert_eq!(d.get(&a), None, "an empty dictionary knows nothing");
        assert_eq!((d.intern(ab), d.intern(a), d.intern(ab), d.intern(b)), (0, 1, 0, 2));
        assert_eq!((d.get(&a), d.get(&LabelSeq::single(l(2)))), (Some(1), None));
        assert_eq!((d.len(), d.seq(0), d.seq(2)), (3, ab, b));
        assert_eq!(d.clone().into_seqs(), [ab, a, b]);
    }

    #[test]
    fn pair_hasher_spreads_dense_pairs() {
        // One shard's worth of keys — 256 sources × dense targets — must
        // fill both ends of the hash (hashbrown buckets by the low bits and
        // tags by the top seven).
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<PairHasher>::default();
        let (mut low, mut top) = ([0u32; 256], [0u32; 128]);
        for v in 0..256u64 {
            for u in 0..64u64 {
                let h = build.hash_one(cpqx_graph::Pair(v << 32 | u));
                low[(h & 255) as usize] += 1;
                top[(h >> 57) as usize] += 1;
            }
        }
        assert!(low.iter().all(|&n| (32..=96).contains(&n)), "low bits skewed: {low:?}");
        assert!(top.iter().all(|&n| (64..=192).contains(&n)), "top bits skewed: {top:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a `BTreeMap` model: equal keys get equal ids, distinct
        /// keys distinct ids, ids count up in first-occurrence order, and
        /// stored words read back — over streams long enough to double the
        /// table several times, drawn from a key space small enough to
        /// repeat.
        #[test]
        fn interning_agrees_with_a_map_model(
            stream in prop::collection::vec(
                (any::<bool>(), prop::collection::vec(0u64..6, 0..4)),
                0..400,
            ),
        ) {
            let mut t = SigInterner::default();
            let mut model: BTreeMap<(bool, Vec<u64>), u32> = BTreeMap::new();
            for (flag, words) in &stream {
                let next = model.len() as u32;
                let expect = *model.entry((*flag, words.clone())).or_insert(next);
                prop_assert_eq!(t.intern(*flag, words), expect);
                prop_assert_eq!(t.len(), model.len());
            }
            for ((_, words), id) in &model {
                prop_assert_eq!(t.words(*id), words.as_slice());
            }
        }
    }
}
