//! Class-id sets — `Il2c`'s postings and cyclic sets, and every
//! class-level result of a query — as Roaring-style containers (Chambi,
//! Lemire et al., "Better bitmap performance with Roaring bitmaps", SPE
//! 2016).
//!
//! A [`ClassSet`] splits its ids by their high 16 bits into **windows**.
//! A window of at most `ARRAY_MAX` ids stores their low halves as a
//! sorted `u16` array; a fuller one is a 65,536-bit bitmap of 1,024 words.
//! At 4,096 ids both forms take 8 KB, so each window takes the smaller. A
//! single-label posting lists tens of thousands of classes out of a few
//! hundred thousand, so most of its windows are bitmaps, at 2 to 16 bits
//! an id; over every posting of the benchmark's in-process graph, an id
//! takes 11 bits on average instead of 32.
//!
//! A set is laid out flat, like a class chunk's rows: one vector of window
//! headers, one `u16` pool holding every array window back to back and one
//! `u64` pool holding every bitmap window, so copying a set for a write is
//! three `memcpy`s whatever its size.
//!
//! Sets are read where they are stored. Iteration, membership, stepping
//! by rank ([`Iter::nth`]) and intersection ([`ClassSet::and`], window by
//! window) all run on the containers; nothing decodes a set into a list
//! first.

use crate::bisim::ClassId;
use cpqx_graph::pair::{self, GALLOP_RATIO};
use std::cell::RefCell;

/// The most ids a window stores as an array; a fuller window is a bitmap.
pub(crate) const ARRAY_MAX: usize = 4096;

/// Words of one bitmap window: one bit per low half.
const WINDOW_WORDS: usize = 1 << 10;

/// One window's header: which ids it holds, how, and where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    /// The high 16 bits every id of the window shares.
    pub(crate) key: u16,
    /// Whether the window is a bitmap rather than a sorted array.
    pub(crate) bitmap: bool,
    /// The number of ids in earlier windows: the rank of its first id.
    pub(crate) rank: u32,
    /// Where its container starts: an offset into the `u16` pool for an
    /// array window, into the `u64` pool for a bitmap.
    pub(crate) start: u32,
}

impl Window {
    /// The id whose low half is `low`.
    #[inline]
    fn id(self, low: u32) -> ClassId {
        u32::from(self.key) << 16 | low
    }
}

/// A sorted set of class ids, stored as array and bitmap containers (see
/// the module docs). Every set is in canonical form: window keys strictly
/// ascending, no empty window, a window is an array iff it holds at most
/// `ARRAY_MAX` ids, and the containers tile their pools in window order
/// — so two sets are equal iff they hold the same ids.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ClassSet {
    /// Window headers, ascending by key.
    windows: Vec<Window>,
    /// The array windows' low halves, back to back in window order.
    arrays: Vec<u16>,
    /// The bitmap windows, [`WINDOW_WORDS`] words each, in window order.
    words: Vec<u64>,
    /// The number of ids.
    len: u32,
}

/// A set's stored parts, laid open for a test to damage them.
#[cfg(test)]
pub(crate) struct Parts<'a> {
    pub(crate) windows: &'a mut Vec<Window>,
    pub(crate) arrays: &'a mut Vec<u16>,
    pub(crate) words: &'a mut Vec<u64>,
    pub(crate) len: &'a mut u32,
}

/// One window's container, borrowed.
#[derive(Clone, Copy)]
enum Container<'a> {
    /// Sorted low halves.
    Array(&'a [u16]),
    /// One bit per low half.
    Bitmap(&'a [u64; WINDOW_WORDS]),
}

impl ClassSet {
    /// The empty set.
    pub(crate) const fn new() -> Self {
        ClassSet { windows: Vec::new(), arrays: Vec::new(), words: Vec::new(), len: 0 }
    }

    /// The number of ids.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids, ascending.
    pub fn iter(&self) -> Iter<'_> {
        let Some(w) = self.windows.first() else { return Iter::empty(self) };
        let open = match self.container(0) {
            Container::Array(lows) => Cursor::Array(lows.iter()),
            Container::Bitmap(bits) => Cursor::Bitmap { rest: &bits[1..], at: 0, word: bits[0] },
        };
        Iter { set: self, next: 1, key: w.key, open, left: self.len() }
    }

    /// The ids from the first one not below `from`, ascending: one search
    /// for the window, and one inside it.
    pub(crate) fn iter_from(&self, from: ClassId) -> Iter<'_> {
        let key = (from >> 16) as u16;
        let i = self.windows.partition_point(|w| w.key < key);
        let Some(w) = self.windows.get(i) else { return Iter::empty(self) };
        let low = if w.key == key { from as u16 } else { 0 };
        let (open, skipped) = self.cursor(i, low);
        let left = self.len() - w.rank as usize - skipped;
        Iter { set: self, next: i + 1, key: w.key, open, left }
    }

    /// Whether `c` is in the set: a search over the window keys, then a
    /// binary search of an array or one bit test.
    pub fn contains(&self, c: ClassId) -> bool {
        let Ok(i) = self.windows.binary_search_by_key(&((c >> 16) as u16), |w| w.key) else {
            return false;
        };
        match self.container(i) {
            Container::Array(lows) => lows.binary_search(&(c as u16)).is_ok(),
            Container::Bitmap(bits) => bit(bits, c as u16),
        }
    }

    /// The largest id.
    pub(crate) fn last(&self) -> Option<ClassId> {
        let i = self.windows.len().checked_sub(1)?;
        let low = match self.container(i) {
            Container::Array(lows) => u32::from(*lows.last()?),
            Container::Bitmap(bits) => {
                let (at, &word) = bits.iter().enumerate().rfind(|(_, &w)| w != 0)?;
                at as u32 * 64 + 63 - word.leading_zeros()
            }
        };
        Some(self.windows[i].id(low))
    }

    /// The ids in both sets, as a set — window by window over the keys the
    /// two share: a word AND of two bitmaps, a bit test per array id
    /// against a bitmap, and two arrays by their lengths (`and_arrays`).
    /// A window's common low halves are gathered into one reused buffer
    /// and stored as one container (`ClassSet::push_window`); only an
    /// AND of bitmaps that keeps over `ARRAY_MAX` ids stores its words
    /// as they are. Either way the result is canonical.
    pub fn and(&self, other: &ClassSet) -> ClassSet {
        let mut out = ClassSet::new();
        let mut lows = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.windows.len() && j < other.windows.len() {
            let (a, b) = (self.windows[i].key, other.windows[j].key);
            if a != b {
                i += usize::from(a < b);
                j += usize::from(b < a);
                continue;
            }
            lows.clear();
            match (self.container(i), other.container(j)) {
                (Container::Bitmap(x), Container::Bitmap(y)) => {
                    // The ANDed words go to the pool, and stay there as the
                    // window's bitmap if it holds over ARRAY_MAX ids.
                    let start = out.words.len();
                    out.words.extend(x.iter().zip(y).map(|(x, y)| x & y));
                    let n: u32 = out.words[start..].iter().map(|w| w.count_ones()).sum();
                    if n as usize > ARRAY_MAX {
                        let (rank, start) = (out.len, pool_offset(start));
                        out.windows.push(Window { key: a, bitmap: true, rank, start });
                        out.len += n;
                    } else {
                        let words = out.words[start..].iter().copied();
                        for (at, mut word) in (0u32..).step_by(64).zip(words) {
                            while word != 0 {
                                lows.push((at + word.trailing_zeros()) as u16);
                                word &= word - 1;
                            }
                        }
                        out.words.truncate(start);
                    }
                }
                (Container::Array(x), Container::Bitmap(bits))
                | (Container::Bitmap(bits), Container::Array(x)) => {
                    keep_set_bits(x, bits, &mut lows);
                }
                (Container::Array(x), Container::Array(y)) => {
                    MARKS.with_borrow_mut(|marks| and_arrays(x, y, marks, &mut lows));
                }
            }
            if !lows.is_empty() {
                out.push_window(a, &lows);
            }
            (i, j) = (i + 1, j + 1);
        }
        out
    }

    /// Adds `c`, an id above every id of the set. A window that reaches
    /// [`ARRAY_MAX`] + 1 ids turns into a bitmap: it is the last window,
    /// so its array is the tail of the `u16` pool.
    pub(crate) fn push(&mut self, c: ClassId) {
        debug_assert!(self.last().is_none_or(|last| last < c), "ids are pushed ascending");
        let (key, low) = ((c >> 16) as u16, c as u16);
        let rank = self.len;
        self.len += 1;
        let Some(w) = self.windows.last_mut().filter(|w| w.key == key) else {
            let start = pool_offset(self.arrays.len());
            self.windows.push(Window { key, bitmap: false, rank, start });
            self.arrays.push(low);
            return;
        };
        if !w.bitmap && (rank - w.rank) as usize == ARRAY_MAX {
            let at = w.start as usize;
            (w.bitmap, w.start) = (true, push_bitmap(&mut self.words, &self.arrays[at..]));
            self.arrays.truncate(at);
        }
        if w.bitmap {
            self.words[w.start as usize + usize::from(low >> 6)] |= 1 << (low & 63);
        } else {
            self.arrays.push(low);
        }
    }

    /// Adds the window `key` of the ids whose low halves are `lows` —
    /// sorted, distinct, not empty — as one container, `key` above every
    /// window's key: how a build stores a set, a window at a time, without
    /// the per-id work of [`ClassSet::push`].
    pub(crate) fn push_window(&mut self, key: u16, lows: &[u16]) {
        debug_assert!(self.windows.last().is_none_or(|w| w.key < key), "windows pushed ascending");
        debug_assert!(!lows.is_empty() && lows.windows(2).all(|p| p[0] < p[1]), "unsorted window");
        let (rank, bitmap) = (self.len, lows.len() > ARRAY_MAX);
        self.len += pool_offset(lows.len());
        let start = if bitmap {
            push_bitmap(&mut self.words, lows)
        } else {
            self.arrays.extend_from_slice(lows);
            pool_offset(self.arrays.len() - lows.len())
        };
        self.windows.push(Window { key, bitmap, rank, start });
    }

    /// Frees the pools' spare capacity (a build calls this once a set is
    /// complete).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.windows.shrink_to_fit();
        self.arrays.shrink_to_fit();
        self.words.shrink_to_fit();
    }

    /// The bytes the set stores: its window headers and both pools.
    pub(crate) fn stored_bytes(&self) -> usize {
        std::mem::size_of_val(self.windows.as_slice())
            + std::mem::size_of_val(self.arrays.as_slice())
            + std::mem::size_of_val(self.words.as_slice())
    }

    /// Whether the set is in canonical form (see [`ClassSet`]), and if not,
    /// the first rule it breaks. Every other method may assume the form,
    /// so a set read from a damaged index is checked with this first.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        const OFFSETS: &str = "window offsets disagree with the window sizes";
        let (mut arrays, mut words) = (0, 0);
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 && self.windows[i - 1].key >= w.key {
                return Err("window keys not strictly ascending");
            }
            let end = self.windows.get(i + 1).map_or(self.len, |next| next.rank);
            if (i == 0 && w.rank != 0) || end < w.rank {
                return Err(OFFSETS);
            }
            let size = (end - w.rank) as usize;
            if size == 0 {
                return Err("an empty window");
            }
            if w.bitmap != (size > ARRAY_MAX) {
                return Err(
                    "a window's kind disagrees with its size: an array iff at most 4096 ids",
                );
            }
            // The containers tile their pools in window order.
            let (at, stored, taken) = if w.bitmap {
                (&mut words, self.words.len(), WINDOW_WORDS)
            } else {
                (&mut arrays, self.arrays.len(), size)
            };
            if w.start as usize != *at || *at + taken > stored {
                return Err(OFFSETS);
            }
            *at += taken;
            match self.container(i) {
                Container::Array(lows) => {
                    if lows.windows(2).any(|p| p[0] >= p[1]) {
                        return Err("an array window not strictly sorted");
                    }
                }
                Container::Bitmap(bits) => {
                    if bits.iter().map(|b| b.count_ones() as usize).sum::<usize>() != size {
                        return Err(OFFSETS);
                    }
                }
            }
        }
        if arrays != self.arrays.len()
            || words != self.words.len()
            || (self.windows.is_empty() && self.len != 0)
        {
            return Err(OFFSETS);
        }
        Ok(())
    }

    /// The set of `ids`, sorted without duplicates, pushed one by one.
    #[cfg(test)]
    pub(crate) fn from_sorted(ids: &[ClassId]) -> Self {
        let mut set = ClassSet::new();
        for &c in ids {
            set.push(c);
        }
        set
    }

    /// The number of ids in the `i`-th window.
    #[inline]
    fn window_len(&self, i: usize) -> usize {
        let end = self.windows.get(i + 1).map_or(self.len, |next| next.rank);
        (end - self.windows[i].rank) as usize
    }

    /// The set's stored parts, to damage them.
    #[cfg(test)]
    pub(crate) fn parts_mut(&mut self) -> Parts<'_> {
        let ClassSet { windows, arrays, words, len } = self;
        Parts { windows, arrays, words, len }
    }

    /// The `i`-th window's container.
    #[inline]
    fn container(&self, i: usize) -> Container<'_> {
        let w = self.windows[i];
        let start = w.start as usize;
        if w.bitmap {
            let bits = &self.words[start..start + WINDOW_WORDS];
            Container::Bitmap(bits.try_into().expect("a bitmap window has 1,024 words"))
        } else {
            Container::Array(&self.arrays[start..start + self.window_len(i)])
        }
    }

    /// A cursor over the `i`-th window from its first low half not below
    /// `low`, and the number of the window's ids it skips.
    fn cursor(&self, i: usize, low: u16) -> (Cursor<'_>, usize) {
        match self.container(i) {
            Container::Array(lows) => {
                let skipped = lows.partition_point(|&l| l < low);
                (Cursor::Array(lows[skipped..].iter()), skipped)
            }
            Container::Bitmap(bits) => {
                let at = usize::from(low >> 6);
                let below = (1 << (low & 63)) - 1;
                let skipped = bits[..at].iter().map(|w| w.count_ones() as usize).sum::<usize>()
                    + (bits[at] & below).count_ones() as usize;
                let cursor = Cursor::Bitmap {
                    rest: &bits[at + 1..],
                    at: at as u32 * 64,
                    word: bits[at] & !below,
                };
                (cursor, skipped)
            }
        }
    }
}

/// Bitmap words a skip passes at a time ([`Iter::skip`]).
const SKIP_BLOCK: usize = 8;

/// Clears the `n` lowest set bits of `word`.
#[inline]
fn drop_lowest(word: &mut u64, n: usize) {
    for _ in 0..n {
        *word &= *word - 1;
    }
}

/// Whether the bitmap has the bit of `low`.
#[inline]
fn bit(bits: &[u64; WINDOW_WORDS], low: u16) -> bool {
    bits[usize::from(low >> 6)] >> (low & 63) & 1 == 1
}

/// Below this many ids in the smaller array, a merge is as fast as
/// marking it.
const MERGE_BELOW: usize = 8;

thread_local! {
    /// The window bitmap [`and_arrays`] marks an array in: one per thread,
    /// so no AND allocates or clears one; all zero between calls.
    static MARKS: RefCell<[u64; WINDOW_WORDS]> = const { RefCell::new([0; WINDOW_WORDS]) };
}

/// Appends the low halves in both sorted arrays `x` and `y` to `out`, by
/// the cheapest route their lengths allow: a short smaller side merges,
/// one ≥ 16× shorter than the other gallops ([`pair::intersect_sorted`]
/// is both), and otherwise the smaller is marked in the window bitmap
/// `marks` (all zero, and left so) and the larger filtered against it
/// without a data-dependent branch.
fn and_arrays(x: &[u16], y: &[u16], marks: &mut [u64; WINDOW_WORDS], out: &mut Vec<u16>) {
    let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
    if small.len() < MERGE_BELOW || small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        return pair::intersect_sorted(small, large, out);
    }
    // Only the part of `large` inside `small`'s range can match.
    let (lo, hi) = (small[0], small[small.len() - 1]);
    let large = &large[large.partition_point(|&l| l < lo)..];
    let large = &large[..large.partition_point(|&l| l <= hi)];
    for &low in small {
        marks[usize::from(low >> 6)] |= 1 << (low & 63);
    }
    keep_set_bits(large, marks, out);
    for &low in small {
        marks[usize::from(low >> 6)] = 0;
    }
}

/// Appends the `lows` whose bit is set in `bits`, without a
/// data-dependent branch: every low half is written at the cursor, and a
/// hit advances it.
fn keep_set_bits(lows: &[u16], bits: &[u64; WINDOW_WORDS], out: &mut Vec<u16>) {
    let mut kept = out.len();
    out.resize(kept + lows.len(), 0);
    for &low in lows {
        out[kept] = low;
        kept += usize::from(bit(bits, low));
    }
    out.truncate(kept);
}

/// Appends a bitmap window of `lows` to the `u64` pool `words`, returning
/// where it starts.
fn push_bitmap(words: &mut Vec<u64>, lows: &[u16]) -> u32 {
    let at = words.len();
    words.resize(at + WINDOW_WORDS, 0);
    for &low in lows {
        words[at + usize::from(low >> 6)] |= 1 << (low & 63);
    }
    pool_offset(at)
}

/// A pool length as a window's start offset.
fn pool_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a class set holds fewer than 2^32 ids")
}

impl std::fmt::Debug for ClassSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ClassSet {
    type Item = ClassId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Where an [`Iter`] is inside its open window.
#[derive(Clone)]
enum Cursor<'a> {
    /// The array's low halves not yet yielded.
    Array(std::slice::Iter<'a, u16>),
    /// The bitmap's words after the current one, the low half of the
    /// current word's bit 0, and the current word's bits not yet yielded.
    Bitmap { rest: &'a [u64], at: u32, word: u64 },
}

/// The ids of a [`ClassSet`], ascending ([`ClassSet::iter`]).
#[derive(Clone)]
pub struct Iter<'a> {
    set: &'a ClassSet,
    /// The window to open when the open one is done.
    next: usize,
    /// The open window's key.
    key: u16,
    open: Cursor<'a>,
    /// Ids not yet yielded.
    left: usize,
}

impl<'a> Iter<'a> {
    /// An iterator that yields nothing.
    fn empty(set: &'a ClassSet) -> Self {
        let open = Cursor::Array([].iter());
        Iter { set, next: set.windows.len(), key: 0, open, left: 0 }
    }

    /// Passes over the next `n` ids without yielding them: array ids by
    /// index, bitmap words by their popcounts, and whole windows by their
    /// sizes — never one id at a time.
    fn skip(&mut self, n: usize) {
        let mut n = n.min(self.left);
        self.left -= n;
        while n > 0 {
            match &mut self.open {
                Cursor::Array(lows) => {
                    let passed = n.min(lows.len());
                    *lows = lows.as_slice()[passed..].iter();
                    n -= passed;
                }
                Cursor::Bitmap { rest, at, word } => {
                    if n < word.count_ones() as usize {
                        return drop_lowest(word, n);
                    }
                    n -= word.count_ones() as usize;
                    *word = 0;
                    // Blocks of words first: their popcounts sum without a
                    // branch per word.
                    while let Some(block) = rest.get(..SKIP_BLOCK) {
                        let ones: usize = block.iter().map(|w| w.count_ones() as usize).sum();
                        if n < ones {
                            break;
                        }
                        n -= ones;
                        (*rest, *at) = (&rest[SKIP_BLOCK..], *at + 64 * SKIP_BLOCK as u32);
                    }
                    while let Some((&next, tail)) = rest.split_first() {
                        (*word, *rest, *at) = (next, tail, *at + 64);
                        if n < next.count_ones() as usize {
                            return drop_lowest(word, n);
                        }
                        n -= next.count_ones() as usize;
                        *word = 0;
                    }
                }
            }
            // The open window is passed: pass whole windows, and open the
            // one that holds the id after the skip.
            while n > 0 && n >= self.set.window_len(self.next) {
                n -= self.set.window_len(self.next);
                self.next += 1;
            }
            if n > 0 {
                let key = self.set.windows[self.next].key;
                (self.open, self.key) = (self.set.cursor(self.next, 0).0, key);
                self.next += 1;
            }
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = ClassId;

    #[inline]
    fn next(&mut self) -> Option<ClassId> {
        loop {
            let low = match &mut self.open {
                Cursor::Array(lows) => lows.next().map(|&low| u32::from(low)),
                Cursor::Bitmap { rest, at, word } => {
                    while *word == 0 && !rest.is_empty() {
                        (*word, *rest, *at) = (rest[0], &rest[1..], *at + 64);
                    }
                    (*word != 0).then(|| {
                        let low = *at + word.trailing_zeros();
                        *word &= *word - 1;
                        low
                    })
                }
            };
            if let Some(low) = low {
                self.left -= 1;
                return Some(u32::from(self.key) << 16 | low);
            }
            let w = self.set.windows.get(self.next)?;
            (self.open, self.key) = (self.set.cursor(self.next, 0).0, w.key);
            self.next += 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// Skips `n` ids by `Iter::skip`, so stepping through a set by rank
    /// (`step_by`) walks its bitmap words once, by popcount.
    fn nth(&mut self, n: usize) -> Option<ClassId> {
        self.skip(n);
        self.next()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Where a run of ids may start: window 0, just below and at the
    /// 65,535 / 65,536 edge, and two windows on.
    const ANCHORS: [ClassId; 4] = [0, 65_536 - 2_500, 65_536, 3 * 65_536 + 100];

    /// Sorted distinct ids, as runs from the anchors: `count` ids `stride`
    /// apart, so a dense run fills a bitmap window, a count near 4,096
    /// lands on either side of the array → bitmap threshold, and a run
    /// from below the edge spills into the next window.
    fn ids() -> impl Strategy<Value = Vec<ClassId>> {
        let count = prop_oneof![0u32..40, 4_090u32..4_100, 0u32..9_000];
        let run = (0usize..ANCHORS.len(), 0u32..600, count, 1u32..4);
        prop::collection::vec(run, 0..4).prop_map(|runs| {
            let mut ids: Vec<ClassId> = runs
                .into_iter()
                .flat_map(|(anchor, skip, count, stride)| {
                    (0..count).map(move |i| ANCHORS[anchor] + skip + i * stride)
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        })
    }

    /// Ids a reader may ask about: the model's ends and neighbours, the
    /// window edges, and ids past the last.
    fn probes(model: &[ClassId]) -> Vec<ClassId> {
        let mut probes = vec![0, 1, 65_535, 65_536, 65_537, 131_071, u32::MAX];
        for &c in model.iter().step_by(97).chain(model.last()) {
            probes.extend([c.saturating_sub(1), c, c + 1]);
        }
        probes
    }

    fn intersection(a: &[ClassId], b: &[ClassId]) -> Vec<ClassId> {
        a.iter().copied().filter(|c| b.binary_search(c).is_ok()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A set built by pushes reads back, by every reader, exactly the
        /// sorted list it was pushed from, and stays canonical.
        #[test]
        fn a_set_reads_like_its_sorted_list(
            model in ids(),
            other in ids(),
            short in window_lists(),
        ) {
            let set = ClassSet::from_sorted(&model);
            prop_assert_eq!(set.check(), Ok(()));
            // Laid out a window at a time, as a build does, it is the same
            // set, part for part.
            let mut by_window = ClassSet::new();
            for w in model.chunk_by(|a, b| a >> 16 == b >> 16) {
                let lows: Vec<u16> = w.iter().map(|&c| c as u16).collect();
                by_window.push_window((w[0] >> 16) as u16, &lows);
            }
            prop_assert!(by_window == set, "windowed layout differs from pushes");
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.last(), model.last().copied());
            prop_assert_eq!(set.iter().len(), model.len());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.clone());
            let kinds = set.windows.iter().map(|w| w.bitmap);
            let sizes = model.chunk_by(|a, b| a >> 16 == b >> 16).map(|w| w.len() > ARRAY_MAX);
            prop_assert!(kinds.eq(sizes), "a window is a bitmap iff it holds over 4096 ids");
            for c in probes(&model) {
                prop_assert_eq!(set.contains(c), model.binary_search(&c).is_ok(), "contains {}", c);
                let from = &model[model.partition_point(|&d| d < c)..];
                let walked = set.iter_from(c);
                prop_assert_eq!(walked.len(), from.len(), "range walk from {}", c);
                prop_assert_eq!(walked.collect::<Vec<_>>(), from.to_vec(), "range walk from {}", c);
            }
            // Select by rank: `nth` from the start, and from part-way.
            for rank in (0..model.len()).step_by(37).chain(model.len().checked_sub(1)) {
                prop_assert_eq!(set.iter().nth(rank), Some(model[rank]), "select {}", rank);
                let mut from = set.iter_from(model[rank / 2]);
                let ahead = rank - rank / 2;
                prop_assert_eq!(from.nth(ahead), Some(model[rank]), "select {} from part-way", rank);
                prop_assert_eq!(from.len(), model.len() - rank - 1);
            }
            prop_assert_eq!(set.iter().nth(model.len()), None);
            // Stepping by rank, as the planner samples a set, skips ids in
            // bulk and reads the same ids.
            for step in [1, 7, model.len() / 32 + 1, 5_000] {
                let stepped = set.iter().step_by(step);
                prop_assert!(stepped.eq(model.iter().copied().step_by(step)), "step {}", step);
            }

            and_like_the_model(&model, &other);
            prop_assert_eq!(set.and(&set), set.clone());
            prop_assert!(set.and(&ClassSet::new()).is_empty());
            // Short and long lists of one window: every route of two
            // arrays — merge, gallop and mark.
            for (a, b) in &short {
                and_like_the_model(a, b);
            }
        }
    }

    /// Pairs of sorted distinct id lists inside one window: ids drawn from
    /// a 700-id range — so the lists overlap — shifted to one place in one
    /// of four windows; lengths from empty to a few, across the merge
    /// bound, and far past it.
    fn window_lists() -> impl Strategy<Value = Vec<(Vec<ClassId>, Vec<ClassId>)>> {
        let list = || {
            let len = prop_oneof![0usize..4, 0usize..64, 200usize..600];
            len.prop_flat_map(|n| prop::collection::vec(0u32..700, n..n + 1))
        };
        let lists = (list(), list(), 0u32..4, 0u32..5_000);
        prop::collection::vec(lists, 1..4).prop_map(|pairs| {
            let place = |mut ids: Vec<ClassId>, key: u32, shift: u32| {
                ids.sort_unstable();
                ids.dedup();
                ids.iter().map(|c| key << 16 | (c + shift)).collect()
            };
            let place = |(a, b, key, shift)| (place(a, key, shift), place(b, key, shift));
            pairs.into_iter().map(place).collect()
        })
    }

    /// `and` of the sets of `a` and `b`, both ways, is canonical and equals
    /// the set of the lists' intersection part for part.
    fn and_like_the_model(a: &[ClassId], b: &[ClassId]) {
        let expected = ClassSet::from_sorted(&intersection(a, b));
        let (a, b) = (ClassSet::from_sorted(a), ClassSet::from_sorted(b));
        for both in [a.and(&b), b.and(&a)] {
            assert_eq!(both.check(), Ok(()));
            assert!(both == expected, "{both:?} != {expected:?}");
        }
    }

    /// Each route of `and`, on inputs that take it: two arrays merge
    /// (smaller side under 8 ids), gallop (≥ 16× skew) or mark (long and
    /// balanced — the only route that touches the window bitmap, which it
    /// leaves all zero); two bitmaps AND to exactly 4,096 ids, an array,
    /// and to 4,097, a bitmap.
    #[test]
    fn and_takes_each_route() {
        let lows = |ids: &[ClassId]| -> Vec<u16> { ids.iter().map(|&c| c as u16).collect() };
        let every = |n: u32, step: u32, from: u32| -> Vec<ClassId> {
            (0..n).map(|i| from + i * step).collect()
        };
        let (short, medium) = (every(7, 5, 0), every(100, 2, 0));
        let (long, balanced, skewed) = (every(4000, 3, 0), every(3000, 4, 6000), every(40, 300, 0));
        let routes = [(&short, &medium, false), (&skewed, &long, false), (&long, &balanced, true)];
        for (a, b, marked) in routes {
            // A route that does not mark never reads the bitmap: all ones,
            // it would keep every id and be cleared.
            let unread = if marked { 0 } else { !0 };
            let (mut marks, mut out) = ([unread; WINDOW_WORDS], Vec::new());
            and_arrays(&lows(a), &lows(b), &mut marks, &mut out);
            assert_eq!(out, lows(&intersection(a, b)), "marked: {marked}");
            assert!(marks.iter().all(|&w| w == unread), "marks read or left dirty");
            and_like_the_model(a, b);
        }
        let evens = every(8192, 2, 0);
        for (n, bitmap) in [(8192, false), (8194, true)] {
            let dense = every(n, 1, 0);
            let both = ClassSet::from_sorted(&dense).and(&ClassSet::from_sorted(&evens));
            assert_eq!(both.len(), 4096 + usize::from(bitmap));
            assert_eq!(both.windows[0].bitmap, bitmap);
            and_like_the_model(&dense, &evens);
        }
    }

    /// The 4,096th id of a window keeps it an array, the 4,097th makes it a
    /// bitmap, and the next window starts as an array again.
    #[test]
    fn a_window_turns_into_a_bitmap_past_4096_ids() {
        let mut set = ClassSet::new();
        for c in 0..ARRAY_MAX as ClassId {
            set.push(c * 2);
        }
        assert_eq!((set.windows[0].bitmap, set.arrays.len(), set.words.len()), (false, 4096, 0));
        set.push(65_535);
        assert_eq!((set.windows[0].bitmap, set.arrays.len(), set.words.len()), (true, 0, 1024));
        set.push(65_536);
        let kinds: Vec<bool> = set.windows.iter().map(|w| w.bitmap).collect();
        assert_eq!((kinds, set.arrays.as_slice()), (vec![true, false], &[0][..]));
        assert_eq!(set.check(), Ok(()));
        assert_eq!(set.stored_bytes(), 2 * 12 + 2 + 8192);
        assert_eq!(
            (set.len(), set.iter().nth(4096), set.last()),
            (4098, Some(65_535), Some(65_536))
        );
    }
}
