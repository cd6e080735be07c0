//! A small dependency-free LRU cache for plans and query results.
//!
//! Entries live in a slab threaded into a recency list by index, and a
//! hash map takes a key to its slab slot: a hit is one hash lookup plus a
//! few index writes, and allocates nothing. Entries leave only by eviction
//! (whose slot the incoming entry reuses at once) or by [`LruCache::clear`],
//! so the slab needs no free list.
//!
//! An entry may also be reachable through a few **aliases**: second keys in
//! a namespace of their own (an alias never collides with a primary key),
//! which share the entry's slot, recency and eviction. The result cache
//! files an answer under its canonical key and aliases it by the request
//! texts that produced it.
//!
//! A key or alias is held twice — by the map that finds it and by the slot
//! that must unmap it when evicted — through `Clone`, so both engine caches
//! key by `Arc<str>`: one copy of the text, two pointers to it.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// End of the recency list.
const NIL: usize = usize::MAX;

/// Aliases one entry may carry. Texts that canonicalize alike are few in
/// honest traffic and unbounded in hostile traffic (whitespace, redundant
/// parentheses); past the cap a new spelling simply is not aliased.
const MAX_ALIASES: usize = 4;

struct Slot<K, V> {
    key: K,
    aliases: Vec<K>,
    value: V,
    /// Neighbour towards the most recently used end.
    prev: usize,
    /// Neighbour towards the least recently used end.
    next: usize,
}

/// A least-recently-used cache with a fixed entry capacity.
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    aliases: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of 0
    /// disables the cache (every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1024)),
            aliases: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Current number of cached entries (aliases are not entries).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most-recently-used on a hit. Accepts
    /// any borrowed form of the key (e.g. `&str` for `String` keys).
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = *self.map.get(key)?;
        self.touch(at);
        Some(&self.slots[at].value)
    }

    /// Looks up an alias, marking its entry most-recently-used on a hit.
    pub fn get_by_alias<Q>(&mut self, alias: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = *self.aliases.get(alias)?;
        self.touch(at);
        Some(&self.slots[at].value)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry (and
    /// its aliases) if the cache is full. Re-inserting a resident key
    /// replaces its value and keeps its aliases. Returns whether the
    /// value was stored (a zero capacity stores nothing).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&at) = self.map.get(&key) {
            self.slots[at].value = value;
            self.touch(at);
            return true;
        }
        let fresh = Slot { key: key.clone(), aliases: Vec::new(), value, prev: NIL, next: NIL };
        let at = if self.slots.len() < self.capacity {
            self.slots.push(fresh);
            self.slots.len() - 1
        } else {
            let at = self.tail;
            self.unlink(at);
            let evicted = std::mem::replace(&mut self.slots[at], fresh);
            self.map.remove(&evicted.key);
            for alias in &evicted.aliases {
                self.aliases.remove(alias);
            }
            at
        };
        self.map.insert(key, at);
        self.push_front(at);
        true
    }

    /// Makes `alias` a second way to reach the entry under `key`. Returns
    /// `false`, changing nothing, when `key` is not resident, the alias is
    /// already taken, or the entry carries its full share of aliases.
    pub fn alias<Q>(&mut self, alias: K, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let Some(&at) = self.map.get(key) else {
            return false;
        };
        if self.slots[at].aliases.len() >= MAX_ALIASES || self.aliases.contains_key::<K>(&alias) {
            return false;
        }
        self.slots[at].aliases.push(alias.clone());
        self.aliases.insert(alias, at);
        true
    }

    /// Drops every entry (used when a new snapshot invalidates results).
    pub fn clear(&mut self) {
        self.map.clear();
        self.aliases.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Moves a linked slot to the most-recently-used end.
    fn touch(&mut self, at: usize) {
        if self.head != at {
            self.unlink(at);
            self.push_front(at);
        }
    }

    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slots[at].prev, self.slots[at].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, at: usize) {
        self.slots[at].prev = NIL;
        self.slots[at].next = self.head;
        match self.head {
            NIL => self.tail = at,
            h => self.slots[h].prev = at,
        }
        self.head = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // a is now MRU
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 10);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        assert!(!c.insert("a", 1));
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.insert(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn reinsert_at_capacity_evicts_nothing() {
        // Overwriting a resident key must not count as growth, so no
        // other entry may be evicted by it.
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("b", 20);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&20));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_order_tracks_repeated_gets() {
        // a,b,c inserted; touching a then b makes c the LRU victim, and a
        // second round of touches keeps rotating the victim correctly.
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        c.get(&"a");
        c.get(&"b");
        c.insert("d", 4); // evicts c
        assert_eq!(c.get(&"c"), None);
        c.get(&"a"); // order now: b, d, a
        c.insert("e", 5); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"d"), Some(&4));
        assert_eq!(c.get(&"e"), Some(&5));
    }

    #[test]
    fn capacity_one_keeps_only_newest() {
        let mut c = LruCache::new(1);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&"two"));
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_survives_heavy_traffic() {
        // Capacity 0 must stay empty (and not leak recency-queue memory)
        // under a long mixed get/insert workload.
        let mut c = LruCache::new(0);
        for i in 0..10_000u32 {
            c.insert(i % 7, i);
            assert_eq!(c.get(&(i % 7)), None);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn get_on_missing_key_does_not_disturb_order() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"zzz"), None);
        c.insert("c", 3); // must evict a (untouched LRU), not b
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn stress_against_reference_model() {
        // Compare against a naive O(n) LRU model under a long random-ish
        // deterministic workload.
        let mut c = LruCache::new(8);
        let mut model: Vec<(u32, u32)> = Vec::new(); // (key, value), front = LRU
        let mut x: u64 = 0x1234_5678;
        for step in 0..20_000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 24) as u32;
            if x & 1 == 0 {
                // insert
                let val = step;
                c.insert(key, val);
                model.retain(|&(k, _)| k != key);
                model.push((key, val));
                if model.len() > 8 {
                    model.remove(0);
                }
            } else {
                let got = c.get(&key).copied();
                let want = model.iter().position(|&(k, _)| k == key).map(|i| {
                    let (k, v) = model.remove(i);
                    model.push((k, v));
                    v
                });
                assert_eq!(got, want, "step {step} key {key}");
            }
        }
        assert!(c.len() <= 8);
    }

    /// The naive model: entries in a `Vec`, least recently used first,
    /// each with the aliases it carries.
    struct Model {
        capacity: usize,
        entries: Vec<(u32, Vec<u32>, u32)>, // (key, aliases, value)
    }

    impl Model {
        fn touch(&mut self, i: usize) -> u32 {
            let e = self.entries.remove(i);
            self.entries.push(e);
            self.entries.last().unwrap().2
        }

        fn get(&mut self, key: u32) -> Option<u32> {
            let i = self.entries.iter().position(|e| e.0 == key)?;
            Some(self.touch(i))
        }

        fn get_by_alias(&mut self, alias: u32) -> Option<u32> {
            let i = self.entries.iter().position(|e| e.1.contains(&alias))?;
            Some(self.touch(i))
        }

        fn insert(&mut self, key: u32, value: u32) -> bool {
            if self.capacity == 0 {
                return false;
            }
            match self.entries.iter().position(|e| e.0 == key) {
                Some(i) => {
                    self.entries[i].2 = value;
                    self.touch(i);
                }
                None => {
                    if self.entries.len() == self.capacity {
                        self.entries.remove(0);
                    }
                    self.entries.push((key, Vec::new(), value));
                }
            }
            true
        }

        fn alias(&mut self, alias: u32, key: u32) -> bool {
            let taken = self.entries.iter().any(|e| e.1.contains(&alias));
            match self.entries.iter_mut().find(|e| e.0 == key) {
                Some(e) if !taken && e.1.len() < MAX_ALIASES => {
                    e.1.push(alias);
                    true
                }
                _ => false,
            }
        }
    }

    #[test]
    fn aliases_and_eviction_match_the_naive_model() {
        // Keys and aliases are drawn from the same small range on purpose:
        // the two namespaces must not see each other.
        for capacity in [0usize, 1, 2, 5, 8] {
            let mut c = LruCache::new(capacity);
            let mut model = Model { capacity, entries: Vec::new() };
            let mut x: u64 = 0x9E37_79B9 ^ capacity as u64;
            for step in 0..20_000u32 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (a, b) = (((x >> 33) % 12) as u32, ((x >> 40) % 12) as u32);
                let at = format!("capacity {capacity} step {step}");
                match (x >> 20) % 5 {
                    0 => assert_eq!(c.insert(a, step), model.insert(a, step), "{at}"),
                    1 => assert_eq!(c.alias(a, &b), model.alias(a, b), "{at}"),
                    2 => assert_eq!(c.get(&a).copied(), model.get(a), "{at}"),
                    _ => assert_eq!(c.get_by_alias(&a).copied(), model.get_by_alias(a), "{at}"),
                }
                assert_eq!(c.len(), model.entries.len(), "{at}");
            }
            assert!(c.len() <= capacity);
        }
    }

    #[test]
    fn an_alias_shares_its_entry_and_leaves_with_it() {
        use std::sync::Arc;
        let mut c: LruCache<Arc<str>, Arc<u32>> = LruCache::new(2);
        let (key, text): (Arc<str>, Arc<str>) = ("l3".into(), "f".into());
        c.insert(Arc::clone(&key), Arc::new(7));
        assert!(c.alias(Arc::clone(&text), "l3"));
        // One copy of each text: ours, the slot's and the map's pointer.
        assert_eq!((Arc::strong_count(&key), Arc::strong_count(&text)), (3, 3));
        // A text that spells another entry's primary key is still only an
        // alias: the namespaces are separate.
        c.insert("l4".into(), Arc::new(8));
        assert!(c.alias("l3".into(), "l4"));
        let by_key = Arc::clone(c.get("l3").unwrap());
        let by_alias = c.get_by_alias("f").unwrap();
        assert!(Arc::ptr_eq(&by_key, by_alias), "one entry, two ways in");
        assert_eq!(**c.get_by_alias("l3").unwrap(), 8);
        // Touch l4 through its alias, then overflow: l3 is the victim and
        // its alias goes with it.
        c.insert("l5".into(), Arc::new(9));
        assert!(c.get("l3").is_none());
        assert!(c.get_by_alias("f").is_none());
        assert_eq!(**c.get_by_alias("l3").unwrap(), 8);
        assert_eq!(Arc::strong_count(&by_key), 1, "the evicted entry is dropped, not parked");
        assert_eq!((Arc::strong_count(&key), Arc::strong_count(&text)), (1, 1));
        // Re-inserting a resident key keeps its aliases on the new value.
        c.insert("l4".into(), Arc::new(80));
        assert_eq!(**c.get_by_alias("l3").unwrap(), 80);
        c.clear();
        assert!(c.get_by_alias("l3").is_none() && c.is_empty());
    }
}
