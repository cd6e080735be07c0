//! Checking an index against its graph: the paper's structural invariant,
//! stated directly instead of through query answers.
//!
//! Query processing needs exactly this of `(Il2c, Ic2p)` (Def. 4.3, Prop.
//! 4.1): the classes partition the pairs that have an indexed label
//! sequence, every class is homogeneous in `(cyclicity, L≤k ∩ indexed)`,
//! and `Il2c` lists precisely the classes carrying each sequence. `Il2c` is
//! also the only record of which sequences a class carries, so the check
//! reads class sets off it and holds each class's stored set size to the
//! number of entries listing the class. Full builds produce the *coarsest*
//! such partition; lazy maintenance keeps it valid but lets it fragment
//! (classes are never re-merged), so minimality is not part of the check.

use crate::bisim::{ClassId, SeqId};
use crate::index::CpqxIndex;
use crate::pair_column::shards_for;
use crate::paths::bounded_ball;
use cpqx_graph::{Graph, LabelSeq, Pair};

impl CpqxIndex {
    /// Verifies this index against `g`, the graph it is supposed to index,
    /// recomputing every pair's sequence set from the graph
    /// ([`crate::paths::label_seqs_between`]) — O(|P≤k| · paths), a test and
    /// diagnosis tool, not a serving-path call. Checks that
    ///
    /// * `Il2c` has one entry per dictionary sequence; every posting set
    ///   and every cyclic set is in canonical form — window keys strictly
    ///   ascending, no empty window, a window is an array iff it holds at
    ///   most 4,096 ids, each array strictly sorted, and the window offsets
    ///   consistent with the window sizes — the posting set lists only
    ///   allocated classes, and the cyclic set beside it is exactly the
    ///   listed classes whose loop flag is set;
    /// * every class's stored set size equals the number of `Il2c` entries
    ///   listing it — the set [`CpqxIndex::class_sequences`] reads back;
    /// * an entry whose sequence is not indexed — a *retained* entry — has
    ///   a sequence a deleted interest could have had (the index is
    ///   interest-aware, length 2 to k), and no lookup serves it;
    /// * every class chunk and every pair-map shard is in the canonical
    ///   form of the packed rows both store their rows in: end offsets at
    ///   the narrowest width their total needs, never decreasing, the last
    ///   one the key count; each packed run a whole number of keys, then 7
    ///   zero bytes, with no bit set past its width; each row strictly
    ///   ascending (a chunk's by pair, a shard's by target); and the keys
    ///   at the narrowest widths their owner's layout needs — a chunk's
    ///   largest vertex id, a shard's largest target and class. A chunk's
    ///   set sizes are a packed run at the narrowest width too, one per
    ///   row, and no loop bit is set past its classes;
    /// * `Ic2p` rows are disjoint and hold `pair_count` pairs, and the
    ///   pair → class map, if built, is exactly their inverse (without it,
    ///   pairs are looked up in a sorted list made from the rows), with a
    ///   row per source in each shard and exactly the shards the rows'
    ///   largest source needs;
    /// * every pair of `g` with a non-empty `L≤k ∩ indexed` is in exactly
    ///   one class; every indexed pair's class has the pair's cyclicity and
    ///   carries (restricted to the currently indexed sequences) exactly
    ///   the pair's `L≤k ∩ indexed` — which is empty only for the pairs a
    ///   deleted interest left behind, unreachable from `Il2c` until their
    ///   next refresh — and no pair without a path of length ≤ k is indexed
    ///   (`pair_count` is exact). With the set-size check this makes every
    ///   lookup key list every live class carrying it and no other live
    ///   class.
    ///
    /// Returns the first violation found.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        let slots = self.class_slots() as ClassId;

        // Il2c on its own, counting the entries that list each class.
        if self.il2c.len() != self.seqs.len() {
            return Err(format!(
                "Il2c has {} entries for {} sequences",
                self.il2c.len(),
                self.seqs.len()
            ));
        }
        let mut listed = vec![0usize; slots as usize];
        for (id, posting) in self.il2c.iter().enumerate() {
            let s = self.seqs.seq(id as SeqId);
            // Every other read of a set assumes its canonical form.
            if let Err(rule) = posting.all.check() {
                return Err(format!("Il2c({s:?}): {rule}"));
            }
            if let Err(rule) = posting.cyclic.check() {
                return Err(format!("Il2c({s:?}): cyclic set: {rule}"));
            }
            if let Some(c) = posting.all.last().filter(|&c| c >= slots) {
                return Err(format!("Il2c({s:?}) lists class {c}, beyond the {slots} slots"));
            }
            let cyclic = posting.all.iter().filter(|&c| self.class_is_loop(c));
            if !cyclic.eq(&posting.cyclic) {
                return Err(format!("Il2c({s:?}): cyclic set is not its cyclic classes"));
            }
            if !self.is_indexed(&s) {
                if !(self.is_interest_aware() && (2..=self.k).contains(&s.len())) {
                    return Err(format!("Il2c({s:?}) is retained, but was never an interest"));
                }
                if !self.lookup(&s).is_empty() || !self.lookup_cyclic(&s).is_empty() {
                    return Err(format!("Il2c({s:?}) is retained, but a lookup serves it"));
                }
            }
            for c in &posting.all {
                listed[c as usize] += 1;
            }
        }
        if let Some(c) = (0..slots).find(|&c| self.class_seq_count(c) != listed[c as usize]) {
            return Err(format!(
                "class {c} has {} sequences, but {} Il2c entries list it",
                self.class_seq_count(c),
                listed[c as usize]
            ));
        }

        for (i, chunk) in self.classes.iter().enumerate() {
            chunk.check().map_err(|rule| format!("class chunk {i}: {rule}"))?;
        }
        // Ic2p rows, listed as (pair, class) in pair order: the rows'
        // inverse, checked against the pair → class map if there is one
        // and standing in for it otherwise.
        let mut in_rows: Vec<(Pair, ClassId)> = Vec::with_capacity(self.pair_count());
        for c in 0..slots {
            in_rows.extend(self.class_pairs(c).map(|p| (p, c)));
        }
        in_rows.sort_unstable();
        if let Some(w) = in_rows.windows(2).find(|w| w[0].0 == w[1].0) {
            let (p, a, b) = (w[0].0, w[0].1, w[1].1);
            return Err(format!("{p:?} sits in two classes, {a} and {b}"));
        }
        if in_rows.len() != self.pair_count() {
            return Err(format!(
                "{} pairs in class rows, pair_count {}",
                in_rows.len(),
                self.pair_count()
            ));
        }
        if let Some(map) = &self.p2c {
            map.check()?;
            let largest = in_rows.last().map(|&(p, _)| p.src());
            let needed = shards_for(largest);
            if map.shards().len() != needed {
                return Err(format!(
                    "the pair map has {} shards, its largest source {largest:?} needs {needed}",
                    map.shards().len()
                ));
            }
            if let Some(&(p, c)) = in_rows.iter().find(|&&(p, c)| self.class_of(p) != Some(c)) {
                return Err(format!("class {c} holds {p:?}, mapped to {:?}", self.class_of(p)));
            }
            // Every row pair is mapped to its class, so equal sizes make
            // the map the rows' inverse.
            if map.len() != in_rows.len() {
                return Err(format!(
                    "{} pairs in class rows, {} in the pair map",
                    in_rows.len(),
                    map.len()
                ));
            }
        }
        let class_of =
            |p: Pair| in_rows.binary_search_by_key(&p, |&(q, _)| q).ok().map(|at| in_rows[at].1);

        // Classes against the graph, their sets read off `Il2c` and
        // restricted to what is indexed now (a deleted interest stays in
        // the sets until the class's pairs are next refreshed).
        let sets = self.class_seq_sets(&self.seq_order(), 0..slots);
        let indexed_class_sequences = |c: ClassId| -> Vec<LabelSeq> {
            let seqs = sets.get(c).iter().map(|&id| self.seqs.seq(id));
            seqs.filter(|s| self.is_indexed(s)).collect()
        };
        let mut indexed_in_reach = 0usize;
        for v in g.vertices() {
            for (u, _) in bounded_ball(g, &[v], self.k) {
                let p = Pair::new(v, u);
                let expected = self.indexed_seqs_of(g, p);
                let Some(c) = class_of(p) else {
                    if expected.is_empty() {
                        continue;
                    }
                    return Err(format!("{p:?} has {expected:?} but is not indexed"));
                };
                indexed_in_reach += 1;
                if self.class_is_loop(c) != p.is_loop() {
                    return Err(format!("{p:?} sits in class {c} of the other cyclicity"));
                }
                let carried = indexed_class_sequences(c);
                if carried != expected {
                    return Err(format!(
                        "{p:?} has {expected:?}, its class {c} carries {carried:?}"
                    ));
                }
            }
        }
        if indexed_in_reach != self.pair_count() {
            return Err(format!(
                "{} pairs indexed, only {indexed_in_reach} of them within distance k",
                self.pair_count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_set::{ClassSet, Parts, Window};
    use crate::index::{ClassChunk, Posting};
    use crate::packed_keys::{self, PackedColumn, KEY_PAD};
    use crate::pair_column::Shard;
    use cpqx_graph::generate;
    use std::sync::Arc;

    /// The `Il2c` entry of a sequence, for damaging it.
    fn posting_mut<'a>(idx: &'a mut CpqxIndex, s: &LabelSeq) -> &'a mut Posting {
        let id = idx.seqs.get(s).expect("a sequence in the dictionary");
        Arc::make_mut(&mut idx.il2c[id as usize])
    }

    #[test]
    fn fresh_and_maintained_indexes_validate() {
        let mut g = generate::gex();
        let f = g.label_named("f").unwrap();
        let ff = LabelSeq::from_slice(&[f.fwd(), f.fwd()]);
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        for mut idx in [CpqxIndex::build(&g, 2), CpqxIndex::build_interest_aware(&g, 2, [ff])] {
            idx.validate(&g).unwrap();
            idx.delete_edge(&mut g, sue, joe, f);
            idx.validate(&g).unwrap();
            if idx.is_interest_aware() {
                idx.delete_interest(&ff);
                idx.validate(&g).unwrap();
                idx.insert_interest(&mut g, ff);
                idx.validate(&g).unwrap();
            }
            idx.insert_edge(&mut g, sue, joe, f);
            idx.validate(&g).unwrap();
        }
    }

    #[test]
    fn each_kind_of_damage_is_reported() {
        let g = generate::gex();
        let good = CpqxIndex::build(&g, 2);
        let some_pair = good.class_pairs(0).next().unwrap();
        let other_class = (1..good.class_slots() as ClassId)
            .find(|&c| good.class_is_loop(c) == good.class_is_loop(0))
            .unwrap();

        // An index of a different graph: homogeneity / membership.
        let mut smaller = g.clone();
        let (sue, joe) = (g.vertex_named("sue").unwrap(), g.vertex_named("joe").unwrap());
        smaller.remove_edge(sue, joe, g.label_named("f").unwrap());
        assert!(good.validate(&smaller).is_err());
        assert!(CpqxIndex::build(&smaller, 2).validate(&g).is_err());

        // A pair moved to a class with another sequence set, with and
        // without the pair map.
        for has_map in [false, true] {
            let mut bad = good.clone();
            if has_map {
                bad.build_pair_map();
            }
            bad.edit_rows(vec![(0, some_pair)], vec![(other_class, some_pair)]);
            assert_eq!(bad.class_pairs(0).len() + 1, good.class_pairs(0).len());
            assert!(bad.class_pairs(other_class).any(|p| p == some_pair));
            if has_map {
                bad.pair_map_mut().edit(&[(some_pair, Some(other_class))]);
            }
            let err = bad.validate(&g).unwrap_err();
            assert!(err.contains("carries"), "{err}");
        }

        // Ic2p and the pair map disagree.
        let mut bad = good.clone();
        bad.build_pair_map();
        bad.pair_map_mut().edit(&[(some_pair, Some(other_class))]);
        let err = bad.validate(&g).unwrap_err();
        assert!(err.contains("mapped to"), "{err}");

        // A pair placed in two rows of an index without the map.
        let mut bad = good.clone();
        bad.edit_rows(Vec::new(), vec![(other_class, some_pair)]);
        assert!(!bad.has_pair_map());
        let err = bad.validate(&g).unwrap_err();
        assert!(err.contains("two classes"), "{err}");

        // A dropped pair: counts.
        let mut bad = good.clone();
        bad.edit_rows(vec![(0, some_pair)], Vec::new());
        let err = bad.validate(&g).unwrap_err();
        assert!(err.contains("pair_count"), "{err}");

        // A posting list missing a live class, and one listing a stranger:
        // the classes' set sizes no longer match, and with the sizes
        // adjusted to match, the classes carry the wrong sets.
        let s = good.class_sequences(0).next().unwrap();
        let stranger = (0..good.class_slots() as ClassId)
            .find(|&c| !good.class_sequences(c).any(|t| t == s) && good.class_pairs(c).len() > 0)
            .unwrap();
        for (c, listed) in [(0, false), (stranger, true)] {
            for resized in [false, true] {
                let mut bad = good.clone();
                let posting = posting_mut(&mut bad, &s);
                let mut ids: Vec<ClassId> = posting.all.iter().collect();
                let mut cyclic: Vec<ClassId> = posting.cyclic.iter().collect();
                if listed {
                    let at = ids.binary_search(&c).unwrap_err();
                    ids.insert(at, c);
                    if good.class_is_loop(c) {
                        let at = cyclic.binary_search(&c).unwrap_err();
                        cyclic.insert(at, c);
                    }
                } else {
                    ids.retain(|&d| d != c);
                    cyclic.retain(|&d| d != c);
                }
                posting.all = ClassSet::from_sorted(&ids);
                posting.cyclic = ClassSet::from_sorted(&cyclic);
                if resized {
                    let count = good.class_seq_count(c);
                    bad.set_class_seq_count(c, if listed { count + 1 } else { count - 1 });
                }
                let err = bad.validate(&g).unwrap_err();
                let expected = if resized { "carries" } else { "Il2c entries list it" };
                assert!(err.contains(expected), "class {c}, resized {resized}: {err}");
            }
        }

        // A cyclic set that lost a class, and one that lists an acyclic
        // class: identity lookups would be wrong, plain ones not.
        let looped = (0..good.class_slots() as ClassId).find(|&c| good.class_is_loop(c)).unwrap();
        let s = good.class_sequences(looped).next().unwrap();
        let cyclic: Vec<ClassId> = good.lookup_cyclic(&s).iter().collect();
        let lost: Vec<ClassId> = cyclic.iter().copied().filter(|&c| c != looped).collect();
        let open = good.lookup(&s).iter().find(|&c| !good.class_is_loop(c)).unwrap();
        let mut stranger = cyclic.clone();
        stranger.insert(cyclic.binary_search(&open).unwrap_err(), open);
        for ids in [lost, stranger] {
            let mut bad = good.clone();
            posting_mut(&mut bad, &s).cyclic = ClassSet::from_sorted(&ids);
            let err = bad.validate(&g).unwrap_err();
            assert!(err.contains("cyclic set is not"), "{err}");
        }
    }

    /// The pair → class map of an index of `gex` whose map `damage`
    /// damaged, and what `validate` reports.
    fn damaged_map_error(damage: impl FnOnce(&mut Vec<Arc<Shard>>)) -> String {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        bad.build_pair_map();
        assert_eq!(bad.validate(&g), Ok(()), "undamaged, the map is canonical");
        damage(bad.pair_map_mut().shards_mut());
        bad.validate(&g).unwrap_err()
    }

    /// The first source of shard 0 with at least two entries, and where
    /// its slice starts.
    fn busy_source(shard: &Shard) -> (usize, usize) {
        let off = (0..shard.rows.rows())
            .find(|&off| shard.rows.span(off).len() >= 2)
            .expect("a source with two targets");
        (off, shard.rows.span(off).start)
    }

    /// Bytes per key of `shard`.
    fn key_width(shard: &Shard) -> usize {
        packed_keys::key_width(shard.rows.keys.bits())
    }

    /// `column` with its values re-packed by `damage`, at the narrowest
    /// width they need.
    fn repacked_values(column: &PackedColumn, damage: impl FnOnce(&mut Vec<u64>)) -> PackedColumn {
        let mut values: Vec<u64> = (0..column.len()).map(|i| column.get(i)).collect();
        damage(&mut values);
        PackedColumn::narrowest(&values)
    }

    #[test]
    fn a_pair_map_slice_out_of_order_is_reported() {
        let mut source = 0;
        let err = damaged_map_error(|shards| {
            let shard = Arc::make_mut(&mut shards[0]);
            let (off, at) = busy_source(shard);
            source = off;
            let width = key_width(shard);
            let keys = shard.rows.keys.bytes_mut();
            let (first, second) = keys[at * width..].split_at_mut(width);
            first.swap_with_slice(&mut second[..width]);
        });
        let expected = format!("pair map shard 0: row {source}: keys not strictly ascending");
        assert!(err.contains(&expected), "{err}");
    }

    #[test]
    fn pair_map_offsets_off_their_entries_are_reported() {
        // An end offset past the next one.
        let err = damaged_map_error(|shards| {
            let ends = &mut Arc::make_mut(&mut shards[0]).rows.ends;
            *ends = repacked_values(ends, |ends| ends[0] = ends[1] + 1);
        });
        assert!(err.contains("pair map shard 0: row ends: row 1 ends before row 0"), "{err}");
        // The last end offset one past the entries, and one key more than
        // the offsets end at.
        type Damage = fn(&mut Shard);
        let damages: [Damage; 2] = [
            |shard| {
                let ends = &mut shard.rows.ends;
                *ends = repacked_values(ends, |ends| *ends.last_mut().unwrap() += 1);
            },
            |shard| {
                let width = key_width(shard);
                let keys = shard.rows.keys.bytes_mut();
                let last = keys.len() - KEY_PAD - width;
                keys.splice(last..last, keys[last..last + width].to_vec());
            },
        ];
        for damage in damages {
            let err = damaged_map_error(|shards| damage(Arc::make_mut(&mut shards[0])));
            assert!(err.contains("pair map shard 0: ") && err.contains("keys for rows ending at"));
        }
        // A shard of one row short.
        let err = damaged_map_error(|shards| {
            let ends = &mut Arc::make_mut(&mut shards[0]).rows.ends;
            *ends = repacked_values(ends, |ends| ends.truncate(255));
        });
        assert!(err.contains("pair map shard 0: 255 rows, not 256"), "{err}");
    }

    /// The map has exactly the shards its largest source needs: a map that
    /// lost its shard and one with an empty shard past the last source
    /// read every pair right, but are not the form a build makes.
    #[test]
    fn a_pair_map_with_the_wrong_shard_count_is_reported() {
        let err = damaged_map_error(|shards| {
            shards.pop();
        });
        assert!(err.contains("the pair map has 0 shards") && err.contains("needs 1"), "{err}");
        let err = damaged_map_error(|shards| shards.push(Arc::new(Shard::empty())));
        assert!(err.contains("the pair map has 2 shards") && err.contains("needs 1"), "{err}");
    }

    /// A shard's keys are at the narrowest widths that fit its largest
    /// target and its largest class: keys re-packed a bit wider in either
    /// read every pair right, but are not the form a build makes — nor is
    /// an entryless shard with widths.
    #[test]
    fn a_pair_map_shard_wider_than_it_needs_is_reported() {
        let narrowest = "pair map shard 0: keys: not at their narrowest width";
        for wider_class in [false, true] {
            let err = damaged_map_error(|shards| {
                let shard = Arc::make_mut(&mut shards[0]);
                let (bits, classes) = (shard.rows.keys.bits(), shard.class_bits);
                let wider = classes + u8::from(wider_class);
                let mask = (1 << classes) - 1;
                let rows =
                    shard.rows.repacked(bits + 1, |key| (key >> classes) << wider | key & mask);
                (shard.rows, shard.class_bits) = (rows, wider);
            });
            assert!(err.contains(narrowest), "{err}");
        }
        let err = damaged_map_error(|shards| {
            let mut empty = Shard::empty();
            (empty.rows.keys, empty.class_bits) = (PackedColumn::new(9, std::iter::empty()), 4);
            shards.insert(0, Arc::new(empty));
        });
        assert!(err.contains(narrowest), "{err}");
    }

    /// The bytes after a shard's last key and the key bits past its widths
    /// are zero: a set one is read by no entry, but is not the form a
    /// build makes.
    #[test]
    fn non_zero_pair_map_padding_is_reported() {
        let err = damaged_map_error(|shards| {
            let keys = Arc::make_mut(&mut shards[0]).rows.keys.bytes_mut();
            *keys.last_mut().unwrap() = 1;
        });
        assert!(err.contains("pair map shard 0: keys: non-zero pad bytes"), "{err}");
        let err = damaged_map_error(|shards| {
            let shard = Arc::make_mut(&mut shards[0]);
            let (bits, width) = (shard.rows.keys.bits(), key_width(shard));
            assert!(bits < 8 * width as u32, "no spare bit in a key of {bits} bits");
            shard.rows.keys.bytes_mut()[width - 1] |= 0x80;
        });
        assert!(err.contains("pair map shard 0: keys: a key bit set past their width"), "{err}");
    }

    /// A cyclic set is checked for its form like a posting set: one with
    /// an empty window is reported before its ids are compared.
    #[test]
    fn a_non_canonical_cyclic_set_is_reported() {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        let looped = (0..bad.class_slots() as ClassId).find(|&c| bad.class_is_loop(c)).unwrap();
        let s = bad.class_sequences(looped).next().unwrap();
        let set = &mut posting_mut(&mut bad, &s).cyclic;
        assert!(!set.is_empty());
        let set = set.parts_mut();
        let (rank, start) = (*set.len, set.arrays.len() as u32);
        set.windows.push(Window { key: 1, bitmap: false, rank, start });
        let err = bad.validate(&g).unwrap_err();
        assert!(err.starts_with(&format!("Il2c({s:?}): cyclic set: ")), "{err}");
        assert!(err.contains("an empty window"), "{err}");
    }

    /// Replaces the posting set of an index's first sequence by `set`,
    /// damaged by `damage`, and returns what `validate` reports. The set
    /// may list classes the index does not have: its form is checked
    /// first.
    fn damaged_set_error(set: &[ClassId], damage: impl FnOnce(Parts<'_>)) -> String {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        let s = bad.seqs.seq(0);
        let mut set = ClassSet::from_sorted(set);
        assert_eq!(set.check(), Ok(()), "undamaged, the set is canonical");
        damage(set.parts_mut());
        posting_mut(&mut bad, &s).all = set;
        let err = bad.validate(&g).unwrap_err();
        assert!(err.starts_with(&format!("Il2c({s:?}): ")), "{err}");
        err
    }

    /// The ids of one window holding `n` classes, from 0: an array up to
    /// 4,096 ids, a bitmap past that.
    fn window_of(n: ClassId) -> Vec<ClassId> {
        (0..n).collect()
    }

    #[test]
    fn window_keys_out_of_order_are_reported() {
        let err = damaged_set_error(&[1, 70_000, 140_000], |set| set.windows[2].key = 1);
        assert!(err.contains("window keys not strictly ascending"), "{err}");
        let err = damaged_set_error(&[1, 70_000], |set| {
            (set.windows[0].key, set.windows[1].key) = (1, 0);
        });
        assert!(err.contains("window keys not strictly ascending"), "{err}");
    }

    #[test]
    fn an_empty_window_is_reported() {
        let err = damaged_set_error(&[1, 2], |set| {
            let (rank, start) = (*set.len, set.arrays.len() as u32);
            set.windows.push(Window { key: 1, bitmap: false, rank, start });
        });
        assert!(err.contains("an empty window"), "{err}");
    }

    /// A window is an array iff it holds at most 4,096 ids: a sparse
    /// bitmap and a full array each read the right ids, but are not the
    /// form the set has.
    #[test]
    fn a_window_of_the_wrong_kind_is_reported() {
        let err = damaged_set_error(&[1, 2, 3], |set| {
            *set.words = vec![0; 1024];
            set.words[0] = 0b1110;
            set.arrays.clear();
            set.windows[0].bitmap = true;
        });
        assert!(err.contains("an array iff at most 4096 ids"), "{err}");
        let full = window_of(4097);
        let err = damaged_set_error(&full, |set| {
            *set.arrays = full.iter().map(|&c| c as u16).collect();
            set.words.clear();
            set.windows[0].bitmap = false;
        });
        assert!(err.contains("an array iff at most 4096 ids"), "{err}");
    }

    #[test]
    fn window_offsets_off_their_sizes_are_reported() {
        type Damage = fn(Parts<'_>);
        let damages: [(&[ClassId], Damage); 4] = [
            // The second window starts inside the first one's array.
            (&[1, 2, 70_000], |set| set.windows[1].start = 1),
            // A length one past the last id.
            (&[1, 2, 70_000], |set| *set.len += 1),
            // A rank that skips an id of the first window.
            (&[1, 2, 70_000, 70_001], |set| set.windows[1].rank = 1),
            // A bitmap that lost a bit its window's size counts.
            (&window_of(5000), |set| set.words[3] &= !1),
        ];
        for (ids, damage) in damages {
            let err = damaged_set_error(ids, damage);
            assert!(err.contains("window offsets disagree with the window sizes"), "{err}");
        }
    }

    #[test]
    fn an_unsorted_array_window_is_reported() {
        let err = damaged_set_error(&[1, 2, 3], |set| set.arrays.swap(0, 1));
        assert!(err.contains("an array window not strictly sorted"), "{err}");
    }

    /// A class's stored set size must equal the number of `Il2c` entries
    /// listing it: maintenance compares sizes first.
    #[test]
    fn a_wrong_set_size_is_reported() {
        let g = generate::gex();
        let good = CpqxIndex::build(&g, 2);
        for c in [0, good.class_slots() as ClassId - 1] {
            for grow in [false, true] {
                let mut bad = good.clone();
                let count = good.class_seq_count(c);
                bad.set_class_seq_count(c, if grow { count + 1 } else { count - 1 });
                let err = bad.validate(&g).unwrap_err();
                assert!(err.contains(&format!("class {c} has")), "{err}");
            }
        }
    }

    /// A chunk's row ends and set sizes are each stored at the narrowest
    /// width that fits them: the same values a width wider read right,
    /// but are not the form a build makes.
    #[test]
    fn a_column_wider_than_it_needs_is_reported() {
        let g = generate::gex();
        let good = CpqxIndex::build(&g, 2);
        type Column = fn(&mut ClassChunk) -> &mut PackedColumn;
        let columns: [(Column, &str); 2] =
            [(|ch| &mut ch.rows.ends, "row ends"), (|ch| &mut ch.seq_counts, "set sizes")];
        for (column, what) in columns {
            let mut bad = good.clone();
            let column = column(Arc::make_mut(&mut bad.classes[0]));
            assert!(column.bits() <= 8);
            *column = column.repacked(column.bits() + 8, |value| value);
            let err = bad.validate(&g).unwrap_err();
            let expected = format!("class chunk 0: {what}: not at their narrowest width");
            assert!(err.contains(&expected), "{err}");
        }
    }

    /// The bytes after a chunk's last row end are zero: a set one is read
    /// by no row, but is not the form a build makes.
    #[test]
    fn non_zero_row_end_padding_is_reported() {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        let ends = &mut Arc::make_mut(&mut bad.classes[0]).rows.ends;
        *ends.bytes_mut().last_mut().unwrap() = 1;
        let err = bad.validate(&g).unwrap_err();
        assert!(err.contains("class chunk 0: row ends: non-zero pad bytes"), "{err}");
    }

    /// Loop bits past a chunk's classes are 0: a set one is read by no
    /// class, but is not the form a build makes.
    #[test]
    fn a_loop_bit_past_the_classes_is_reported() {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        let len = bad.class_slots();
        assert!(len < 255);
        for off in [len, 255] {
            let mut bad = bad.clone();
            Arc::make_mut(&mut bad.classes[0]).loops[off / 64] |= 1 << (off % 64);
            let err = bad.validate(&g).unwrap_err();
            assert!(err.contains("class chunk 0: a loop bit set past"), "{err}");
        }
        // The last class's own bit is its flag: flipping it is a class of
        // the wrong cyclicity, not a stray bit.
        let off = len - 1;
        Arc::make_mut(&mut bad.classes[0]).loops[off / 64] ^= 1 << (off % 64);
        assert!(!bad.validate(&g).unwrap_err().contains("loop bit"));
    }

    /// `Il2c` has exactly one entry per dictionary sequence.
    #[test]
    fn an_entry_without_a_sequence_is_reported() {
        let g = generate::gex();
        let mut bad = CpqxIndex::build(&g, 2);
        bad.il2c.push(Default::default());
        let err = bad.validate(&g).unwrap_err();
        assert!(err.contains("entries for"), "{err}");
    }

    /// A retained entry — one whose sequence is not indexed — is left only
    /// by a deleted interest, and no lookup serves it: a full index has
    /// none, and an iaCPQx none of a sequence no interest could have been.
    #[test]
    fn a_retained_entry_no_interest_left_is_reported() {
        let g = generate::gex();
        let f = g.label_named("f").unwrap().fwd();
        let (ff, fff) = (LabelSeq::from_slice(&[f, f]), LabelSeq::from_slice(&[f, f, f]));
        let mut deleted = CpqxIndex::build_interest_aware(&g, 2, [ff]);
        assert!(deleted.delete_interest(&ff));
        assert_eq!(deleted.validate(&g), Ok(()), "a deleted interest's entry is retained");
        assert!(deleted.lookup(&ff).is_empty() && deleted.lookup_cyclic(&ff).is_empty());
        for good in [CpqxIndex::build(&g, 2), deleted] {
            // A sequence longer than k, registered with an empty entry.
            let mut bad = good.clone();
            bad.seq_id_or_insert(fff);
            let err = bad.validate(&g).unwrap_err();
            assert!(err.contains("never an interest"), "{err}");
        }
    }
}
