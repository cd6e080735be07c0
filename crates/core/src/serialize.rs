//! The index's canonical image.
//!
//! [`CpqxIndex::save`] writes the partition — per class: loop flag,
//! sequence set, pair list — plus the mode header, so the image holds each
//! fact exactly once. Nothing reads it back. The index is a function of the
//! graph, `k` and the interest set, so the store persists the graph alone
//! and recovery builds the index again (see `STORAGE.md`). What the image
//! is for is comparison: two indexes are the same partition, numbered the
//! same way, iff they save the same bytes — what the `determinism` digests
//! pin across commits and the differential suites check between builds.
//!
//! In memory `Il2c` is the only record of which sequences a class carries,
//! so `save` reads every class's set off `Il2c` in one transposition over
//! all classes (`CpqxIndex::class_seq_sets`), retained entries of deleted
//! interests included. Pair rows are width-packed per class chunk in
//! memory; in the image every pair takes 8 bytes, so the bytes do not
//! depend on a chunk's width.
//!
//! Layout (little-endian): magic `CPQX`, format version, `k`, mode byte
//! (full / interest-aware + interest list), class count, then per class its
//! loop byte, sequence count, sequences (a length byte, then 2 bytes a
//! label), pair count and pairs (8 bytes each).

use crate::bisim::ClassId;
use crate::index::CpqxIndex;
use cpqx_graph::LabelSeq;
use std::io::Write;

const MAGIC: &[u8; 4] = b"CPQX";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, x: u32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn write_seq(w: &mut impl Write, s: &LabelSeq) -> std::io::Result<()> {
    w.write_all(&[s.len() as u8])?;
    for l in s.iter() {
        w.write_all(&l.0.to_le_bytes())?;
    }
    Ok(())
}

impl CpqxIndex {
    /// Writes the index's canonical image (see the module docs).
    pub fn save(&self, mut w: impl Write) -> std::io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(&mut w, VERSION)?;
        write_u32(&mut w, self.k as u32)?;
        match &self.interests {
            None => w.write_all(&[0u8])?,
            Some(lq) => {
                w.write_all(&[1u8])?;
                write_u32(&mut w, lq.len() as u32)?;
                for s in lq {
                    write_seq(&mut w, s)?;
                }
            }
        }
        let classes = self.class_slots() as ClassId;
        write_u32(&mut w, classes)?;
        let sets = self.class_seq_sets(&self.seq_order(), 0..classes);
        for c in 0..classes {
            let seqs = sets.get(c);
            w.write_all(&[self.class_is_loop(c) as u8])?;
            write_u32(&mut w, seqs.len() as u32)?;
            for &id in seqs {
                write_seq(&mut w, &self.seqs.seq(id))?;
            }
            let pairs = self.class_pairs(c);
            write_u32(&mut w, pairs.len() as u32)?;
            for p in pairs {
                w.write_all(&p.0.to_le_bytes())?;
            }
        }
        Ok(())
    }
}
