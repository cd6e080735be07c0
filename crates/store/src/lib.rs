//! `cpqx-store` — the opt-in durability layer for the cpqx engine.
//!
//! Everything the engine serves lives in memory; this crate makes it
//! survive a crash. Two file families share one record framing (on-disk
//! format spec in `STORAGE.md`, format version 3):
//!
//! * [`wal`] — an append-only write-ahead log of typed delta
//!   transactions. Records reuse the wire protocol's DELTA request
//!   codec (`cpqx-net`); a torn or truncated tail is dropped on
//!   recovery, never fatal.
//! * [`snapshot`] — one self-contained file per checkpoint: a header
//!   (format version, the index's `k` and interest set, the graph's label
//!   table) and every chunk of the copy-on-write `Graph`. The index itself
//!   is never persisted: it is a function of the graph, `k` and the
//!   interests.
//! * [`recover`] — recovery = read the newest snapshot's graph, replay the
//!   WAL tail on that graph and the interest set by the write path's own
//!   rule, build the index once (graph replay, then one build), install as
//!   epoch 0.
//!
//! The [`Store`] type implements the engine's `DurabilitySink` trait:
//! attach it with `Engine::attach_durability` (or use
//! [`recover::durable_engine`] which wires everything up) and every
//! typed delta transaction is logged before its snapshot installs,
//! with checkpoints triggered by the engine's WAL-bytes threshold.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod recover;
pub mod snapshot;
pub mod wal;

mod store;

pub use recover::{durable_engine, recover_state, DurableStart, RecoverError, Recovered};
pub use store::{Store, StoreOptions};
pub use wal::FsyncPolicy;

use std::io::{self, Write};
use std::path::Path;

/// CRC32 (ISO-HDLC / zlib polynomial, reflected) over `bytes` — the
/// checksum of every framed record in the store's on-disk files.
/// Hand-rolled table-driven implementation: the build environment is
/// offline, so no external crc crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one `[len: u32 LE][crc: u32 LE][payload]` frame to `w` — the
/// framing of every record in both file families — and returns the bytes
/// written. A payload over the family's bound `max` is refused: the
/// reader would drop it.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> io::Result<u64> {
    if payload.len() > max as usize {
        let what = format!("record of {} bytes exceeds the {max}-byte bound", payload.len());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// Reads the frame at the front of `rest` and advances past it: its
/// payload, or why the bytes there are not a whole, intact frame of at
/// most `max` payload bytes (`rest` is then left as it was). What a bad
/// frame means is the caller's policy.
pub(crate) fn read_frame<'a>(rest: &mut &'a [u8], max: u32) -> Result<&'a [u8], &'static str> {
    let (head, tail) = rest.split_at_checked(8).ok_or("truncated record framing")?;
    let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if len > max {
        return Err("record length out of range");
    }
    let (payload, tail) = tail.split_at_checked(len as usize).ok_or("truncated record payload")?;
    if crc32(payload) != crc {
        return Err("record checksum mismatch");
    }
    *rest = tail;
    Ok(payload)
}

/// The generations of every `<prefix><gen><suffix>` file in `dir`,
/// ascending.
pub(crate) fn list_generations(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix(prefix).and_then(|r| r.strip_suffix(suffix)) {
            if let Ok(gen) = rest.parse::<u64>() {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

#[cfg(test)]
mod tests {
    use super::{crc32, read_frame, write_frame};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"cpqx-store record payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn frames_roundtrip_and_name_the_first_bad_one() {
        let mut bytes = Vec::new();
        let payloads: [&[u8]; 3] = [b"first", b"", b"third record"];
        for p in payloads {
            assert_eq!(write_frame(&mut bytes, p, 16).unwrap(), 8 + p.len() as u64);
        }
        let mut rest = &bytes[..];
        for p in payloads {
            assert_eq!(read_frame(&mut rest, 16).unwrap(), p);
        }
        assert!(rest.is_empty());
        assert_eq!(read_frame(&mut rest, 16), Err("truncated record framing"));

        // A payload over the bound is neither written nor read.
        assert!(write_frame(&mut Vec::new(), &[0; 17], 16).is_err());
        assert_eq!(read_frame(&mut &bytes[..], 4), Err("record length out of range"));

        // A cut or a flipped payload byte stops the reader where it is.
        for (bad, what) in [
            (bytes[..4].to_vec(), "truncated record framing"),
            (bytes[..12].to_vec(), "truncated record payload"),
            (
                {
                    let mut b = bytes.clone();
                    b[9] ^= 1;
                    b
                },
                "record checksum mismatch",
            ),
        ] {
            let mut rest = &bad[..];
            assert_eq!(read_frame(&mut rest, 16), Err(what));
            assert_eq!(rest.len(), bad.len(), "{what}: the reader advanced");
        }
    }
}
