//! `cpqx-store` — the opt-in durability layer for the cpqx engine.
//!
//! Everything the engine serves lives in memory; this crate makes it
//! survive a crash. Three cooperating pieces (on-disk format spec in
//! `STORAGE.md`):
//!
//! * [`wal`] — an append-only write-ahead log of typed delta
//!   transactions. Records reuse the wire protocol's DELTA request
//!   codec (`cpqx-net`), wrapped in per-record length + CRC32 framing;
//!   a torn or truncated tail is dropped on recovery, never fatal.
//! * [`snapshot`] — chunk-per-record snapshots of the copy-on-write
//!   `Graph`, plus the index's `k` and interest set. An incremental
//!   snapshot writes only the chunks that changed since the last one
//!   (detected by `Arc` pointer identity, the same rule as `cow_diff`)
//!   and reuses the previous generation's records for the rest. The
//!   index itself is never persisted: it is a function of the graph, `k`
//!   and the interests.
//! * [`manifest`] + [`recover`] — a generation manifest tying each
//!   snapshot to the WAL position it covers, and recovery = load the
//!   latest valid snapshot's graph, replay the WAL tail on that graph and
//!   the interest set by the write path's own rule, build the index once
//!   (graph replay, then one build), install as epoch 0.
//!
//! The [`Store`] type implements the engine's `DurabilitySink` trait:
//! attach it with `Engine::attach_durability` (or use
//! [`recover::durable_engine`] which wires everything up) and every
//! typed delta transaction is logged before its snapshot installs,
//! with checkpoints triggered by the engine's WAL-bytes threshold.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod manifest;
pub mod recover;
pub mod snapshot;
pub mod wal;

mod store;

pub use recover::{durable_engine, recover_state, DurableStart, RecoverError, Recovered};
pub use store::{Store, StoreOptions};
pub use wal::FsyncPolicy;

/// CRC32 (ISO-HDLC / zlib polynomial, reflected) over `bytes` — the
/// checksum used by every framed record in the store's on-disk files.
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

#[cfg(test)]
mod tests {
    use super::crc32;

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
}
