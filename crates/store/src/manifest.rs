//! The generation manifest: the store's root pointer.
//!
//! A manifest (`manifest-<gen>`) describes one complete snapshot
//! generation: where every chunk record of the graph lives
//! (possibly in an *older* generation's snapshot file — that is what
//! makes snapshots incremental) and the WAL position the snapshot
//! covers, i.e. where replay must start. `CURRENT` names the live
//! manifest; both are installed by write-to-temp + rename, so a crash
//! mid-checkpoint leaves the previous generation intact. Every manifest
//! is CRC-framed and recovery falls back to scanning for the newest
//! *valid* manifest when `CURRENT` is missing or points at garbage. A
//! directory with manifests or a `CURRENT` but no valid manifest is an
//! error, never a fresh store: reseeding it would discard its data.

use crate::crc32;
use crate::recover::RecoverError;
use crate::snapshot::Cur;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Where one persisted chunk record lives: byte `offset` inside
/// generation `gen`'s snapshot file. An incremental snapshot reuses the
/// previous generation's location for every unchanged chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkLoc {
    /// Snapshot generation whose file holds the record.
    pub gen: u64,
    /// Byte offset of the record's framing header in that file.
    pub offset: u64,
}

/// One snapshot generation's table of contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The generation this manifest describes.
    pub gen: u64,
    /// First WAL segment not covered by the snapshot: replay starts at
    /// segment `wal_gen`, byte `wal_offset`, and continues through any
    /// later segments.
    pub wal_gen: u64,
    /// Byte offset within segment `wal_gen` where replay starts.
    pub wal_offset: u64,
    /// The snapshot header record (label table, `k`, mode, counts).
    pub header: ChunkLoc,
    /// Topology chunk records, in chunk order.
    pub topo: Vec<ChunkLoc>,
    /// Vertex-name chunk records, in chunk order.
    pub names: Vec<ChunkLoc>,
}

const MAGIC: &[u8; 4] = b"CPQM";
const VERSION: u32 = 2;

fn manifest_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("manifest-{gen}"))
}

fn put_locs(out: &mut Vec<u8>, locs: &[ChunkLoc]) {
    out.extend_from_slice(&(locs.len() as u32).to_le_bytes());
    for l in locs {
        out.extend_from_slice(&l.gen.to_le_bytes());
        out.extend_from_slice(&l.offset.to_le_bytes());
    }
}

fn encode(m: &Manifest) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.extend_from_slice(&m.gen.to_le_bytes());
    body.extend_from_slice(&m.wal_gen.to_le_bytes());
    body.extend_from_slice(&m.wal_offset.to_le_bytes());
    body.extend_from_slice(&m.header.gen.to_le_bytes());
    body.extend_from_slice(&m.header.offset.to_le_bytes());
    put_locs(&mut body, &m.topo);
    put_locs(&mut body, &m.names);
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn get_locs(c: &mut Cur<'_>) -> Result<Vec<ChunkLoc>, String> {
    let n = c.u32()? as usize;
    if n > c.remaining() {
        // Each loc is 16 bytes; a count above the remaining byte
        // count is self-inconsistent — reject before allocating.
        return Err("manifest chunk table over-long".into());
    }
    (0..n).map(|_| Ok(ChunkLoc { gen: c.u64()?, offset: c.u64()? })).collect()
}

fn decode(bytes: &[u8]) -> Result<Manifest, String> {
    let header = bytes.get(..8).ok_or("manifest shorter than its framing")?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let body = bytes.get(8..8 + len).ok_or("manifest body truncated")?;
    if crc32(body) != crc {
        return Err("manifest checksum mismatch".into());
    }
    let mut c = Cur::new(body, "manifest");
    if c.take(4)? != MAGIC {
        return Err("bad manifest magic".into());
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(format!("manifest format version {version}, expected {VERSION}"));
    }
    Ok(Manifest {
        gen: c.u64()?,
        wal_gen: c.u64()?,
        wal_offset: c.u64()?,
        header: ChunkLoc { gen: c.u64()?, offset: c.u64()? },
        topo: get_locs(&mut c)?,
        names: get_locs(&mut c)?,
    })
}

/// Atomically replaces `dir/<name>` with `contents` (temp + rename,
/// both synced).
fn install_file(dir: &Path, name: &str, contents: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(name))?;
    // Make the rename durable; directory fsync can be unsupported on
    // some filesystems, in which case the rename is still atomic,
    // merely not yet on stable storage.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Persists `m` as `manifest-<gen>` and repoints `CURRENT` at it. Both
/// installs are atomic; a crash between them is healed by the fallback
/// scan (the new manifest simply wins by generation).
pub(crate) fn install(dir: &Path, m: &Manifest) -> io::Result<()> {
    install_file(dir, &format!("manifest-{}", m.gen), &encode(m))?;
    install_file(dir, "CURRENT", format!("manifest-{}\n", m.gen).as_bytes())
}

/// The generations of every manifest present in `dir`, ascending.
pub(crate) fn list(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("manifest-") {
            if let Ok(gen) = rest.parse::<u64>() {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Loads the live manifest: the one `CURRENT` names, or — when
/// `CURRENT` is missing, unreadable, or points at a corrupt file — the
/// newest generation that still decodes. `Ok(None)` means the directory
/// holds neither a manifest nor `CURRENT`: a fresh store. If it holds
/// either but no manifest decodes, the error names the newest manifest
/// and why it does not (a manifest of another format version, say).
pub(crate) fn load_current(dir: &Path) -> Result<Option<Manifest>, RecoverError> {
    let current = dir.join("CURRENT");
    let named = std::fs::read_to_string(&current)
        .ok()
        .and_then(|text| text.trim().strip_prefix("manifest-")?.parse::<u64>().ok());
    if let Some(gen) = named {
        if let Ok(m) = load_gen(dir, gen)? {
            return Ok(Some(m));
        }
    }
    let mut newest_failure = None;
    for gen in list(dir)?.into_iter().rev() {
        match load_gen(dir, gen)? {
            Ok(m) => return Ok(Some(m)),
            Err(what) => {
                newest_failure.get_or_insert((manifest_path(dir, gen), what));
            }
        }
    }
    let (file, what) = match newest_failure {
        Some(failure) => failure,
        None if current.exists() => (current, "names no manifest that exists".into()),
        None => return Ok(None),
    };
    Err(RecoverError::Corrupt { file: file.display().to_string(), what })
}

/// Reads and decodes `manifest-<gen>`; the inner error says why it is
/// not a valid manifest of that generation.
fn load_gen(dir: &Path, gen: u64) -> io::Result<Result<Manifest, String>> {
    let bytes = match std::fs::read(manifest_path(dir, gen)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Err("missing".into())),
        Err(e) => return Err(e),
    };
    Ok(decode(&bytes).and_then(|m| {
        if m.gen == gen {
            Ok(m)
        } else {
            Err(format!("describes generation {}", m.gen))
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gen: u64) -> Manifest {
        Manifest {
            gen,
            wal_gen: gen,
            wal_offset: 0,
            header: ChunkLoc { gen, offset: 0 },
            topo: vec![ChunkLoc { gen: 1, offset: 40 }, ChunkLoc { gen, offset: 993 }],
            names: vec![ChunkLoc { gen: 1, offset: 512 }],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpqx-manifest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_current_pointer() {
        let dir = tmp("roundtrip");
        assert_eq!(load_current(&dir).unwrap(), None);
        install(&dir, &sample(1)).unwrap();
        install(&dir, &sample(2)).unwrap();
        assert_eq!(load_current(&dir).unwrap(), Some(sample(2)));
        assert_eq!(list(&dir).unwrap(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_scan_survives_bad_current_and_corrupt_manifest() {
        let dir = tmp("fallback");
        install(&dir, &sample(1)).unwrap();
        install(&dir, &sample(2)).unwrap();

        // CURRENT pointing at a generation that never got written.
        std::fs::write(dir.join("CURRENT"), "manifest-9\n").unwrap();
        assert_eq!(load_current(&dir).unwrap(), Some(sample(2)));

        // CURRENT gone entirely.
        std::fs::remove_file(dir.join("CURRENT")).unwrap();
        assert_eq!(load_current(&dir).unwrap(), Some(sample(2)));

        // Newest manifest corrupted: the previous generation wins.
        let path = dir.join("manifest-2");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load_current(&dir).unwrap(), Some(sample(1)));

        // Nothing valid left: an error naming the newest manifest, not a
        // fresh store.
        std::fs::remove_file(dir.join("manifest-1")).unwrap();
        let err = load_current(&dir).unwrap_err().to_string();
        assert!(err.contains("manifest-2") && err.contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn current_without_a_manifest_is_an_error() {
        let dir = tmp("lone-current");
        std::fs::write(dir.join("CURRENT"), "manifest-1\n").unwrap();
        let err = load_current(&dir).unwrap_err().to_string();
        assert!(err.contains("CURRENT"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
