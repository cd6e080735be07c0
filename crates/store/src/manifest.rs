//! The generation manifest: the store's root pointer.
//!
//! A manifest (`manifest-<gen>`) describes one complete snapshot
//! generation: where every chunk record of the graph + index lives
//! (possibly in an *older* generation's snapshot file — that is what
//! makes snapshots incremental) and the WAL position the snapshot
//! covers, i.e. where replay must start. `CURRENT` names the live
//! manifest; both are installed by write-to-temp + rename, so a crash
//! mid-checkpoint leaves the previous generation intact. Every manifest
//! is CRC-framed and recovery falls back to scanning for the newest
//! *valid* manifest when `CURRENT` is missing or points at garbage.

use crate::crc32;
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
    /// Index class-chunk records, in chunk order.
    pub classes: Vec<ChunkLoc>,
}

const MAGIC: &[u8; 4] = b"CPQM";
const VERSION: u32 = 1;

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
    put_locs(&mut body, &m.classes);
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
        classes: get_locs(&mut c)?,
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
/// holds no valid manifest at all (a fresh store).
pub(crate) fn load_current(dir: &Path) -> io::Result<Option<Manifest>> {
    if let Ok(current) = std::fs::read_to_string(dir.join("CURRENT")) {
        if let Some(gen) = current.trim().strip_prefix("manifest-").and_then(|g| g.parse().ok()) {
            if let Some(m) = load_gen(dir, gen)? {
                return Ok(Some(m));
            }
        }
    }
    for gen in list(dir)?.into_iter().rev() {
        if let Some(m) = load_gen(dir, gen)? {
            return Ok(Some(m));
        }
    }
    Ok(None)
}

fn load_gen(dir: &Path, gen: u64) -> io::Result<Option<Manifest>> {
    let bytes = match std::fs::read(manifest_path(dir, gen)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(decode(&bytes).ok().filter(|m| m.gen == gen))
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
            classes: vec![ChunkLoc { gen, offset: 1200 }],
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

        // Nothing valid left.
        std::fs::remove_file(dir.join("manifest-1")).unwrap();
        assert_eq!(load_current(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
