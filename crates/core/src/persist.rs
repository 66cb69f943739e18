//! Durable checkpoints: serialize a wait-free snapshot to disk and
//! rebuild a tree from it in O(n), without per-key CAS descents.
//!
//! ## On-disk layout
//!
//! A checkpoint *directory* holds numbered **generations**, each a
//! self-contained, immutable checkpoint:
//!
//! ```text
//! <dir>/
//!   gen-000001/
//!     shard-0000.seg    one sorted run per shard (a single tree is
//!     shard-0001.seg    shard count 1)
//!     MANIFEST          shard count, partitioner config, per-segment
//!                       entry counts + CRCs; itself CRC'd
//!     COMMIT            written (and fsync'd) last: the manifest CRC
//!   gen-000002/
//!     ...
//! ```
//!
//! Every segment is a length-prefixed sorted run of little-endian
//! `(u64 key, u64 value)` pairs with a magic/version header and a
//! trailing CRC-32 over everything before it. The `COMMIT` marker is
//! written *after* the segments and manifest are durable, mirroring the
//! "write the commit record last" idiom the sharded snapshot's
//! descending capture order enables (DESIGN §6): a generation without a
//! valid `COMMIT` never existed as far as [`restore`] is concerned, so
//! a crash mid-checkpoint leaves the previous complete checkpoint
//! loadable.
//!
//! ## Failure discipline
//!
//! Readers validate *everything* (magic, version, declared lengths,
//! CRC, sortedness, shard count) before any entry reaches a tree — a
//! torn or truncated segment produces a typed [`CheckpointError`],
//! never a partially-loaded map. [`restore`](PnbBst::restore) walks
//! generations newest-first and loads the newest one that validates
//! end-to-end; the typed error surfaces only when no generation loads.
//!
//! [`restore`]: PnbBst::restore

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

use crossbeam_utils::CachePadded;

use crate::key::SKey;
use crate::stats::Stats;
use crate::tree::PnbBst;

/// Segment file magic (`PNBS`).
const SEG_MAGIC: [u8; 4] = *b"PNBS";
/// Manifest file magic (`PNBM`).
const MANIFEST_MAGIC: [u8; 4] = *b"PNBM";
/// Commit-marker magic (`PNBC`).
const COMMIT_MAGIC: [u8; 4] = *b"PNBC";
/// Format version stamped into every segment and manifest.
const FORMAT_VERSION: u32 = 1;
/// Committed generations kept by [`prune_generations`]; older ones are
/// deleted after each successful checkpoint.
const RETAINED_GENERATIONS: usize = 2;

/// Partitioner tag recorded for single-tree (unsharded) checkpoints.
pub const PARTITIONER_NONE: u32 = 0;

/// What loading or writing a checkpoint can fail with.
///
/// Every variant names the file or directory it refers to, so a
/// corrupt-checkpoint report is actionable without a debugger.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error (create, read, write, fsync, rename).
    Io(io::Error),
    /// A segment, manifest or commit file does not start with its magic.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// The file's format version is not one this build reads.
    BadVersion {
        /// The offending file.
        path: PathBuf,
        /// The version found in its header.
        found: u32,
    },
    /// The file ends before its header-declared length (torn write).
    Truncated {
        /// The offending file.
        path: PathBuf,
    },
    /// The trailing CRC-32 does not match the file's contents.
    CrcMismatch {
        /// The offending file.
        path: PathBuf,
    },
    /// A segment's entries are not strictly ascending by key.
    UnsortedRun {
        /// The offending segment.
        path: PathBuf,
    },
    /// The generation has no `COMMIT` marker (or a stale one): the
    /// checkpoint never completed.
    MissingCommitMarker {
        /// The uncommitted generation directory.
        dir: PathBuf,
    },
    /// The manifest's shard count disagrees with the segment files
    /// actually present in the generation.
    ShardCountMismatch {
        /// The generation directory.
        dir: PathBuf,
        /// Shard count declared by the manifest.
        manifest: u32,
        /// Segment files found on disk.
        found: u32,
    },
    /// The manifest records a partitioner configuration the caller's
    /// map type cannot adopt.
    PartitionerMismatch {
        /// The generation directory.
        dir: PathBuf,
        /// Partitioner tag found in the manifest.
        found: u32,
    },
    /// A key in a shard's segment does not route to that shard under
    /// the manifest's partitioner configuration.
    MisroutedKey {
        /// The offending segment.
        path: PathBuf,
        /// The shard index the segment belongs to.
        shard: u32,
        /// The key that routes elsewhere.
        key: u64,
    },
    /// The directory contains no loadable committed generation.
    NoCheckpoint {
        /// The checkpoint directory.
        dir: PathBuf,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { path } => {
                write!(f, "bad magic in {}", path.display())
            }
            CheckpointError::BadVersion { path, found } => {
                write!(
                    f,
                    "unsupported format version {found} in {} (this build reads {FORMAT_VERSION})",
                    path.display()
                )
            }
            CheckpointError::Truncated { path } => {
                write!(f, "truncated file {}", path.display())
            }
            CheckpointError::CrcMismatch { path } => {
                write!(f, "CRC mismatch in {}", path.display())
            }
            CheckpointError::UnsortedRun { path } => {
                write!(f, "segment {} is not strictly ascending", path.display())
            }
            CheckpointError::MissingCommitMarker { dir } => {
                write!(f, "no valid COMMIT marker in {}", dir.display())
            }
            CheckpointError::ShardCountMismatch {
                dir,
                manifest,
                found,
            } => {
                write!(
                    f,
                    "manifest in {} declares {manifest} shard(s) but {found} segment file(s) exist",
                    dir.display()
                )
            }
            CheckpointError::PartitionerMismatch { dir, found } => {
                write!(
                    f,
                    "manifest in {} records partitioner tag {found}, which this map type cannot adopt",
                    dir.display()
                )
            }
            CheckpointError::MisroutedKey { path, shard, key } => {
                write!(
                    f,
                    "key {key} in {} does not route to shard {shard} under the manifest's partitioner",
                    path.display()
                )
            }
            CheckpointError::NoCheckpoint { dir } => {
                write!(f, "no loadable committed checkpoint in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// What a completed checkpoint reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation number the checkpoint committed as.
    pub generation: u64,
    /// Total entries written across all segments.
    pub entries: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — hand-rolled so the offline workspace needs
// no new dependency; the table is built at compile time.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — the checksum every
/// checkpoint file trails with.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// The segment file name for shard `index` inside a generation.
pub fn segment_path(gen_dir: &Path, index: u32) -> PathBuf {
    gen_dir.join(format!("shard-{index:04}.seg"))
}

/// Serialize one sorted run to `path` and fsync it. Returns the CRC-32
/// of the whole file (recorded in the manifest so a reader can verify
/// segments against the manifest as well as against themselves).
///
/// `entries` must be strictly ascending by key — the writer asserts it,
/// because a silently unsorted segment would poison the O(n) bulk load.
pub fn write_segment(path: &Path, entries: &[(u64, u64)]) -> Result<u32, CheckpointError> {
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "write_segment requires strictly ascending keys"
    );
    let mut buf = Vec::with_capacity(16 + entries.len() * 16 + 4);
    buf.extend_from_slice(&SEG_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (k, v) in entries {
        buf.extend_from_slice(&k.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    let mut f = File::create(path)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    Ok(crc)
}

/// Read and fully validate one segment: magic, version, declared
/// length, CRC, strict sortedness. Nothing is returned unless the whole
/// file checks out — a torn segment is a typed error, never a partial
/// run.
pub fn read_segment(path: &Path) -> Result<Vec<(u64, u64)>, CheckpointError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(CheckpointError::Truncated { path: path.into() });
    }
    if bytes[..4] != SEG_MAGIC {
        return Err(CheckpointError::BadMagic { path: path.into() });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion {
            path: path.into(),
            found: version,
        });
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let body_end = 16usize
        .checked_add(count.checked_mul(16).ok_or(CheckpointError::Truncated {
            path: path.to_path_buf(),
        })?)
        .ok_or(CheckpointError::Truncated {
            path: path.to_path_buf(),
        })?;
    if bytes.len() < body_end + 4 {
        return Err(CheckpointError::Truncated { path: path.into() });
    }
    let stored = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..body_end]) != stored {
        return Err(CheckpointError::CrcMismatch { path: path.into() });
    }
    let mut entries = Vec::with_capacity(count);
    let mut prev: Option<u64> = None;
    for i in 0..count {
        let off = 16 + i * 16;
        let k = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        let v = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().expect("8 bytes"));
        if prev.is_some_and(|p| p >= k) {
            return Err(CheckpointError::UnsortedRun { path: path.into() });
        }
        prev = Some(k);
        entries.push((k, v));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Manifest + commit marker
// ---------------------------------------------------------------------------

/// Per-segment record in a [`Manifest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Entries in the segment.
    pub entries: u64,
    /// CRC-32 of the whole segment file.
    pub crc: u32,
}

/// The generation's table of contents: shard count, the (opaque at this
/// layer) partitioner configuration, and one [`SegmentMeta`] per shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Shards in the checkpointed map (1 for a single tree).
    pub shard_count: u32,
    /// Partitioner tag ([`PARTITIONER_NONE`] for a single tree; the
    /// sharded front-end defines its own tags).
    pub partitioner_tag: u32,
    /// Partitioner parameter (meaning depends on the tag).
    pub partitioner_param: u64,
    /// One record per shard, index-aligned with the segment files.
    pub segments: Vec<SegmentMeta>,
}

/// Write the generation's `MANIFEST` (fsync'd). Returns the manifest
/// file's CRC-32 — the value [`write_commit`] seals the generation with.
pub fn write_manifest(gen_dir: &Path, m: &Manifest) -> Result<u32, CheckpointError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&m.shard_count.to_le_bytes());
    buf.extend_from_slice(&m.partitioner_tag.to_le_bytes());
    buf.extend_from_slice(&m.partitioner_param.to_le_bytes());
    for s in &m.segments {
        buf.extend_from_slice(&s.entries.to_le_bytes());
        buf.extend_from_slice(&s.crc.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    let path = gen_dir.join("MANIFEST");
    let mut f = File::create(&path)?;
    f.write_all(&buf)?;
    f.sync_all()?;
    Ok(crc)
}

/// Read and validate the generation's `MANIFEST`; returns the manifest
/// and its file CRC (to check the commit marker against).
pub fn read_manifest(gen_dir: &Path) -> Result<(Manifest, u32), CheckpointError> {
    let path = gen_dir.join("MANIFEST");
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 24 {
        return Err(CheckpointError::Truncated { path });
    }
    if bytes[..4] != MANIFEST_MAGIC {
        return Err(CheckpointError::BadMagic { path });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion {
            path,
            found: version,
        });
    }
    let shard_count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let partitioner_tag = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let partitioner_param = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body_end = 24 + shard_count as usize * 12;
    if bytes.len() < body_end + 4 {
        return Err(CheckpointError::Truncated { path });
    }
    let stored = u32::from_le_bytes(bytes[body_end..body_end + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..body_end]) != stored {
        return Err(CheckpointError::CrcMismatch { path });
    }
    let mut segments = Vec::with_capacity(shard_count as usize);
    for i in 0..shard_count as usize {
        let off = 24 + i * 12;
        segments.push(SegmentMeta {
            entries: u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes")),
            crc: u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes")),
        });
    }
    Ok((
        Manifest {
            shard_count,
            partitioner_tag,
            partitioner_param,
            segments,
        },
        stored,
    ))
}

/// Seal a generation: write `COMMIT` carrying the manifest CRC, fsync
/// it, then fsync the generation directory so the marker's existence is
/// durable. Called strictly after every segment and the manifest are on
/// disk — the marker's presence implies the whole generation.
pub fn write_commit(gen_dir: &Path, manifest_crc: u32) -> Result<(), CheckpointError> {
    let mut buf = Vec::with_capacity(8);
    buf.extend_from_slice(&COMMIT_MAGIC);
    buf.extend_from_slice(&manifest_crc.to_le_bytes());
    let mut f = File::create(gen_dir.join("COMMIT"))?;
    f.write_all(&buf)?;
    f.sync_all()?;
    // Make the directory entry itself durable (on platforms where
    // opening a directory for sync is not supported this is best-effort).
    if let Ok(d) = File::open(gen_dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Whether `gen_dir` holds a valid `COMMIT` marker matching
/// `manifest_crc`.
fn commit_matches(gen_dir: &Path, manifest_crc: u32) -> bool {
    let mut bytes = Vec::new();
    match File::open(gen_dir.join("COMMIT")).and_then(|mut f| f.read_to_end(&mut bytes)) {
        Ok(_) => {
            bytes.len() >= 8
                && bytes[..4] == COMMIT_MAGIC
                && u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) == manifest_crc
        }
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// Generation directories
// ---------------------------------------------------------------------------

fn gen_number(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// Every `gen-NNNNNN` subdirectory of `dir`, sorted **descending** by
/// generation number (the order [`restore`](PnbBst::restore) probes).
pub fn generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in rd {
        let entry = entry?;
        if let Some(n) = entry.file_name().to_str().and_then(gen_number) {
            if entry.file_type()?.is_dir() {
                out.push((n, entry.path()));
            }
        }
    }
    out.sort_unstable_by_key(|g| std::cmp::Reverse(g.0));
    Ok(out)
}

/// Create the next generation directory under `dir` and return it with
/// its number. The `create_dir` is the atomic claim: two concurrent
/// checkpointers cannot both own one generation number.
pub fn begin_generation(dir: &Path) -> Result<(u64, PathBuf), CheckpointError> {
    fs::create_dir_all(dir)?;
    let mut next = generations(dir)?.first().map_or(1, |(n, _)| n + 1);
    loop {
        let path = dir.join(format!("gen-{next:06}"));
        match fs::create_dir(&path) {
            Ok(()) => return Ok((next, path)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => next += 1,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Delete committed generations older than the newest
/// `RETAINED_GENERATIONS` (2) ones. Uncommitted directories are left
/// alone — one may belong to a checkpoint still in flight, and crash
/// debris is bounded (at most one per crash). Removal is best-effort:
/// errors are ignored — a straggler directory costs disk, not
/// correctness.
pub fn prune_generations(dir: &Path) -> Result<(), CheckpointError> {
    let mut committed_seen = 0usize;
    for (_, path) in &generations(dir)? {
        let committed = read_manifest(path)
            .map(|(_, crc)| commit_matches(path, crc))
            .unwrap_or(false);
        if committed {
            committed_seen += 1;
            if committed_seen > RETAINED_GENERATIONS {
                let _ = fs::remove_dir_all(path);
            }
        }
    }
    Ok(())
}

/// A fully validated generation: its manifest plus every shard's
/// entries (each strictly ascending by key), all in memory.
pub type LoadedGeneration = (Manifest, Vec<Vec<(u64, u64)>>);

/// Fully load and validate one generation: commit marker, manifest,
/// shard-count vs files present, per-segment CRCs (against both the
/// file and the manifest), sortedness. Returns the manifest and every
/// shard's entries — all in memory before anything touches a tree.
pub fn load_generation(gen_dir: &Path) -> Result<LoadedGeneration, CheckpointError> {
    let (manifest, manifest_crc) = read_manifest(gen_dir)?;
    if !commit_matches(gen_dir, manifest_crc) {
        return Err(CheckpointError::MissingCommitMarker {
            dir: gen_dir.into(),
        });
    }
    // The manifest's shard count must agree with the files on disk.
    let mut present = 0u32;
    for entry in fs::read_dir(gen_dir)? {
        let name = entry?.file_name();
        if name
            .to_str()
            .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".seg"))
        {
            present += 1;
        }
    }
    if present != manifest.shard_count {
        return Err(CheckpointError::ShardCountMismatch {
            dir: gen_dir.into(),
            manifest: manifest.shard_count,
            found: present,
        });
    }
    let mut shards = Vec::with_capacity(manifest.shard_count as usize);
    for (i, meta) in manifest.segments.iter().enumerate() {
        let path = segment_path(gen_dir, i as u32);
        let entries = read_segment(&path)?;
        if entries.len() as u64 != meta.entries {
            return Err(CheckpointError::Truncated { path });
        }
        // Cross-check the segment against the manifest's recorded CRC
        // (a swapped-in file with a self-consistent CRC still fails).
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let file_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if file_crc != meta.crc {
            return Err(CheckpointError::CrcMismatch { path });
        }
        shards.push(entries);
    }
    Ok((manifest, shards))
}

/// Walk `dir`'s generations newest-first and return the first one that
/// validates end-to-end. Generations that fail (uncommitted, torn,
/// corrupt) are skipped; the *first* failure is surfaced as the typed
/// error when nothing loads at all.
pub fn load_latest(dir: &Path) -> Result<LoadedGeneration, CheckpointError> {
    let mut first_err: Option<CheckpointError> = None;
    for (_, gen_dir) in generations(dir)? {
        match load_generation(&gen_dir) {
            Ok(loaded) => return Ok(loaded),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    Err(first_err.unwrap_or(CheckpointError::NoCheckpoint { dir: dir.into() }))
}

/// Write one complete generation under `dir`: segments, manifest,
/// commit marker (in that order, each durable before the next), then
/// prune old generations. `shards[i]` must be strictly ascending.
pub fn write_generation(
    dir: &Path,
    partitioner_tag: u32,
    partitioner_param: u64,
    shards: &[Vec<(u64, u64)>],
) -> Result<CheckpointReport, CheckpointError> {
    let (generation, gen_dir) = begin_generation(dir)?;
    let mut segments = Vec::with_capacity(shards.len());
    let mut total = 0u64;
    for (i, entries) in shards.iter().enumerate() {
        let crc = write_segment(&segment_path(&gen_dir, i as u32), entries)?;
        segments.push(SegmentMeta {
            entries: entries.len() as u64,
            crc,
        });
        total += entries.len() as u64;
    }
    let manifest = Manifest {
        shard_count: shards.len() as u32,
        partitioner_tag,
        partitioner_param,
        segments,
    };
    let manifest_crc = write_manifest(&gen_dir, &manifest)?;
    write_commit(&gen_dir, manifest_crc)?;
    prune_generations(dir)?;
    Ok(CheckpointReport {
        generation,
        entries: total,
    })
}

// ---------------------------------------------------------------------------
// O(n) bulk load
// ---------------------------------------------------------------------------

impl<K, V> PnbBst<K, V>
where
    K: Ord + Clone + 'static,
    V: Clone + 'static,
{
    /// Build a tree from strictly ascending entries in O(n), without
    /// per-key CAS descents: the balanced leaf-oriented shape is
    /// constructed directly (every internal node's key is the smallest
    /// key of its right subtree, matching the insert shapes), with the
    /// same `∞₁`/`∞₂` sentinel scaffolding as [`PnbBst::new`]. All
    /// nodes carry `seq = 0` and no `prev` history — the restored tree
    /// starts a fresh phase timeline.
    ///
    /// # Panics
    ///
    /// If the keys are not strictly ascending (the on-disk readers
    /// validate sortedness before calling this).
    pub fn from_sorted(entries: Vec<(K, V)>) -> Self {
        use crate::arena;
        use crate::info::{Info, InfoPtr, NodePtr};
        use crate::node::Node;

        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly ascending keys"
        );
        let dummy: InfoPtr<K, V> = arena::alloc(Info::dummy());
        // One leaf per entry, in key order. `arena::alloc`, exactly
        // like `PnbBst::new`, so a restored tree's nodes are line-
        // aligned slab blocks too and `Drop`'s `free_now` teardown and
        // the update-time retire rules hold for them.
        let leaves: Vec<NodePtr<K, V>> = entries
            .into_iter()
            .map(|(k, v)| {
                arena::alloc(Node::leaf(
                    SKey::Fin(k),
                    Some(v),
                    0,
                    std::ptr::null(),
                    dummy,
                )) as NodePtr<K, V>
            })
            .collect();

        // Balanced recursion: split the run in half; the internal key
        // is the right half's leftmost (= smallest) key, so left-subtree
        // keys are < key and right-subtree keys are >= key — the
        // leaf-oriented BST invariant `check_invariants` asserts.
        fn build<K: Ord + Clone + 'static, V: Clone + 'static>(
            leaves: &[NodePtr<K, V>],
            dummy: InfoPtr<K, V>,
        ) -> NodePtr<K, V> {
            if leaves.len() == 1 {
                return leaves[0];
            }
            let mid = leaves.len() / 2;
            // SAFETY: just allocated above, exclusively owned until the
            // tree is assembled.
            let key = unsafe { (*leaves[mid]).key.clone() };
            let left = build(&leaves[..mid], dummy);
            let right = build(&leaves[mid..], dummy);
            arena::alloc(Node::internal(key, 0, std::ptr::null(), left, right, dummy))
        }

        let inf1_leaf: NodePtr<K, V> =
            arena::alloc(Node::leaf(SKey::Inf1, None, 0, std::ptr::null(), dummy));
        let inf2_leaf: NodePtr<K, V> =
            arena::alloc(Node::leaf(SKey::Inf2, None, 0, std::ptr::null(), dummy));
        // Finite keys all compare below ∞₁: they live in the left
        // subtree of an ∞₁ internal whose right child is the ∞₁
        // sentinel leaf — the same shape a sequence of inserts into a
        // fresh tree converges to.
        let below_root: NodePtr<K, V> = if leaves.is_empty() {
            inf1_leaf
        } else {
            let finite = build(&leaves, dummy);
            arena::alloc(Node::internal(
                SKey::Inf1,
                0,
                std::ptr::null(),
                finite,
                inf1_leaf,
                dummy,
            ))
        };
        let root: NodePtr<K, V> = arena::alloc(Node::internal(
            SKey::Inf2,
            0,
            std::ptr::null(),
            below_root,
            inf2_leaf,
            dummy,
        ));
        PnbBst {
            root,
            counter: CachePadded::new(AtomicU64::new(0)),
            dummy,
            stats: Stats::default(),
        }
    }
}

impl PnbBst<u64, u64> {
    /// Checkpoint the tree to `dir`: take a wait-free [`snapshot`]
    /// (updates keep running), serialize the frozen cut as one sorted
    /// segment, and commit it as a new generation. Returns the
    /// generation number and entry count.
    ///
    /// [`snapshot`]: PnbBst::snapshot
    pub fn checkpoint(&self, dir: &Path) -> Result<CheckpointReport, CheckpointError> {
        let entries = self.snapshot().to_vec();
        write_generation(dir, PARTITIONER_NONE, 0, &[entries])
    }

    /// Rebuild a tree from the newest loadable checkpoint generation in
    /// `dir` (single-tree checkpoints only: a sharded checkpoint is
    /// rejected with [`CheckpointError::ShardCountMismatch`] — restore
    /// it with the sharded front-end instead). The tree is bulk-loaded
    /// in O(n) via [`PnbBst::from_sorted`].
    pub fn restore(dir: &Path) -> Result<Self, CheckpointError> {
        let (manifest, mut shards) = load_latest(dir)?;
        if manifest.shard_count != 1 {
            return Err(CheckpointError::ShardCountMismatch {
                dir: dir.into(),
                manifest: manifest.shard_count,
                found: 1,
            });
        }
        Ok(PnbBst::from_sorted(shards.remove(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "pnbbst-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("create test dir");
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn from_sorted_builds_a_valid_balanced_tree() {
        for n in [0usize, 1, 2, 3, 7, 8, 100, 1000] {
            let entries: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 3, k)).collect();
            let t = PnbBst::from_sorted(entries.clone());
            assert_eq!(t.check_invariants(), n, "n={n}");
            assert_eq!(t.snapshot().to_vec(), entries, "n={n}");
            for (k, v) in &entries {
                assert_eq!(t.get(k), Some(*v));
            }
            assert_eq!(t.get(&(n as u64 * 3 + 1)), None);
        }
    }

    #[test]
    fn restored_tree_accepts_updates_and_scans() {
        // The bulk-loaded nodes must work with the full CAS/helping
        // machinery, not just reads.
        let t = PnbBst::from_sorted((0..500u64).map(|k| (k * 2, k)).collect());
        let h = t.pin();
        assert!(h.insert(1, 999)); // between bulk-loaded keys
        assert!(!h.insert(0, 1)); // duplicate of a bulk-loaded key
        assert_eq!(h.upsert(4, 42), Some(2));
        assert!(h.delete(&2));
        assert_eq!(h.range(0..=10).count(), 6); // 0,1,4,6,8,10
        let snap = h.snapshot();
        assert!(h.delete(&0));
        assert_eq!(snap.get(&0), Some(0)); // persistence still works
        assert_eq!(t.check_invariants(), 499);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_input() {
        let _ = PnbBst::from_sorted(vec![(5u64, 0u64), (3, 0)]);
    }

    #[test]
    fn segment_roundtrip_and_validation() {
        let d = tmpdir("seg");
        let path = d.join("shard-0000.seg");
        let entries: Vec<(u64, u64)> = (0..100).map(|k| (k * 7, k + 1)).collect();
        let crc = write_segment(&path, &entries).expect("write");
        assert_eq!(read_segment(&path).expect("read"), entries);

        // Flip one payload byte: CRC mismatch, typed.
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(CheckpointError::CrcMismatch { .. })
        ));

        // Truncate the tail: typed, not a short read.
        write_segment(&path, &entries).expect("rewrite");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(CheckpointError::Truncated { .. })
        ));

        // Wrong magic.
        let mut bytes = Vec::from(*b"XXXX");
        bytes.extend_from_slice(&[0u8; 32]);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(CheckpointError::BadMagic { .. })
        ));
        let _ = (crc, fs::remove_dir_all(&d));
    }

    #[test]
    fn checkpoint_restore_roundtrip_single_tree() {
        let d = tmpdir("roundtrip");
        let t: PnbBst<u64, u64> = PnbBst::new();
        for k in 0..1000u64 {
            t.insert(k * 5, k);
        }
        let report = t.checkpoint(&d).expect("checkpoint");
        assert_eq!(report.generation, 1);
        assert_eq!(report.entries, 1000);
        let r = PnbBst::restore(&d).expect("restore");
        assert_eq!(r.check_invariants(), 1000);
        assert_eq!(r.snapshot().to_vec(), t.snapshot().to_vec());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_tree_roundtrips() {
        let d = tmpdir("empty");
        let t: PnbBst<u64, u64> = PnbBst::new();
        t.checkpoint(&d).expect("checkpoint");
        let r = PnbBst::restore(&d).expect("restore");
        assert_eq!(r.check_invariants(), 0);
        assert!(r.insert(1, 1));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn uncommitted_generation_is_invisible() {
        let d = tmpdir("uncommitted");
        let t: PnbBst<u64, u64> = PnbBst::new();
        t.insert(1, 10);
        t.checkpoint(&d).expect("gen 1");
        // Simulate a crash mid-checkpoint: a newer generation with a
        // segment but no COMMIT marker.
        let torn = d.join("gen-000002");
        fs::create_dir(&torn).unwrap();
        write_segment(&segment_path(&torn, 0), &[(9, 9)]).unwrap();
        let r = PnbBst::restore(&d).expect("prior checkpoint loads");
        assert_eq!(r.snapshot().to_vec(), vec![(1, 10)]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_commit_with_no_prior_is_typed() {
        let d = tmpdir("nocommit");
        let gen = d.join("gen-000001");
        fs::create_dir(&gen).unwrap();
        let crc = write_segment(&segment_path(&gen, 0), &[(1, 1)]).unwrap();
        write_manifest(
            &gen,
            &Manifest {
                shard_count: 1,
                partitioner_tag: PARTITIONER_NONE,
                partitioner_param: 0,
                segments: vec![SegmentMeta { entries: 1, crc }],
            },
        )
        .unwrap();
        assert!(matches!(
            PnbBst::restore(&d),
            Err(CheckpointError::MissingCommitMarker { .. })
        ));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn empty_dir_is_no_checkpoint() {
        let d = tmpdir("nockpt");
        assert!(matches!(
            PnbBst::<u64, u64>::restore(&d),
            Err(CheckpointError::NoCheckpoint { .. })
        ));
        // A directory that does not even exist reports the same.
        assert!(matches!(
            PnbBst::<u64, u64>::restore(&d.join("missing")),
            Err(CheckpointError::NoCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn generations_accumulate_and_prune() {
        let d = tmpdir("prune");
        let t: PnbBst<u64, u64> = PnbBst::new();
        for round in 0..5u64 {
            t.insert(round, round);
            let report = t.checkpoint(&d).expect("checkpoint");
            assert_eq!(report.generation, round + 1);
            assert_eq!(report.entries, round + 1);
        }
        // Retention keeps the newest two committed generations only.
        let gens = generations(&d).unwrap();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].0, 5);
        assert_eq!(gens[1].0, 4);
        let r = PnbBst::restore(&d).expect("restore newest");
        assert_eq!(r.check_invariants(), 5);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn snapshot_cut_is_what_lands_on_disk() {
        // Writes racing the checkpoint may or may not be included, but
        // the cut itself is frozen: checkpoint from a quiesced tree,
        // mutate afterwards, restore — the checkpoint must show the
        // pre-mutation state.
        let d = tmpdir("cut");
        let t: PnbBst<u64, u64> = PnbBst::new();
        for k in 0..100u64 {
            t.insert(k, k);
        }
        t.checkpoint(&d).expect("checkpoint");
        for k in 0..100u64 {
            t.delete(&k);
        }
        let r = PnbBst::restore(&d).expect("restore");
        assert_eq!(r.check_invariants(), 100);
        let _ = fs::remove_dir_all(&d);
    }
}
