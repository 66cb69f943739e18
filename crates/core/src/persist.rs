//! Durable checkpoints: serialize a wait-free snapshot to disk and
//! rebuild a tree from it in O(n), without per-key CAS descents.
//!
//! A checkpoint *directory* holds numbered **generations**
//! (`gen-000001/`, `gen-000002/`, …), each holding one immutable file,
//! `CHECKPOINT`: a header (magic, version, shard count, partitioner tag
//! and parameter), each shard's entry count and sorted run of
//! little-endian `(u64 key, u64 value)` pairs (a single tree is one
//! shard), and a CRC-32 of everything before it (DESIGN §9.1). It is
//! written as `CHECKPOINT.tmp`, fsynced and renamed into place: the
//! rename is the commit, as the child CAS is in the tree. A generation
//! without `CHECKPOINT` never existed as far as [`restore`] is
//! concerned, so a crash mid-checkpoint leaves the previous checkpoint
//! loadable.
//!
//! The reader validates *everything* (magic, version, every count
//! against the file's length, strict order within each shard, the CRC,
//! no bytes after it) before any entry reaches a tree: a torn or
//! corrupt file is a typed [`CheckpointError`], never a partially
//! loaded map. [`restore`] loads the newest generation that validates;
//! the typed error surfaces only when none does.
//!
//! [`restore`]: PnbBst::restore

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

use crossbeam_utils::CachePadded;

use crate::key::SKey;
use crate::stats::Stats;
use crate::tree::PnbBst;

/// Checkpoint file magic (`PNBK`).
const MAGIC: [u8; 4] = *b"PNBK";
/// Format version stamped into every checkpoint file.
const FORMAT_VERSION: u32 = 2;
/// Bytes before the first shard: magic, version, shard count,
/// partitioner tag, partitioner parameter.
const HEADER_LEN: u64 = 4 + 4 + 4 + 4 + 8;
/// The committed file of a generation, and the name it is written under.
const FILE_NAME: &str = "CHECKPOINT";
const TMP_NAME: &str = "CHECKPOINT.tmp";
/// Buffer size of the writer and the reader: one `write`/`read` call
/// per 64 KiB, never one per entry.
const IO_BUF: usize = 1 << 16;
/// Committed generations kept after each checkpoint.
const RETAINED_GENERATIONS: usize = 2;
/// Partitioner tag recorded for single-tree (unsharded) checkpoints.
const PARTITIONER_NONE: u32 = 0;

/// What loading or writing a checkpoint can fail with.
///
/// Every variant names the file or directory it refers to, so a
/// corrupt-checkpoint report is actionable without a debugger. A
/// generation without a `CHECKPOINT` file is not an error: it is an
/// uncommitted one, and restore skips it.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error (create, read, write, fsync, rename).
    Io(io::Error),
    /// The file does not start with the checkpoint magic.
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
    /// The file ends before its declared counts do (torn write).
    Truncated {
        /// The offending file.
        path: PathBuf,
    },
    /// The trailing CRC-32 does not match the file's contents.
    CrcMismatch {
        /// The offending file.
        path: PathBuf,
    },
    /// Bytes follow the CRC: the declared counts do not consume the
    /// file exactly.
    TrailingBytes {
        /// The offending file.
        path: PathBuf,
    },
    /// A shard's entries are not strictly ascending by key.
    UnsortedRun {
        /// The offending file.
        path: PathBuf,
    },
    /// The file declares no shard: no map has zero shards.
    NoShards {
        /// The offending file.
        path: PathBuf,
    },
    /// [`PnbBst::restore`] found a checkpoint of a sharded map: a
    /// single tree restores from exactly one shard.
    ShardCountMismatch {
        /// The checkpoint file.
        path: PathBuf,
        /// Shards the file holds.
        found: u32,
    },
    /// The file records a partitioner configuration the caller's map
    /// type cannot adopt.
    PartitionerMismatch {
        /// The checkpoint file.
        path: PathBuf,
        /// Partitioner tag found in the file.
        found: u32,
    },
    /// The file records a partitioner parameter that no partitioner of
    /// its type has.
    BadPartitionerParam {
        /// The checkpoint file.
        path: PathBuf,
        /// Partitioner tag found in the file.
        tag: u32,
        /// The parameter found in the file.
        param: u64,
    },
    /// A key in a shard's run does not route to that shard under the
    /// file's partitioner configuration.
    MisroutedKey {
        /// The checkpoint file.
        path: PathBuf,
        /// The shard whose run holds the key.
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
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::BadMagic { path } => write!(f, "bad magic in {}", path.display()),
            Self::BadVersion { path, found } => write!(
                f,
                "unsupported format version {found} in {} (this build reads {FORMAT_VERSION})",
                path.display()
            ),
            Self::Truncated { path } => write!(f, "truncated file {}", path.display()),
            Self::CrcMismatch { path } => write!(f, "CRC mismatch in {}", path.display()),
            Self::TrailingBytes { path } => write!(f, "bytes after the CRC in {}", path.display()),
            Self::UnsortedRun { path } => {
                write!(f, "a shard in {} is not strictly ascending", path.display())
            }
            Self::NoShards { path } => write!(f, "{} declares 0 shards", path.display()),
            Self::ShardCountMismatch { path, found } => write!(
                f,
                "{} holds {found} shard(s); a single tree restores from exactly one",
                path.display()
            ),
            Self::PartitionerMismatch { path, found } => write!(
                f,
                "{} records partitioner tag {found}, which this map type cannot adopt",
                path.display()
            ),
            Self::BadPartitionerParam { path, tag, param } => write!(
                f,
                "{} records parameter {param} for partitioner tag {tag}, which has no such configuration",
                path.display()
            ),
            Self::MisroutedKey { path, shard, key } => write!(
                f,
                "key {key} of shard {shard} in {} routes to another shard under its partitioner",
                path.display()
            ),
            Self::NoCheckpoint { dir } => {
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
    /// Total entries written across all shards.
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
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// A running CRC-32: the writer and the reader feed it every byte they
/// pass, so neither holds the whole file to checksum it.
struct Crc(u32);

impl Crc {
    fn new() -> Self {
        Crc(!0)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = CRC_TABLE[((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — the checksum a
/// checkpoint file trails with.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// The checkpoint file
// ---------------------------------------------------------------------------

/// Write one checkpoint file to `path` through a buffered, checksumming
/// writer, then fsync it.
fn write_file(path: &Path, tag: u32, param: u64, shards: &[Vec<(u64, u64)>]) -> io::Result<()> {
    let mut out = BufWriter::with_capacity(IO_BUF, File::create(path)?);
    let mut crc = Crc::new();
    let mut put = |bytes: &[u8]| {
        crc.update(bytes);
        out.write_all(bytes)
    };
    put(&MAGIC)?;
    put(&FORMAT_VERSION.to_le_bytes())?;
    put(&(shards.len() as u32).to_le_bytes())?;
    put(&tag.to_le_bytes())?;
    put(&param.to_le_bytes())?;
    for run in shards {
        put(&(run.len() as u64).to_le_bytes())?;
        for &(k, v) in run {
            let mut entry = [0u8; 16];
            entry[..8].copy_from_slice(&k.to_le_bytes());
            entry[8..].copy_from_slice(&v.to_le_bytes());
            put(&entry)?;
        }
    }
    out.write_all(&crc.finish().to_le_bytes())?;
    out.into_inner()?.sync_all()
}

/// A fully validated checkpoint: the file it came from, its partitioner
/// configuration and every shard's entries (each strictly ascending by
/// key), all in memory.
#[derive(Debug)]
pub struct LoadedGeneration {
    /// The `CHECKPOINT` file that was loaded.
    pub path: PathBuf,
    /// Partitioner tag (0 for a single tree; the sharded front-end
    /// defines its own tags).
    pub partitioner_tag: u32,
    /// Partitioner parameter (meaning depends on the tag).
    pub partitioner_param: u64,
    /// One sorted run per shard.
    pub shards: Vec<Vec<(u64, u64)>>,
}

/// Read and validate one checkpoint file in a single buffered pass:
/// magic, version, every count against the file's length (checked
/// arithmetic, so no count can make the reader allocate more than the
/// file holds), the CRC, no trailing bytes, then strict order. Nothing
/// is returned unless the whole file checks out.
fn read_file(path: &Path, file: File) -> Result<LoadedGeneration, CheckpointError> {
    let len = file.metadata()?.len();
    let mut input = BufReader::with_capacity(IO_BUF, file);
    let mut crc = Crc::new();
    let mut take = |buf: &mut [u8]| -> io::Result<()> {
        input.read_exact(buf)?;
        crc.update(buf);
        Ok(())
    };
    // Every read is checked against `len` first (`pos` is the offset
    // the next one starts at), so `read_exact` never meets the end of
    // the file and no count can allocate more than the file holds.
    let need = |pos: u64, n: u64| match pos.checked_add(n) {
        Some(end) if end <= len => Ok(()),
        _ => Err(CheckpointError::Truncated { path: path.into() }),
    };
    need(0, HEADER_LEN + 4)?;
    let mut header = [0u8; HEADER_LEN as usize];
    take(&mut header)?;
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    if header[..4] != MAGIC {
        return Err(CheckpointError::BadMagic { path: path.into() });
    }
    let found = u32_at(4);
    if found != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion {
            path: path.into(),
            found,
        });
    }
    let (shard_count, partitioner_tag) = (u32_at(8), u32_at(12));
    let partitioner_param = u64::from_le_bytes(header[16..].try_into().expect("8 bytes"));
    let mut pos = HEADER_LEN;
    let mut shards = Vec::new();
    let mut sorted = true;
    let (mut word, mut entry) = ([0u8; 8], [0u8; 16]);
    for _ in 0..shard_count {
        need(pos, 8 + 4)?;
        take(&mut word)?;
        let count = u64::from_le_bytes(word);
        pos += 8;
        need(pos, count.saturating_mul(16).saturating_add(4))?;
        let mut run: Vec<(u64, u64)> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            take(&mut entry)?;
            let k = u64::from_le_bytes(entry[..8].try_into().expect("8 bytes"));
            let v = u64::from_le_bytes(entry[8..].try_into().expect("8 bytes"));
            sorted &= run.last().is_none_or(|&(prev, _)| prev < k);
            run.push((k, v));
        }
        pos += count * 16;
        shards.push(run);
    }
    let expected = crc.finish();
    input.read_exact(&mut word[..4])?;
    if u32::from_le_bytes(word[..4].try_into().expect("4 bytes")) != expected {
        return Err(CheckpointError::CrcMismatch { path: path.into() });
    }
    if pos + 4 != len {
        return Err(CheckpointError::TrailingBytes { path: path.into() });
    }
    // Order and the shard count are judged only after the CRC, so a
    // flipped bit reads as `CrcMismatch` wherever it lands.
    if !sorted {
        return Err(CheckpointError::UnsortedRun { path: path.into() });
    }
    if shard_count == 0 {
        return Err(CheckpointError::NoShards { path: path.into() });
    }
    Ok(LoadedGeneration {
        path: path.into(),
        partitioner_tag,
        partitioner_param,
        shards,
    })
}

/// Every `gen-NNNNNN` subdirectory of `dir`, sorted **descending** by
/// generation number (the order [`load_latest`] probes).
fn generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in rd {
        let entry = entry?;
        let number = entry
            .file_name()
            .to_str()
            .and_then(|name| name.strip_prefix("gen-")?.parse().ok());
        if let Some(n) = number {
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
fn begin_generation(dir: &Path) -> Result<(u64, PathBuf), CheckpointError> {
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

/// fsync a directory, making the entries created or renamed in it
/// durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Walk `dir`'s generations newest-first and return the first one that
/// validates. A generation without a `CHECKPOINT` file is uncommitted
/// and skipped; one whose file fails validation is skipped too, and the
/// *first* such failure is the typed error when nothing loads at all.
pub fn load_latest(dir: &Path) -> Result<LoadedGeneration, CheckpointError> {
    let mut first_err: Option<CheckpointError> = None;
    for (_, gen_dir) in generations(dir)? {
        let path = gen_dir.join(FILE_NAME);
        let loaded = match File::open(&path) {
            Ok(file) => read_file(&path, file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => Err(e.into()),
        };
        match loaded {
            Ok(loaded) => return Ok(loaded),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    Err(first_err.unwrap_or(CheckpointError::NoCheckpoint { dir: dir.into() }))
}

/// Write one complete generation under `dir` and commit it: claim
/// `gen-N`, write and fsync `CHECKPOINT.tmp`, rename it to
/// `CHECKPOINT`, fsync the generation directory and then `dir`, and
/// delete committed generations beyond the newest two. Uncommitted
/// directories are never deleted: one may belong to a checkpoint still
/// in flight, and crash debris is bounded at one per crash.
/// `shards[i]` must be strictly ascending.
pub fn write_generation(
    dir: &Path,
    partitioner_tag: u32,
    partitioner_param: u64,
    shards: &[Vec<(u64, u64)>],
) -> Result<CheckpointReport, CheckpointError> {
    // A silently unsorted run would poison the O(n) bulk load.
    assert!(
        shards
            .iter()
            .all(|run| run.windows(2).all(|w| w[0].0 < w[1].0)),
        "write_generation requires strictly ascending keys in every shard"
    );
    let (generation, gen_dir) = begin_generation(dir)?;
    let tmp = gen_dir.join(TMP_NAME);
    write_file(&tmp, partitioner_tag, partitioner_param, shards)?;
    fs::rename(&tmp, gen_dir.join(FILE_NAME))?;
    sync_dir(&gen_dir)?;
    sync_dir(dir)?;
    let committed = generations(dir)?
        .into_iter()
        .filter(|(_, g)| g.join(FILE_NAME).exists());
    for (_, stale) in committed.skip(RETAINED_GENERATIONS) {
        // Best-effort: a straggler directory costs disk, not correctness.
        let _ = fs::remove_dir_all(stale);
    }
    Ok(CheckpointReport {
        generation,
        entries: shards.iter().map(|run| run.len() as u64).sum(),
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
        // `arena::alloc`, exactly like `PnbBst::new`, so a restored
        // tree's nodes are line-aligned slab blocks too and `Drop`'s
        // `free_now` teardown and the update-time retire rules hold for
        // them.
        let leaf = |key: SKey<K>, value: Option<V>| -> NodePtr<K, V> {
            arena::alloc(Node::leaf(key, value, 0, std::ptr::null(), dummy))
        };
        let internal = |key: SKey<K>, left: NodePtr<K, V>, right: NodePtr<K, V>| -> NodePtr<K, V> {
            arena::alloc(Node::internal(key, 0, std::ptr::null(), left, right, dummy))
        };
        // One leaf per entry, in key order.
        let leaves: Vec<NodePtr<K, V>> = entries
            .into_iter()
            .map(|(k, v)| leaf(SKey::Fin(k), Some(v)))
            .collect();

        // Balanced recursion: split the run in half; the internal key
        // is the right half's leftmost (= smallest) key, so left-subtree
        // keys are < key and right-subtree keys are >= key — the
        // leaf-oriented BST invariant `check_invariants` asserts.
        fn build<K: Clone, V>(
            leaves: &[NodePtr<K, V>],
            internal: &impl Fn(SKey<K>, NodePtr<K, V>, NodePtr<K, V>) -> NodePtr<K, V>,
        ) -> NodePtr<K, V> {
            if leaves.len() == 1 {
                return leaves[0];
            }
            let mid = leaves.len() / 2;
            // SAFETY: just allocated above, exclusively owned until the
            // tree is assembled.
            let key = unsafe { (*leaves[mid]).key.clone() };
            internal(
                key,
                build(&leaves[..mid], internal),
                build(&leaves[mid..], internal),
            )
        }

        // Finite keys all compare below ∞₁: they live in the left
        // subtree of an ∞₁ internal whose right child is the ∞₁
        // sentinel leaf — the same shape a sequence of inserts into a
        // fresh tree converges to.
        let inf1_leaf = leaf(SKey::Inf1, None);
        let below_root = if leaves.is_empty() {
            inf1_leaf
        } else {
            internal(SKey::Inf1, build(&leaves, &internal), inf1_leaf)
        };
        let root = internal(SKey::Inf2, below_root, leaf(SKey::Inf2, None));
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
    /// (updates keep running), serialize the frozen cut as a one-shard
    /// checkpoint file, and commit it as a new generation. Returns the
    /// generation number and entry count.
    ///
    /// [`snapshot`]: PnbBst::snapshot
    pub fn checkpoint(&self, dir: &Path) -> Result<CheckpointReport, CheckpointError> {
        let entries = self.snapshot().to_vec();
        write_generation(dir, PARTITIONER_NONE, 0, &[entries])
    }

    /// Rebuild a tree from the newest loadable checkpoint generation in
    /// `dir`, bulk-loaded in O(n) via [`PnbBst::from_sorted`]. A
    /// checkpoint of more than one shard is rejected with
    /// [`CheckpointError::ShardCountMismatch`]: restore it with the
    /// sharded front-end instead.
    pub fn restore(dir: &Path) -> Result<Self, CheckpointError> {
        let LoadedGeneration {
            path, mut shards, ..
        } = load_latest(dir)?;
        if shards.len() != 1 {
            return Err(CheckpointError::ShardCountMismatch {
                path,
                found: shards.len() as u32,
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

    /// Load the one generation under `dir` straight through `read_file`.
    fn read_gen1(dir: &Path) -> Result<LoadedGeneration, CheckpointError> {
        let path = dir.join("gen-000001").join(FILE_NAME);
        read_file(&path, File::open(&path)?)
    }

    #[test]
    fn checkpoint_file_roundtrip_and_validation() {
        let d = tmpdir("file");
        let entries: Vec<(u64, u64)> = (0..100).map(|k| (k * 7, k + 1)).collect();
        write_generation(&d, 3, 12, &[entries.clone(), vec![(5, 5)]]).expect("write");
        let path = d.join("gen-000001").join(FILE_NAME);
        let loaded = read_gen1(&d).expect("read");
        assert_eq!(loaded.path, path);
        assert_eq!((loaded.partitioner_tag, loaded.partitioner_param), (3, 12));
        assert_eq!(loaded.shards, vec![entries, vec![(5, 5)]]);
        let good = fs::read(&path).unwrap();
        // Nothing else is left in the generation: no temporary file.
        assert_eq!(fs::read_dir(d.join("gen-000001")).unwrap().count(), 1);

        let check = |bytes: &[u8], want: fn(&CheckpointError) -> bool| {
            fs::write(&path, bytes).unwrap();
            let err = read_gen1(&d).expect_err("damaged file must not load");
            assert!(want(&err), "got {err}");
        };
        // Flip one payload byte: CRC mismatch, typed.
        let mut bytes = good.clone();
        bytes[40] ^= 0x01;
        check(&bytes, |e| matches!(e, CheckpointError::CrcMismatch { .. }));
        // Truncate the tail: typed, not a short read.
        check(&good[..good.len() - 5], |e| {
            matches!(e, CheckpointError::Truncated { .. })
        });
        check(&good[..10], |e| {
            matches!(e, CheckpointError::Truncated { .. })
        });
        // A count far beyond the file: typed, and no allocation of it.
        let mut bytes = good.clone();
        bytes[HEADER_LEN as usize + 7] = 0xFF;
        check(&bytes, |e| matches!(e, CheckpointError::Truncated { .. }));
        // One byte past the CRC.
        let mut bytes = good.clone();
        bytes.push(0);
        check(&bytes, |e| {
            matches!(e, CheckpointError::TrailingBytes { .. })
        });
        // Wrong magic, wrong version.
        let mut bytes = good.clone();
        bytes[..4].copy_from_slice(b"XXXX");
        check(&bytes, |e| matches!(e, CheckpointError::BadMagic { .. }));
        let mut bytes = good.clone();
        bytes[4] = 1;
        check(&bytes, |e| {
            matches!(e, CheckpointError::BadVersion { found: 1, .. })
        });
        // Two entries swapped, CRC recomputed: only the order is wrong.
        let mut bytes = good[..good.len() - 4].to_vec();
        let first = HEADER_LEN as usize + 8;
        let swapped = [&bytes[first + 16..first + 32], &bytes[first..first + 16]].concat();
        bytes[first..first + 32].copy_from_slice(&swapped);
        bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
        check(&bytes, |e| matches!(e, CheckpointError::UnsortedRun { .. }));
        let _ = fs::remove_dir_all(&d);
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
        // Simulate a crash mid-checkpoint: a newer generation whose
        // complete file was never renamed into place.
        let torn = d.join("gen-000002");
        fs::create_dir(&torn).unwrap();
        fs::copy(d.join("gen-000001").join(FILE_NAME), torn.join(TMP_NAME)).unwrap();
        t.insert(2, 20);
        let r = PnbBst::restore(&d).expect("prior checkpoint loads");
        assert_eq!(r.snapshot().to_vec(), vec![(1, 10)]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn uncommitted_generation_with_no_prior_is_no_checkpoint() {
        let d = tmpdir("nocommit");
        let gen = d.join("gen-000001");
        fs::create_dir(&gen).unwrap();
        write_file(&gen.join(TMP_NAME), PARTITIONER_NONE, 0, &[vec![(1, 1)]]).unwrap();
        assert!(matches!(
            PnbBst::restore(&d),
            Err(CheckpointError::NoCheckpoint { .. })
        ));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn sharded_checkpoint_does_not_restore_as_one_tree() {
        let d = tmpdir("shards");
        write_generation(&d, 1, 12, &[vec![(1, 1)], vec![(1 << 12, 2)]]).expect("write");
        match PnbBst::restore(&d) {
            Err(CheckpointError::ShardCountMismatch { path, found: 2 }) => {
                assert_eq!(path, d.join("gen-000001").join(FILE_NAME));
            }
            other => panic!("expected ShardCountMismatch, got {:?}", other.err()),
        }
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
