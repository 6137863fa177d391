//! The on-disk store: atomic entry files, validation, LRU eviction.

use crate::fingerprint::{Fingerprint, FORMAT_VERSION, MAGIC};
use flexer_sched::wire::{decode_layer_result, encode_layer_result};
use flexer_sched::LayerSearchResult;
use flexer_sim::wire::WireError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::UNIX_EPOCH;

/// Entry file extension.
const EXT: &str = "fxs";
/// Header bytes: magic (4) + version (4) + payload length (8) +
/// checksum (8).
const HEADER_LEN: usize = 24;

/// Default byte capacity of a store: 256 MiB — thousands of layer
/// entries (a quick-options entry is a few KiB).
pub const DEFAULT_CAPACITY_BYTES: u64 = 256 * 1024 * 1024;

/// Why a store entry was rejected as corrupt. Every variant is a
/// *miss with a reason*: the entry is deleted and the caller
/// re-schedules, repairing the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptKind {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes are not `FXS1`.
    BadMagic,
    /// The header's format version is not [`FORMAT_VERSION`]. Should
    /// be unreachable — the version participates in the address — so
    /// it indicates a damaged or foreign file.
    VersionMismatch {
        /// The version found in the header.
        found: u32,
    },
    /// The payload is not as long as the header claims (torn write).
    LengthMismatch {
        /// Length claimed by the header.
        header: u64,
        /// Length actually present.
        actual: u64,
    },
    /// The payload checksum does not match the header (bit rot or a
    /// torn write that preserved the length).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        header: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// The payload passed the checksum but failed to decode — a store
    /// written by an incompatible build that forgot to bump
    /// [`FORMAT_VERSION`].
    Decode(WireError),
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::TruncatedHeader => write!(f, "entry shorter than its header"),
            CorruptKind::BadMagic => write!(f, "bad magic bytes"),
            CorruptKind::VersionMismatch { found } => {
                write!(f, "format version {found} (expected {FORMAT_VERSION})")
            }
            CorruptKind::LengthMismatch { header, actual } => {
                write!(f, "payload length {actual} (header claims {header})")
            }
            CorruptKind::ChecksumMismatch { header, actual } => {
                write!(f, "checksum {actual:#x} (header claims {header:#x})")
            }
            CorruptKind::Decode(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

/// Outcome of a [`ScheduleStore::get`].
#[derive(Debug)]
pub enum Lookup {
    /// The entry was found, validated and decoded.
    Hit(Box<LayerSearchResult>),
    /// No entry under this fingerprint.
    Miss,
    /// An entry existed but was torn/corrupt; it has been deleted and
    /// the lookup counts as a miss.
    Corrupt(CorruptKind),
}

/// Snapshot of a store's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups that served a stored winner: answered from disk, or
    /// from a caller's in-memory copy of an entry read back earlier
    /// ([`ScheduleStore::note_memory_hit`]).
    pub hits: u64,
    /// The part of `hits` served from a caller's in-memory copy.
    pub memory_hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries deleted by the LRU capacity pass.
    pub evictions: u64,
    /// Entries rejected as torn/corrupt (also counted as misses by
    /// callers; kept separate here).
    pub corrupt: u64,
}

/// One row of a [`ScheduleStore::manifest`]: a validated entry's
/// address plus enough header material to diff stores without moving
/// payloads. Two stores hold the same entry iff the fingerprint,
/// length and checksum all agree (the payload encoding is canonical,
/// so equal checksums over equal lengths mean equal bytes in
/// practice).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ManifestEntry {
    /// The entry's content address.
    pub fingerprint: Fingerprint,
    /// Total on-disk size of the entry file (header + payload).
    pub len: u64,
    /// The payload checksum recorded in (and re-verified against) the
    /// header.
    pub checksum: u64,
}

/// Outcome of a [`ScheduleStore::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ingest {
    /// The entry was validated and written.
    Stored,
    /// A valid entry already exists under this address; nothing
    /// changed.
    Exists,
    /// The bytes failed validation and were discarded (counted under
    /// the corrupt counter). The local store is untouched.
    Rejected(CorruptKind),
}

/// In-memory recency: fingerprint → monotone sequence number.
/// Files unknown to the map (written by an earlier process) fall back
/// to their modification time, ordered before every in-process touch.
#[derive(Debug, Default)]
struct Recency {
    next: u64,
    seq: HashMap<Fingerprint, u64>,
}

/// A content-addressed, size-bounded, crash-safe schedule cache rooted
/// at one directory. See the crate docs for the design.
///
/// All methods take `&self`; the store is safe to share across the
/// worker threads of a scheduling service. Open one handle per
/// directory per process and share it: the LRU recency and the
/// counters live in the handle, so a second handle would evict by a
/// view that never saw the first one's hits.
#[derive(Debug)]
pub struct ScheduleStore {
    dir: PathBuf,
    capacity_bytes: u64,
    hits: AtomicU64,
    memory_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    recency: Mutex<Recency>,
}

/// Canonical directories this process has already reaped of crash
/// leftovers (see [`ScheduleStore::with_capacity`]).
static REAPED: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScheduleStore {
    /// Opens (creating if needed) a store at `dir` with the default
    /// capacity.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_capacity(dir, DEFAULT_CAPACITY_BYTES)
    }

    /// Opens (creating if needed) a store at `dir` bounded to
    /// `capacity_bytes` of entry data. `0` means unbounded.
    ///
    /// Leftover temp files from a crashed writer are reaped on the
    /// directory's first open in this process.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn with_capacity(dir: impl AsRef<Path>, capacity_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Reap temp files a crashed writer may have left behind, on
        // the directory's first open in this process only: a later
        // open would delete the in-flight temp and quarantine files of
        // the handles already live on it. The lock is held across the
        // reap, so no handle on the directory is live until it ends.
        let mut reaped = REAPED.lock().expect("reaped set poisoned");
        if reaped.insert(fs::canonicalize(&dir)?) {
            for entry in fs::read_dir(&dir)?.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        drop(reaped);
        Ok(Self {
            dir,
            capacity_bytes,
            hits: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            recency: Mutex::new(Recency::default()),
        })
    }

    /// Lifetime counters of this handle.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently on disk.
    ///
    /// # Errors
    ///
    /// Any I/O error listing the directory.
    pub fn len(&self) -> io::Result<usize> {
        Ok(self.entries()?.len())
    }

    /// Whether the store holds no entries.
    ///
    /// # Errors
    ///
    /// Any I/O error listing the directory.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.entries()?.is_empty())
    }

    /// Whether an entry exists under `fp` (without validating it).
    #[must_use]
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.entry_path(fp).exists()
    }

    /// Looks up `fp`, validating and decoding the entry.
    ///
    /// Counts a hit, a miss, or a corrupt entry (corrupt entries are
    /// removed so the next `put` repairs the store). Never panics on
    /// damaged input and never returns a result whose bytes did not
    /// checksum.
    ///
    /// The corrupt path is safe under concurrent readers and writers
    /// sharing the directory: the damaged file is *renamed aside* (an
    /// atomic move to a `.tmp-` quarantine name) and re-validated
    /// there before being discarded. A plain `remove_file` would race
    /// a concurrent repair — reader A caches corrupt bytes, reader B
    /// deletes, re-searches and atomically renames a healthy entry
    /// into place, then A's delete destroys B's repair. With the
    /// quarantine protocol, whatever the rename captured is inspected:
    /// if it turned out healthy (A stole a fresh repair), it is moved
    /// straight back and served as a hit; only bytes that are *still*
    /// corrupt are dropped.
    pub fn get(&self, fp: Fingerprint) -> Lookup {
        let path = self.entry_path(fp);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // NotFound and transient read errors are both plain
                // misses: nothing usable exists under this address.
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
        };
        match parse_entry(&bytes) {
            Ok(result) => {
                self.touch(fp);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Box::new(result))
            }
            Err(kind) => match self.quarantine_corrupt(fp, &path) {
                Some(repaired) => {
                    // Between our read and the quarantine rename a
                    // concurrent repair replaced the entry; we captured
                    // (and restored) the healthy replacement.
                    self.touch(fp);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Lookup::Hit(repaired)
                }
                None => {
                    self.recency.lock().expect("recency lock").seq.remove(&fp);
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    Lookup::Corrupt(kind)
                }
            },
        }
    }

    /// Records that a caller served the entry under `fp` from its own
    /// in-memory copy of an earlier [`ScheduleStore::get`] hit: counts
    /// a hit (and a memory hit) and refreshes the entry's LRU recency
    /// exactly as a disk hit does, so the entries served most are the
    /// last the capacity pass evicts. Touches no file.
    pub fn note_memory_hit(&self, fp: Fingerprint) {
        self.touch(fp);
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.memory_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Atomically moves the entry at `path` to a unique quarantine
    /// name and re-validates the captured bytes. Returns the decoded
    /// result — restored into place — when the captured file was
    /// healthy (we raced a concurrent repair), `None` when it was
    /// genuinely corrupt (quarantine deleted) or already gone.
    fn quarantine_corrupt(&self, fp: Fingerprint, path: &Path) -> Option<Box<LayerSearchResult>> {
        static QUARANTINE_SEQ: AtomicU64 = AtomicU64::new(0);
        // The ".tmp-" prefix keeps leftovers (a crash between rename
        // and the verdict below) reapable by the next open().
        let quarantine = self.dir.join(format!(
            ".tmp-q-{}-{}-{}",
            fp.hex(),
            std::process::id(),
            QUARANTINE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::rename(path, &quarantine).is_err() {
            // Already removed or quarantined by a concurrent reader.
            return None;
        }
        let captured = fs::read(&quarantine).ok();
        match captured.and_then(|b| parse_entry(&b).ok()) {
            Some(result) => {
                // We captured a healthy entry: put it back. If a yet
                // newer repair landed meanwhile, rename replaces it
                // with an equally valid copy; on failure the decoded
                // result is still served and a later put re-repairs.
                if fs::rename(&quarantine, path).is_err() {
                    let _ = fs::remove_file(&quarantine);
                }
                Some(Box::new(result))
            }
            None => {
                let _ = fs::remove_file(&quarantine);
                None
            }
        }
    }

    /// Inserts `result` under `fp` if no entry exists yet; returns
    /// whether a new entry was written.
    ///
    /// The stored copy zeroes the four store counters in
    /// `result.stats` — they describe *this* process's store traffic,
    /// not the search — so a warm-started result is byte-identical to
    /// the cold one. The write is atomic (temp file + fsync + rename)
    /// and is followed by an LRU eviction pass when the store exceeds
    /// its capacity.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the entry.
    pub fn put(&self, fp: Fingerprint, result: &LayerSearchResult) -> io::Result<bool> {
        let path = self.entry_path(fp);
        if path.exists() {
            self.touch(fp);
            return Ok(false);
        }
        let mut stored = result.clone();
        stored.stats.store_hits = 0;
        stored.stats.store_misses = 0;
        stored.stats.store_evictions = 0;
        stored.stats.store_corrupt = 0;
        let payload = encode_layer_result(&stored);

        let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        file_bytes.extend_from_slice(&MAGIC);
        file_bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file_bytes.extend_from_slice(&fnv1a_64(&payload).to_le_bytes());
        file_bytes.extend_from_slice(&payload);

        // A per-process sequence keeps concurrent puts of one
        // fingerprint (two threads, or two handles) off each other's
        // temp file.
        static PUT_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            fp.hex(),
            std::process::id(),
            PUT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&file_bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.touch(fp);
        self.evict_to_capacity()?;
        Ok(true)
    }

    /// A validated snapshot of the store's contents, sorted by
    /// fingerprint, for replication and anti-entropy diffing.
    ///
    /// Only healthy entries are advertised: quarantine files
    /// (`.tmp-q-*`) and in-flight temp writes (`.tmp-*`) are skipped
    /// by name, and any `.fxs` file whose header, checksum or payload
    /// fails validation at snapshot time — e.g. an entry being
    /// corrupted concurrently — is silently omitted rather than
    /// offered to peers. The corrupt entry is left in place for the
    /// normal [`ScheduleStore::get`] quarantine path to repair; a
    /// manifest pass is read-only.
    ///
    /// # Errors
    ///
    /// Any I/O error listing the directory.
    pub fn manifest(&self) -> io::Result<Vec<ManifestEntry>> {
        let mut out = Vec::new();
        for (stem, path, _, _) in self.entries()? {
            // Defense in depth: entries() filters on the `.fxs`
            // extension, which no temp/quarantine name carries, but a
            // manifest must never advertise an in-flight or
            // quarantined file even if that invariant drifts.
            if stem.starts_with(".tmp-") {
                continue;
            }
            let Some(fp) = Fingerprint::from_hex(&stem) else {
                continue;
            };
            let Ok(bytes) = fs::read(&path) else { continue };
            if parse_entry(&bytes).is_err() {
                continue;
            }
            let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
            out.push(ManifestEntry {
                fingerprint: fp,
                len: bytes.len() as u64,
                checksum,
            });
        }
        out.sort();
        Ok(out)
    }

    /// The full wire bytes (header + payload) of the entry under `fp`,
    /// re-validated before export so damage is never replicated.
    /// Returns `None` when the entry is missing or fails validation.
    ///
    /// # Errors
    ///
    /// This method never returns `Err` today; the `io::Result` wrapper
    /// keeps room for directory-level failures.
    pub fn export(&self, fp: Fingerprint) -> io::Result<Option<Vec<u8>>> {
        let Ok(bytes) = fs::read(self.entry_path(fp)) else {
            return Ok(None);
        };
        if parse_entry(&bytes).is_err() {
            return Ok(None);
        }
        Ok(Some(bytes))
    }

    /// Ingests entry-file bytes exported from a peer store under `fp`.
    ///
    /// The bytes are re-validated through the exact pipeline a disk
    /// read uses — magic, version, length, checksum, payload decode —
    /// so a corrupt or malicious replica can never plant a damaged
    /// entry: invalid bytes are rejected (and counted under the
    /// corrupt counter) without touching the local store. Valid bytes
    /// are re-encoded through [`ScheduleStore::put`], which re-zeroes
    /// the stats' store counters and preserves the atomic
    /// write-then-rename and LRU eviction discipline. Because the
    /// payload encoding is canonical, the re-encoded file is
    /// byte-identical to a healthy peer's.
    ///
    /// Ingest does not count a hit or a miss: replication traffic must
    /// not skew serving counters.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the entry.
    pub fn ingest(&self, fp: Fingerprint, bytes: &[u8]) -> io::Result<Ingest> {
        match parse_entry(bytes) {
            Ok(result) => Ok(if self.put(fp, &result)? {
                Ingest::Stored
            } else {
                Ingest::Exists
            }),
            Err(kind) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                Ok(Ingest::Rejected(kind))
            }
        }
    }

    /// Durably flushes the store: fsyncs the directory so completed
    /// renames survive power loss. Entry contents are already synced
    /// by [`ScheduleStore::put`].
    ///
    /// # Errors
    ///
    /// Any I/O error syncing the directory.
    pub fn flush(&self) -> io::Result<()> {
        fs::File::open(&self.dir)?.sync_all()
    }

    fn entry_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.{EXT}", fp.hex()))
    }

    fn touch(&self, fp: Fingerprint) {
        let mut r = self.recency.lock().expect("recency lock");
        r.next += 1;
        let seq = r.next;
        r.seq.insert(fp, seq);
    }

    /// `(stem, path, size, mtime nanos)` of every entry file.
    fn entries(&self) -> io::Result<Vec<(String, PathBuf, u64, u128)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)?.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()).map(str::to_owned) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            out.push((stem, path, meta.len(), mtime));
        }
        Ok(out)
    }

    /// Deletes least-recently-used entries until the store fits its
    /// capacity. Entries this process never touched order before all
    /// touched ones, oldest modification time first.
    fn evict_to_capacity(&self) -> io::Result<()> {
        if self.capacity_bytes == 0 {
            return Ok(());
        }
        let mut entries = self.entries()?;
        let mut total: u64 = entries.iter().map(|(_, _, size, _)| size).sum();
        if total <= self.capacity_bytes {
            return Ok(());
        }
        let recency = self.recency.lock().expect("recency lock");
        // Sort key: known entries by in-process recency, unknown ones
        // before them by mtime.
        entries.sort_by_key(|(stem, _, _, mtime)| {
            match Fingerprint::from_hex(stem).and_then(|fp| recency.seq.get(&fp)) {
                Some(&seq) => (1u8, u128::from(seq)),
                None => (0u8, *mtime),
            }
        });
        drop(recency);
        for (stem, path, size, _) in entries {
            if total <= self.capacity_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(size);
                if let Some(fp) = Fingerprint::from_hex(&stem) {
                    self.recency.lock().expect("recency lock").seq.remove(&fp);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

/// Validates and decodes one entry file.
fn parse_entry(bytes: &[u8]) -> Result<LayerSearchResult, CorruptKind> {
    if bytes.len() < HEADER_LEN {
        return Err(CorruptKind::TruncatedHeader);
    }
    if bytes[0..4] != MAGIC {
        return Err(CorruptKind::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CorruptKind::VersionMismatch { found: version });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(CorruptKind::LengthMismatch {
            header: payload_len,
            actual: payload.len() as u64,
        });
    }
    let actual = fnv1a_64(payload);
    if actual != checksum {
        return Err(CorruptKind::ChecksumMismatch {
            header: checksum,
            actual,
        });
    }
    decode_layer_result(payload).map_err(CorruptKind::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of_key_bytes;
    use flexer_arch::{ArchConfig, ArchPreset};
    use flexer_model::ConvLayer;
    use flexer_sched::{search_layer, SearchOptions};
    use std::sync::atomic::AtomicU32;

    static DIR_ID: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fxs-test-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_result() -> LayerSearchResult {
        let layer = ConvLayer::new("t", 32, 14, 14, 32).unwrap();
        let arch = ArchConfig::preset(ArchPreset::Arch1);
        let mut opts = SearchOptions::quick();
        opts.threads = 1;
        search_layer(&layer, &arch, &opts).unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let dir = scratch_dir("roundtrip");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"k1");
        assert!(matches!(store.get(fp), Lookup::Miss));
        let result = sample_result();
        assert!(store.put(fp, &result).unwrap());
        assert!(store.contains(fp));
        assert_eq!(store.len().unwrap(), 1);
        let Lookup::Hit(warm) = store.get(fp) else {
            panic!("expected hit");
        };
        assert_eq!(warm.schedule, result.schedule);
        assert_eq!(warm.score.to_bits(), result.score.to_bits());
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.corrupt), (1, 1, 0));
        store.flush().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_put_is_a_noop() {
        let dir = scratch_dir("noop");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"k1");
        let result = sample_result();
        assert!(store.put(fp, &result).unwrap());
        assert!(!store.put(fp, &result).unwrap(), "existing entry kept");
        assert_eq!(store.len().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_entries_survive_reopen() {
        let dir = scratch_dir("reopen");
        let fp = fingerprint_of_key_bytes(b"k1");
        let result = sample_result();
        {
            let store = ScheduleStore::open(&dir).unwrap();
            store.put(fp, &result).unwrap();
            store.flush().unwrap();
        }
        let store = ScheduleStore::open(&dir).unwrap();
        let Lookup::Hit(warm) = store.get(fp) else {
            panic!("expected hit after reopen");
        };
        assert_eq!(warm.schedule, result.schedule);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_store_counters_are_zeroed() {
        let dir = scratch_dir("zeroed");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"k1");
        let mut result = sample_result();
        result.stats.store_hits = 42;
        result.stats.store_misses = 7;
        store.put(fp, &result).unwrap();
        let Lookup::Hit(warm) = store.get(fp) else {
            panic!("expected hit");
        };
        assert_eq!(warm.stats.store_hits, 0);
        assert_eq!(warm.stats.store_misses, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_with_retired_seed_counters_still_hit() {
        // Entries written before solver seeding was removed carry its
        // three counters in the stats' trailing slots. They must still
        // hit with the same winner, locally and through a peer push.
        let dir = scratch_dir("retired");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"k1");
        let result = sample_result();
        assert!(result.is_exact());
        store.put(fp, &result).unwrap();
        let path = store.entry_path(fp);
        let fresh = fs::read(&path).unwrap();
        // The payload ends with the three slots, then the one-byte
        // exact outcome tag.
        assert_eq!(fresh.last(), Some(&0));
        let slots = fresh.len() - 25..fresh.len() - 1;
        assert!(fresh[slots.clone()].iter().all(|&b| b == 0));
        let mut seeded = fresh.clone();
        for (i, slot) in seeded[slots].chunks_mut(8).enumerate() {
            slot.copy_from_slice(&(1000 + i as u64).to_le_bytes());
        }
        let checksum = fnv1a_64(&seeded[HEADER_LEN..]);
        seeded[16..24].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &seeded).unwrap();

        let Lookup::Hit(warm) = store.get(fp) else {
            panic!("an entry with seed counters must still hit");
        };
        assert_eq!(warm.schedule, result.schedule);
        assert_eq!(
            encode_layer_result(&warm),
            fresh[HEADER_LEN..],
            "a fresh encoding writes zeros in the retired slots"
        );
        let peer_dir = scratch_dir("retired-peer");
        let peer = ScheduleStore::open(&peer_dir).unwrap();
        assert_eq!(peer.ingest(fp, &seeded).unwrap(), Ingest::Stored);
        assert_eq!(peer.export(fp).unwrap(), Some(fresh));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&peer_dir).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_size_and_keeps_recent() {
        let dir = scratch_dir("lru");
        let result = sample_result();
        let entry_bytes = (HEADER_LEN + encode_layer_result(&result).len()) as u64;
        // Room for two entries, not three.
        let store = ScheduleStore::with_capacity(&dir, entry_bytes * 2).unwrap();
        let fps: Vec<Fingerprint> = (0..3u8).map(|i| fingerprint_of_key_bytes(&[i])).collect();
        store.put(fps[0], &result).unwrap();
        store.put(fps[1], &result).unwrap();
        // Touch fps[0] so fps[1] is the LRU victim.
        assert!(matches!(store.get(fps[0]), Lookup::Hit(_)));
        store.put(fps[2], &result).unwrap();
        assert_eq!(store.counters().evictions, 1);
        assert!(store.contains(fps[0]), "recently used entry kept");
        assert!(!store.contains(fps[1]), "LRU entry evicted");
        assert!(store.contains(fps[2]), "new entry kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_hits_count_as_hits_and_refresh_recency() {
        let dir = scratch_dir("memory-hit");
        let result = sample_result();
        let entry_bytes = (HEADER_LEN + encode_layer_result(&result).len()) as u64;
        let store = ScheduleStore::with_capacity(&dir, entry_bytes * 2).unwrap();
        let fps: Vec<Fingerprint> = (0..3u8).map(|i| fingerprint_of_key_bytes(&[i])).collect();
        store.put(fps[0], &result).unwrap();
        store.put(fps[1], &result).unwrap();
        // Served from a caller's copy: fps[1] becomes the LRU victim.
        store.note_memory_hit(fps[0]);
        store.put(fps[2], &result).unwrap();
        assert!(store.contains(fps[0]), "memory-served entry kept");
        assert!(!store.contains(fps[1]), "LRU entry evicted");
        let c = store.counters();
        assert_eq!((c.hits, c.memory_hits, c.misses), (1, 1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let dir = scratch_dir("unbounded");
        let store = ScheduleStore::with_capacity(&dir, 0).unwrap();
        let result = sample_result();
        for i in 0..4u8 {
            store.put(fingerprint_of_key_bytes(&[i]), &result).unwrap();
        }
        assert_eq!(store.len().unwrap(), 4);
        assert_eq!(store.counters().evictions, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_temp_files_are_reaped_on_open() {
        let dir = scratch_dir("reap");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".tmp-deadbeef-1"), b"torn").unwrap();
        let store = ScheduleStore::open(&dir).unwrap();
        assert!(!dir.join(".tmp-deadbeef-1").exists());
        assert_eq!(store.len().unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_lists_valid_entries_and_skips_damage() {
        let dir = scratch_dir("manifest");
        let store = ScheduleStore::open(&dir).unwrap();
        let result = sample_result();
        let fps: Vec<Fingerprint> = (0..3u8).map(|i| fingerprint_of_key_bytes(&[i])).collect();
        for &fp in &fps {
            store.put(fp, &result).unwrap();
        }
        // Plant damage a manifest must never advertise: an in-flight
        // temp write, a quarantine file, and a torn entry.
        fs::write(dir.join(".tmp-deadbeef-9"), b"in flight").unwrap();
        fs::write(dir.join(format!(".tmp-q-{}-9-0", fps[0].hex())), b"q").unwrap();
        let torn = fingerprint_of_key_bytes(b"torn");
        fs::write(store.entry_path(torn), b"FXS1 torn").unwrap();
        let manifest = store.manifest().unwrap();
        let mut want: Vec<String> = fps.iter().map(Fingerprint::hex).collect();
        want.sort();
        let got: Vec<String> = manifest.iter().map(|e| e.fingerprint.hex()).collect();
        assert_eq!(got, want, "exactly the healthy entries, sorted");
        for e in &manifest {
            let bytes = fs::read(store.entry_path(e.fingerprint)).unwrap();
            assert_eq!(e.len, bytes.len() as u64);
            assert_eq!(
                e.checksum,
                u64::from_le_bytes(bytes[16..24].try_into().unwrap())
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_ingest_replicates_byte_identically() {
        let a_dir = scratch_dir("export-a");
        let b_dir = scratch_dir("export-b");
        let a = ScheduleStore::open(&a_dir).unwrap();
        let b = ScheduleStore::open(&b_dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"replicate");
        a.put(fp, &sample_result()).unwrap();
        let bytes = a.export(fp).unwrap().expect("valid entry exports");
        assert_eq!(b.ingest(fp, &bytes).unwrap(), Ingest::Stored);
        assert_eq!(b.ingest(fp, &bytes).unwrap(), Ingest::Exists);
        assert_eq!(
            fs::read(a.entry_path(fp)).unwrap(),
            fs::read(b.entry_path(fp)).unwrap(),
            "replicated entry file is byte-identical"
        );
        // Replication must not skew serving counters.
        let c = b.counters();
        assert_eq!((c.hits, c.misses, c.corrupt), (0, 0, 0));
        let Lookup::Hit(warm) = b.get(fp) else {
            panic!("expected hit on replica");
        };
        assert_eq!(warm.stats.store_hits, 0, "stored counters stay zeroed");
        assert_eq!(a.manifest().unwrap(), b.manifest().unwrap());
        fs::remove_dir_all(&a_dir).unwrap();
        fs::remove_dir_all(&b_dir).unwrap();
    }

    #[test]
    fn ingest_rejects_damaged_bytes_without_touching_store() {
        let dir = scratch_dir("ingest-reject");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"damaged");
        let src = scratch_dir("ingest-src");
        let source = ScheduleStore::open(&src).unwrap();
        source.put(fp, &sample_result()).unwrap();
        let mut bytes = source.export(fp).unwrap().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        match store.ingest(fp, &bytes).unwrap() {
            Ingest::Rejected(CorruptKind::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        assert!(!store.contains(fp), "rejected bytes never land on disk");
        assert_eq!(store.counters().corrupt, 1);
        assert_eq!(
            store.ingest(fp, b"FX").unwrap(),
            Ingest::Rejected(CorruptKind::TruncatedHeader)
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&src).unwrap();
    }

    #[test]
    fn export_refuses_corrupt_entries() {
        let dir = scratch_dir("export-corrupt");
        let store = ScheduleStore::open(&dir).unwrap();
        let fp = fingerprint_of_key_bytes(b"sick");
        store.put(fp, &sample_result()).unwrap();
        let path = store.entry_path(fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.export(fp).unwrap(), None, "damage is not replicated");
        assert_eq!(
            store.export(fingerprint_of_key_bytes(b"absent")).unwrap(),
            None
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_entry_files_are_ignored() {
        let dir = scratch_dir("ignore");
        let store = ScheduleStore::open(&dir).unwrap();
        fs::write(dir.join("README.txt"), b"not an entry").unwrap();
        assert_eq!(store.len().unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
