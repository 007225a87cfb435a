//! Content-addressed, cross-process cache: one lookup path and one on-disk
//! format for every value worth keeping beyond one computation.
//!
//! Each client defines a [`Namespace`] `static` of its own (value type,
//! directory variable, file extension, header tag, obs prefix, memory
//! budget) and resolves values through one call,
//! [`Namespace::get_or_compute`]: memory tier, then directory, then the
//! caller's computation, whose result fills both. Payloads are opaque bytes
//! the client encodes and validates. The workspace has two namespaces:
//! compiled task traces (`mesh_cyclesim::trace`) and memoized evaluation
//! results (`mesh_bench::memo`).
//!
//! * **Memory tier.** Each namespace keeps an in-process LRU map from key
//!   to value, bounded by a budget in the value type's own cost units
//!   (steps for traces, entries for results). A value costlier than the
//!   whole budget is returned but not retained. Concurrent lookups of one
//!   key are single-flighted: one caller loads or computes it while the
//!   others wait and then read it from memory, so a process resolves each
//!   key once. A panicking computation still lands its flight; the
//!   waiters then resolve the key themselves.
//! * **Content addressing.** An entry lives at `<dir>/<key>.<ext>`, where
//!   `key` is a 128-bit fingerprint of everything that determines the
//!   payload. Identical inputs resolve to identical files no matter which
//!   process, binary or sweep produced them.
//! * **One header.** Each file is a fixed 44-byte header — magic `MTRS`,
//!   format version, namespace tag, key, payload length, FNV-1a 64 payload
//!   checksum — followed by the payload. A file from another format
//!   version reads as a miss and is left in place (old and new binaries
//!   can share a directory; the next publish replaces it). Anything else
//!   that fails to check — bad magic, foreign namespace or key, short
//!   payload, checksum, or a payload the caller's decoder rejects — is
//!   corruption: the file is renamed to `<key>.quarantined` and the value
//!   recomputed. A reader never panics on, and never returns, corrupt
//!   data.
//! * **Atomic publication.** A writer serializes to a unique
//!   `.tmp-<pid>-<seq>-<key>` sibling and `rename`s it into place, so a
//!   complete file is all a concurrent reader can ever observe. Writers in
//!   different processes are not coordinated: they may compute one key
//!   twice, and each renames identical bytes over the other. That is
//!   waste, never a hazard.
//! * **Size-budgeted GC.** Each directory is bounded by
//!   `MESH_TRACE_STORE_BYTES` (default 2 GiB). A process scans a directory
//!   at its first publish there and again after each further sixteenth of
//!   that budget it publishes, so small, frequent publishes never pay a
//!   directory walk each. A scan evicts oldest-modified entries of the
//!   namespace until the directory fits, and removes temp files that dead
//!   processes left behind.
//!
//! Reads go through the ordinary buffered page cache (`fs::read`) — the
//! crate-wide `forbid(unsafe_code)` rules out `mmap`, and a warm page-cache
//! read is already far cheaper than the work it replaces. Every tier
//! mirrors into obs counters under the namespace's prefix: `<prefix>.hits`,
//! `.misses`, `.publishes`, `.quarantined` and `.gc_removed` for the
//! directory (with the `.load_ns` span), `.memory_hits` and `.evictions`
//! for the memory tier, and `.computes` for the caller's computations.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

/// Environment variable bounding each store directory's entry bytes
/// (default 2 GiB). Oldest-modified entries are evicted beyond it.
pub const STORE_BYTES_ENV: &str = "MESH_TRACE_STORE_BYTES";

const MAGIC: [u8; 4] = *b"MTRS";
/// Bump on any change to this container or to a payload encoding:
/// version-mismatched files read as misses (they are never quarantined).
/// Version 2: super-step fusion (idle spans fold into the step record).
/// Version 3: one header for every namespace (namespace tag, payload
/// length in bytes).
const FORMAT_VERSION: u32 = 3;
/// magic (4) + version (4) + namespace (4) + key (16) + payload length (8)
/// + payload checksum (8).
const HEADER_LEN: usize = 44;
const DEFAULT_STORE_BYTES: u64 = 2 << 30;
/// A process scans a directory at its first publish there and again after
/// publishing each further `budget / GC_SLICES` bytes into it. Between
/// scans the directory overshoots its budget by at most one slice per
/// process that has published into it since the last scan.
const GC_SLICES: u64 = 16;
/// Temp files older than this belong to a process that died mid-publish.
const STALE_TMP: Duration = Duration::from_secs(60);

/// `None` = not resolved yet; `Some(None)` = disabled; `Some(Some(_))` = on.
type ConfigCell<T> = Mutex<Option<Option<Arc<Store<T>>>>>;

/// A value a [`Namespace`] holds: what its memory tier retains and its
/// directory stores.
pub trait Value: Clone + Send + Sync + 'static {
    /// The value's weight against the namespace's memory budget.
    fn cost(&self) -> usize;
    /// The value's store payload, or `None` for a value that is never
    /// published (a negative entry).
    fn payload(&self) -> Option<Vec<u8>>;
}

/// Where [`Namespace::get_or_compute`] found its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The namespace's memory tier.
    Memory,
    /// A valid entry of the namespace's directory.
    Disk,
    /// The caller's computation.
    Computed,
}

/// One key space of the store, defined as a `static` by the module that
/// owns its values. Each namespace has its own memory tier, directory,
/// configuration and counters; all share the on-disk format.
pub struct Namespace<T: 'static> {
    tag: u32,
    env: &'static str,
    extension: &'static str,
    obs_prefix: &'static str,
    /// Memory-tier budget, in the values' cost units.
    budget: usize,
    config: ConfigCell<T>,
    memory: Mutex<Memory<T>>,
    /// Signalled whenever a flight lands.
    landed: Condvar,
    counters: [AtomicU64; STAT_NAMES.len()],
}

/// The memory tier of one namespace.
struct Memory<T> {
    /// key → (last-use stamp, value).
    entries: BTreeMap<u128, (u64, T)>,
    clock: u64,
    /// Summed cost of the retained values.
    resident: usize,
    /// Keys some caller is loading or computing right now.
    flights: BTreeSet<u128>,
}

impl<T: Value> Memory<T> {
    fn get(&mut self, key: u128) -> Option<T> {
        let (stamp, value) = self.entries.get_mut(&key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(value.clone())
    }

    /// Inserts (or replaces) `key`, evicting least-recently-used entries
    /// until the resident cost fits `budget`; returns how many it evicted.
    /// A value costlier than the whole budget is not retained.
    fn insert(&mut self, key: u128, value: T, budget: usize) -> u64 {
        if let Some((_, old)) = self.entries.remove(&key) {
            self.resident -= old.cost();
        }
        let cost = value.cost();
        if cost > budget {
            return 0;
        }
        let mut evicted = 0;
        while self.resident + cost > budget {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, (stamp, _))| *stamp)
            else {
                break;
            };
            let (_, old) = self.entries.remove(&oldest).expect("just found");
            self.resident -= old.cost();
            evicted += 1;
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, value));
        self.resident += cost;
        evicted
    }
}

/// A key's flight: lands when dropped — on return *and* on unwind, so a
/// panicking computation never strands the callers waiting for it.
struct Flight<T: 'static> {
    ns: &'static Namespace<T>,
    key: u128,
}

impl<T: 'static> Drop for Flight<T> {
    fn drop(&mut self) {
        let mut memory = self
            .ns
            .memory
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        memory.flights.remove(&self.key);
        self.ns.landed.notify_all();
    }
}

impl<T: Value> Namespace<T> {
    /// A namespace whose header tag is `tag` (distinct per namespace),
    /// whose directory is named by the environment variable `env`, whose
    /// entries are `<key>.<extension>` files, whose obs metrics are named
    /// `<obs_prefix>.<stat>`, and whose memory tier retains values of at
    /// most `budget` summed [`Value::cost`].
    pub const fn new(
        tag: u32,
        env: &'static str,
        extension: &'static str,
        obs_prefix: &'static str,
        budget: usize,
    ) -> Namespace<T> {
        Namespace {
            tag,
            env,
            extension,
            obs_prefix,
            budget,
            config: Mutex::new(None),
            memory: Mutex::new(Memory {
                entries: BTreeMap::new(),
                clock: 0,
                resident: 0,
                flights: BTreeSet::new(),
            }),
            landed: Condvar::new(),
            counters: [const { AtomicU64::new(0) }; STAT_NAMES.len()],
        }
    }

    /// The value of `key`: from the memory tier, else from the directory
    /// (its checked payload handed to `decode`; `None` rejects it as
    /// corrupt), else `compute()`, published to the directory when one is
    /// configured. Loaded and computed values are retained in memory.
    /// Concurrent callers of one key are single-flighted: they wait for the
    /// first and read its value from memory. If the first panics (or its
    /// value is too costly to retain), the next resolves the key itself.
    pub fn get_or_compute(
        &'static self,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        compute: impl FnOnce() -> T,
    ) -> (T, Origin) {
        let mut memory = self.memory();
        let _flight = loop {
            if let Some(value) = memory.get(key) {
                drop(memory);
                self.bump(Stat::MemoryHits, 1);
                return (value, Origin::Memory);
            }
            if memory.flights.insert(key) {
                break Flight { ns: self, key };
            }
            // Another caller is resolving the key: wait for it to land,
            // then look again.
            memory = self
                .landed
                .wait(memory)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(memory);
        let store = self.configured();
        if let Some(value) = store.as_ref().and_then(|s| s.load(key, decode)) {
            self.retain(key, &value);
            return (value, Origin::Disk);
        }
        self.bump(Stat::Computes, 1);
        let value = compute();
        if let Some(store) = store {
            if let Some(payload) = value.payload() {
                store.publish(key, &payload);
            }
        }
        self.retain(key, &value);
        (value, Origin::Computed)
    }

    /// Publishes `compute()` under `key` unless the directory already holds
    /// an entry of this format version for it, without reading or filling
    /// the memory tier. A no-op when the namespace has no directory.
    pub fn ensure_published(&'static self, key: u128, compute: impl FnOnce() -> T) {
        let Some(store) = self.configured() else {
            return;
        };
        if store.contains(key) {
            return;
        }
        self.bump(Stat::Computes, 1);
        if let Some(payload) = compute().payload() {
            store.publish(key, &payload);
        }
    }

    /// Drops every value of the memory tier (the counters are kept).
    pub fn clear_memory(&self) {
        let mut memory = self.memory();
        memory.entries.clear();
        memory.resident = 0;
    }

    fn memory(&self) -> MutexGuard<'_, Memory<T>> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn retain(&self, key: u128, value: &T) {
        let evicted = self.memory().insert(key, value.clone(), self.budget);
        self.bump(Stat::Evictions, evicted);
    }

    /// Whether the namespace has a directory (via its environment variable
    /// or [`configure`](Namespace::configure)).
    pub fn enabled(&'static self) -> bool {
        self.configured().is_some()
    }

    /// This namespace's store (resolving its environment variable on first
    /// use), or `None` when it has no directory.
    fn configured(&'static self) -> Option<Arc<Store<T>>> {
        let mut cell = self.config.lock().expect("store config poisoned");
        cell.get_or_insert_with(|| {
            let dir = std::env::var_os(self.env).filter(|d| !d.is_empty())?;
            Store::open(self, Path::new(&dir), budget_from_env())
        })
        .clone()
    }

    /// Points this namespace at `dir` (created if needed) for the rest of
    /// the process, overriding its environment variable; `None` disables
    /// its directory. The memory tier is unaffected.
    pub fn configure(&'static self, dir: Option<&Path>) {
        self.configure_budgeted(dir, budget_from_env());
    }

    /// [`configure`](Namespace::configure) with an explicit byte budget.
    pub(crate) fn configure_budgeted(&'static self, dir: Option<&Path>, budget: u64) {
        let resolved = dir.and_then(|d| Store::open(self, d, budget));
        *self.config.lock().expect("store config poisoned") = Some(resolved);
    }

    /// Snapshot of this namespace's counters since process start and of
    /// its memory tier now.
    pub fn stats(&self) -> StoreStats {
        let get = |stat: Stat| self.counters[stat as usize].load(Ordering::Relaxed);
        let memory = self.memory();
        StoreStats {
            hits: get(Stat::Hits),
            misses: get(Stat::Misses),
            publishes: get(Stat::Publishes),
            quarantined: get(Stat::Quarantined),
            gc_removed: get(Stat::GcRemoved),
            memory_hits: get(Stat::MemoryHits),
            computes: get(Stat::Computes),
            evictions: get(Stat::Evictions),
            entries: memory.entries.len(),
            resident: memory.resident,
        }
    }

    fn bump(&self, stat: Stat, n: u64) {
        if n == 0 {
            return;
        }
        self.counters[stat as usize].fetch_add(n, Ordering::Relaxed);
        if mesh_obs::enabled() {
            mesh_obs::counter(&format!(
                "{}.{}",
                self.obs_prefix, STAT_NAMES[stat as usize]
            ))
            .add(n);
        }
    }
}

/// One configured store directory of one namespace.
struct Store<T: 'static> {
    ns: &'static Namespace<T>,
    dir: PathBuf,
    budget: u64,
    /// Bytes this process published here since its last GC scan.
    unscanned: AtomicU64,
}

fn budget_from_env() -> u64 {
    match std::env::var(STORE_BYTES_ENV) {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "mesh-cyclesim: ignoring invalid {STORE_BYTES_ENV}={v:?} (want a positive integer)"
                );
                DEFAULT_STORE_BYTES
            }
        },
        Err(_) => DEFAULT_STORE_BYTES,
    }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// One counter of a namespace, named in obs by [`STAT_NAMES`].
#[derive(Clone, Copy)]
enum Stat {
    Hits,
    Misses,
    Publishes,
    Quarantined,
    GcRemoved,
    MemoryHits,
    Computes,
    Evictions,
}

const STAT_NAMES: [&str; 8] = [
    "hits",
    "misses",
    "publishes",
    "quarantined",
    "gc_removed",
    "memory_hits",
    "computes",
    "evictions",
];

/// Counters of one store namespace since process start, and its memory
/// tier's current size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads served from a valid on-disk entry.
    pub hits: u64,
    /// Directory lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written and renamed into place.
    pub publishes: u64,
    /// Corrupt entries renamed aside.
    pub quarantined: u64,
    /// Entries evicted by the size-budget GC.
    pub gc_removed: u64,
    /// Lookups served from the memory tier.
    pub memory_hits: u64,
    /// Values computed by callers (neither in memory nor on disk).
    pub computes: u64,
    /// Values evicted from the memory tier to stay within its budget.
    pub evictions: u64,
    /// Values the memory tier holds now.
    pub entries: usize,
    /// Summed cost of the values the memory tier holds now.
    pub resident: usize,
}

// ---------------------------------------------------------------------------
// Format.
// ---------------------------------------------------------------------------

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn encode(tag: u32, key: u128, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every way bytes can fail to be a valid entry: a `WrongVersion` file is
/// a foreign-format miss (left in place), anything else is corruption
/// (quarantined).
#[derive(Debug, PartialEq, Eq)]
enum DecodeError {
    WrongVersion,
    Corrupt,
}

fn le4(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le8(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Checks a [`HEADER_LEN`]-byte header's magic, format version, namespace
/// `tag` and `key`.
fn check_header(tag: u32, key: u128, header: &[u8]) -> Result<(), DecodeError> {
    if header[..4] != MAGIC {
        return Err(DecodeError::Corrupt);
    }
    if le4(&header[4..8]) != FORMAT_VERSION {
        return Err(DecodeError::WrongVersion);
    }
    if le4(&header[8..12]) != tag
        || u128::from_le_bytes(header[12..28].try_into().expect("16 bytes")) != key
    {
        return Err(DecodeError::Corrupt);
    }
    Ok(())
}

/// Checks the header of `bytes` against namespace `tag` and `key` and
/// returns the checksummed payload.
fn payload(tag: u32, key: u128, bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let header = bytes.get(..HEADER_LEN).ok_or(DecodeError::Corrupt)?;
    check_header(tag, key, header)?;
    let payload = &bytes[HEADER_LEN..];
    if le8(&header[28..36]) != payload.len() as u64 || fnv64(payload) != le8(&header[36..44]) {
        return Err(DecodeError::Corrupt);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Load / publish / GC.
// ---------------------------------------------------------------------------

/// Disambiguates the temp files of concurrent publishes within a process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl<T: Value> Store<T> {
    /// Opens (creating if needed) a store directory for namespace `ns`.
    /// `None`, with a warning on stderr, when the directory is unusable.
    fn open(ns: &'static Namespace<T>, dir: &Path, budget: u64) -> Option<Arc<Store<T>>> {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!(
                "mesh-cyclesim: {} directory {} is unusable ({e}); disabled",
                ns.env,
                dir.display()
            );
            return None;
        }
        Some(Arc::new(Store {
            ns,
            dir: dir.to_path_buf(),
            budget,
            // A full slice pending: this process's first publish scans, so
            // even a short-lived process enforces the budget and sweeps the
            // temp files of dead publishers.
            unscanned: AtomicU64::new(budget / GC_SLICES),
        }))
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.{}", self.ns.extension))
    }

    fn quarantine_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.quarantined"))
    }

    /// Whether an entry for `key` of this format version and namespace is
    /// published. Only the header is read — a corrupt payload is
    /// quarantined by its first actual reader — so a pre-warming parent can
    /// skip published entries cheaply, yet still replaces entries an older
    /// format version left behind.
    fn contains(&self, key: u128) -> bool {
        let mut header = [0u8; HEADER_LEN];
        fs::File::open(self.entry_path(key))
            .and_then(|mut f| f.read_exact(&mut header))
            .is_ok()
            && check_header(self.ns.tag, key, &header).is_ok()
    }

    /// Loads the entry for `key`, handing its checked payload to `decode`.
    /// Returns `None` on a miss; an entry that fails its checks, or whose
    /// payload `decode` rejects, is quarantined first.
    fn load(&self, key: u128, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let path = self.entry_path(key);
        let Ok(bytes) = fs::read(&path) else {
            self.ns.bump(Stat::Misses, 1);
            return None;
        };
        let _span =
            mesh_obs::enabled().then(|| mesh_obs::span(&format!("{}.load_ns", self.ns.obs_prefix)));
        let decoded =
            payload(self.ns.tag, key, &bytes).and_then(|p| decode(p).ok_or(DecodeError::Corrupt));
        match decoded {
            Ok(value) => {
                self.ns.bump(Stat::Hits, 1);
                Some(value)
            }
            Err(e) => {
                if e == DecodeError::Corrupt {
                    // Keep the bad file for post-mortems, out of the lookup
                    // path.
                    if fs::rename(&path, self.quarantine_path(key)).is_err() {
                        let _ = fs::remove_file(&path);
                    }
                    self.ns.bump(Stat::Quarantined, 1);
                }
                self.ns.bump(Stat::Misses, 1);
                None
            }
        }
    }

    /// Publishes `payload` under `key` (write to a temp file, rename into
    /// place). Returns whether the entry was published; failure (full
    /// disk, permissions) is never an error — publication is an
    /// optimization, not a correctness requirement.
    fn publish(&self, key: u128, payload: &[u8]) -> bool {
        let bytes = encode(self.ns.tag, key, payload);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{key:032x}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.flush()
        })();
        if written.is_err() || fs::rename(&tmp, self.entry_path(key)).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        self.ns.bump(Stat::Publishes, 1);
        let len = bytes.len() as u64;
        let pending = self.unscanned.fetch_add(len, Ordering::Relaxed) + len;
        if pending >= self.budget / GC_SLICES {
            self.unscanned.store(0, Ordering::Relaxed);
            self.gc(key);
        }
        true
    }

    /// Evicts oldest-modified entries of this namespace (never the
    /// just-published `keep`) until the directory fits its byte budget,
    /// and sweeps temp files left behind by dead processes.
    fn gc(&self, keep: u128) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let suffix = format!(".{}", self.ns.extension);
        let now = SystemTime::now();
        let mut files: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(now);
            if name.starts_with(".tmp-") {
                if now.duration_since(mtime).unwrap_or_default() > STALE_TMP {
                    let _ = fs::remove_file(&path);
                }
            } else if name.ends_with(&suffix) {
                total += meta.len();
                files.push((path, meta.len(), mtime));
            }
        }
        if total <= self.budget {
            return;
        }
        let keep_path = self.entry_path(keep);
        files.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in files {
            if total <= self.budget {
                break;
            }
            if path == keep_path {
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                self.ns.bump(Stat::GcRemoved, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// A test value: its payload bytes, weighing one cost unit per byte.
    impl Value for Vec<u8> {
        fn cost(&self) -> usize {
            self.len()
        }

        fn payload(&self) -> Option<Vec<u8>> {
            Some(self.clone())
        }
    }

    // Two namespaces shaped like the workspace's traces (a budget of many
    // cost units, big values) and results (a budget of a few small ones).
    // Neither names a directory in the environment, so only the tests that
    // open one touch the disk.
    static TRACES: Namespace<Vec<u8>> =
        Namespace::new(1, "STORE_TEST_TRACES", "trace", "test.traces", 250);
    static RESULTS: Namespace<Vec<u8>> =
        Namespace::new(2, "STORE_TEST_RESULTS", "res", "test.results", 10);

    fn temp_store(ns: &'static Namespace<Vec<u8>>, tag: &str) -> Arc<Store<Vec<u8>>> {
        let dir =
            std::env::temp_dir().join(format!("mesh-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(ns, &dir, DEFAULT_STORE_BYTES).expect("create temp store")
    }

    fn bytes_of(p: &[u8]) -> Option<Vec<u8>> {
        Some(p.to_vec())
    }

    fn both() -> [&'static Namespace<Vec<u8>>; 2] {
        [&TRACES, &RESULTS]
    }

    fn arb_body() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..256)
    }

    fn arb_tag() -> impl Strategy<Value = u32> {
        prop_oneof![Just(TRACES.tag), Just(RESULTS.tag)]
    }

    proptest! {
        /// The payload survives encode → check unchanged, in both
        /// namespaces.
        #[test]
        fn round_trip_preserves_the_payload(
            tag in arb_tag(),
            body in arb_body(),
            hi in any::<u64>(),
            lo in any::<u64>(),
        ) {
            let key = (u128::from(hi) << 64) | u128::from(lo);
            let bytes = encode(tag, key, &body);
            prop_assert_eq!(payload(tag, key, &bytes), Ok(&body[..]));
        }

        /// Truncation at any point is corruption — never a panic, never a
        /// payload.
        #[test]
        fn truncation_is_detected(
            tag in arb_tag(),
            body in arb_body(),
            key in any::<u64>(),
            cut in 0.0f64..1.0,
        ) {
            let key = u128::from(key);
            let bytes = encode(tag, key, &body);
            let cut = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
            prop_assert!(payload(tag, key, &bytes[..cut]).is_err());
        }

        /// A flipped bit anywhere either fails the checks or (in the
        /// astronomically unlikely event of an FNV collision) still yields
        /// the original payload — wrong data is never returned.
        #[test]
        fn bit_flips_never_yield_wrong_data(
            tag in arb_tag(),
            body in arb_body(),
            key in any::<u64>(),
            pos in 0.0f64..1.0,
            bit in 0u32..8,
        ) {
            let key = u128::from(key);
            let mut bytes = encode(tag, key, &body);
            let pos = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
            bytes[pos] ^= 1u8 << bit;
            if let Ok(p) = payload(tag, key, &bytes) {
                prop_assert_eq!(p, &body[..]);
            }
        }
    }

    #[test]
    fn checks_reject_foreign_key_namespace_magic_and_version() {
        for (tag, other) in [(TRACES.tag, RESULTS.tag), (RESULTS.tag, TRACES.tag)] {
            let bytes = encode(tag, 42, b"payload");
            assert_eq!(payload(tag, 42, &bytes), Ok(&b"payload"[..]));
            assert_eq!(payload(tag, 43, &bytes), Err(DecodeError::Corrupt));
            assert_eq!(payload(other, 42, &bytes), Err(DecodeError::Corrupt));
            let mut bad_magic = bytes.clone();
            bad_magic[0] = b'X';
            assert_eq!(payload(tag, 42, &bad_magic), Err(DecodeError::Corrupt));
            let mut bad_version = bytes.clone();
            bad_version[4] ^= 0xFF;
            assert_eq!(
                payload(tag, 42, &bad_version),
                Err(DecodeError::WrongVersion)
            );
        }
    }

    #[test]
    fn wrong_version_reads_as_a_miss_and_is_replaced() {
        for ns in both() {
            let store = temp_store(ns, &format!("version-{}", ns.extension));
            let mut bytes = encode(ns.tag, 5, b"old");
            bytes[4..8].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
            fs::write(store.entry_path(5), &bytes).unwrap();
            assert_eq!(store.load(5, bytes_of), None, "other versions miss");
            assert!(store.entry_path(5).exists(), "and are left in place");
            assert!(!store.quarantine_path(5).exists(), "not quarantined");
            assert!(store.publish(5, b"new"));
            assert_eq!(store.load(5, bytes_of), Some(b"new".to_vec()));
            let _ = fs::remove_dir_all(&store.dir);
        }
    }

    #[test]
    fn corrupt_entries_are_quarantined() {
        for ns in both() {
            let store = temp_store(ns, &format!("quarantine-{}", ns.extension));
            assert!(store.publish(99, b"0123456789abcdef"));
            let path = store.entry_path(99);
            // Torn write: keep only the first half of the file.
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            let before = ns.stats().quarantined;
            assert_eq!(store.load(99, bytes_of), None, "torn entry misses");
            assert!(ns.stats().quarantined > before);
            assert!(store.quarantine_path(99).exists(), "bad file moved aside");
            assert!(!path.exists());
            // A payload the caller's decoder rejects is corruption too.
            assert!(store.publish(98, b"not a number"));
            let parsed = store.load(98, |p| {
                std::str::from_utf8(p).ok()?.parse::<u64>().ok()?;
                Some(p.to_vec())
            });
            assert_eq!(parsed, None);
            assert!(store.quarantine_path(98).exists());
            // Recomputing re-publishes a valid entry.
            assert!(store.publish(99, b"0123456789abcdef"));
            assert_eq!(store.load(99, bytes_of), Some(b"0123456789abcdef".to_vec()));
            let _ = fs::remove_dir_all(&store.dir);
        }
    }

    #[test]
    fn memory_tier_is_a_budgeted_lru() {
        // Both namespaces hold ten units of their own cost.
        for (ns, unit) in [(&TRACES, 25), (&RESULTS, 1)] {
            let get = |key: u128, units: usize| {
                ns.get_or_compute(key, |_| None, || vec![7u8; units * unit])
                    .1
            };
            let resident = || ns.stats().resident / unit;
            assert_eq!(get(1, 6), Origin::Computed);
            assert_eq!(get(2, 3), Origin::Computed);
            assert_eq!(resident(), 9);
            // Using key 1 leaves key 2 least recently used...
            assert_eq!(get(1, 6), Origin::Memory);
            // ...so making room for key 3 evicts key 2, not key 1.
            assert_eq!(get(3, 4), Origin::Computed);
            assert_eq!(resident(), 10);
            assert_eq!(get(1, 6), Origin::Memory);
            assert_eq!(get(2, 3), Origin::Computed, "evicted, so recomputed");
            assert_eq!(get(1, 6), Origin::Memory, "key 3 went instead");
            assert_eq!(resident(), 9);
            // A value costlier than the whole budget is returned, not
            // retained, and evicts nothing.
            assert_eq!(get(4, 11), Origin::Computed);
            assert_eq!(get(4, 11), Origin::Computed);
            assert_eq!(resident(), 9);
            // Re-inserting a key replaces it without double counting.
            ns.retain(2, &vec![7u8; unit]);
            assert_eq!(resident(), 7);
            assert_eq!((ns.stats().entries, ns.stats().evictions), (2, 2));
            ns.clear_memory();
            assert_eq!((ns.stats().entries, resident()), (0, 0));
        }
    }

    #[test]
    fn racing_publishers_leave_one_valid_entry() {
        let store = temp_store(&TRACES, "race");
        let computes = AtomicUsize::new(0);
        let body: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        if let Some(hit) = store.load(7, bytes_of) {
                            return hit;
                        }
                        computes.fetch_add(1, Ordering::Relaxed);
                        let value = body.clone();
                        store.publish(7, &value);
                        value
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(computes.load(Ordering::Relaxed) >= 1);
        for r in &results {
            assert_eq!(r, &body, "every racer gets identical data");
        }
        let names: Vec<String> = fs::read_dir(&store.dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![format!("{:032x}.trace", 7)],
            "one entry, no temp files"
        );
        assert_eq!(store.load(7, bytes_of), Some(body));
        let _ = fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn gc_enforces_byte_budget_oldest_first() {
        let dir = std::env::temp_dir().join(format!("mesh-store-test-{}-gc", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let body = [0u8; 64];
        let bytes_per = encode(TRACES.tag, 0, &body).len() as u64;
        let roomy = Store::open(&TRACES, &dir, u64::MAX).unwrap();
        for key in 0..4u128 {
            roomy.publish(key, &body);
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(Duration::from_millis(20));
        }
        // A result entry shares the directory but not the budget.
        let results = Store::open(&RESULTS, &dir, u64::MAX).unwrap();
        results.publish(0, &body);
        // Budget for two files: the next publish scans, the oldest go.
        let tight = Store::open(&TRACES, &dir, bytes_per * 2).unwrap();
        tight.publish(4, &body);
        let survivors: Vec<bool> = (0..5u128).map(|k| tight.contains(k)).collect();
        assert_eq!(
            survivors,
            vec![false, false, false, true, true],
            "oldest files evicted first, newest and just-published kept"
        );
        assert!(results.contains(0), "other namespaces are not counted");
        let _ = fs::remove_dir_all(&dir);
    }

    fn entry_bytes(dir: &Path, extension: &str) -> u64 {
        fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(extension))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn short_lived_processes_keep_the_directory_within_budget() {
        let dir = temp_store(&RESULTS, "gc-short").dir.clone();
        let body = [0u8; 64];
        let bytes_per = encode(RESULTS.tag, 0, &body).len() as u64;
        // Each entry is well under a GC slice of this budget.
        let budget = bytes_per * (GC_SLICES + 4);
        // A temp file a dead process left behind.
        let dead = dir.join(".tmp-dead");
        let f = fs::File::create(&dead).unwrap();
        f.set_modified(SystemTime::now() - 2 * STALE_TMP).unwrap();
        drop(f);
        // One fresh store per "process", each publishing a single entry.
        for key in 0..3 * (GC_SLICES as u128) {
            let store = Store::open(&RESULTS, &dir, budget).unwrap();
            store.publish(key, &body);
            assert!(!dead.exists(), "the first publish swept the dead temp file");
            assert!(
                entry_bytes(&dir, ".res") <= budget,
                "after {} short-lived publishers the directory holds {} > {budget} bytes",
                key + 1,
                entry_bytes(&dir, ".res")
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_scans_again_only_after_a_slice_of_the_budget() {
        let dir = temp_store(&RESULTS, "gc-slice").dir.clone();
        let body = [0u8; 64];
        let bytes_per = encode(RESULTS.tag, 0, &body).len() as u64;
        // After the first publish, a scan is due once four entries' worth
        // of bytes are published.
        let store = Store::open(&RESULTS, &dir, bytes_per * GC_SLICES * 4).unwrap();
        store.publish(0, &body);
        // A temp file a dead process left behind: only a scan removes it.
        let dead = dir.join(".tmp-dead");
        let f = fs::File::create(&dead).unwrap();
        f.set_modified(SystemTime::now() - 2 * STALE_TMP).unwrap();
        drop(f);
        for key in 1..4u128 {
            store.publish(key, &body);
        }
        assert!(dead.exists(), "no rescan before a slice of the budget");
        store.publish(4, &body);
        assert!(!dead.exists(), "the fourth publish after the first scanned");
        let _ = fs::remove_dir_all(&dir);
    }
}
