//! Persistent, cross-process store: one content-addressed on-disk format
//! for every cache that outlives a process.
//!
//! Each client of the store defines a [`Namespace`] of its own — a
//! `static` naming its directory's environment variable, its file
//! extension, its header tag and its obs metric prefix — and hands the
//! store an opaque byte payload that it encodes and validates itself. The
//! workspace has two: compiled task traces (`mesh_cyclesim::trace`) and
//! memoized evaluation results (`mesh_bench::memo`).
//!
//! Every namespace shares everything below the payload:
//!
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
//!   complete file is all a concurrent reader can ever observe. Writers
//!   are not coordinated: racing processes may compute one key twice, and
//!   each renames identical bytes over the other. That is waste, never a
//!   hazard.
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
//! read is already far cheaper than the work it replaces. Loads, misses,
//! publishes, quarantines and evictions mirror into obs counters under the
//! namespace's prefix (`<prefix>.hits`, `.misses`, `.publishes`,
//! `.quarantined`, `.gc_removed`, and the `.load_ns` span).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
type ConfigCell = Mutex<Option<Option<Arc<Store>>>>;

/// One key space of the store, defined as a `static` by the module that
/// owns its payload. Each namespace has its own directory, configuration
/// and counters; all share the on-disk format.
pub struct Namespace {
    tag: u32,
    env: &'static str,
    extension: &'static str,
    obs_prefix: &'static str,
    config: ConfigCell,
    counters: [AtomicU64; STATS],
}

// Names the namespace by its variable only: the config cell holds a `Store`
// that points back here.
impl std::fmt::Debug for Namespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.env)
    }
}

impl Namespace {
    /// A namespace whose header tag is `tag` (distinct per namespace),
    /// whose directory is named by the environment variable `env`, whose
    /// entries are `<key>.<extension>` files, and whose obs metrics are
    /// named `<obs_prefix>.<stat>`.
    pub const fn new(
        tag: u32,
        env: &'static str,
        extension: &'static str,
        obs_prefix: &'static str,
    ) -> Namespace {
        Namespace {
            tag,
            env,
            extension,
            obs_prefix,
            config: Mutex::new(None),
            counters: [const { AtomicU64::new(0) }; STATS],
        }
    }

    /// This namespace's store (resolving its environment variable on first
    /// use), or `None` when the namespace is disabled.
    pub fn configured(&'static self) -> Option<Arc<Store>> {
        let mut cell = self.config.lock().expect("store config poisoned");
        if cell.is_none() {
            *cell = Some(self.open_from_env());
        }
        cell.as_ref().expect("just resolved").clone()
    }

    fn open_from_env(&'static self) -> Option<Arc<Store>> {
        let dir = std::env::var_os(self.env)?;
        if dir.is_empty() {
            return None;
        }
        Store::open(self, Path::new(&dir), budget_from_env())
    }

    /// Points this namespace at `dir` (created if needed) for the rest of
    /// the process, overriding its environment variable; `None` disables
    /// it.
    pub fn configure(&'static self, dir: Option<&Path>) {
        self.configure_budgeted(dir, budget_from_env());
    }

    /// [`configure`](Namespace::configure) with an explicit byte budget.
    pub(crate) fn configure_budgeted(&'static self, dir: Option<&Path>, budget: u64) {
        let resolved = dir.and_then(|d| Store::open(self, d, budget));
        *self.config.lock().expect("store config poisoned") = Some(resolved);
    }

    /// Snapshot of this namespace's counters since process start. All
    /// zeros when it has never been enabled.
    pub fn stats(&self) -> StoreStats {
        let get = |stat: Stat| self.counters[stat as usize].load(Ordering::Relaxed);
        StoreStats {
            hits: get(Stat::Hits),
            misses: get(Stat::Misses),
            publishes: get(Stat::Publishes),
            quarantined: get(Stat::Quarantined),
            gc_removed: get(Stat::GcRemoved),
        }
    }

    fn bump(&self, stat: Stat) {
        self.counters[stat as usize].fetch_add(1, Ordering::Relaxed);
        if mesh_obs::enabled() {
            mesh_obs::counter(&format!("{}.{}", self.obs_prefix, stat.name())).inc();
        }
    }
}

/// One configured store directory of one namespace.
#[derive(Debug)]
pub struct Store {
    ns: &'static Namespace,
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

#[derive(Clone, Copy)]
enum Stat {
    Hits,
    Misses,
    Publishes,
    Quarantined,
    GcRemoved,
}

const STATS: usize = 5;

impl Stat {
    fn name(self) -> &'static str {
        match self {
            Stat::Hits => "hits",
            Stat::Misses => "misses",
            Stat::Publishes => "publishes",
            Stat::Quarantined => "quarantined",
            Stat::GcRemoved => "gc_removed",
        }
    }
}

/// Counters of one store namespace since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads served from a valid on-disk entry.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written and renamed into place.
    pub publishes: u64,
    /// Corrupt entries renamed aside.
    pub quarantined: u64,
    /// Entries evicted by the size-budget GC.
    pub gc_removed: u64,
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

/// Checks the header of `bytes` against namespace `tag` and `key` and
/// returns the checksummed payload.
fn payload(tag: u32, key: u128, bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let header = bytes.get(..HEADER_LEN).ok_or(DecodeError::Corrupt)?;
    if header[..4] != MAGIC {
        return Err(DecodeError::Corrupt);
    }
    let le4 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let le8 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    if le4(&header[4..8]) != FORMAT_VERSION {
        return Err(DecodeError::WrongVersion);
    }
    if le4(&header[8..12]) != tag
        || u128::from_le_bytes(header[12..28].try_into().expect("16 bytes")) != key
    {
        return Err(DecodeError::Corrupt);
    }
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

impl Store {
    /// Opens (creating if needed) a store directory for namespace `ns`.
    /// `None`, with a warning on stderr, when the directory is unusable.
    fn open(ns: &'static Namespace, dir: &Path, budget: u64) -> Option<Arc<Store>> {
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

    /// Whether an entry file for `key` exists. Existence only — a corrupt
    /// file is quarantined by its first actual reader — so a pre-warming
    /// parent can skip published entries without reading them.
    pub(crate) fn contains(&self, key: u128) -> bool {
        self.entry_path(key).exists()
    }

    /// Loads the entry for `key`, handing its checked payload to `decode`.
    /// Returns `None` on a miss; an entry that fails its checks, or whose
    /// payload `decode` rejects, is quarantined first.
    pub fn load<T>(&self, key: u128, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let path = self.entry_path(key);
        let Ok(bytes) = fs::read(&path) else {
            self.ns.bump(Stat::Misses);
            return None;
        };
        let _span =
            mesh_obs::enabled().then(|| mesh_obs::span(&format!("{}.load_ns", self.ns.obs_prefix)));
        let decoded =
            payload(self.ns.tag, key, &bytes).and_then(|p| decode(p).ok_or(DecodeError::Corrupt));
        match decoded {
            Ok(value) => {
                self.ns.bump(Stat::Hits);
                Some(value)
            }
            Err(e) => {
                if e == DecodeError::Corrupt {
                    // Keep the bad file for post-mortems, out of the lookup
                    // path.
                    if fs::rename(&path, self.quarantine_path(key)).is_err() {
                        let _ = fs::remove_file(&path);
                    }
                    self.ns.bump(Stat::Quarantined);
                }
                self.ns.bump(Stat::Misses);
                None
            }
        }
    }

    /// Publishes `payload` under `key` (write to a temp file, rename into
    /// place). Returns whether the entry was published; failure (full
    /// disk, permissions) is never an error — publication is an
    /// optimization, not a correctness requirement.
    pub fn publish(&self, key: u128, payload: &[u8]) -> bool {
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
        self.ns.bump(Stat::Publishes);
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
                self.ns.bump(Stat::GcRemoved);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    // Two namespaces shaped like the workspace's traces and results.
    static TRACES: Namespace = Namespace::new(1, "STORE_TEST_TRACES", "trace", "test.traces");
    static RESULTS: Namespace = Namespace::new(2, "STORE_TEST_RESULTS", "res", "test.results");

    fn temp_store(ns: &'static Namespace, tag: &str) -> Arc<Store> {
        let dir =
            std::env::temp_dir().join(format!("mesh-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(ns, &dir, DEFAULT_STORE_BYTES).expect("create temp store")
    }

    fn bytes_of(p: &[u8]) -> Option<Vec<u8>> {
        Some(p.to_vec())
    }

    fn both() -> [&'static Namespace; 2] {
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
            let parsed = store.load(98, |p| std::str::from_utf8(p).ok()?.parse::<u64>().ok());
            assert_eq!(parsed, None);
            assert!(store.quarantine_path(98).exists());
            // Recomputing re-publishes a valid entry.
            assert!(store.publish(99, b"0123456789abcdef"));
            assert_eq!(store.load(99, bytes_of), Some(b"0123456789abcdef".to_vec()));
            let _ = fs::remove_dir_all(&store.dir);
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
