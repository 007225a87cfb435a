//! Scenario-fingerprint → result memoization.
//!
//! Where the trace store amortizes *compilation*, this module amortizes
//! whole evaluations: an experiment point whose complete scenario —
//! workload content, machine timing, contention model and parameters,
//! hybrid knobs, adversary mode — fingerprints identically to an earlier
//! evaluation is answered without entering either simulator. Values are
//! served from a sharded in-process LRU and, with `MESH_RESULT_CACHE=<dir>`
//! set, from the results namespace of the persistent store
//! ([`mesh_cyclesim::store`]), which supplies the on-disk format,
//! checksums, atomic publication, quarantine and GC.
//!
//! **Keys.** A [`ScenarioFp`] is a 128-bit FNV-1a fold seeded with a format
//! version and a domain tag (e.g. `"compare"`), extended with the trace
//! layer's [`workload_fingerprint`](mesh_cyclesim::workload_fingerprint)
//! (everything that determines the micro-event streams), the machine's
//! [`digest_words`](mesh_arch::MachineConfig::digest_words), the model's
//! name and [`digest_words`](mesh_core::model::ContentionModel::digest_words),
//! and every knob the evaluation reads. Anything that can change a result
//! must be folded in; the version constant is bumped whenever evaluation
//! semantics change, so stale caches read as misses rather than serving
//! outdated results.
//!
//! **Values** travel as their [`Checkpointable`] encoding (the same
//! lossless token format the sweep checkpoints use — floats travel as bit
//! patterns, so a memoized result is *byte-identical* to the computed one).

use crate::checkpoint::Checkpointable;
use mesh_cyclesim::store::Namespace;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Environment variable enabling the persistent result cache: a directory
/// path (created if absent). Unset or empty disables it.
pub const RESULT_CACHE_ENV: &str = "MESH_RESULT_CACHE";

/// The store namespace of memoized results: `<key>.res` entries whose
/// payload is the value's checkpoint-token string, obs counters
/// `bench.result_cache.*`.
static RESULTS: Namespace = Namespace::new(2, RESULT_CACHE_ENV, "res", "bench.result_cache");

/// Capacity (entries) of the in-process sub-evaluation LRU.
const SUBEVAL_LRU_ENTRIES: usize = 4096;

/// Bumped whenever the meaning of a memoized value changes (new estimator
/// semantics, changed percentage definitions, …): entries written by other
/// versions read as misses.
const MEMO_VERSION: u64 = 1;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

// ---------------------------------------------------------------------------
// Scenario fingerprints.
// ---------------------------------------------------------------------------

/// A 128-bit scenario fingerprint under construction. Builder-style: fold
/// in every input the evaluation depends on, then [`finish`](ScenarioFp::finish).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioFp(u128);

impl ScenarioFp {
    /// Starts a fingerprint for one evaluation domain (e.g. `"compare"`,
    /// `"envelope"`). Distinct domains never collide even on identical
    /// scenarios — they memoize different value types.
    pub fn new(domain: &str) -> ScenarioFp {
        ScenarioFp(FNV128_OFFSET).word(MEMO_VERSION).text(domain)
    }

    fn byte(mut self, b: u8) -> ScenarioFp {
        self.0 ^= u128::from(b);
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
        self
    }

    /// Folds in one 64-bit word (counts, discriminants, float bit
    /// patterns).
    #[must_use]
    pub fn word(mut self, w: u64) -> ScenarioFp {
        for b in w.to_le_bytes() {
            self = self.byte(b);
        }
        self
    }

    /// Folds in a 128-bit word (nested fingerprints such as
    /// [`mesh_cyclesim::workload_fingerprint`]).
    #[must_use]
    pub fn wide(mut self, w: u128) -> ScenarioFp {
        for b in w.to_le_bytes() {
            self = self.byte(b);
        }
        self
    }

    /// Folds in a word sequence, length-prefixed so adjacent variable-width
    /// sequences cannot alias each other.
    #[must_use]
    pub fn words(mut self, ws: &[u64]) -> ScenarioFp {
        self = self.word(ws.len() as u64);
        for &w in ws {
            self = self.word(w);
        }
        self
    }

    /// Folds in a string, length-prefixed.
    #[must_use]
    pub fn text(mut self, s: &str) -> ScenarioFp {
        self = self.word(s.len() as u64);
        for b in s.bytes() {
            self = self.byte(b);
        }
        self
    }

    /// The finished 128-bit fingerprint.
    pub fn finish(self) -> u128 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Points the persistent result cache at `dir` (created if needed) for the
/// rest of the process, overriding [`RESULT_CACHE_ENV`]; `None` disables
/// it. Used by perfsuite's memo-hit section and tests.
pub fn set_result_cache(dir: Option<&Path>) {
    RESULTS.configure(dir);
}

/// Whether the persistent result cache is active (via [`RESULT_CACHE_ENV`]
/// or [`set_result_cache`]).
pub fn enabled() -> bool {
    RESULTS.configured().is_some()
}

// ---------------------------------------------------------------------------
// In-process sub-evaluation LRU.
// ---------------------------------------------------------------------------

const LRU_SHARD_COUNT: usize = 16;

struct LruShard {
    /// fp → (last-touch stamp, encoded value).
    entries: HashMap<u128, (u64, String)>,
    clock: u64,
}

fn lru_shards() -> &'static [Mutex<LruShard>; LRU_SHARD_COUNT] {
    static SHARDS: OnceLock<[Mutex<LruShard>; LRU_SHARD_COUNT]> = OnceLock::new();
    SHARDS.get_or_init(|| {
        std::array::from_fn(|_| {
            Mutex::new(LruShard {
                entries: HashMap::new(),
                clock: 0,
            })
        })
    })
}

/// Drops every entry of the in-process sub-evaluation LRU. Used to stage
/// cold-start measurements.
pub fn clear_subeval_lru() {
    for shard in lru_shards() {
        let mut shard = shard.lock().expect("subeval LRU poisoned");
        shard.entries.clear();
        shard.clock = 0;
    }
}

fn lru_shard_index(fp: u128) -> usize {
    // The fingerprint is already a well-mixed FNV fold; the low bits shard.
    (fp as usize) % LRU_SHARD_COUNT
}

fn lru_get<V: Checkpointable>(fp: u128) -> Option<V> {
    let mut shard = lru_shards()[lru_shard_index(fp)]
        .lock()
        .expect("subeval LRU poisoned");
    shard.clock += 1;
    let stamp = shard.clock;
    let entry = shard.entries.get_mut(&fp)?;
    entry.0 = stamp;
    let decoded = V::decode(&entry.1);
    if decoded.is_none() {
        // A decode failure means the slot was populated under a different
        // value type; drop it rather than serving it again.
        shard.entries.remove(&fp);
    }
    decoded
}

fn lru_put(fp: u128, encoded: String) {
    let per_shard = SUBEVAL_LRU_ENTRIES / LRU_SHARD_COUNT;
    let mut shard = lru_shards()[lru_shard_index(fp)]
        .lock()
        .expect("subeval LRU poisoned");
    shard.clock += 1;
    let stamp = shard.clock;
    if shard.entries.len() >= per_shard && !shard.entries.contains_key(&fp) {
        if let Some((&oldest, _)) = shard.entries.iter().min_by_key(|(_, (s, _))| *s) {
            shard.entries.remove(&oldest);
        }
    }
    shard.entries.insert(fp, (stamp, encoded));
}

// ---------------------------------------------------------------------------
// Single-flight: concurrent callers of one fingerprint compute once.
// ---------------------------------------------------------------------------

type Gate = Arc<Mutex<()>>;

fn inflight() -> &'static Mutex<HashMap<u128, Gate>> {
    static CELL: OnceLock<Mutex<HashMap<u128, Gate>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(HashMap::new()))
}

fn inflight_gate(fp: u128) -> Gate {
    let mut map = inflight().lock().unwrap_or_else(PoisonError::into_inner);
    map.entry(fp).or_default().clone()
}

/// Retires `fp`'s gate from the in-flight map when dropped — on return
/// *and* on unwind, so a panicking computation never leaves its gate
/// behind for later callers. A gate some newer flight already replaced is
/// left alone.
struct Retire<'g> {
    fp: u128,
    gate: &'g Gate,
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let mut map = inflight().lock().unwrap_or_else(PoisonError::into_inner);
        if map.get(&self.fp).is_some_and(|g| Arc::ptr_eq(g, self.gate)) {
            map.remove(&self.fp);
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

static MISSES: AtomicU64 = AtomicU64::new(0);
static LRU_HITS: AtomicU64 = AtomicU64::new(0);

/// Counters of result memoization since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Evaluations answered from a valid persistent entry.
    pub hits: u64,
    /// Lookups that found no cached value and computed it.
    pub misses: u64,
    /// Freshly computed values published to the persistent cache.
    pub stores: u64,
    /// Corrupt persistent entries renamed aside and recomputed.
    pub quarantined: u64,
    /// Sub-evaluations answered from the in-process LRU without touching
    /// disk.
    pub lru_hits: u64,
}

/// Snapshot of the result cache's counters.
pub fn stats() -> ResultCacheStats {
    let disk = RESULTS.stats();
    ResultCacheStats {
        hits: disk.hits,
        misses: MISSES.load(Ordering::Relaxed),
        stores: disk.publishes,
        quarantined: disk.quarantined,
        lru_hits: LRU_HITS.load(Ordering::Relaxed),
    }
}

/// Notes one memoized replay in the flight recorder (`a` = the low 64
/// fingerprint bits, `b` = 1 for an LRU hit, 0 for a disk hit), so a
/// postmortem shows which results near the failure were served from cache
/// rather than computed.
fn flightrec_replay(fp: u128, lru: bool) {
    if mesh_obs::flightrec::enabled() {
        mesh_obs::flightrec::event(
            mesh_obs::flightrec::EventKind::MemoReplay,
            if lru { "lru" } else { "disk" },
            fp as u64,
            u64::from(lru),
        );
    }
}

fn lru_hit<V: Checkpointable>(fp: u128) -> Option<V> {
    let v = lru_get::<V>(fp)?;
    LRU_HITS.fetch_add(1, Ordering::Relaxed);
    if mesh_obs::enabled() {
        mesh_obs::counter("bench.subeval.lru_hits").inc();
    }
    flightrec_replay(fp, true);
    Some(v)
}

/// Returns the memoized value for `fp`, or computes it with `f`, layered
/// over the in-process sub-evaluation LRU and — when enabled — the
/// persistent result cache. The second element is `true` when the value
/// was served from either cache rather than computed. The encoding
/// round-trips losslessly ([`Checkpointable`] floats travel as bit
/// patterns), so a cache hit is byte-identical to a fresh computation.
///
/// Concurrent callers of one fingerprint are single-flighted — losers block
/// on the winner's computation and then read it from the cache — so a
/// parallel sweep whose points share a sub-evaluation computes it exactly
/// once per process. If the winner's `f` panics, the losers compute the
/// value themselves and later calls start afresh.
pub fn memoize_flagged<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> (V, bool) {
    if let Some(v) = lru_hit(fp) {
        return (v, true);
    }
    let gate = inflight_gate(fp);
    let _retire = Retire { fp, gate: &gate };
    // A panicking winner poisons the gate; the value it guards is `()`, so
    // the poison carries no broken state and losers simply proceed.
    let _held = gate.lock().unwrap_or_else(PoisonError::into_inner);
    // A loser arriving here finds the winner's freshly published value.
    if let Some(v) = lru_hit(fp) {
        return (v, true);
    }
    let disk = RESULTS.configured();
    if let Some(v) = disk
        .as_ref()
        .and_then(|d| d.load(fp, |payload| V::decode(std::str::from_utf8(payload).ok()?)))
    {
        flightrec_replay(fp, false);
        lru_put(fp, v.encode());
        return (v, true);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let value = f();
    let encoded = value.encode();
    if let Some(d) = &disk {
        d.publish(fp, encoded.as_bytes());
    }
    lru_put(fp, encoded);
    (value, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_every_ingredient() {
        let base = ScenarioFp::new("compare").word(1).text("chen-lin").finish();
        assert_eq!(
            base,
            ScenarioFp::new("compare").word(1).text("chen-lin").finish(),
            "fingerprints are deterministic"
        );
        assert_ne!(
            base,
            ScenarioFp::new("envelope")
                .word(1)
                .text("chen-lin")
                .finish()
        );
        assert_ne!(
            base,
            ScenarioFp::new("compare").word(2).text("chen-lin").finish()
        );
        assert_ne!(
            base,
            ScenarioFp::new("compare").word(1).text("mm1").finish()
        );
        // Length prefixing: shifting a byte between adjacent fields moves
        // the boundary but must not alias.
        assert_ne!(
            ScenarioFp::new("x").text("ab").text("c").finish(),
            ScenarioFp::new("x").text("a").text("bc").finish()
        );
        assert_ne!(
            ScenarioFp::new("x").words(&[1, 2]).words(&[]).finish(),
            ScenarioFp::new("x").words(&[1]).words(&[2]).finish()
        );
    }

    #[test]
    fn a_panicking_computation_does_not_poison_its_fingerprint() {
        let fp = ScenarioFp::new("memo-test-panic").finish();
        let panicked = std::panic::catch_unwind(|| {
            memoize_flagged::<u64>(fp, || panic!("sub-evaluation failed"))
        });
        assert!(panicked.is_err());
        assert_eq!(memoize_flagged(fp, || 7u64), (7, false), "recomputed");
        assert_eq!(memoize_flagged(fp, || 8u64), (7, true), "then cached");
    }
}
