//! Scenario-fingerprint → result memoization.
//!
//! Where the trace namespace amortizes *compilation*, this module amortizes
//! whole evaluations: an experiment point whose complete scenario —
//! workload content, machine timing, contention model and parameters,
//! hybrid knobs, adversary mode — fingerprints identically to an earlier
//! evaluation is answered without entering either simulator. Values live
//! in the results namespace of the store ([`mesh_cyclesim::store`]): its
//! memory tier of 4096 entries, with per-fingerprint
//! single-flight, and — with `MESH_RESULT_CACHE=<dir>` set — its directory,
//! which supplies the on-disk format, checksums, atomic publication,
//! quarantine and GC.
//!
//! **Keys.** A [`ScenarioFp`] is a 128-bit FNV-1a fold
//! ([`mesh_cyclesim::Fnv128`]) seeded with a format version and a domain
//! tag (e.g. `"compare"`), extended with the trace layer's
//! [`workload_fingerprint`](mesh_cyclesim::workload_fingerprint)
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
use mesh_cyclesim::store::{Namespace, Origin, Value};
use mesh_cyclesim::Fnv128;
use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;

/// Environment variable enabling the persistent result cache: a directory
/// path (created if absent). Unset or empty disables it.
pub const RESULT_CACHE_ENV: &str = "MESH_RESULT_CACHE";

/// A memoized value in its checkpoint-token encoding.
#[derive(Clone)]
struct Encoded(Arc<str>);

impl Value for Encoded {
    fn cost(&self) -> usize {
        1
    }

    fn payload(&self) -> Option<Vec<u8>> {
        Some(self.0.as_bytes().to_vec())
    }
}

/// The store namespace of memoized results: `<key>.res` entries whose
/// payload is the value's checkpoint-token string, obs counters
/// `bench.result_cache.*`, and a memory tier of 4096 entries.
static RESULTS: Namespace<Encoded> =
    Namespace::new(2, RESULT_CACHE_ENV, "res", "bench.result_cache", 4096);

/// Bumped whenever the meaning of a memoized value changes (new estimator
/// semantics, changed percentage definitions, …): entries written by other
/// versions read as misses. Version 2: the hybrid sub-evaluation carries
/// the analytical estimate.
const MEMO_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// Scenario fingerprints.
// ---------------------------------------------------------------------------

/// A 128-bit scenario fingerprint under construction. Builder-style: fold
/// in every input the evaluation depends on, then [`finish`](ScenarioFp::finish).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioFp(Fnv128);

impl ScenarioFp {
    /// Starts a fingerprint for one evaluation domain (e.g. `"compare"`,
    /// `"envelope"`). Distinct domains never collide even on identical
    /// scenarios — they memoize different value types.
    pub fn new(domain: &str) -> ScenarioFp {
        ScenarioFp(Fnv128::default())
            .word(MEMO_VERSION)
            .text(domain)
    }

    /// Folds in one 64-bit word (counts, discriminants, float bit
    /// patterns).
    #[must_use]
    pub fn word(mut self, w: u64) -> ScenarioFp {
        self.0.write(&w.to_le_bytes());
        self
    }

    /// Folds in a 128-bit word (nested fingerprints such as
    /// [`mesh_cyclesim::workload_fingerprint`]).
    #[must_use]
    pub fn wide(mut self, w: u128) -> ScenarioFp {
        self.0.write(&w.to_le_bytes());
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
        self.0.write(s.as_bytes());
        self
    }

    /// The finished 128-bit fingerprint.
    pub fn finish(self) -> u128 {
        self.0.finish128()
    }
}

// ---------------------------------------------------------------------------
// Configuration and statistics.
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
    RESULTS.enabled()
}

/// Drops every value of the results namespace's memory tier. Used to
/// stage cold-start measurements.
pub fn clear_subeval_lru() {
    RESULTS.clear_memory();
}

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
    /// Evaluations answered from the memory tier without touching disk.
    pub lru_hits: u64,
}

/// Snapshot of the result cache's counters.
pub fn stats() -> ResultCacheStats {
    let s = RESULTS.stats();
    ResultCacheStats {
        hits: s.hits,
        misses: s.computes,
        stores: s.publishes,
        quarantined: s.quarantined,
        lru_hits: s.memory_hits,
    }
}

/// Returns the memoized value for `fp`, or computes it with `f`, through
/// the results namespace: its memory tier, then — when enabled — the
/// persistent result cache. The second element is `true` when the value
/// was served from either rather than computed. The encoding round-trips
/// losslessly ([`Checkpointable`] floats travel as bit patterns), so a
/// cache hit is byte-identical to a fresh computation.
///
/// Concurrent callers of one fingerprint are single-flighted — the others
/// wait for the first and then read its value from memory — so a parallel
/// sweep whose points share a sub-evaluation computes it exactly once per
/// process. If the first caller's `f` panics, the others compute the value
/// themselves and later calls start afresh.
pub fn memoize_flagged<V: Checkpointable>(fp: u128, f: impl FnOnce() -> V) -> (V, bool) {
    let (encoded, origin) = RESULTS.get_or_compute(
        fp,
        |payload| {
            let text = std::str::from_utf8(payload).ok()?;
            V::decode(text)?;
            Some(Encoded(text.into()))
        },
        || Encoded(f().encode().into()),
    );
    // Fingerprint domains keep value types apart, and a checked payload
    // decoded before it was retained, so this is `V`'s own encoding.
    let value = V::decode(&encoded.0).expect("memoized value decodes as its own type");
    if origin != Origin::Computed && mesh_obs::flightrec::enabled() {
        // Note the replay (`b` = 1 for a memory hit, 0 for a disk hit), so
        // a postmortem shows which results near a failure were served from
        // cache rather than computed.
        let memory = origin == Origin::Memory;
        mesh_obs::flightrec::event(
            mesh_obs::flightrec::EventKind::MemoReplay,
            if memory { "memory" } else { "disk" },
            fp as u64,
            u64::from(memory),
        );
    }
    (value, origin != Origin::Computed)
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
    fn fingerprints_are_pinned() {
        // FNV-1a 128 over le64(MEMO_VERSION = 2), le64(7) "compare", le64(1),
        // le64(8) "chen-lin": a change here silently orphans every
        // persistent result cache.
        assert_eq!(
            ScenarioFp::new("compare").word(1).text("chen-lin").finish(),
            0x9b53_ca1c_ab34_2a76_dc0f_dd3f_692e_9640
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
