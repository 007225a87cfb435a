//! End-to-end identity checks for the caching tiers: a comparison point
//! must produce the same simulated numbers with the trace store off, cold,
//! and warm; a result-memo replay must reproduce the populating point
//! *exactly* (recorded wall clocks included); a planner-driven sweep's
//! stdout must be byte-identical across {sub-memo cold, sub-memo warm,
//! sharded}; and distinct hybrid knob settings must never collide within a
//! sub-evaluation fingerprint domain.
//!
//! The in-process leg test mutates process-global cache configuration, so
//! its legs run in sequence inside one test function; the stdout legs spawn
//! the `subeval_demo` binary, so each gets a pristine process.

use mesh_annotate::AnnotationPolicy;
use mesh_bench::{compare, fft_machine, memo, ComparisonPoint, HybridOptions};
use mesh_workloads::fft::{self, FftConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::process::Command;

/// The simulation-determined fields — everything except the two measured
/// wall clocks, which legitimately differ run to run. Floats are compared
/// as bit patterns: the caches must be bit-exact, not merely close.
fn deterministic_fields(p: &ComparisonPoint) -> [u64; 9] {
    [
        p.iss_pct.to_bits(),
        p.mesh_pct.to_bits(),
        p.analytical_pct.to_bits(),
        p.iss_cycles,
        p.mesh_cycles.to_bits(),
        p.mesh_regions,
        p.mesh_slices,
        p.work_cycles,
        p.misses,
    ]
}

fn point() -> ComparisonPoint {
    let workload = fft::build(&FftConfig::with_threads(2));
    let machine = fft_machine(2, 8 * 1024, 4);
    compare(&workload, &machine, HybridOptions::default())
}

#[test]
fn results_identical_across_cache_configurations() {
    let unique = format!("mesh-cache-identity-{}", std::process::id());
    let store_dir = std::env::temp_dir().join(format!("{unique}-store"));
    let memo_dir = std::env::temp_dir().join(format!("{unique}-memo"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&memo_dir);

    // Leg 1: no store, no memo — the plain in-process baseline. The
    // results memory tier is cleared so this process actually simulates.
    mesh_cyclesim::set_store(None, None);
    memo::set_result_cache(None);
    mesh_cyclesim::trace::clear_cache();
    memo::clear_subeval_lru();
    let baseline = point();
    assert!(!baseline.replayed, "cold compare is not a replay");

    // Leg 2: cold store — first process to see the workload compiles and
    // publishes.
    mesh_cyclesim::set_store(Some(&store_dir), None);
    mesh_cyclesim::trace::clear_cache();
    memo::clear_subeval_lru();
    let before = mesh_cyclesim::store_stats();
    let cold = point();
    let after_cold = mesh_cyclesim::store_stats();
    assert!(
        after_cold.publishes > before.publishes,
        "cold run must publish traces: {before:?} -> {after_cold:?}"
    );
    assert_eq!(
        deterministic_fields(&cold),
        deterministic_fields(&baseline),
        "cold-store run diverged from the storeless baseline"
    );

    // Leg 3: warm store — a fresh process (simulated by dropping the
    // in-memory caches) loads the published traces instead of compiling.
    mesh_cyclesim::trace::clear_cache();
    memo::clear_subeval_lru();
    let warm = point();
    let after_warm = mesh_cyclesim::store_stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "warm run must load from the store: {after_cold:?} -> {after_warm:?}"
    );
    assert_eq!(
        deterministic_fields(&warm),
        deterministic_fields(&baseline),
        "warm-store run diverged from the storeless baseline"
    );

    // Leg 4: result memo — the populating run computes and stores its
    // sub-evaluations, the replay must be the recorded point verbatim, wall
    // clocks included.
    memo::set_result_cache(Some(&memo_dir));
    memo::clear_subeval_lru();
    let populate = point();
    assert!(!populate.replayed, "populating run computed its legs");
    memo::clear_subeval_lru();
    let hits_before = memo::stats().hits;
    let replay = point();
    assert!(
        memo::stats().hits > hits_before,
        "second memo run must hit the persistent result cache"
    );
    assert!(replay.replayed, "disk replay carries the provenance flag");
    assert_eq!(replay, populate, "memo replay must be the recorded point");
    assert_eq!(
        replay.iss_wall, populate.iss_wall,
        "replayed wall clocks are the recorded ones"
    );
    assert_eq!(replay.mesh_wall, populate.mesh_wall);
    assert_eq!(
        deterministic_fields(&populate),
        deterministic_fields(&baseline),
        "memoized run diverged from the storeless baseline"
    );

    // Leg 5: memory tier — left warm, it serves the point without touching
    // disk.
    let lru_before = memo::stats().lru_hits;
    let lru = point();
    assert!(
        memo::stats().lru_hits > lru_before,
        "warm-LRU run must hit the in-process tier"
    );
    assert!(lru.replayed);
    assert_eq!(lru, populate, "LRU replay must be the recorded point");

    memo::set_result_cache(None);
    mesh_cyclesim::set_store(None, None);
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&memo_dir);
}

const DEMO_EXE: &str = env!("CARGO_BIN_EXE_subeval_demo");

/// Cache/fabric variables that must not leak into the spawned legs.
const SCRUB: &[&str] = &[
    "MESH_RESULT_CACHE",
    "MESH_TRACE_STORE",
    "MESH_BENCH_SHARDS",
    "MESH_BENCH_CHECKPOINT",
    "MESH_BENCH_PROGRESS",
    "MESH_OBS",
    "MESH_OBS_OUT",
    "MESH_OBS_TRACE",
];

fn demo_stdout(envs: &[(&str, String)]) -> String {
    let mut cmd = Command::new(DEMO_EXE);
    for var in SCRUB {
        cmd.env_remove(var);
    }
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let out = cmd.output().expect("spawning subeval_demo must work");
    assert!(out.status.success(), "subeval_demo failed: {out:?}");
    String::from_utf8(out.stdout).expect("subeval_demo stdout is UTF-8")
}

/// The tentpole invariant, end to end: the same sweep's stdout — wall-clock
/// columns included — is byte-identical whether the sub-evaluation memo is
/// cold or warm, and whether the sweep runs in-process or sharded across
/// worker processes. The first (cold) leg records the timings; every warm
/// leg replays them exactly.
#[test]
fn sweep_stdout_byte_identical_across_memo_and_sharding() {
    let memo_dir = std::env::temp_dir().join(format!(
        "mesh-cache-identity-stdout-{}-memo",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&memo_dir);
    let memo_env = ("MESH_RESULT_CACHE", memo_dir.display().to_string());

    // Leg 1: sub-memo cold — populates the shared cache.
    let cold = demo_stdout(std::slice::from_ref(&memo_env));

    // Leg 2: memo warm.
    let warm = demo_stdout(std::slice::from_ref(&memo_env));
    assert_eq!(warm, cold, "memo-warm replay diverged");

    // Leg 3: sharded across two worker processes, memo warm.
    let sharded = demo_stdout(&[memo_env.clone(), ("MESH_BENCH_SHARDS", "2".into())]);
    assert_eq!(sharded, cold, "sharded run diverged");

    assert!(
        cold.contains("min_ts"),
        "demo printed its table header: {cold}"
    );

    let _ = std::fs::remove_dir_all(&memo_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sub-evaluation fingerprints for distinct (policy, min_timeslice)
    /// knob settings never collide within the hybrid domain, and the
    /// reference domain never collides with the hybrid domain on the same
    /// scenario.
    #[test]
    fn hybrid_subeval_fingerprints_never_collide(
        raw_timeslices in proptest::collection::vec(0u64..1_000_000, 1..8),
        seg in 1usize..64,
    ) {
        let timeslices: HashSet<u64> = raw_timeslices.into_iter().collect();
        let workload = fft::build(&FftConfig {
            points: 1024,
            threads: 2,
            ..FftConfig::default()
        });
        let machine = fft_machine(2, 8 * 1024, 4);
        let policies = [
            AnnotationPolicy::AtBarriers,
            AnnotationPolicy::PerSegment,
            AnnotationPolicy::EverySegments(seg),
        ];
        let mut seen: HashSet<u128> = HashSet::new();
        for policy in policies {
            for &ts in &timeslices {
                let fp = mesh_bench::hybrid_subeval_fp(
                    &workload,
                    &machine,
                    HybridOptions { policy, min_timeslice: ts as f64 },
                );
                prop_assert!(
                    seen.insert(fp),
                    "fingerprint collision at policy {policy:?} ts {ts}"
                );
            }
        }
        // Cross-domain: the reference key never aliases a hybrid key.
        prop_assert!(
            !seen.contains(&mesh_bench::iss_reference_fp(&workload, &machine)),
            "reference domain collided with hybrid domain"
        );
    }

    /// Distinct contention-model identities (name or digest) produce
    /// distinct fingerprints under an otherwise identical scenario chain.
    #[test]
    fn model_identity_separates_fingerprints(
        ia in 0usize..4,
        ib in 0usize..4,
        da in 0u64..1000,
        db in 0u64..1000,
    ) {
        const NAMES: [&str; 4] = ["chen-lin-bus", "fair-share", "priority-noc", "mm1-bus"];
        let (a, b) = (NAMES[ia], NAMES[ib]);
        if a == b && da == db {
            return; // identical identities legitimately collide
        }
        let fp = |name: &str, digest: u64| {
            memo::ScenarioFp::new("subeval-hybrid")
                .wide(0xFEED)
                .text(name)
                .words(&[digest])
                .finish()
        };
        prop_assert_ne!(fp(a, da), fp(b, db));
    }
}
