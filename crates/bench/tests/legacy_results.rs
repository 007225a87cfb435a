//! A result cache directory written by the retired text format
//! (`mesh-result v1` header line, then the value tokens) must read as a
//! miss: the stale entry is never replayed and never panics, the value is
//! recomputed, and the recomputation is published in the current format.
//!
//! This test configures the process-global result cache, so it lives in its
//! own test binary.

use mesh_bench::memo::{self, ScenarioFp};

#[test]
fn legacy_text_entries_are_recomputed_not_replayed() {
    let dir = std::env::temp_dir().join(format!("mesh-legacy-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fp = ScenarioFp::new("legacy-test").word(1).finish();
    // A well-formed entry of the old format whose value differs from what
    // the computation returns, so a replay would be visible.
    let value = "5";
    let checksum = {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in value.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    let entry = dir.join(format!("{fp:032x}.res"));
    std::fs::write(
        &entry,
        format!("mesh-result v1 {fp:032x} {checksum:016x}\n{value}\n"),
    )
    .unwrap();

    memo::set_result_cache(Some(&dir));
    memo::clear_subeval_lru();
    let (computed, cached) = memo::memoize_flagged(fp, || 7u64);
    assert_eq!(
        (computed, cached),
        (7, false),
        "legacy entry must not replay"
    );

    // The recomputation replaced the legacy entry: a fresh in-process tier
    // now replays the current-format value from disk.
    memo::clear_subeval_lru();
    let hits = memo::stats().hits;
    let replayed = memo::memoize_flagged::<u64>(fp, || panic!("must be served from disk"));
    assert_eq!(replayed, (7, true));
    assert_eq!(memo::stats().hits, hits + 1);

    memo::set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}
