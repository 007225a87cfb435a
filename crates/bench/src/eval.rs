//! # Split-phase sweep evaluation: the reference planner
//!
//! The expensive component of every comparison sweep is the cycle-accurate
//! reference, and ablation grids share it massively: a `min_timeslice` grid
//! over one (workload, machine) pair needs **one** ISS run however many
//! knob settings it evaluates. [`compare`](crate::compare) already memoizes
//! the reference as its own sub-evaluation, but a naive grid walk still
//! serializes badly — whichever point happens to run first computes the
//! reference while every other point of its group blocks on the
//! single-flight gate.
//!
//! [`sweep_with_references`] fixes the dispatch order. It walks the grid up
//! front, groups points by a caller-supplied **reference key** (the shared
//! sub-evaluation's fingerprint, e.g. [`crate::iss_reference_fp`]), then:
//!
//! 1. **Reference phase** — one representative per distinct group runs the
//!    reference, in parallel on the in-process engine. Distinct references
//!    use every core; nothing blocks.
//! 2. **Evaluation phase** — the full grid dispatches through the ordinary
//!    sweep entry points; every point finds its group's reference already
//!    in the sub-evaluation LRU (or the persistent result cache) and pays
//!    only the cheap hybrid/analytical legs.
//!
//! Under the multi-process fabric (`MESH_BENCH_SHARDS`), the reference
//! phase runs in the parent only when the persistent result cache is on, so
//! workers replay the references from disk. Without it a parent-computed
//! reference could not reach the workers, so the phase is skipped and each
//! worker computes a group's reference once in its own LRU.
//!
//! Output is byte-identical to [`crate::sweep::try_sweep_labeled_prewarmed`]
//! — the planner changes only *when* sub-evaluations run, never what they
//! produce.

use crate::checkpoint::Checkpointable;
use crate::sweep::{SweepEngine, SweepError};
use crate::{fabric, memo};
use std::collections::HashSet;
use std::fmt;
use std::hash::Hash;

/// The index of the first point of each distinct reference key, in
/// first-occurrence order, so the choice is deterministic.
fn representatives<K>(points: &[K], reference_key: impl Fn(&K) -> u128) -> Vec<usize> {
    let mut seen: HashSet<u128> = HashSet::new();
    (0..points.len())
        .filter(|&index| seen.insert(reference_key(&points[index])))
        .collect()
}

/// Split-phase sweep: dispatches the distinct shared references of a grid
/// first (in parallel), then evaluates every point against the now-warm
/// sub-evaluation caches. See the [module docs](self) for the phases and
/// the fabric interplay.
///
/// * `reference_key` maps a point to the fingerprint of the sub-evaluation
///   it shares with other points (e.g. [`crate::iss_reference_fp`]); points
///   with equal keys form one group.
/// * `reference_run` computes (and thereby caches) the shared reference for
///   one point — typically a thin wrapper over [`crate::iss_reference`].
///   Its return value is discarded; the caches carry the result.
/// * `prewarm` and `eval` are exactly the hooks of
///   [`crate::sweep::try_sweep_labeled_prewarmed`].
///
/// Stdout and results are byte-identical to the un-planned path: the
/// planner only reorders work. A failure in the reference phase is
/// *demoted* to a warning — the evaluation phase re-attempts the reference
/// under the real point label, so errors surface with proper grid
/// coordinates.
pub fn sweep_with_references<K, V, F, P, R, G>(
    label: &str,
    points: &[K],
    reference_key: G,
    reference_run: R,
    prewarm: P,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
    P: Fn(&K) + Sync,
    R: Fn(&K) + Sync,
    G: Fn(&K) -> u128,
{
    // Workers get their assignment from the plan file; the parent already
    // ran the reference phase for them.
    if fabric::worker_config().is_some() {
        return crate::sweep::try_sweep_labeled_prewarmed(label, points, prewarm, eval);
    }

    let representatives = representatives(points, reference_key);
    let fabric_active = fabric::shards_from_env().is_some();

    // Reference phase. Under the fabric without a persistent result cache,
    // a parent-side reference cannot reach the worker processes — skip the
    // phase and let each worker's LRU dedupe instead.
    if representatives.len() < points.len() && (!fabric_active || memo::enabled()) {
        let reps: Vec<K> = representatives.iter().map(|&i| points[i].clone()).collect();
        let refs_label = format!("{label}:refs");
        let outcome = SweepEngine::<K, ()>::from_env().try_run_labeled(&refs_label, &reps, |key| {
            reference_run(key);
        });
        if let Err(e) = outcome {
            // Not fatal: the evaluation phase re-runs the reference under
            // the real point, where failures carry real grid coordinates.
            eprintln!("mesh-bench: reference phase of sweep '{label}' incomplete ({e})");
        }
    }

    crate::sweep::try_sweep_labeled_prewarmed(label, points, prewarm, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn representatives_are_first_occurrences() {
        let points = vec![(0u64, 0u64), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)];
        let reps = representatives(&points, |&(machine, _)| machine as u128);
        assert_eq!(reps, vec![0, 2, 5], "first point of each group");
    }

    #[test]
    fn references_run_once_per_group() {
        // 3 machines × 4 knob settings; the reference phase must run the
        // reference exactly once per machine, and every point still
        // evaluates.
        let mut points = Vec::new();
        for machine in 0u64..3 {
            for knob in 0u64..4 {
                points.push((machine, knob));
            }
        }
        let ref_runs = AtomicU64::new(0);
        let result = sweep_with_references(
            "eval-test",
            &points,
            |&(machine, _)| 0xE7A1_0000 + machine as u128,
            |_| {
                ref_runs.fetch_add(1, Ordering::Relaxed);
            },
            |_| {},
            |&(machine, knob)| machine * 100 + knob,
        )
        .unwrap();
        assert_eq!(result.len(), 12);
        assert_eq!(result[0], 0);
        assert_eq!(result[11], 203);
        assert_eq!(
            ref_runs.load(Ordering::Relaxed),
            3,
            "one reference per distinct machine"
        );
    }

    #[test]
    fn all_distinct_references_skip_the_reference_phase() {
        // Every point its own group: the planner must not double-dispatch.
        let points: Vec<u64> = (0..5).collect();
        let ref_runs = AtomicU64::new(0);
        let result = sweep_with_references(
            "eval-distinct",
            &points,
            |&p| p as u128,
            |_| {
                ref_runs.fetch_add(1, Ordering::Relaxed);
            },
            |_| {},
            |&p| p * 2,
        )
        .unwrap();
        assert_eq!(result, vec![0, 2, 4, 6, 8]);
        assert_eq!(ref_runs.load(Ordering::Relaxed), 0, "no shared references");
    }
}
