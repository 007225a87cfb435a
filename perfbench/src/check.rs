//! Output check: every simulated statistic of every point, folded into a
//! per-point digest and compared with the digests committed in
//! `golden.txt`.
//!
//! A golden line is `<size> <workload> <digest> <point label>`. The seed
//! only orders the points, so every point of every run has a recorded
//! digest; a mismatch or a missing digest is a failed point, never a crash.

use mesh_bench::ComparisonPoint;
use std::collections::HashMap;

const GOLDEN: &str = include_str!("../golden.txt");

/// The statistics of one point as exact words (floats by bit pattern).
pub type Stats = Vec<u64>;

/// Every simulated statistic of a three-estimator comparison. Wall-clock
/// times are host measurements, not statistics, and are left out.
pub fn comparison_stats(p: &ComparisonPoint) -> Stats {
    vec![
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

/// FNV-1a over the words.
pub fn digest(stats: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in stats {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The committed digests of one workload at one size, by point label.
pub struct Golden {
    digests: HashMap<String, u64>,
}

impl Golden {
    pub fn load(size: &str, workload: &str) -> Golden {
        Golden::parse(GOLDEN, size, workload)
    }

    fn parse(text: &str, size: &str, workload: &str) -> Golden {
        let mut digests = HashMap::new();
        for line in text.lines() {
            let mut fields = line.splitn(4, ' ');
            let (Some(s), Some(w), Some(d), Some(label)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            if s == size && w == workload {
                if let Ok(d) = u64::from_str_radix(d, 16) {
                    digests.insert(label.to_string(), d);
                }
            }
        }
        Golden { digests }
    }

    /// Whether a digest is recorded for the label and the statistics match
    /// it.
    pub fn matches(&self, label: &str, stats: &[u64]) -> bool {
        self.digests.get(label) == Some(&digest(stats))
    }
}

/// The golden line for one point, as `--dump-digests` prints it.
pub fn golden_line(size: &str, workload: &str, label: &str, stats: &[u64]) -> String {
    format!("{size} {workload} {:016x} {label}", digest(stats))
}

/// Folds per-point digests, in grid order, into one run digest.
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    digest(&digests.into_iter().collect::<Vec<u64>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> ComparisonPoint {
        ComparisonPoint {
            iss_pct: 1.25,
            mesh_pct: 1.5,
            analytical_pct: 0.5,
            iss_wall: std::time::Duration::from_millis(3),
            mesh_wall: std::time::Duration::from_millis(1),
            iss_cycles: 1_000_000,
            mesh_cycles: 999_000.0,
            mesh_regions: 12,
            mesh_slices: 11,
            work_cycles: 900_000,
            misses: 4_000,
            replayed: false,
        }
    }

    #[test]
    fn every_perturbed_statistic_trips_the_check() {
        let stats = comparison_stats(&point());
        let line = golden_line("tiny", "fft_fig4", "p0 d=4", &stats);
        let golden = Golden::parse(&line, "tiny", "fft_fig4");
        assert!(golden.matches("p0 d=4", &stats));
        for i in 0..stats.len() {
            let mut perturbed = stats.clone();
            perturbed[i] ^= 1; // one ulp for a float, one count otherwise
            assert!(!golden.matches("p0 d=4", &perturbed), "word {i}");
        }
    }

    #[test]
    fn host_timings_are_not_statistics() {
        let mut p = point();
        p.iss_wall *= 2;
        p.mesh_wall *= 3;
        p.replayed = true;
        assert_eq!(comparison_stats(&p), comparison_stats(&point()));
    }

    #[test]
    fn unknown_labels_and_other_workloads_fail() {
        let stats = comparison_stats(&point());
        let golden = Golden::parse(
            &golden_line("tiny", "fft_fig4", "p0", &stats),
            "tiny",
            "phm_fig6",
        );
        assert!(!golden.matches("p0", &stats));
    }
}
