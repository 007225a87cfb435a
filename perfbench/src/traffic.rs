//! The traffic of `direct_annotated`'s programs. They are written straight
//! against the kernel's builder, but their regions are not invented: each
//! is drawn from a fixed sample of the regions `mesh_annotate` builds for
//! the benchmark's own scenarios — the Figure-6 PHM scenarios annotated per
//! segment and the Figure-4 FFT scenarios annotated at barriers, exactly as
//! those workloads annotate them. The second shared resource carries the
//! I/O traffic of the repository's multi-resource experiment
//! (`crates/bench/src/bin/multi_resource.rs`).
//!
//! The sample is committed in `traffic.txt`, so that annotation changes do
//! not move `direct_annotated`; a test re-derives it, and
//! `--dump-traffic` prints it afresh.

use crate::grid::{Grid, Kind, Size};
use mesh_annotate::{annotate_task_with_io, AnnotationPolicy};
use mesh_core::{SharedId, SyncId};
use mesh_workloads::SegmentKind;
use std::fmt::Write as _;

/// The bus service time the regions are annotated at and the programs run
/// at: the PHM SoC's bus in the multi-resource experiment.
pub const BUS_SERVICE: u64 = 8;
/// The I/O device's service time: one of that experiment's delays.
pub const IO_SERVICE: u64 = 8;
/// That experiment's I/O traffic: one operation per this many compute
/// operations of every work segment, and at least one.
const IO_EVERY: u64 = 60;
/// Regions kept per source.
const SAMPLES: usize = 32;

const TABLE: &str = include_str!("../traffic.txt");

/// One annotation region: its contention-free cycles and its accesses to
/// the bus and to the I/O device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Region {
    pub cycles: u64,
    pub bus: u64,
    pub io: u64,
}

/// The workloads whose regions are sampled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Phm,
    Fft,
}

impl Source {
    pub const ALL: [Source; 2] = [Source::Phm, Source::Fft];

    fn name(self) -> &'static str {
        match self {
            Source::Phm => "phm",
            Source::Fft => "fft",
        }
    }

    fn grid(self) -> (Kind, AnnotationPolicy) {
        match self {
            Source::Phm => (Kind::PhmFig6, AnnotationPolicy::PerSegment),
            Source::Fft => (Kind::FftFig4, AnnotationPolicy::AtBarriers),
        }
    }
}

/// The committed sample of one source.
pub fn sample(source: Source) -> Vec<Region> {
    parse(TABLE, source)
}

fn parse(text: &str, source: Source) -> Vec<Region> {
    text.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                [s, cycles, bus, io] if s == source.name() => Some(Region {
                    cycles: cycles.parse().ok()?,
                    bus: bus.parse().ok()?,
                    io: io.parse().ok()?,
                }),
                _ => None,
            }
        })
        .collect()
}

/// Every region of one source's scenarios, sorted.
fn regions(source: Source) -> Vec<Region> {
    let (kind, policy) = source.grid();
    let grid = Grid::new(kind, Size::Full).expect("a comparison grid");
    let bus = SharedId::from_index(0);
    let io = SharedId::from_index(1);
    let mut out = Vec::new();
    for scenario in &grid.scenarios {
        let mut workload = scenario.build();
        for seg in workload.tasks.iter_mut().flat_map(|t| &mut t.segments) {
            if seg.kind == SegmentKind::Work {
                seg.io_ops = (seg.compute_ops / IO_EVERY).max(1);
            }
        }
        let machine = scenario.machine(BUS_SERVICE);
        let barriers: Vec<SyncId> = (0..workload.barriers.len())
            .map(SyncId::from_index)
            .collect();
        for (task, &proc) in workload.tasks.iter().zip(&machine.procs) {
            let (annotations, _) = annotate_task_with_io(
                task,
                proc,
                BUS_SERVICE,
                bus,
                Some((io, IO_SERVICE)),
                &barriers,
                policy,
            );
            out.extend(annotations.iter().map(|a| Region {
                // Complexity is pre-scaled by the processor's power.
                cycles: (a.complexity.as_units() / proc.power).round() as u64,
                bus: a.accesses.count(bus) as u64,
                io: a.accesses.count(io) as u64,
            }));
        }
    }
    out.sort_unstable();
    out
}

/// Re-derives the committed table: for each source, the regions at
/// `SAMPLES` evenly spaced ranks of the sorted regions, so that the sample
/// follows the distribution of region sizes and keeps each region's own
/// accesses.
pub fn derive() -> String {
    let mut text = String::new();
    for source in Source::ALL {
        let all = regions(source);
        for k in 0..SAMPLES {
            let r = all[(2 * k + 1) * all.len() / (2 * SAMPLES)];
            let _ = writeln!(text, "{} {} {} {}", source.name(), r.cycles, r.bus, r.io);
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_sample_is_derived_from_the_scenarios() {
        let derived = derive();
        assert_eq!(
            TABLE, derived,
            "traffic.txt is stale; regenerate it with --dump-traffic"
        );
        for source in Source::ALL {
            assert_eq!(sample(source).len(), SAMPLES);
        }
    }
}
