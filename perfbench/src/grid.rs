//! The benchmark's workloads as grids of points over shared scenarios.
//!
//! A *scenario* is one generated input plus the trace-relevant part of its
//! machine (processor count, cache size): everything trace compilation
//! reads. A *point* adds the knobs that do not change the compiled traces:
//! bus delay, annotation policy and minimum timeslice.

use mesh_annotate::AnnotationPolicy;
use mesh_arch::MachineConfig;
use mesh_bench::sweep::FBits;
use mesh_bench::{fft_machine, phm_machine, HybridOptions};
use mesh_workloads::fft::{self, FftConfig};
use mesh_workloads::scenario::{self, PhmConfig};
use mesh_workloads::Workload;

/// The four workloads the benchmark defines; `BENCHMARK.json` lists all
/// but `FftFig4`, whose host time drifts past the benchmark's bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The Figure-4 FFT grid.
    FftFig4,
    /// The Figure-6 PHM grid.
    PhmFig6,
    /// Hybrid knobs crossed over shared scenarios, against persistent caches.
    KnobAblation,
    /// Programs written directly against the hybrid kernel's builder.
    DirectAnnotated,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FftFig4,
        Kind::PhmFig6,
        Kind::KnobAblation,
        Kind::DirectAnnotated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FftFig4 => "fft_fig4",
            Kind::PhmFig6 => "phm_fig6",
            Kind::KnobAblation => "knob_ablation",
            Kind::DirectAnnotated => "direct_annotated",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input scale: `Full` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast while covering every code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The PHM scenario seeds of the `fig6` binary.
const FIG6_SEEDS: [u64; 3] = [0xC0FFEE, 0xBEEF, 0xF00D];

/// SplitMix64: a small, exactly reproducible generator.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The order in which a run evaluates `n` grid points: a permutation drawn
/// from the benchmark's seed. The seed decides the order only, never the
/// content of a point, so every simulated statistic — and with it every
/// committed digest and both error metrics — is the same at every seed.
pub fn evaluation_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One generated input plus the trace-relevant machine parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scenario {
    Fft {
        points: u64,
        procs: usize,
        cache_bytes: u64,
    },
    Phm {
        target_ops: u64,
        idle: FBits,
        seed: u64,
    },
}

impl Scenario {
    /// Generates the scenario's workload (the `workloads` layer).
    pub fn build(&self) -> Workload {
        match *self {
            Scenario::Fft { points, procs, .. } => fft::build(&FftConfig {
                points,
                ..FftConfig::with_threads(procs)
            }),
            Scenario::Phm {
                target_ops,
                idle,
                seed,
            } => scenario::build(&PhmConfig {
                target_ops,
                seed,
                ..PhmConfig::with_second_idle(idle.get())
            }),
        }
    }

    pub fn machine(&self, bus_delay: u64) -> MachineConfig {
        match *self {
            Scenario::Fft {
                procs, cache_bytes, ..
            } => fft_machine(procs, cache_bytes, bus_delay),
            Scenario::Phm { .. } => phm_machine(bus_delay),
        }
    }

    fn label(&self) -> String {
        match *self {
            Scenario::Fft {
                points,
                procs,
                cache_bytes,
            } => format!("fft n={points} p={procs} cache={cache_bytes}"),
            Scenario::Phm {
                target_ops,
                idle,
                seed,
            } => format!("phm ops={target_ops} idle={} seed={seed:#x}", idle.get()),
        }
    }
}

/// Annotation policy as a hashable grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    PerSegment,
    Every(usize),
    AtBarriers,
}

impl Policy {
    pub fn annotation(self) -> AnnotationPolicy {
        match self {
            Policy::PerSegment => AnnotationPolicy::PerSegment,
            Policy::Every(n) => AnnotationPolicy::EverySegments(n),
            Policy::AtBarriers => AnnotationPolicy::AtBarriers,
        }
    }

    fn label(self) -> String {
        match self {
            Policy::PerSegment => "segment".to_string(),
            Policy::Every(n) => format!("every{n}"),
            Policy::AtBarriers => "barriers".to_string(),
        }
    }
}

/// One evaluation of the three estimators.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    /// Position in the grid; results are reported in this order.
    pub index: usize,
    /// Index into [`Grid::scenarios`].
    pub scenario: usize,
    pub bus_delay: u64,
    pub policy: Policy,
    pub min_timeslice: u64,
}

impl Point {
    pub fn options(&self) -> HybridOptions {
        HybridOptions {
            policy: self.policy.annotation(),
            min_timeslice: self.min_timeslice as f64,
        }
    }
}

/// A comparison workload: scenarios and the points evaluated over them.
pub struct Grid {
    pub scenarios: Vec<Scenario>,
    pub points: Vec<Point>,
}

impl Grid {
    /// The grid of a comparison workload; `None` for `direct_annotated`,
    /// which has no address streams (see [`crate::direct`]).
    pub fn new(kind: Kind, size: Size) -> Option<Grid> {
        let tiny = size == Size::Tiny;
        let mut grid = Grid {
            scenarios: Vec::new(),
            points: Vec::new(),
        };
        match kind {
            // Figure 4.
            Kind::FftFig4 => {
                let points = if tiny { 4096 } else { 65_536 };
                let procs: &[usize] = if tiny {
                    &[2, 4]
                } else {
                    &mesh_bench::FFT_PROC_SWEEP
                };
                for &(cache_bytes, _) in &mesh_bench::FFT_CACHES {
                    for &procs in procs {
                        let s = grid.scenario(Scenario::Fft {
                            points,
                            procs,
                            cache_bytes,
                        });
                        grid.point(s, mesh_bench::FFT_BUS_DELAY, Policy::AtBarriers, 0);
                    }
                }
            }
            // Figure 6: idle fraction x bus delay x three PHM seeds.
            Kind::PhmFig6 => {
                let target_ops = if tiny { 100_000 } else { 2_000_000 };
                let idles: &[f64] = if tiny {
                    &[0.0, 0.9]
                } else {
                    &mesh_bench::FIG6_IDLE_SWEEP
                };
                let delays: &[u64] = if tiny {
                    &[2, 16]
                } else {
                    &mesh_bench::FIG5_BUS_DELAYS
                };
                let seeds = if tiny { 1 } else { 3 };
                for &idle in idles {
                    let scenarios: Vec<usize> = (0..seeds)
                        .map(|k| {
                            grid.scenario(Scenario::Phm {
                                target_ops,
                                idle: FBits::new(idle),
                                seed: FIG6_SEEDS[k],
                            })
                        })
                        .collect();
                    for &delay in delays {
                        for &s in &scenarios {
                            grid.point(s, delay, Policy::PerSegment, 0);
                        }
                    }
                }
            }
            // Every point of one scenario shares its cycle-accurate
            // reference; the knobs change only the hybrid leg.
            Kind::KnobAblation => {
                let mut scenarios: Vec<(usize, u64)> = Vec::new();
                let idles: &[f64] = if tiny { &[0.9] } else { &[0.3, 0.6, 0.9] };
                for (k, &idle) in idles.iter().enumerate() {
                    let s = grid.scenario(Scenario::Phm {
                        target_ops: if tiny { 100_000 } else { 2_000_000 },
                        idle: FBits::new(idle),
                        seed: FIG6_SEEDS[k],
                    });
                    scenarios.push((s, 8));
                }
                let s = grid.scenario(Scenario::Fft {
                    points: if tiny { 4096 } else { 65_536 },
                    procs: if tiny { 2 } else { 4 },
                    cache_bytes: 8 * 1024,
                });
                scenarios.push((s, mesh_bench::FFT_BUS_DELAY));
                let timeslices: &[u64] = if tiny {
                    &[0, 10_000]
                } else {
                    &[0, 1_000, 10_000]
                };
                for (s, delay) in scenarios {
                    for policy in [
                        Policy::PerSegment,
                        Policy::Every(4),
                        Policy::Every(32),
                        Policy::AtBarriers,
                    ] {
                        for &ts in timeslices {
                            grid.point(s, delay, policy, ts);
                        }
                    }
                }
            }
            Kind::DirectAnnotated => return None,
        }
        Some(grid)
    }

    fn scenario(&mut self, scenario: Scenario) -> usize {
        self.scenarios.push(scenario);
        self.scenarios.len() - 1
    }

    fn point(&mut self, scenario: usize, bus_delay: u64, policy: Policy, min_timeslice: u64) {
        self.points.push(Point {
            index: self.points.len(),
            scenario,
            bus_delay,
            policy,
            min_timeslice,
        });
    }

    pub fn machine(&self, point: &Point) -> MachineConfig {
        self.scenarios[point.scenario].machine(point.bus_delay)
    }

    /// The stable name a point's committed digest is recorded under.
    pub fn label(&self, point: &Point) -> String {
        format!(
            "{} d={} pol={} ts={}",
            self.scenarios[point.scenario].label(),
            point.bus_delay,
            point.policy.label(),
            point.min_timeslice
        )
    }
}
