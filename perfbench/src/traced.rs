//! The traced run: every point evaluated once more by calling each layer's
//! public entry point directly, in the order `compare` calls them, with a
//! span around every call. The same point is then evaluated by `compare`
//! itself (sub-evaluation LRU cleared); the layered outputs must reproduce
//! it bit for bit, and the part of its time no layer accounts for is
//! `bench.unattributed_ms`. Spans stay in memory until the run ends.

use crate::check::{comparison_stats, Golden, Stats};
use crate::direct::{self, Probe, Probed, Program};
use crate::grid::Grid;
use crate::run::{direct_label, direct_outcome, Bench, Rep};
use mesh_annotate::assemble;
use mesh_bench::{compare, memo, ComparisonPoint};
use mesh_core::{Report, SimTime};
use mesh_cyclesim::{cache_stats, Pacing};
use mesh_models::{AnalyticalEstimator, ChenLinBus, ThreadProfile};
use std::sync::Arc;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub point: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Host time of the contention models inside a `kernel` span.
    pub models_ns: u64,
}

/// Per-layer totals of the layered pass (nanoseconds and counts).
#[derive(Default)]
pub struct Layers {
    pub gen: u64,
    pub compile: u64,
    pub consume: u64,
    pub annotate_hybrid: u64,
    /// Kernel self time: build and run, minus the contention models.
    pub kernel: u64,
    pub evaluate: u64,
    pub annotate_analytical: u64,
    pub estimate: u64,
    pub compare: u64,
    pub compile_steps: u64,
    pub resident_steps: u64,
    pub sim_cycles: u64,
    pub regions: u64,
    pub misses: u64,
    pub commits: u64,
    pub slices: u64,
    pub evaluations: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

impl Layers {
    /// `compare`'s time minus the layers it is made of.
    pub fn unattributed(&self) -> i64 {
        self.compare as i64
            - (self.consume
                + self.annotate_hybrid
                + self.kernel
                + self.evaluate
                + self.annotate_analytical
                + self.estimate) as i64
    }

    /// The layered pass's time: every layer, set-up layers included.
    pub fn total(&self) -> u64 {
        self.gen
            + self.compile
            + self.consume
            + self.annotate_hybrid
            + self.kernel
            + self.evaluate
            + self.annotate_analytical
            + self.estimate
    }
}

pub struct Traced {
    pub layers: Layers,
    pub spans: Vec<Span>,
    pub points: usize,
    pub failed: u64,
    pub digests: Vec<u64>,
    /// One untraced repetition, for the sharing and store counters.
    pub production: Rep,
    pub lru_hits: u64,
    pub lru_lookups: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn span<T>(&mut self, name: &'static str, point: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            point,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            models_ns: 0,
        });
        (out, dur_ns)
    }
}

pub fn traced(bench: &Bench, golden: &Golden) -> Traced {
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut layers = Layers::default();
    let before = cache_stats();
    let (stats, labels, mut failed) = match &bench.grid {
        Some(grid) => layered_comparison(grid, &mut rec, &mut layers),
        None => layered_direct(bench, &mut rec, &mut layers),
    };
    let after = cache_stats();
    layers.cache_hits = after.hits - before.hits;
    layers.cache_lookups = layers.cache_hits + after.misses - before.misses;
    let mut digests = Vec::new();
    for (label, s) in labels.iter().zip(&stats) {
        digests.push(crate::check::digest(s));
        if !golden.matches(label, s) {
            failed += 1;
        }
    }

    let memo_before = memo::stats();
    let production = bench.rep();
    let memo_after = memo::stats();
    let lru_hits = memo_after.lru_hits - memo_before.lru_hits;
    let lru_lookups = if production.store.is_some() {
        lru_hits + (memo_after.hits - memo_before.hits) + (memo_after.misses - memo_before.misses)
    } else if bench.grid.is_some() {
        // compare makes three sub-evaluation lookups per point.
        3 * production.evaluated
    } else {
        0
    };
    failed += production.failed;
    if !production.stats.is_empty() && production.stats != stats {
        failed += 1;
    }
    Traced {
        layers,
        spans: rec.spans,
        points: stats.len(),
        failed,
        digests,
        production,
        lru_hits,
        lru_lookups,
    }
}

fn layered_comparison(
    grid: &Grid,
    rec: &mut Recorder,
    l: &mut Layers,
) -> (Vec<Stats>, Vec<String>, u64) {
    let mut stats = Vec::new();
    let mut labels = Vec::new();
    let mut failed = 0;
    // As in set-up, each distinct trace is compiled once into a cache that
    // starts empty; later points of the same scenario find it compiled.
    mesh_cyclesim::trace::clear_cache();
    for p in &grid.points {
        let i = p.index;
        let machine = grid.machine(p);
        let (workload, ns) = rec.span("workloads", i, || grid.scenarios[p.scenario].build());
        l.gen += ns;
        let resident = cache_stats().resident_steps as u64;
        let (_, ns) = rec.span("cyclesim.compile", i, || {
            mesh_cyclesim::prewarm(&workload, &machine, Pacing::default());
        });
        l.compile += ns;
        l.compile_steps += cache_stats().resident_steps as u64 - resident;
        l.resident_steps = l.resident_steps.max(cache_stats().resident_steps as u64);
        let (iss, ns) = rec.span("cyclesim.consume", i, || {
            mesh_cyclesim::simulate(&workload, &machine).expect("cycle-accurate run")
        });
        l.consume += ns;
        l.sim_cycles += iss.total_cycles;

        let probe = Arc::new(Probe::new());
        let policy = p.policy.annotation();
        let (setup, ns) = rec.span("annotate.hybrid", i, || {
            assemble(
                &workload,
                &machine,
                Probed::new(ChenLinBus::new(), &probe),
                policy,
            )
            .expect("hybrid assembly")
        });
        l.annotate_hybrid += ns;
        let work_cycles = setup.work_total();
        let misses = setup.misses_total();
        l.regions += setup.tasks.iter().map(|t| t.regions as u64).sum::<u64>();
        l.misses += misses;
        let mut builder = setup.builder;
        builder.set_min_timeslice(SimTime::from_cycles(p.min_timeslice as f64));
        let report = kernel_span(rec, l, i, &probe, || {
            builder
                .build()
                .expect("hybrid build")
                .run()
                .expect("hybrid run")
                .report
        });

        let (setup, ns) = rec.span("annotate.analytical", i, || {
            assemble(&workload, &machine, ChenLinBus::new(), policy).expect("hybrid assembly")
        });
        l.annotate_analytical += ns;
        let (analytical_pct, ns) = rec.span("models.estimate", i, || {
            let profiles: Vec<ThreadProfile> = setup
                .tasks
                .iter()
                .map(|t| {
                    ThreadProfile::new(SimTime::from_cycles(t.work_cycles as f64), t.misses as f64)
                })
                .collect();
            AnalyticalEstimator::new(
                ChenLinBus::new(),
                SimTime::from_cycles(machine.bus.delay_cycles as f64),
            )
            .estimate(&profiles)
            .queuing_percent()
        });
        l.estimate += ns;

        let queuing = report.queuing_total().as_cycles();
        let layered = ComparisonPoint {
            iss_pct: iss.queuing_percent(),
            mesh_pct: if work_cycles == 0 {
                0.0
            } else {
                100.0 * queuing / work_cycles as f64
            },
            analytical_pct,
            iss_wall: iss.wall_clock,
            mesh_wall: report.wall_clock,
            iss_cycles: iss.total_cycles,
            mesh_cycles: report.total_time.as_cycles(),
            mesh_regions: report.commits,
            mesh_slices: report.slices_analyzed,
            work_cycles,
            misses,
            replayed: false,
        };

        memo::clear_subeval_lru();
        let (direct, ns) = rec.span("bench.compare", i, || {
            compare(&workload, &machine, p.options())
        });
        l.compare += ns;
        let s = comparison_stats(&direct);
        if comparison_stats(&layered) != s {
            eprintln!(
                "perfbench: layered calls disagree with compare at {}",
                grid.label(p)
            );
            failed += 1;
        }
        stats.push(s);
        labels.push(grid.label(p));
    }
    (stats, labels, failed)
}

fn kernel_span(
    rec: &mut Recorder,
    l: &mut Layers,
    point: usize,
    probe: &Probe,
    run: impl FnOnce() -> Report,
) -> Report {
    let (report, ns) = rec.span("kernel", point, run);
    let (models_ns, calls) = probe.totals();
    rec.spans.last_mut().expect("kernel span").models_ns = models_ns;
    l.kernel += ns.saturating_sub(models_ns);
    l.evaluate += models_ns;
    l.evaluations += calls;
    l.commits += report.commits;
    l.slices += report.slices_analyzed;
    report
}

fn layered_direct(
    bench: &Bench,
    rec: &mut Recorder,
    l: &mut Layers,
) -> (Vec<Stats>, Vec<String>, u64) {
    let mut keys = Vec::new();
    let mut reports = Vec::new();
    let mut estimates = Vec::new();
    let mut compared = Vec::new();
    for (k, &seed) in bench.programs.iter().enumerate() {
        for ts in direct::TIMESLICES {
            let i = keys.len();
            keys.push((i, k, ts));
            let (program, ns) = rec.span("workloads", i, || Program::generate(bench.size, seed));
            l.gen += ns;
            let probe = Arc::new(Probe::new());
            let report = kernel_span(rec, l, i, &probe, || {
                program
                    .builder(ts, Some(&probe))
                    .build()
                    .expect("valid program")
                    .run()
                    .expect("direct program runs")
                    .report
            });
            let (estimate, ns) = rec.span("models.estimate", i, || {
                program.estimate_bus_queuing(&report)
            });
            l.estimate += ns;
            let (plain, ns) = rec.span("bench.compare", i, || {
                let r = program
                    .builder(ts, None)
                    .build()
                    .expect("valid program")
                    .run()
                    .expect("direct program runs")
                    .report;
                let e = program.estimate_bus_queuing(&r);
                direct::stats(&r, e)
            });
            l.compare += ns;
            compared.push(plain);
            reports.push(report);
            estimates.push(estimate);
        }
    }
    let (stats, mut failed, _, _) = direct_outcome(&keys, &reports, &estimates);
    failed += stats.iter().zip(&compared).filter(|(a, b)| a != b).count() as u64;
    let labels = keys
        .iter()
        .map(|&(_, k, ts)| direct_label(bench.programs[k], ts))
        .collect();
    (stats, labels, failed)
}
