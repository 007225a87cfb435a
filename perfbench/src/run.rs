//! One repetition of a workload as a user runs it: set-up (generate the
//! inputs, compile every distinct trace into an empty in-process cache),
//! then one sweep over the grid through the program's own entry points.

use crate::check::{comparison_stats, Stats};
use crate::direct::{self, Program, TIMESLICES};
use crate::grid::{evaluation_order, Grid, Kind, Point, Size};
use mesh_bench::{compare, eval, iss_reference, iss_reference_fp, memo, sweep, ComparisonPoint};
use mesh_core::Report;
use mesh_metrics::mean;
use mesh_workloads::Workload;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A workload ready to run: its grid (or program seeds), the seed-drawn
/// order its points are evaluated in and, for `knob_ablation`, the
/// run-private directory of its persistent caches.
pub struct Bench {
    pub kind: Kind,
    pub size: Size,
    pub grid: Option<Grid>,
    pub programs: Vec<u64>,
    order: Vec<usize>,
    private: Option<PathBuf>,
}

/// The outcome of one repetition.
pub struct Rep {
    pub setup: Duration,
    /// Host time of every point evaluation (of the cold pass, for
    /// `knob_ablation`), in grid order.
    pub point_ns: Vec<u64>,
    /// Host time of the parts of a sweep outside its points: for
    /// `knob_ablation`, each scenario's shared reference and then the
    /// replay pass; empty for the other workloads.
    pub other_ns: Vec<u64>,
    /// The statistics of every grid point, in grid order; empty when the
    /// sweep failed.
    pub stats: Vec<Stats>,
    pub labels: Vec<String>,
    pub evaluated: u64,
    pub failed: u64,
    pub mesh_err: f64,
    pub analytical_err: f64,
    /// `knob_ablation` only: the persistent tiers' passes.
    pub store: Option<StorePasses>,
}

/// The cold pass writes the run-private trace store and result cache; the
/// replay pass, with every in-process cache cleared, reads them back.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorePasses {
    pub write_pass: Duration,
    pub read_pass: Duration,
    /// Traces published by set-up.
    pub publishes: u64,
    /// Traces the cold pass loaded from the store.
    pub trace_hits: u64,
    /// Sub-evaluations the replay pass read from the result cache.
    pub memo_hits: u64,
}

impl Bench {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Bench {
        let private = (kind == Kind::KnobAblation)
            .then(|| PathBuf::from(".bench_runs").join(format!("knob-{}", std::process::id())));
        let grid = Grid::new(kind, size);
        let programs = direct::program_seeds(size);
        let points = match &grid {
            Some(g) => g.points.len(),
            None => programs.len() * TIMESLICES.len(),
        };
        Bench {
            kind,
            size,
            grid,
            programs,
            order: evaluation_order(points, seed),
            private,
        }
    }

    pub fn rep(&self) -> Rep {
        match &self.grid {
            Some(grid) => self.comparison_rep(grid),
            None => self.direct_rep(),
        }
    }

    fn comparison_rep(&self, grid: &Grid) -> Rep {
        // Every repetition starts from an empty run-private store and result
        // cache, emptied before any clock starts.
        if let Some(dir) = &self.private {
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let store_before = mesh_cyclesim::store_stats();
        if let Some(dir) = &self.private {
            mesh_cyclesim::set_store(Some(&dir.join("store")), None);
        }
        let workloads = setup(grid);
        let setup_time = t.elapsed();
        let publishes = mesh_cyclesim::store_stats().publishes - store_before.publishes;

        let times: Vec<Mutex<u64>> = grid.points.iter().map(|_| Mutex::new(0)).collect();
        let reference_times: Vec<Mutex<u64>> =
            grid.scenarios.iter().map(|_| Mutex::new(0)).collect();
        let mut point_ns = Vec::new();
        let mut other_ns = Vec::new();
        let mut failed = 0;
        let t = Instant::now();
        let (results, store) = match &self.private {
            None => {
                memo::clear_subeval_lru();
                let r = self.sweep(grid, &workloads, &times, &reference_times);
                collect(&times, &mut point_ns);
                (r, None)
            }
            Some(dir) => {
                memo::set_result_cache(Some(&dir.join("memo")));
                let store_before = mesh_cyclesim::store_stats();
                mesh_cyclesim::trace::clear_cache();
                memo::clear_subeval_lru();
                let cold = self.sweep(grid, &workloads, &times, &reference_times);
                let write_pass = t.elapsed();
                collect(&times, &mut point_ns);
                collect(&reference_times, &mut other_ns);
                let trace_hits = mesh_cyclesim::store_stats().hits - store_before.hits;

                let t = Instant::now();
                let memo_before = memo::stats();
                mesh_cyclesim::trace::clear_cache();
                memo::clear_subeval_lru();
                // Replayed points take microseconds; their times would make
                // the per-point median straddle two populations, so only
                // cold points are sampled. The replay shows in sweep_s.
                let replay = self.sweep(grid, &workloads, &times, &reference_times);
                let read_pass = t.elapsed();
                other_ns.push(read_pass.as_nanos() as u64);
                let memo_hits = memo::stats().hits - memo_before.hits;
                memo::set_result_cache(None);

                // The replay must answer exactly what the cold pass computed.
                match (&cold, &replay) {
                    (Some(c), Some(r)) => {
                        failed += c.iter().zip(r).filter(|(a, b)| a != b).count() as u64;
                    }
                    (Some(_), None) => failed += grid.points.len() as u64,
                    _ => {}
                }
                let store = StorePasses {
                    write_pass,
                    read_pass,
                    publishes,
                    trace_hits,
                    memo_hits,
                };
                (cold, Some(store))
            }
        };
        let passes = if store.is_some() { 2 } else { 1 };
        let evaluated = (grid.points.len() * passes) as u64;
        // Mean absolute error in percentage points of queuing per work
        // cycle: relative errors explode where the reference queues little.
        let mae = |r: &[ComparisonPoint], pct: fn(&ComparisonPoint) -> f64| {
            mean(
                &r.iter()
                    .map(|p| (pct(p) - p.iss_pct).abs())
                    .collect::<Vec<f64>>(),
            )
        };
        let (stats, mesh_err, analytical_err) = match &results {
            Some(r) => (
                r.iter().map(comparison_stats).collect(),
                mae(r, |p| p.mesh_pct),
                mae(r, |p| p.analytical_pct),
            ),
            None => {
                failed = evaluated;
                (Vec::new(), 0.0, 0.0)
            }
        };
        Rep {
            setup: setup_time,
            point_ns,
            other_ns,
            stats,
            labels: grid.points.iter().map(|p| grid.label(p)).collect(),
            evaluated,
            failed,
            mesh_err,
            analytical_err,
            store,
        }
    }

    /// One pass over the grid through the program's sweep entry points,
    /// timing each point into `times` and each shared reference into
    /// `reference_times` (by scenario); `None` if any point failed.
    fn sweep(
        &self,
        grid: &Grid,
        workloads: &[Workload],
        times: &[Mutex<u64>],
        reference_times: &[Mutex<u64>],
    ) -> Option<Vec<ComparisonPoint>> {
        let points: Vec<Point> = self.order.iter().map(|&i| grid.points[i].clone()).collect();
        let eval = |p: &Point| {
            let t = Instant::now();
            let r = compare(&workloads[p.scenario], &grid.machine(p), p.options());
            *times[p.index].lock().expect("timing slot") = t.elapsed().as_nanos() as u64;
            r
        };
        let result = if self.kind == Kind::KnobAblation {
            eval::sweep_with_references(
                self.kind.name(),
                &points,
                |p| iss_reference_fp(&workloads[p.scenario], &grid.machine(p)),
                |p| {
                    let t = Instant::now();
                    iss_reference(&workloads[p.scenario], &grid.machine(p));
                    *reference_times[p.scenario].lock().expect("timing slot") =
                        t.elapsed().as_nanos() as u64;
                },
                |_| {},
                eval,
            )
        } else {
            sweep::try_sweep_labeled(self.kind.name(), &points, eval)
        };
        match result {
            Ok(r) => Some(self.in_grid_order(r)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                None
            }
        }
    }

    fn direct_rep(&self) -> Rep {
        let t = Instant::now();
        let programs: Vec<Program> = self
            .programs
            .iter()
            .map(|&s| Program::generate(self.size, s))
            .collect();
        let mut keys = Vec::new();
        let mut systems = Vec::new();
        for (k, program) in programs.iter().enumerate() {
            for ts in TIMESLICES {
                let system = program.builder(ts, None).build().expect("valid program");
                keys.push((keys.len(), k, ts));
                systems.push(Mutex::new(Some(system)));
            }
        }
        let setup_time = t.elapsed();

        let times: Vec<Mutex<u64>> = keys.iter().map(|_| Mutex::new(0)).collect();
        let ordered: Vec<(usize, usize, u64)> = self.order.iter().map(|&i| keys[i]).collect();
        let result = sweep::try_sweep_labeled(self.kind.name(), &ordered, |&(i, _, _)| {
            let system = systems[i].lock().expect("system slot").take();
            let t = Instant::now();
            let report: Report = system
                .expect("each system runs once")
                .run()
                .expect("direct program runs")
                .report;
            *times[i].lock().expect("timing slot") = t.elapsed().as_nanos() as u64;
            report
        });
        let mut point_ns = Vec::new();
        collect(&times, &mut point_ns);
        let labels = keys
            .iter()
            .map(|&(_, k, ts)| direct_label(self.programs[k], ts))
            .collect();
        let evaluated = keys.len() as u64;
        let (stats, failed, mesh_err, analytical_err) = match result {
            Ok(r) => {
                let reports = self.in_grid_order(r);
                let estimates: Vec<f64> = keys
                    .iter()
                    .zip(&reports)
                    .map(|(&(_, k, _), r)| programs[k].estimate_bus_queuing(r))
                    .collect();
                direct_outcome(&keys, &reports, &estimates)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                (Vec::new(), evaluated, 0.0, 0.0)
            }
        };
        Rep {
            setup: setup_time,
            point_ns,
            other_ns: Vec::new(),
            stats,
            labels,
            evaluated,
            failed,
            mesh_err,
            analytical_err,
            store: None,
        }
    }

    /// Puts results returned in evaluation order back into grid order.
    fn in_grid_order<T>(&self, results: Vec<T>) -> Vec<T> {
        let mut slots: Vec<Option<T>> = results.iter().map(|_| None).collect();
        for (&i, r) in self.order.iter().zip(results) {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("one result per point"))
            .collect()
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(dir) = &self.private {
            mesh_cyclesim::set_store(None, None);
            memo::set_result_cache(None);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The `direct_annotated` label of one program at one timeslice.
pub fn direct_label(seed: u64, ts: u64) -> String {
    format!("direct seed={seed:#018x} ts={ts}")
}

/// Statistics, incident failures and error metrics of a `direct_annotated`
/// pass. Errors are against the same program at timeslice 0, in percentage
/// points of queuing per busy cycle: the coarser timeslices for the hybrid,
/// the whole-program bus estimate for the analytical baseline.
pub fn direct_outcome(
    keys: &[(usize, usize, u64)],
    reports: &[Report],
    estimates: &[f64],
) -> (Vec<Stats>, u64, f64, f64) {
    let mut stats = Vec::new();
    let mut failed = 0;
    let mut mesh_errs = Vec::new();
    let mut analytical_errs = Vec::new();
    let mut reference = 0.0;
    for ((&(_, _, ts), report), &estimate) in keys.iter().zip(reports).zip(estimates) {
        stats.push(direct::stats(report, estimate));
        if !report.incidents.is_empty() {
            failed += 1;
        }
        let pct = |cycles: f64| 100.0 * cycles / report.busy_total().as_cycles();
        if ts == 0 {
            reference = report.queuing_percent();
            let bus = direct::bus_queuing(report);
            analytical_errs.push((pct(estimate) - pct(bus)).abs());
        } else {
            mesh_errs.push((report.queuing_percent() - reference).abs());
        }
    }
    (stats, failed, mean(&mesh_errs), mean(&analytical_errs))
}

/// Generates every scenario's input and compiles every distinct trace into
/// an empty in-process cache (publishing it when a store is configured).
pub fn setup(grid: &Grid) -> Vec<Workload> {
    let workloads: Vec<Workload> = grid.scenarios.iter().map(|s| s.build()).collect();
    mesh_cyclesim::trace::clear_cache();
    for (s, w) in grid.scenarios.iter().zip(&workloads) {
        // Traces depend on the processors and caches, not on the bus delay.
        mesh_cyclesim::prewarm(
            w,
            &s.machine(mesh_bench::FFT_BUS_DELAY),
            mesh_cyclesim::Pacing::default(),
        );
    }
    workloads
}

fn collect(times: &[Mutex<u64>], out: &mut Vec<u64>) {
    out.extend(times.iter().map(|t| *t.lock().expect("timing slot")));
}
