//! `direct_annotated`: seeded programs written straight against the hybrid
//! kernel's builder, with no address streams, so no trace compile, no cache
//! walk and no cycle-accurate run is involved — only the kernel's commit
//! loop and its contention models.
//!
//! Each program runs more logical threads than processors on the PHM SoC's
//! heterogeneous processors, shares a Chen–Lin bus and an M/D/1 I/O device,
//! meets at a barrier after every phase and takes one mutex-protected
//! critical section per phase. Every region is drawn from the sample of
//! real annotation regions in [`crate::traffic`]: even threads run PHM
//! regions, odd threads FFT regions. Programs have no cycle-accurate
//! reference; the reference for the error metrics is the same program at
//! minimum timeslice 0, where the kernel analyzes every timeslice.

use mesh_core::model::{ContentionModel, Slice, SliceRequest};
use mesh_core::{Annotation, Power, Report, SimTime, SyncOp, SystemBuilder, VecProgram};
use mesh_models::{AnalyticalEstimator, ChenLinBus, Md1Queue, ThreadProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::grid::{Rng, Size};
use crate::traffic::{self, Source, BUS_SERVICE, IO_SERVICE};

/// Minimum timeslices every program runs at; the first is the reference.
pub const TIMESLICES: [u64; 3] = [0, 1_000, 10_000];

#[derive(Clone, Copy, Debug)]
enum Sync {
    None,
    Lock,
    Unlock,
    Barrier,
}

#[derive(Clone, Copy, Debug)]
struct Region {
    traffic: traffic::Region,
    sync: Sync,
}

/// One generated program: processor powers and each thread's regions.
#[derive(Clone, Debug)]
pub struct Program {
    powers: Vec<f64>,
    threads: Vec<Vec<Region>>,
}

/// The seeds of the workload's programs.
pub fn program_seeds(size: Size) -> Vec<u64> {
    let count = if size == Size::Tiny { 2 } else { 8 };
    let mut rng = Rng(0xD1EC_7A11);
    (0..count).map(|_| rng.next()).collect()
}

impl Program {
    /// Generates a program (the `workloads` layer of this workload). The
    /// counts of processors, threads, phases and regions per phase only
    /// size the program; the traffic is the sample's.
    pub fn generate(size: Size, seed: u64) -> Program {
        let (procs, threads, phases, per_phase) = match size {
            Size::Full => (4, 8, 24, 96),
            Size::Tiny => (2, 4, 3, 12),
        };
        // The PHM SoC's processors, repeated.
        let machine = mesh_bench::phm_machine(BUS_SERVICE);
        let powers = (0..procs)
            .map(|i| machine.procs[i % machine.procs.len()].power)
            .collect();
        let samples = Source::ALL.map(traffic::sample);
        let mut rng = Rng(seed);
        let threads = (0..threads)
            .map(|t| {
                let sample = &samples[t % samples.len()];
                let mut regions = Vec::with_capacity(phases * per_phase);
                for _ in 0..phases {
                    let critical = rng.below(per_phase - 2);
                    for i in 0..per_phase {
                        let sync = if i == critical {
                            Sync::Lock
                        } else if i == critical + 1 {
                            Sync::Unlock
                        } else if i == per_phase - 1 {
                            Sync::Barrier
                        } else {
                            Sync::None
                        };
                        regions.push(Region {
                            traffic: sample[rng.below(sample.len())],
                            sync,
                        });
                    }
                }
                regions
            })
            .collect();
        Program { powers, threads }
    }

    /// Every thread's bus accesses, for the whole-program estimate.
    fn bus_accesses(&self) -> Vec<f64> {
        self.threads
            .iter()
            .map(|t| t.iter().map(|r| r.traffic.bus as f64).sum())
            .collect()
    }

    /// The builder of this program at one minimum timeslice. With a probe,
    /// both contention models are wrapped so the probe times every call.
    pub fn builder(&self, min_timeslice: u64, probe: Option<&Arc<Probe>>) -> SystemBuilder {
        let mut b = SystemBuilder::new();
        for (i, &p) in self.powers.iter().enumerate() {
            b.add_proc(format!("cpu{i}"), Power::from_units_per_cycle(p));
        }
        let service = |c| SimTime::from_cycles(c as f64);
        let (bus, io) = match probe {
            None => (
                b.add_shared_resource("bus", service(BUS_SERVICE), ChenLinBus::new()),
                b.add_shared_resource("io", service(IO_SERVICE), Md1Queue::new()),
            ),
            Some(probe) => (
                b.add_shared_resource(
                    "bus",
                    service(BUS_SERVICE),
                    Probed::new(ChenLinBus::new(), probe),
                ),
                b.add_shared_resource(
                    "io",
                    service(IO_SERVICE),
                    Probed::new(Md1Queue::new(), probe),
                ),
            ),
        };
        let barrier = b.add_barrier(self.threads.len());
        let mutex = b.add_mutex();
        for (t, regions) in self.threads.iter().enumerate() {
            let program: VecProgram = regions
                .iter()
                .map(|r| {
                    let mut a = Annotation::compute(r.traffic.cycles as f64)
                        .with_accesses(bus, r.traffic.bus as f64)
                        .with_accesses(io, r.traffic.io as f64);
                    match r.sync {
                        Sync::None => {}
                        Sync::Lock => a = a.with_sync(SyncOp::MutexLock(mutex)),
                        Sync::Unlock => a = a.with_sync(SyncOp::MutexUnlock(mutex)),
                        Sync::Barrier => a = a.with_sync(SyncOp::Barrier(barrier)),
                    }
                    a
                })
                .collect();
            b.add_thread(format!("t{t}"), program);
        }
        b.set_min_timeslice(SimTime::from_cycles(min_timeslice as f64));
        b
    }

    /// The whole-program analytical estimate of the bus queuing, from the
    /// run's per-thread busy times (the `models` layer's estimator).
    pub fn estimate_bus_queuing(&self, report: &Report) -> f64 {
        let profiles: Vec<ThreadProfile> = report
            .threads
            .iter()
            .zip(self.bus_accesses())
            .map(|(t, bus)| ThreadProfile::new(t.busy, bus))
            .collect();
        AnalyticalEstimator::new(ChenLinBus::new(), SimTime::from_cycles(BUS_SERVICE as f64))
            .estimate(&profiles)
            .queuing_total()
            .as_cycles()
    }
}

/// Every simulated statistic of one run, plus its bus estimate.
pub fn stats(report: &Report, estimate: f64) -> Vec<u64> {
    let mut s = vec![
        report.total_time.as_cycles().to_bits(),
        report.commits,
        report.slices_analyzed,
        report.incidents.len() as u64,
        estimate.to_bits(),
    ];
    s.extend(
        report
            .shared
            .iter()
            .map(|r| r.queuing.as_cycles().to_bits()),
    );
    s.extend(
        report
            .threads
            .iter()
            .map(|t| t.queuing.as_cycles().to_bits()),
    );
    s
}

/// Bus queuing of a run: what the whole-program estimate predicts.
pub fn bus_queuing(report: &Report) -> f64 {
    report.shared[0].queuing.as_cycles()
}

/// Accumulated host time and calls of the contention models.
#[derive(Debug)]
pub struct Probe {
    nanos: AtomicU64,
    calls: AtomicU64,
    /// Host time of an empty timed section, taken off every sample.
    clock_ns: u64,
}

/// One call in this many is timed and its time scaled up: two clock reads
/// per call cost about as much as a model evaluation itself. Odd, so the
/// sample does not lock onto the kernel's alternation of `penalties` and
/// `worst_case` calls over two resources.
const SAMPLE_EVERY: u64 = 17;

impl Probe {
    pub fn new() -> Probe {
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        empty.sort_unstable();
        Probe {
            nanos: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            clock_ns: empty[empty.len() / 2],
        }
    }

    fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        if !self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE_EVERY)
        {
            return call();
        }
        let t = Instant::now();
        let out = call();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        self.nanos.fetch_add(ns * SAMPLE_EVERY, Ordering::Relaxed);
        out
    }

    /// (estimated host nanoseconds, calls) so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.nanos.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// A delegating wrapper that counts every call into a contention model and
/// times a sample of them.
#[derive(Debug)]
pub struct Probed<M> {
    inner: M,
    probe: Arc<Probe>,
}

impl<M> Probed<M> {
    pub fn new(inner: M, probe: &Arc<Probe>) -> Probed<M> {
        Probed {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<M: ContentionModel> ContentionModel for Probed<M> {
    fn penalties(&self, slice: &Slice, requests: &[SliceRequest]) -> Vec<SimTime> {
        self.probe.time(|| self.inner.penalties(slice, requests))
    }

    fn worst_case(&self, slice: &Slice, requests: &[SliceRequest]) -> Vec<SimTime> {
        self.probe.time(|| self.inner.worst_case(slice, requests))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn digest_words(&self) -> Vec<u64> {
        self.inner.digest_words()
    }
}
