//! The cycle-accurate shared-bus multiprocessor simulator.
//!
//! This is the repository's stand-in for the paper's instruction-set
//! simulators (the SPLASH-2 ISS of §5.1 and the ARM + M32R GDB simulators of
//! §5.2): the ground truth every model is judged against, and the slow
//! baseline of Table 1.
//!
//! ## Timing model
//!
//! * computation: one operation per cycle, scaled by processor power;
//! * cache hit: `hit_cycles` (private cache per processor);
//! * cache miss: the processor requests the shared bus, waits for the grant
//!   (**queuing cycles** — the paper's metric), then occupies the bus for
//!   `delay_cycles`;
//! * one outstanding request per processor (simple blocking embedded cores);
//! * barriers: a processor stalls until all parties arrive.
//!
//! ## Two engines, one semantics
//!
//! The simulator ships two execution engines producing **identical**
//! [`CycleReport`]s (up to the host wall clock):
//!
//! * the **event-skipping** engine (default) computes the next interesting
//!   cycle — the earliest completion of any busy/idle occupancy, pending
//!   barrier release, or grant opportunity on a contended resource — and
//!   jumps straight to it, accounting busy/queue statistics in closed form
//!   over the skipped interval. Consecutive compute chunks, cache hits and
//!   idle gaps are fused into one occupancy (super-step fusion), because
//!   none of them interacts with shared state; a granted bus/I-O service is
//!   further fused with the winner's next span, its side effects deferred
//!   to the fused completion. Work is O(shared-state events), not
//!   O(cycles);
//! * the **reference ticker** ([`SimOptions::reference_ticker`]) advances
//!   the whole machine one cycle at a time, exactly like the original
//!   implementation. It exists as the differential-testing oracle
//!   (`tests/differential.rs`) and the speedup baseline of `perfsuite`.
//!
//! The invariants that keep the skip exact are spelled out in
//! `docs/PERFORMANCE.md`: between two interesting cycles every processor is
//! either occupied (its statistics grow linearly), waiting (likewise), or
//! parked at a barrier, and no arbitration decision can occur because
//! grants only happen when a resource frees or a waiter arrives — both
//! interesting cycles by construction.
//!
//! ## Feeds: compiled traces vs. the on-the-fly cursor
//!
//! Orthogonally to the engine choice, each processor draws its micro-events
//! from a **feed** ([`SimOptions::trace`]): either a pre-compiled trace of
//! resolved steps (the default — see the [`crate::trace`] module for the
//! compiler, the parallel compile stage and the trace namespace) or the
//! original on-the-fly segment cursor plus live cache. All four
//! engine × feed combinations produce identical reports, which
//! `tests/differential.rs` pins against the cursor-fed ticker.

use crate::cursor::{derived_pacing, Item, Pacing};
use crate::ring::GrantRing;
use crate::trace::{self, CursorFeed, StepEvent, TraceCursor, TraceMode, TraceStep};
use mesh_arch::{Arbitration, MachineConfig};
use mesh_workloads::Workload;
use std::fmt;

/// Options of a cycle-accurate run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOptions {
    /// Reference pacing within segments (see [`Pacing`]). Each processor's
    /// stream is derived from this policy with a distinct per-processor
    /// seed, so symmetric tasks do not artificially run in lockstep.
    pub pacing: Pacing,
    /// Abort when this many cycles elapse.
    pub cycle_limit: u64,
    /// Run the original tick-every-cycle engine instead of the
    /// event-skipping one. The two produce identical reports; the ticker is
    /// kept as the differential-testing oracle and perf baseline.
    pub reference_ticker: bool,
    /// Where micro-events come from: compiled (and memoized per content
    /// key) traces, or the on-the-fly cursor. The feeds produce identical
    /// reports; compiled is the fast default.
    pub trace: TraceMode,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            pacing: Pacing::default(),
            cycle_limit: u64::MAX,
            reference_ticker: false,
            trace: TraceMode::Compiled,
        }
    }
}

/// Per-processor statistics of a cycle-accurate run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcCycleStats {
    /// Cycles doing useful work: computation, cache hits and bus transfers
    /// (miss service). Excludes queuing, idle gaps and barrier waits.
    pub work_cycles: u64,
    /// Cycles spent waiting for the bus grant — the paper's queuing cycles.
    pub queuing_cycles: u64,
    /// Cycles spent in idle segments.
    pub idle_cycles: u64,
    /// Cycles stalled at barriers.
    pub barrier_wait_cycles: u64,
    /// Cache hits observed.
    pub hits: u64,
    /// Cache misses (= shared bus transactions issued).
    pub misses: u64,
    /// Shared-I/O operations issued.
    pub io_ops: u64,
    /// Cycles spent waiting for the shared I/O device's grant.
    pub io_queuing_cycles: u64,
    /// Cycle at which the task completed.
    pub finished_at: u64,
}

impl ProcCycleStats {
    /// Total references issued.
    pub fn refs(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The result of a cycle-accurate simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleReport {
    /// Cycles until the last task finished.
    pub total_cycles: u64,
    /// Per-processor statistics, index-aligned with the machine.
    pub procs: Vec<ProcCycleStats>,
    /// Cycles the bus spent transferring.
    pub bus_busy_cycles: u64,
    /// Cycles the shared I/O device spent serving.
    pub io_busy_cycles: u64,
    /// Host wall-clock time of the simulation (the Table 1 measurement).
    pub wall_clock: std::time::Duration,
}

impl CycleReport {
    /// Total queuing cycles across processors and shared resources (bus
    /// plus I/O device), matching the hybrid kernel's all-resource total.
    pub fn queuing_total(&self) -> u64 {
        self.procs
            .iter()
            .map(|p| p.queuing_cycles + p.io_queuing_cycles)
            .sum()
    }

    /// Total bus-grant queuing cycles only.
    pub fn bus_queuing_total(&self) -> u64 {
        self.procs.iter().map(|p| p.queuing_cycles).sum()
    }

    /// Total I/O-grant queuing cycles only.
    pub fn io_queuing_total(&self) -> u64 {
        self.procs.iter().map(|p| p.io_queuing_cycles).sum()
    }

    /// Total work cycles across processors.
    pub fn work_total(&self) -> u64 {
        self.procs.iter().map(|p| p.work_cycles).sum()
    }

    /// Queuing cycles as a percentage of work cycles — directly comparable
    /// with `mesh_core::Report::queuing_percent` and the analytical
    /// estimator.
    pub fn queuing_percent(&self) -> f64 {
        let work = self.work_total();
        if work == 0 {
            0.0
        } else {
            100.0 * self.queuing_total() as f64 / work as f64
        }
    }

    /// Bus utilization over the whole run.
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// An error aborting a cycle-accurate simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CycleSimError {
    /// More tasks than processors (tasks are pinned one per processor).
    TaskCountMismatch {
        /// Tasks in the workload.
        tasks: usize,
        /// Processors in the machine.
        procs: usize,
    },
    /// A segment references a barrier the workload does not define, or idle
    /// segments carry traffic, or the workload issues I/O operations on a
    /// machine without an I/O device.
    InvalidWorkload(String),
    /// Every live processor is stalled at a barrier that can never fill.
    BarrierDeadlock {
        /// The cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The configured cycle limit was exceeded.
    CycleLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for CycleSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleSimError::TaskCountMismatch { tasks, procs } => {
                write!(f, "{tasks} tasks cannot be pinned onto {procs} processors")
            }
            CycleSimError::InvalidWorkload(s) => write!(f, "invalid workload: {s}"),
            CycleSimError::BarrierDeadlock { cycle } => {
                write!(f, "barrier deadlock at cycle {cycle}")
            }
            CycleSimError::CycleLimit { limit } => {
                write!(f, "cycle limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for CycleSimError {}

/// One processor's micro-event source. Both engines consume fused
/// [`TraceStep`]s through [`Feed::next_step`]; the ticker's cursor path
/// additionally reads the raw items to replicate the original per-item
/// state machine exactly.
enum Feed<'w> {
    /// Live segment cursor + private cache (fusion happens per call).
    /// Boxed: the cache model dwarfs the common `Trace` variant.
    Cursor(Box<CursorFeed<'w>>),
    /// Pre-compiled trace (fusion happened at compile time).
    Trace(TraceCursor),
}

impl Feed<'_> {
    fn next_step(&mut self) -> TraceStep {
        match self {
            Feed::Cursor(feed) => feed.next_step(),
            Feed::Trace(reader) => reader.next_step(),
        }
    }
}

/// Flushes the run's private-cache counters into the mesh-obs registry.
/// Hits and misses come from the per-processor statistics (identical for
/// both feeds); evictions only exist on live cursor feeds — compiled traces
/// pay theirs at compile time, where [`trace::compile`] accounts them.
fn flush_private_cache_obs(feeds: &[Feed<'_>], stats: &[ProcCycleStats]) {
    if !mesh_obs::enabled() {
        return;
    }
    mesh_obs::counter("cyclesim.cache.hits").add(stats.iter().map(|s| s.hits).sum());
    mesh_obs::counter("cyclesim.cache.misses").add(stats.iter().map(|s| s.misses).sum());
    let evictions: u64 = feeds
        .iter()
        .map(|f| match f {
            Feed::Cursor(c) => c.cache.stats().evictions,
            Feed::Trace(_) => 0,
        })
        .sum();
    mesh_obs::counter("cyclesim.cache.evictions").add(evictions);
}

/// Local accumulator for the event-skipping engine's observability
/// counters: plain integers bumped in the hot loop (one well-predicted
/// branch when disabled — the engine holds `None`), flushed into the
/// process-global registry once per run.
struct SkipObs {
    /// Interesting cycles visited (jumps taken).
    events: u64,
    /// Occupancy completions dispatched off the event queue.
    dispatched: u64,
    /// Cycles jumped over without per-cycle work (`distance - 1` per jump).
    cycles_skipped: u64,
    /// High-water mark of the live event-queue length.
    queue_depth_max: u64,
    /// Grant-fused draws ([`SkipEngine::resolve_after_grant`]).
    grant_fusions: u64,
    dist_buckets: [u64; mesh_obs::HISTOGRAM_BUCKETS],
    dist_count: u64,
    dist_sum: u64,
}

impl SkipObs {
    fn new() -> SkipObs {
        SkipObs {
            events: 0,
            dispatched: 0,
            cycles_skipped: 0,
            queue_depth_max: 0,
            grant_fusions: 0,
            dist_buckets: [0; mesh_obs::HISTOGRAM_BUCKETS],
            dist_count: 0,
            dist_sum: 0,
        }
    }

    /// Accounts one jump from `from` to `to` (`to > from`).
    fn record_jump(&mut self, from: u64, to: u64) {
        let distance = to - from;
        self.events += 1;
        self.cycles_skipped += distance - 1;
        self.dist_buckets[mesh_obs::bucket_index(distance)] += 1;
        self.dist_count += 1;
        self.dist_sum = self.dist_sum.saturating_add(distance);
    }

    fn flush(&self) {
        mesh_obs::counter("cyclesim.skip.events").add(self.events);
        mesh_obs::counter("cyclesim.skip.dispatched").add(self.dispatched);
        mesh_obs::counter("cyclesim.skip.cycles_skipped").add(self.cycles_skipped);
        mesh_obs::counter("cyclesim.skip.grant_fusions").add(self.grant_fusions);
        mesh_obs::gauge("cyclesim.skip.queue_depth").set_max(self.queue_depth_max);
        mesh_obs::histogram("cyclesim.skip.distance").merge(
            &self.dist_buckets,
            self.dist_count,
            self.dist_sum,
        );
        if mesh_obs::flightrec::enabled() {
            mesh_obs::flightrec::event(
                mesh_obs::flightrec::EventKind::Grant,
                "cyclesim.skip",
                self.dispatched,
                self.grant_fusions,
            );
        }
    }
}

/// Builds the per-task feeds with decorrelated pacing seeds: compiled
/// traces (via the trace namespace) under [`TraceMode::Compiled`], with a
/// per-task cursor fallback for traces past the step cap.
fn make_feeds<'w>(
    workload: &'w Workload,
    machine: &MachineConfig,
    options: SimOptions,
) -> Vec<Feed<'w>> {
    let compiled = match options.trace {
        TraceMode::Compiled => trace::compiled_for(workload, machine, options.pacing),
        TraceMode::OnTheFly => workload.tasks.iter().map(|_| None).collect(),
    };
    workload
        .tasks
        .iter()
        .zip(compiled)
        .enumerate()
        .map(|(i, (t, compiled_trace))| match compiled_trace {
            Some(tr) => Feed::Trace(TraceCursor::new(tr)),
            None => Feed::Cursor(Box::new(CursorFeed::new(
                &t.segments,
                machine.procs[i],
                derived_pacing(options.pacing, i),
            ))),
        })
        .collect()
}

/// Runs the workload on the machine with explicit options.
///
/// # Errors
///
/// Returns [`CycleSimError`] if the workload does not fit the machine, is
/// invalid, deadlocks at a barrier, or exceeds the cycle limit.
pub fn simulate_with_options(
    workload: &Workload,
    machine: &MachineConfig,
    options: SimOptions,
) -> Result<CycleReport, CycleSimError> {
    if workload.tasks.len() > machine.procs.len() {
        return Err(CycleSimError::TaskCountMismatch {
            tasks: workload.tasks.len(),
            procs: machine.procs.len(),
        });
    }
    workload
        .validate()
        .map_err(CycleSimError::InvalidWorkload)?;
    let issues_io = workload
        .tasks
        .iter()
        .any(|t| t.segments.iter().any(|s| s.io_ops > 0));
    if issues_io && machine.io.is_none() {
        return Err(CycleSimError::InvalidWorkload(
            "workload issues I/O operations but the machine has no I/O device".to_string(),
        ));
    }
    // Counted here (after validation, before either engine) so callers can
    // assert how many full simulations a sweep actually paid for — the
    // bench layer's reference-sharing tests key off this.
    if mesh_obs::enabled() {
        mesh_obs::counter("cyclesim.sim.runs").inc();
    }
    if options.reference_ticker {
        run_ticked(workload, machine, options)
    } else {
        run_event_skip(workload, machine, options)
    }
}

// ---------------------------------------------------------------------------
// Reference ticker: the original tick-every-cycle engine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PState {
    /// Needs its next micro-event.
    Fetch,
    Compute {
        left: u64,
    },
    HitWait {
        left: u64,
    },
    WaitBus,
    OnBus {
        left: u64,
    },
    WaitIo,
    OnIo {
        left: u64,
    },
    Idle {
        left: u64,
    },
    Barrier {
        id: usize,
    },
    Done,
}

/// The original cycle-by-cycle loop, kept verbatim (modulo the [`GrantRing`]
/// wait queues, which preserve grant order exactly) as the differential
/// oracle for the event-skipping engine.
fn run_ticked(
    workload: &Workload,
    machine: &MachineConfig,
    options: SimOptions,
) -> Result<CycleReport, CycleSimError> {
    let cycle_limit = options.cycle_limit;
    let start_wall = std::time::Instant::now();
    let n = workload.tasks.len();
    let mut feeds = make_feeds(workload, machine, options);
    let _consume_span = mesh_obs::span("cyclesim.consume_ns");
    // Trace feeds only: the remainder of a macro-step in flight — the idle
    // span still to serve and the blocking event — applied as the busy and
    // idle phases complete.
    let mut pending: Vec<Option<(u64, StepEvent)>> = vec![None; n];
    let mut states = vec![PState::Fetch; n];
    let mut stats = vec![ProcCycleStats::default(); n];

    // Shared bus state.
    let mut bus_left: u64 = 0;
    let mut wait_queue = GrantRing::with_capacity(n);
    let mut rr_next: usize = 0;
    let mut bus_busy_cycles: u64 = 0;

    // Shared I/O device state (round-robin arbitration).
    let io_delay = machine.io.map(|io| io.delay_cycles).unwrap_or(0);
    let mut io_left: u64 = 0;
    let mut io_wait_queue = GrantRing::with_capacity(n);
    let mut io_rr_next: usize = 0;
    let mut io_busy_cycles: u64 = 0;

    // Barrier state.
    let mut arrived: Vec<Vec<usize>> = vec![Vec::new(); workload.barriers.len()];

    let mut cycle: u64 = 0;
    let delay = machine.bus.delay_cycles;

    // Resolve Fetch states (zero-width transitions) for processor `p`.
    // Returns the new state after consuming as many zero-cycle items as
    // needed. The cursor arm is the original per-item loop, kept verbatim;
    // the trace arm splits each pre-fused macro-step into the busy span
    // (reusing `PState::Compute` — compute, hits and their order within the
    // span are timing-equivalent), the idle span, and the pending blocking
    // event.
    #[allow(clippy::too_many_arguments)]
    fn resolve_fetch(
        p: usize,
        feeds: &mut [Feed<'_>],
        pending: &mut [Option<(u64, StepEvent)>],
        stats: &mut [ProcCycleStats],
        wait_queue: &mut GrantRing,
        io_wait_queue: &mut GrantRing,
        arrived: &mut [Vec<usize>],
        cycle: u64,
    ) -> PState {
        match &mut feeds[p] {
            Feed::Cursor(feed) => loop {
                match feed.cursor.next_item() {
                    None => {
                        stats[p].finished_at = cycle;
                        return PState::Done;
                    }
                    Some(Item::Compute(c)) => {
                        if c > 0 {
                            return PState::Compute { left: c };
                        }
                    }
                    Some(Item::Idle(c)) => {
                        if c > 0 {
                            return PState::Idle { left: c };
                        }
                    }
                    Some(Item::Ref(addr)) => {
                        if feed.cache.access(addr).is_miss() {
                            stats[p].misses += 1;
                            wait_queue.push(p);
                            return PState::WaitBus;
                        }
                        stats[p].hits += 1;
                        if feed.hit_cycles > 0 {
                            return PState::HitWait {
                                left: feed.hit_cycles,
                            };
                        }
                    }
                    Some(Item::Io) => {
                        stats[p].io_ops += 1;
                        io_wait_queue.push(p);
                        return PState::WaitIo;
                    }
                    Some(Item::Barrier(id)) => {
                        arrived[id].push(p);
                        return PState::Barrier { id };
                    }
                }
            },
            Feed::Trace(reader) => {
                let (idle, event) = match pending[p].take() {
                    Some(rest) => rest,
                    None => {
                        let step = reader.next_step();
                        stats[p].hits += step.hits;
                        if step.busy > 0 {
                            pending[p] = Some((step.idle, step.event));
                            return PState::Compute { left: step.busy };
                        }
                        (step.idle, step.event)
                    }
                };
                if idle > 0 {
                    pending[p] = Some((0, event));
                    return PState::Idle { left: idle };
                }
                match event {
                    StepEvent::Finish => {
                        stats[p].finished_at = cycle;
                        PState::Done
                    }
                    StepEvent::Miss => {
                        stats[p].misses += 1;
                        wait_queue.push(p);
                        PState::WaitBus
                    }
                    StepEvent::Io => {
                        stats[p].io_ops += 1;
                        io_wait_queue.push(p);
                        PState::WaitIo
                    }
                    StepEvent::Barrier(id) => {
                        arrived[id].push(p);
                        PState::Barrier { id }
                    }
                }
            }
        }
    }

    // Initial fetch.
    #[allow(clippy::needless_range_loop)]
    for p in 0..n {
        states[p] = resolve_fetch(
            p,
            &mut feeds,
            &mut pending,
            &mut stats,
            &mut wait_queue,
            &mut io_wait_queue,
            &mut arrived,
            cycle,
        );
    }

    loop {
        // Barrier resolution: release any full barrier before this cycle's
        // work (so released processors resume this cycle).
        let mut any_release = false;
        for (id, parties) in workload.barriers.iter().enumerate() {
            if !arrived[id].is_empty() && arrived[id].len() >= *parties {
                any_release = true;
                for p in std::mem::take(&mut arrived[id]) {
                    states[p] = resolve_fetch(
                        p,
                        &mut feeds,
                        &mut pending,
                        &mut stats,
                        &mut wait_queue,
                        &mut io_wait_queue,
                        &mut arrived,
                        cycle,
                    );
                }
            }
        }
        if states.iter().all(|s| *s == PState::Done) {
            break;
        }
        if cycle >= cycle_limit {
            return Err(CycleSimError::CycleLimit { limit: cycle_limit });
        }
        // Deadlock: every live processor is parked at a barrier that did
        // not release.
        if !any_release
            && states
                .iter()
                .all(|s| matches!(s, PState::Barrier { .. } | PState::Done))
            && states.iter().any(|s| matches!(s, PState::Barrier { .. }))
        {
            return Err(CycleSimError::BarrierDeadlock { cycle });
        }

        // Bus grant: if free, pick a requester.
        if bus_left == 0 && !wait_queue.is_empty() {
            let chosen = match machine.bus.arbitration {
                Arbitration::FixedPriority => wait_queue.grant_min(),
                Arbitration::ReversePriority => wait_queue.grant_max(),
                Arbitration::VictimLast(victim) => wait_queue.grant_victim_last(victim),
                Arbitration::RoundRobin => {
                    let p = wait_queue.grant_round_robin(rr_next);
                    rr_next = (p + 1) % n;
                    p
                }
            };
            states[chosen] = PState::OnBus { left: delay };
            bus_left = delay;
        }

        // I/O device grant: round-robin among requesters.
        if io_left == 0 && !io_wait_queue.is_empty() {
            let chosen = io_wait_queue.grant_round_robin(io_rr_next);
            io_rr_next = (chosen + 1) % n;
            states[chosen] = PState::OnIo { left: io_delay };
            io_left = io_delay;
        }

        // Processor phase: everyone consumes one cycle.
        for p in 0..n {
            match states[p] {
                PState::Done => {}
                PState::Fetch => unreachable!("fetch states are resolved eagerly"),
                PState::Compute { left } => {
                    stats[p].work_cycles += 1;
                    states[p] = if left == 1 {
                        resolve_fetch(
                            p,
                            &mut feeds,
                            &mut pending,
                            &mut stats,
                            &mut wait_queue,
                            &mut io_wait_queue,
                            &mut arrived,
                            cycle + 1,
                        )
                    } else {
                        PState::Compute { left: left - 1 }
                    };
                }
                PState::HitWait { left } => {
                    stats[p].work_cycles += 1;
                    states[p] = if left == 1 {
                        resolve_fetch(
                            p,
                            &mut feeds,
                            &mut pending,
                            &mut stats,
                            &mut wait_queue,
                            &mut io_wait_queue,
                            &mut arrived,
                            cycle + 1,
                        )
                    } else {
                        PState::HitWait { left: left - 1 }
                    };
                }
                PState::WaitBus => {
                    stats[p].queuing_cycles += 1;
                }
                PState::OnBus { left } => {
                    stats[p].work_cycles += 1;
                    bus_busy_cycles += 1;
                    bus_left -= 1;
                    states[p] = if left == 1 {
                        resolve_fetch(
                            p,
                            &mut feeds,
                            &mut pending,
                            &mut stats,
                            &mut wait_queue,
                            &mut io_wait_queue,
                            &mut arrived,
                            cycle + 1,
                        )
                    } else {
                        PState::OnBus { left: left - 1 }
                    };
                }
                PState::WaitIo => {
                    stats[p].io_queuing_cycles += 1;
                }
                PState::OnIo { left } => {
                    stats[p].work_cycles += 1;
                    io_busy_cycles += 1;
                    io_left -= 1;
                    states[p] = if left == 1 {
                        resolve_fetch(
                            p,
                            &mut feeds,
                            &mut pending,
                            &mut stats,
                            &mut wait_queue,
                            &mut io_wait_queue,
                            &mut arrived,
                            cycle + 1,
                        )
                    } else {
                        PState::OnIo { left: left - 1 }
                    };
                }
                PState::Idle { left } => {
                    stats[p].idle_cycles += 1;
                    states[p] = if left == 1 {
                        resolve_fetch(
                            p,
                            &mut feeds,
                            &mut pending,
                            &mut stats,
                            &mut wait_queue,
                            &mut io_wait_queue,
                            &mut arrived,
                            cycle + 1,
                        )
                    } else {
                        PState::Idle { left: left - 1 }
                    };
                }
                PState::Barrier { .. } => {
                    stats[p].barrier_wait_cycles += 1;
                }
            }
        }

        cycle += 1;
    }

    if mesh_obs::enabled() {
        mesh_obs::counter("cyclesim.tick.cycles").add(cycle);
        flush_private_cache_obs(&feeds, &stats);
    }
    Ok(CycleReport {
        total_cycles: cycle,
        procs: stats,
        bus_busy_cycles,
        io_busy_cycles,
        wall_clock: start_wall.elapsed(),
    })
}

// ---------------------------------------------------------------------------
// Event-skipping engine.
// ---------------------------------------------------------------------------

/// Processor state of the event-skipping engine. Compute chunks, cache hits
/// and idle gaps are fused into a single [`EvState::Busy`] occupancy: none
/// of them interacts with shared state, and their statistics are accrued
/// eagerly as closed-form totals, so the fusion is observationally
/// identical to ticking them apart. The fusion itself lives in the feed
/// ([`Feed::next_step`]): per-call for the cursor path, pre-resolved for
/// compiled traces — the engine consumes identical [`TraceStep`]s either
/// way, its completion carrying the step's blocking [`StepEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvState {
    /// Occupied until the given cycle: compute, cache hits and/or idle
    /// gaps, possibly fused with a preceding bus/I-O occupancy (see
    /// [`SkipEngine::resolve_after_grant`]). A shared-resource occupancy
    /// never needs its own state here: the bus frees at
    /// [`SkipEngine::bus_busy_until`] regardless, and the occupant's next
    /// step is drawn eagerly at the grant — only its *side effects* wait,
    /// parked in `then`, executed when this fused span completes.
    Busy { until: u64, then: StepEvent },
    /// Waiting for the bus grant since the given cycle.
    WaitBus { since: u64 },
    /// Waiting for the I/O device grant since the given cycle.
    WaitIo { since: u64 },
    /// Parked at a barrier since the given cycle.
    Barrier { id: usize, since: u64 },
    /// Task complete.
    Done,
}

impl EvState {
    /// The cycle at which this state completes on its own, if any.
    #[inline]
    fn deadline(&self) -> Option<u64> {
        match *self {
            EvState::Busy { until, .. } => Some(until),
            _ => None,
        }
    }
}

/// The event-skipping engine's mutable state. Bundled into a struct so the
/// hot helpers are methods instead of ten-argument free functions, and so
/// the bookkeeping that keeps every per-event check cheap — the deadline
/// array and the done/parked/full counters — lives next to the state it
/// shadows.
struct SkipEngine<'w> {
    /// Barrier party counts, from the workload.
    barriers: &'w [usize],
    feeds: Vec<Feed<'w>>,
    stats: Vec<ProcCycleStats>,
    states: Vec<EvState>,
    /// Pending occupancy completions `(deadline, processor)`: the live set
    /// is `events[events_head..]`, lexicographically ascending (entries
    /// before the head are already-processed garbage, compacted away once
    /// the dead prefix outgrows the live set). A timed state can only
    /// leave at its deadline and each processor has at most one timed
    /// state, so entries are never stale and never removed early —
    /// installs are a sorted insert (new deadlines usually land at the
    /// back, so the memmove is short), the next interesting cycle is a
    /// front peek, and walking the equal-deadline prefix yields
    /// completions in exactly the ticker's processor-phase order
    /// (ascending index). The tiny sorted vec beats a per-event full
    /// rescan (O(procs) twice per event — measurably the hot-loop floor at
    /// 16 processors), a `VecDeque` (two-lane index math on every probe),
    /// and a binary heap (whose lazy-deletion bookkeeping costs more than
    /// a short memmove at these sizes).
    events: Vec<(u64, usize)>,
    events_head: usize,

    // Shared bus: busy through `bus_busy_until - 1`; a new grant can happen
    // at any top-of-cycle `>= bus_busy_until`.
    bus_ring: GrantRing,
    rr_next: usize,
    bus_busy_until: u64,
    bus_busy_cycles: u64,

    // Shared I/O device (always round-robin).
    io_delay: u64,
    io_ring: GrantRing,
    io_rr_next: usize,
    io_busy_until: u64,
    io_busy_cycles: u64,

    arrived: Vec<Vec<usize>>,
    /// Whether each barrier is currently full (will release at the next
    /// top-of-cycle), plus the count of full barriers.
    full: Vec<bool>,
    full_count: usize,
    /// Processors in `Done` state.
    done_count: usize,
    /// Processors in `Barrier` or `Done` state (the deadlock predicate).
    parked_count: usize,
}

impl<'w> SkipEngine<'w> {
    /// Records an arrival at barrier `id`, maintaining the fullness count.
    fn arrive(&mut self, id: usize, p: usize) {
        self.arrived[id].push(p);
        if !self.full[id] && self.arrived[id].len() >= self.barriers[id] {
            self.full[id] = true;
            self.full_count += 1;
        }
    }

    /// Installs processor `p`'s new state, updating the completion heap and
    /// the O(1) counters.
    fn install(&mut self, p: usize, state: EvState) {
        match state {
            EvState::Done => {
                self.done_count += 1;
                self.parked_count += 1;
            }
            EvState::Barrier { .. } => self.parked_count += 1,
            _ => {}
        }
        if let Some(d) = state.deadline() {
            if self.events_head >= 64 {
                self.events.drain(..self.events_head);
                self.events_head = 0;
            }
            // Insertion-sort style scan-and-shift from the back: new
            // deadlines are in the future of everything already queued more
            // often than not, so the common case is a plain push with zero
            // shifts — cheaper and better predicted than a binary search,
            // whose log2(live) compares are each a coin flip.
            self.events.push((d, p));
            let mut i = self.events.len() - 1;
            while i > self.events_head && self.events[i - 1] > (d, p) {
                self.events[i] = self.events[i - 1];
                i -= 1;
            }
            self.events[i] = (d, p);
        }
        self.states[p] = state;
    }

    /// Draws processor `p`'s next fused macro-step from its feed at `cycle`
    /// — compute chunks, cache hits and idle gaps already merged into one
    /// span, whether by the live cursor feed or at trace-compile time — and
    /// turns it into the corresponding engine state.
    ///
    /// Statistics whose final value does not depend on *when* they are
    /// counted (work/idle cycle totals, hit/miss/io counters) are accrued
    /// eagerly here; time-dependent fields (`finished_at`, queue/barrier
    /// waits) are recorded at the corresponding transition.
    fn resolve(&mut self, p: usize, cycle: u64) -> EvState {
        let step = self.feeds[p].next_step();
        {
            let stats = &mut self.stats[p];
            stats.hits += step.hits;
            match step.event {
                StepEvent::Miss => stats.misses += 1,
                StepEvent::Io => stats.io_ops += 1,
                _ => {}
            }
            let span = step.busy + step.idle;
            if span > 0 {
                stats.work_cycles += step.busy;
                stats.idle_cycles += step.idle;
                return EvState::Busy {
                    until: cycle + span,
                    then: step.event,
                };
            }
        }
        match step.event {
            StepEvent::Finish => {
                self.stats[p].finished_at = cycle;
                EvState::Done
            }
            StepEvent::Miss => {
                self.bus_ring.push(p);
                EvState::WaitBus { since: cycle }
            }
            StepEvent::Io => {
                self.io_ring.push(p);
                EvState::WaitIo { since: cycle }
            }
            StepEvent::Barrier(id) => {
                self.arrive(id, p);
                EvState::Barrier { id, since: cycle }
            }
        }
    }

    /// Resolves and installs `p`'s next state.
    fn resolve_into(&mut self, p: usize, cycle: u64) {
        let state = self.resolve(p, cycle);
        self.install(p, state);
    }

    /// Draws `p`'s next step at the moment a shared-resource grant is
    /// issued, fusing the resource occupancy (which runs through
    /// `freed - 1`) and the step's busy span into a single completion at
    /// `freed + busy`. The draw is safe this early because feeds are
    /// per-processor pure — a private trace cursor, or a private
    /// cache + RNG — so *when* a step is drawn cannot change its value;
    /// only the step's side effects are phase-sensitive, and those stay
    /// parked in `then` until the completion handler runs them at exactly
    /// the cycle the ticker would (a zero-length busy span completes at
    /// `freed` itself). This halves the event traffic per transaction and
    /// drops the resource-occupancy states entirely; the grant opportunity
    /// the old completion event used to create is restored by the
    /// `next = min(next, busy_until)` clauses in the main loop.
    fn resolve_after_grant(&mut self, p: usize, freed: u64) -> EvState {
        let step = self.feeds[p].next_step();
        let stats = &mut self.stats[p];
        stats.hits += step.hits;
        match step.event {
            StepEvent::Miss => stats.misses += 1,
            StepEvent::Io => stats.io_ops += 1,
            _ => {}
        }
        stats.work_cycles += step.busy;
        stats.idle_cycles += step.idle;
        EvState::Busy {
            until: freed + step.busy + step.idle,
            then: step.event,
        }
    }
}

/// The event-skipping engine: jumps from one interesting cycle to the next,
/// accounting the skipped interval in closed form. Produces reports
/// identical to [`run_ticked`] (see the module docs for the argument and
/// `tests/differential.rs` for the proof-by-property-test).
fn run_event_skip(
    workload: &Workload,
    machine: &MachineConfig,
    options: SimOptions,
) -> Result<CycleReport, CycleSimError> {
    let cycle_limit = options.cycle_limit;
    let start_wall = std::time::Instant::now();
    let n = workload.tasks.len();
    let n_barriers = workload.barriers.len();
    let mut e = SkipEngine {
        barriers: &workload.barriers,
        feeds: make_feeds(workload, machine, options),
        stats: vec![ProcCycleStats::default(); n],
        states: vec![EvState::Done; n],
        events: Vec::with_capacity(64 + n),
        events_head: 0,
        bus_ring: GrantRing::with_capacity(n),
        rr_next: 0,
        bus_busy_until: 0,
        bus_busy_cycles: 0,
        io_delay: machine.io.map(|io| io.delay_cycles).unwrap_or(0),
        io_ring: GrantRing::with_capacity(n),
        io_rr_next: 0,
        io_busy_until: 0,
        io_busy_cycles: 0,
        arrived: vec![Vec::new(); n_barriers],
        full: vec![false; n_barriers],
        full_count: 0,
        done_count: 0,
        parked_count: 0,
    };
    let delay = machine.bus.delay_cycles;
    let mut cycle: u64 = 0;
    let mut obs = mesh_obs::enabled().then(SkipObs::new);
    let _consume_span = mesh_obs::span("cyclesim.consume_ns");

    // Initial fetch: resolutions for cycle 0.
    for p in 0..n {
        e.resolve_into(p, 0);
    }

    loop {
        // Top of (interesting) cycle `cycle`: all resolutions due at this
        // cycle have been applied. The phases below mirror the ticker's
        // per-cycle phases in the same order: barrier release, termination
        // checks, bus grant, I/O grant.
        let mut any_release = false;
        if e.full_count > 0 {
            for id in 0..n_barriers {
                if !e.full[id] {
                    continue;
                }
                any_release = true;
                e.full[id] = false;
                e.full_count -= 1;
                for p in std::mem::take(&mut e.arrived[id]) {
                    if let EvState::Barrier { since, .. } = e.states[p] {
                        e.stats[p].barrier_wait_cycles += cycle - since;
                    }
                    e.parked_count -= 1;
                    e.resolve_into(p, cycle);
                }
            }
        }
        if e.done_count == n {
            break;
        }
        if cycle >= cycle_limit {
            return Err(CycleSimError::CycleLimit { limit: cycle_limit });
        }
        if !any_release && e.parked_count == n {
            // Not all Done (checked above), so at least one is at a barrier
            // that did not release: every live processor is stuck.
            return Err(CycleSimError::BarrierDeadlock { cycle });
        }

        // Bus grant: at most one per cycle, only when the bus is free. The
        // waiter's queuing span closes here, in closed form.
        if cycle >= e.bus_busy_until && !e.bus_ring.is_empty() {
            let chosen = match machine.bus.arbitration {
                Arbitration::FixedPriority => e.bus_ring.grant_min(),
                Arbitration::ReversePriority => e.bus_ring.grant_max(),
                Arbitration::VictimLast(victim) => e.bus_ring.grant_victim_last(victim),
                Arbitration::RoundRobin => {
                    let p = e.bus_ring.grant_round_robin(e.rr_next);
                    e.rr_next = (p + 1) % n;
                    p
                }
            };
            let EvState::WaitBus { since } = e.states[chosen] else {
                unreachable!("bus ring holds only WaitBus processors");
            };
            e.stats[chosen].queuing_cycles += cycle - since;
            e.stats[chosen].work_cycles += delay;
            e.bus_busy_cycles += delay;
            e.bus_busy_until = cycle + delay;
            let state = e.resolve_after_grant(chosen, cycle + delay);
            e.install(chosen, state);
            if let Some(o) = obs.as_mut() {
                o.grant_fusions += 1;
            }
        }

        // I/O grant, identically.
        if cycle >= e.io_busy_until && !e.io_ring.is_empty() {
            let chosen = e.io_ring.grant_round_robin(e.io_rr_next);
            e.io_rr_next = (chosen + 1) % n;
            let EvState::WaitIo { since } = e.states[chosen] else {
                unreachable!("io ring holds only WaitIo processors");
            };
            e.stats[chosen].io_queuing_cycles += cycle - since;
            e.stats[chosen].work_cycles += e.io_delay;
            e.io_busy_cycles += e.io_delay;
            e.io_busy_until = cycle + e.io_delay;
            let state = e.resolve_after_grant(chosen, cycle + e.io_delay);
            e.install(chosen, state);
            if let Some(o) = obs.as_mut() {
                o.grant_fusions += 1;
            }
        }

        // Next interesting cycle: the earliest occupancy completion, the
        // next grant opportunity on a contended resource (it frees with
        // waiters still queued — both `busy_until`s exceed `cycle` whenever
        // their ring is non-empty here, since a free resource would have
        // granted above), or one cycle ahead when a barrier filled during
        // this cycle's release pass (the ticker would release it at the
        // very next top). If nothing is scheduled at all, every live
        // processor is parked at a barrier that just released others — the
        // next top detects the deadlock one cycle later, exactly like the
        // ticker.
        let mut next = e.events.get(e.events_head).map_or(u64::MAX, |&(d, _)| d);
        if !e.bus_ring.is_empty() {
            next = next.min(e.bus_busy_until);
        }
        if !e.io_ring.is_empty() {
            next = next.min(e.io_busy_until);
        }
        if e.full_count > 0 {
            next = next.min(cycle + 1);
        }
        if next == u64::MAX {
            next = cycle + 1;
        }
        // Never jump past the cycle limit: the ticker reports the limit
        // violation at top-of-cycle `cycle_limit` exactly.
        next = next.min(cycle_limit);
        debug_assert!(next > cycle, "event time must advance");
        if let Some(o) = obs.as_mut() {
            o.record_jump(cycle, next);
            let live = (e.events.len() - e.events_head) as u64;
            o.queue_depth_max = o.queue_depth_max.max(live);
        }

        // Process every completion due at `next`, in processor-index order —
        // the ascending lex-sorted event queue yields exactly the ticker's
        // processor-phase order off its front. A processor's handler only
        // reinstalls that same processor, always with a deadline beyond
        // `next`, so new entries land after the due prefix and are never
        // popped here.
        // Counted directly: `install` may compact the queue mid-loop, so
        // `events_head` deltas are not a reliable dispatch count.
        let mut dispatched_here: u64 = 0;
        while let Some(&(d, p)) = e.events.get(e.events_head) {
            if d != next {
                break;
            }
            e.events_head += 1;
            dispatched_here += 1;
            debug_assert_eq!(e.states[p].deadline(), Some(next), "stale event entry");
            match e.states[p] {
                EvState::Busy { then, .. } => match then {
                    StepEvent::Finish => {
                        e.stats[p].finished_at = next;
                        e.install(p, EvState::Done);
                    }
                    StepEvent::Miss => {
                        e.bus_ring.push(p);
                        e.install(p, EvState::WaitBus { since: next });
                    }
                    StepEvent::Io => {
                        e.io_ring.push(p);
                        e.install(p, EvState::WaitIo { since: next });
                    }
                    StepEvent::Barrier(id) => {
                        e.arrive(id, p);
                        e.install(p, EvState::Barrier { id, since: next });
                    }
                },
                _ => unreachable!("only occupancy states carry deadlines"),
            }
        }
        if let Some(o) = obs.as_mut() {
            o.dispatched += dispatched_here;
        }
        cycle = next;
    }

    if let Some(o) = &obs {
        o.flush();
        flush_private_cache_obs(&e.feeds, &e.stats);
    }
    Ok(CycleReport {
        total_cycles: cycle,
        procs: e.stats,
        bus_busy_cycles: e.bus_busy_cycles,
        io_busy_cycles: e.io_busy_cycles,
        wall_clock: start_wall.elapsed(),
    })
}

/// Runs the workload on the machine, without a cycle limit.
///
/// # Errors
///
/// Returns [`CycleSimError`] if the workload does not fit the machine, is
/// invalid, or deadlocks at a barrier.
///
/// # Examples
///
/// ```
/// use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
/// use mesh_cyclesim::simulate;
/// use mesh_workloads::{Segment, TaskProgram, Workload};
///
/// let cache = CacheConfig::direct_mapped(1024, 32).unwrap();
/// let machine = MachineConfig::homogeneous(1, ProcConfig::new(cache), BusConfig::new(4));
/// let mut w = Workload::new();
/// w.add_task(TaskProgram::new("t").with_segment(Segment::work(100)));
/// let report = simulate(&w, &machine).unwrap();
/// assert_eq!(report.total_cycles, 100);
/// ```
pub fn simulate(
    workload: &Workload,
    machine: &MachineConfig,
) -> Result<CycleReport, CycleSimError> {
    simulate_with_options(workload, machine, SimOptions::default())
}

/// Runs the workload with default pacing and the given cycle limit.
///
/// # Errors
///
/// As [`simulate_with_options`].
pub fn simulate_with_limit(
    workload: &Workload,
    machine: &MachineConfig,
    cycle_limit: u64,
) -> Result<CycleReport, CycleSimError> {
    simulate_with_options(
        workload,
        machine,
        SimOptions {
            cycle_limit,
            ..SimOptions::default()
        },
    )
}
