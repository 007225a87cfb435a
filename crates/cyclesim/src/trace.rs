//! Trace compilation: resolving each task's micro-event stream ahead of
//! time so the engines' hot loops merge pre-computed events.
//!
//! Caches are private per processor, so a task's address stream — and hence
//! its hit/miss sequence — is invariant under bus timing, I/O grants and
//! barrier stalls: nothing another processor does can change *which*
//! references miss, only *when* the misses are serviced. That makes the
//! expensive per-reference work (the segment cursor walk, the Poisson gap
//! draw, the LRU [`Cache::access`]) a pure function of
//! `(segments, ProcConfig, pacing)` and lets it run once, at *compile*
//! time, instead of once per reference per run:
//!
//! * a `TraceStep` is one run-length-encoded **macro-step**: the maximal
//!   contention-free run of compute chunks, cache hits and idle gaps —
//!   fused into closed-form busy/idle aggregates — followed by the
//!   shared-state event it runs into (miss, I/O, barrier, or task end).
//!   Idle gaps never interact with shared resources, so folding them into
//!   the span (super-step fusion) is observationally identical to stepping
//!   them apart, and halves the engines' event traffic on idle-heavy
//!   workloads on top of the compute/hit fusion;
//! * a `TaskTrace` stores the steps in fixed-size chunks, so compiling
//!   never needs one giant contiguous allocation and consuming streams
//!   through memory chunk by chunk;
//! * traces resolve through the store's trace namespace
//!   ([`crate::store::Namespace`]), keyed by a stable content hash of the
//!   segments, the processor's timing digest
//!   ([`mesh_arch::ProcConfig::digest_words`]) and the derived pacing seed:
//!   its memory tier first, then the `MESH_TRACE_STORE` directory, then a
//!   compile. fig4/fig5-style grids that revisit the same per-processor
//!   streams (they vary cache size and processor count, not the programs)
//!   compile each distinct trace exactly once per process, even when
//!   parallel sweep points ask for it at the same time;
//! * a workload's distinct keys resolve in parallel ([`std::thread::scope`]
//!   workers over a shared atomic index, worker count from
//!   [`jobs_from_env`], the sweep engine's `MESH_BENCH_JOBS`).
//!
//! Memory stays bounded: a single task's trace is capped at 4 Mi steps
//! (beyond it the engines fall back to the on-the-fly cursor and the
//! verdict is kept in memory as a negative entry), and the memory tier
//! evicts least-recently-used traces beyond 8 Mi resident steps.
//!
//! Exactness is proven the same way the event-skipping engine's is:
//! `tests/differential.rs` pins trace-fed runs of both engines to
//! field-identical [`CycleReport`](crate::CycleReport)s — and identical
//! errors — against the on-the-fly cursor reference across the whole
//! pacing/arbitration/barrier/I/O/error space.

use crate::cursor::{derived_pacing, Item, Pacing, TaskCursor};
use crate::store::{Namespace, Origin, StoreStats, Value};
use mesh_arch::{Cache, MachineConfig, ProcConfig};
use mesh_workloads::{Segment, Workload};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Once};

/// Cap on one task's compiled trace, in steps (≈ 128 MiB). Tasks beyond it
/// fall back to the on-the-fly cursor; the verdict is kept in memory so the
/// compile cost is paid once.
const MAX_STEPS: usize = 4 << 20;

/// Budget of the trace namespace's memory tier, in resident steps across
/// all traces (≈ 256 MiB). Least-recently-used traces are evicted first
/// when an insert would exceed it.
const CACHE_STEPS: usize = 8 << 20;

/// Steps per storage chunk: large enough that chunk-boundary checks vanish
/// in the consume loop, small enough that a trace never over-allocates by
/// more than ~256 KiB.
const CHUNK_STEPS: usize = 8192;

/// Which feed the engines draw micro-events from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Compile each task's trace up front (through the trace namespace)
    /// and feed both engines pre-resolved steps. The default.
    #[default]
    Compiled,
    /// Walk the segment cursor, draw pacing gaps and access the cache
    /// during the run — the original path, kept as the differential
    /// reference for the compiled feed.
    OnTheFly,
}

/// The shared-state event a macro-step runs into — what the processor does
/// once its fused compute/hit/idle occupancy completes. Every variant
/// touches state another processor can observe (a shared resource, a
/// barrier, or run termination); anything private fuses into the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepEvent {
    /// A cache miss: request the shared bus.
    Miss,
    /// A shared-I/O operation: request the device.
    Io,
    /// Arrive at this barrier.
    Barrier(usize),
    /// The task is complete.
    Finish,
}

/// One run-length-encoded macro-step of a task: occupy the processor for
/// `busy` work cycles (compute fused with `hits` cache hits), sit idle for
/// `idle` cycles, then block on `event`. Both spans may be zero (e.g.
/// back-to-back misses); `hits` counts the hits fused into the span so
/// statistics can be accrued without replay. Interleavings of compute and
/// idle inside one contention-free run collapse to busy-then-idle: no
/// shared state is touched mid-span, so only the totals and the end cycle
/// are observable — all preserved exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceStep {
    pub(crate) busy: u64,
    pub(crate) idle: u64,
    pub(crate) hits: u64,
    pub(crate) event: StepEvent,
}

/// An on-the-fly step producer: walks the segment cursor and the private
/// cache, fusing compute chunks and hits exactly like the trace compiler.
/// This is both the engines' `OnTheFly` feed and the compiler's input — one
/// fusion implementation, so the compiled and live paths cannot drift.
pub(crate) struct CursorFeed<'w> {
    pub(crate) cursor: TaskCursor<'w>,
    pub(crate) cache: Cache,
    pub(crate) hit_cycles: u64,
}

impl<'w> CursorFeed<'w> {
    pub(crate) fn new(segments: &'w [Segment], proc: ProcConfig, pacing: Pacing) -> CursorFeed<'w> {
        CursorFeed {
            cursor: TaskCursor::new(segments, proc, pacing),
            cache: Cache::new(proc.cache),
            hit_cycles: proc.hit_cycles,
        }
    }

    /// Produces the next macro-step: consumes items, accumulating compute
    /// chunks and hit costs into the busy span and idle gaps into the idle
    /// span, until a shared-state event (or the end of the task).
    /// Zero-length compute and idle items vanish, as the engines always
    /// have them.
    pub(crate) fn next_step(&mut self) -> TraceStep {
        let mut busy: u64 = 0;
        let mut idle: u64 = 0;
        let mut hits: u64 = 0;
        loop {
            let event = match self.cursor.next_item() {
                None => StepEvent::Finish,
                Some(Item::Compute(c)) => {
                    busy += c;
                    continue;
                }
                Some(Item::Idle(c)) => {
                    idle += c;
                    continue;
                }
                Some(Item::Ref(addr)) => {
                    if self.cache.access(addr).is_miss() {
                        StepEvent::Miss
                    } else {
                        hits += 1;
                        busy += self.hit_cycles;
                        continue;
                    }
                }
                Some(Item::Io) => StepEvent::Io,
                Some(Item::Barrier(id)) => StepEvent::Barrier(id),
            };
            return TraceStep {
                busy,
                idle,
                hits,
                event,
            };
        }
    }
}

/// One task's compiled trace: the full step sequence, chunked.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TaskTrace {
    chunks: Vec<Box<[TraceStep]>>,
    steps: usize,
}

impl TaskTrace {
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Rebuilds a trace from a flat step sequence — the persistent store's
    /// load path. Chunking matches [`compile`], so a loaded trace is
    /// field-identical (including [`PartialEq`]) to a fresh compile.
    pub(crate) fn from_steps(steps: Vec<TraceStep>) -> TaskTrace {
        let count = steps.len();
        let mut chunks: Vec<Box<[TraceStep]>> = Vec::with_capacity(count.div_ceil(CHUNK_STEPS));
        let mut iter = steps.into_iter();
        loop {
            let chunk: Vec<TraceStep> = iter.by_ref().take(CHUNK_STEPS).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk.into_boxed_slice());
        }
        TaskTrace {
            chunks,
            steps: count,
        }
    }

    /// All steps in order, across chunk boundaries — the persistent store's
    /// serialization path.
    pub(crate) fn iter_steps(&self) -> impl Iterator<Item = &TraceStep> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

/// A consuming position in a shared [`TaskTrace`]. Engines stop at
/// [`StepEvent::Finish`], which is always the last step, so the reader is
/// never advanced past the end.
pub(crate) struct TraceCursor {
    trace: Arc<TaskTrace>,
    chunk: usize,
    idx: usize,
}

impl TraceCursor {
    pub(crate) fn new(trace: Arc<TaskTrace>) -> TraceCursor {
        TraceCursor {
            trace,
            chunk: 0,
            idx: 0,
        }
    }

    pub(crate) fn next_step(&mut self) -> TraceStep {
        let chunk = &self.trace.chunks[self.chunk];
        let step = chunk[self.idx];
        self.idx += 1;
        if self.idx == chunk.len() {
            self.chunk += 1;
            self.idx = 0;
        }
        step
    }
}

/// Compiles one task: drains a [`CursorFeed`] into chunked storage. Returns
/// `None` when the trace would exceed `max_steps` (the caller falls back to
/// the on-the-fly cursor).
pub(crate) fn compile(
    segments: &[Segment],
    proc: ProcConfig,
    pacing: Pacing,
    max_steps: usize,
) -> Option<TaskTrace> {
    let mut feed = CursorFeed::new(segments, proc, pacing);
    let mut chunks: Vec<Box<[TraceStep]>> = Vec::new();
    let mut current: Vec<TraceStep> = Vec::with_capacity(CHUNK_STEPS.min(max_steps.max(1)));
    let mut steps: usize = 0;
    let mut fused_idle: u64 = 0;
    loop {
        let step = feed.next_step();
        if steps >= max_steps {
            return None;
        }
        if step.idle > 0 {
            fused_idle += 1;
        }
        current.push(step);
        steps += 1;
        if current.len() == CHUNK_STEPS {
            chunks.push(std::mem::take(&mut current).into_boxed_slice());
            current = Vec::with_capacity(CHUNK_STEPS);
        }
        if step.event == StepEvent::Finish {
            break;
        }
    }
    if !current.is_empty() {
        chunks.push(current.into_boxed_slice());
    }
    if mesh_obs::enabled() {
        // Compiled feeds replay hit/miss verdicts without a cache, so the
        // private cache's evictions are only observable here, at compile.
        mesh_obs::counter("cyclesim.cache.evictions").add(feed.cache.stats().evictions);
        // Macro-steps whose span absorbed an idle gap: each would have been
        // (at least) one extra engine event before super-step fusion.
        mesh_obs::counter("cyclesim.trace.fused_idle_spans").add(fused_idle);
    }
    Some(TaskTrace { chunks, steps })
}

// ---------------------------------------------------------------------------
// Content keying.
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a over the std `Hash` protocol: a stable, process-portable
/// content hash (std's default hasher is randomly keyed per process, which
/// would defeat deterministic keying). 128 bits make accidental collisions
/// across a sweep's handful of distinct workloads negligible. Every
/// content key and fingerprint of the workspace folds through it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }
}

impl Fnv128 {
    /// The full 128-bit hash of everything written so far.
    pub fn finish128(&self) -> u128 {
        self.0
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

/// The trace namespace key: everything [`compile`] reads. The segments
/// hash through their derived `Hash` impls; the processor contributes its
/// timing digest words (power bits, cache geometry, hit cost); the pacing
/// is the *derived* per-processor policy, so two processors sharing a seed
/// base but differing in index key separately.
fn trace_key(segments: &[Segment], proc: ProcConfig, pacing: Pacing) -> u128 {
    let mut h = Fnv128::default();
    segments.hash(&mut h);
    for w in proc.digest_words() {
        h.write_u64(w);
    }
    match pacing {
        Pacing::Even => h.write_u8(0),
        Pacing::Poisson(seed) => {
            h.write_u8(1);
            h.write_u64(seed);
        }
    }
    h.finish128()
}

/// The trace key of every task of the workload, index-aligned.
fn task_keys(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> Vec<u128> {
    (0..workload.tasks.len())
        .map(|i| {
            trace_key(
                &workload.tasks[i].segments,
                machine.procs[i],
                derived_pacing(pacing, i),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Resolution through the trace namespace.
// ---------------------------------------------------------------------------

/// Worker-count variable of parallel trace compilation, shared with the
/// sweep engine (`mesh_bench::sweep` re-exports it).
pub const JOBS_ENV: &str = "MESH_BENCH_JOBS";

/// The worker count of parallel sweeps and trace compilation: [`JOBS_ENV`]
/// if set to a positive integer, else the host's available parallelism.
/// An invalid value is reported on stderr (once per process).
///
/// # Examples
///
/// ```
/// // With MESH_BENCH_JOBS unset this is the host's core count.
/// assert!(mesh_cyclesim::jobs_from_env() >= 1);
/// ```
pub fn jobs_from_env() -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var(JOBS_ENV) {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "mesh-cyclesim: ignoring invalid {JOBS_ENV}={value:?} (want a positive integer)"
                    );
                });
                default()
            }
        },
        Err(_) => default(),
    }
}

/// Resolved trace of one task: `None` marks a task past the step cap (the
/// engines fall back to its on-the-fly cursor). A negative entry is held in
/// memory at no cost, so the compile is paid once, but never published.
impl Value for Option<Arc<TaskTrace>> {
    fn cost(&self) -> usize {
        self.as_ref().map_or(0, |t| t.steps())
    }

    fn payload(&self) -> Option<Vec<u8>> {
        self.as_deref().map(encode_steps)
    }
}

/// Compiles task `i` of the workload for the trace namespace, counting the
/// compile.
fn compile_task(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
    i: usize,
) -> Option<Arc<TaskTrace>> {
    if mesh_obs::enabled() {
        mesh_obs::counter("cyclesim.trace.compiles").inc();
    }
    compile(
        &workload.tasks[i].segments,
        machine.procs[i],
        derived_pacing(pacing, i),
        MAX_STEPS,
    )
    .map(Arc::new)
}

/// Runs `resolve` once per distinct key of `keys` (on its first task), on
/// up to [`jobs_from_env`] threads (the caller's included), and hands every
/// task its key's result.
fn per_distinct_key<R: Clone + Send>(keys: &[u128], resolve: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let firsts: Vec<usize> = (0..keys.len())
        .filter(|&i| !keys[..i].contains(&keys[i]))
        .collect();
    let jobs = jobs_from_env().min(firsts.len()).max(1);
    let share = |w: usize| -> Vec<(usize, R)> {
        firsts
            .iter()
            .skip(w)
            .step_by(jobs)
            .map(|&i| (i, resolve(i)))
            .collect()
    };
    let resolved: Vec<(usize, R)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..jobs).map(|w| s.spawn(move || share(w))).collect();
        let mut all = share(0);
        for helper in helpers {
            all.extend(helper.join().expect("trace compile worker panicked"));
        }
        all
    });
    keys.iter()
        .map(|key| {
            let (_, r) = resolved
                .iter()
                .find(|(i, _)| keys[*i] == *key)
                .expect("resolved");
            r.clone()
        })
        .collect()
}

/// Returns the compiled trace of every task (index-aligned), resolving each
/// distinct key once through the trace namespace (memory, store, or a
/// fresh compile); `None` marks a task past the step cap (the engines fall
/// back to its on-the-fly cursor). Distinct keys resolve in parallel.
pub(crate) fn compiled_for(
    workload: &Workload,
    machine: &MachineConfig,
    pacing: Pacing,
) -> Vec<Option<Arc<TaskTrace>>> {
    let keys = task_keys(workload, machine, pacing);
    per_distinct_key(&keys, |i| {
        let (trace, origin) = TRACES.get_or_compute(keys[i], decode_trace, || {
            let _span = mesh_obs::span("cyclesim.compile_ns");
            compile_task(workload, machine, pacing, i)
        });
        if origin == Origin::Computed && mesh_obs::enabled() {
            // Fold freshly-compiled trace keys into the run manifest's
            // workload fingerprint (XOR fold: order-independent across
            // parallel sweep workers).
            mesh_obs::merge_fingerprint((keys[i] as u64) ^ ((keys[i] >> 64) as u64));
        }
        trace
    })
}

// ---------------------------------------------------------------------------
// The trace namespace of the persistent store.
// ---------------------------------------------------------------------------

/// Environment variable enabling the persistent trace store: a directory
/// path (created if absent). Unset or empty disables it.
pub const STORE_ENV: &str = "MESH_TRACE_STORE";

/// The store namespace of compiled traces: `<key>.trace` entries, obs
/// counters `cyclesim.trace_store.*`, and a memory tier of at most
/// [`CACHE_STEPS`] resident steps.
static TRACES: Namespace<Option<Arc<TaskTrace>>> =
    Namespace::new(1, STORE_ENV, "trace", "cyclesim.trace_store", CACHE_STEPS);

/// Points the trace store at `dir` (created if needed) for the rest of the
/// process, overriding [`STORE_ENV`]; `None` disables it. The byte budget
/// is `budget` if given, else `MESH_TRACE_STORE_BYTES` / the default. Used
/// by perfsuite's cold-vs-warm sections and tests; sweeps normally
/// configure the store through the environment.
pub fn set_store(dir: Option<&std::path::Path>, budget: Option<u64>) {
    match budget {
        Some(b) => TRACES.configure_budgeted(dir, b),
        None => TRACES.configure(dir),
    }
}

/// Whether the trace store is active (via [`STORE_ENV`] or [`set_store`]).
/// The fabric parent uses this to decide whether pre-warming can benefit
/// its worker processes at all.
pub fn store_enabled() -> bool {
    TRACES.enabled()
}

/// Snapshot of the trace namespace's counters.
pub fn store_stats() -> StoreStats {
    TRACES.stats()
}

/// busy (8) + idle (8) + hits (8) + event tag (1) + event argument (8).
const STEP_LEN: usize = 33;

fn event_encode(event: StepEvent) -> (u8, u64) {
    match event {
        StepEvent::Miss => (0, 0),
        StepEvent::Io => (1, 0),
        StepEvent::Barrier(b) => (2, b as u64),
        StepEvent::Finish => (3, 0),
    }
}

fn event_decode(tag: u8, arg: u64) -> Option<StepEvent> {
    match (tag, arg) {
        (0, 0) => Some(StepEvent::Miss),
        (1, 0) => Some(StepEvent::Io),
        (2, b) => Some(StepEvent::Barrier(usize::try_from(b).ok()?)),
        (3, 0) => Some(StepEvent::Finish),
        _ => None,
    }
}

/// A trace's store payload: fixed-width step records, in order.
fn encode_steps(trace: &TaskTrace) -> Vec<u8> {
    let mut payload = Vec::with_capacity(trace.steps() * STEP_LEN);
    for s in trace.iter_steps() {
        payload.extend_from_slice(&s.busy.to_le_bytes());
        payload.extend_from_slice(&s.idle.to_le_bytes());
        payload.extend_from_slice(&s.hits.to_le_bytes());
        let (tag, arg) = event_encode(s.event);
        payload.push(tag);
        payload.extend_from_slice(&arg.to_le_bytes());
    }
    payload
}

/// Decodes a store payload back into a trace, or `None` when the records
/// are not a valid trace (the store then quarantines the entry).
fn decode_steps(payload: &[u8]) -> Option<TaskTrace> {
    if payload.is_empty() || !payload.len().is_multiple_of(STEP_LEN) {
        return None;
    }
    let le8 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut steps: Vec<TraceStep> = Vec::with_capacity(payload.len() / STEP_LEN);
    for rec in payload.chunks_exact(STEP_LEN) {
        steps.push(TraceStep {
            busy: le8(&rec[0..8]),
            idle: le8(&rec[8..16]),
            hits: le8(&rec[16..24]),
            event: event_decode(rec[24], le8(&rec[25..33]))?,
        });
    }
    // Finish is always the final step and never an interior one — the
    // compiler stops at it, and the engines' readers rely on it.
    let finishes = steps
        .iter()
        .filter(|s| s.event == StepEvent::Finish)
        .count();
    if finishes != 1 || steps.last().map(|s| s.event) != Some(StepEvent::Finish) {
        return None;
    }
    Some(TaskTrace::from_steps(steps))
}

/// A store payload's trace, or `None` when the payload is not a valid
/// trace (the store then quarantines the entry). A published trace over the
/// step cap yields the same negative verdict a compile would.
fn decode_trace(payload: &[u8]) -> Option<Option<Arc<TaskTrace>>> {
    let trace = decode_steps(payload)?;
    Some((trace.steps() <= MAX_STEPS).then(|| Arc::new(trace)))
}

// ---------------------------------------------------------------------------
// Public instrumentation surface (used by perfsuite and tests).
// ---------------------------------------------------------------------------

/// Counters of the trace namespace's memory tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Traces resident (including negative too-large markers).
    pub entries: usize,
    /// Total steps held by resident traces.
    pub resident_steps: usize,
    /// Distinct-key lookups served from memory since process start.
    pub hits: u64,
    /// Distinct-key lookups served from the store or a compile since
    /// process start.
    pub misses: u64,
    /// Traces evicted least-recently-used first to stay within the
    /// resident budget.
    pub evictions: u64,
    /// Actual compiles performed. Always ≤ `misses`: with the persistent
    /// store warm, misses resolve by loading and this stays at zero.
    /// Mirrored into the `cyclesim.trace.compiles` obs counter.
    pub compiles: u64,
}

/// Snapshot of the trace namespace's memory-tier counters.
pub fn cache_stats() -> TraceCacheStats {
    let s = TRACES.stats();
    TraceCacheStats {
        entries: s.entries,
        resident_steps: s.resident,
        hits: s.memory_hits,
        misses: s.hits + s.computes,
        evictions: s.evictions,
        compiles: s.computes,
    }
}

/// Drops every trace of the trace namespace's memory tier (the counters
/// are kept). Intended for benchmarks that need cold-compile timings.
pub fn clear_cache() {
    TRACES.clear_memory();
}

/// A stable 128-bit fingerprint of everything trace compilation reads for
/// this workload/machine/pacing triple: the FNV-1a fold of every task's
/// content key (segments + processor timing digest + derived per-task
/// pacing). This is the base ingredient of `mesh-bench`'s scenario
/// fingerprints (`MESH_RESULT_CACHE`): two scenarios with equal workload
/// fingerprints feed the kernel identical micro-event streams.
///
/// # Panics
///
/// Panics if the workload has more tasks than the machine has processors.
pub fn workload_fingerprint(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> u128 {
    assert!(
        workload.tasks.len() <= machine.procs.len(),
        "workload does not fit the machine"
    );
    let mut h = Fnv128::default();
    for key in task_keys(workload, machine, pacing) {
        h.write_u128(key);
    }
    h.finish128()
}

/// Resolves every task trace of the workload — memory tier, persistent
/// store, or fresh compile (published to the store when one is configured)
/// — without running a simulation. perfsuite and perfbench use it to price
/// cold-compile vs warm-load.
///
/// A workload/machine pair the simulator would reject (more tasks than
/// processors) is skipped silently — the real run reports the error.
pub fn prewarm(workload: &Workload, machine: &MachineConfig, pacing: Pacing) {
    if workload.tasks.len() > machine.procs.len() {
        return;
    }
    let _ = compiled_for(workload, machine, pacing);
}

/// Ensures every task trace of the workload is published in the persistent
/// store **without** retaining any of them in this process's memory:
/// traces already published in this format are left untouched (worker
/// processes read them directly), the others are compiled in parallel and
/// published. This is what a fabric parent wants before spawning shards —
/// [`prewarm`] would additionally load every published trace into the
/// parent's own memory tier, memory and time its workers cannot benefit
/// from. A no-op without a configured store or for workload/machine
/// pairings the simulator rejects.
pub fn ensure_stored(workload: &Workload, machine: &MachineConfig, pacing: Pacing) {
    if !TRACES.enabled() || workload.tasks.len() > machine.procs.len() {
        return;
    }
    let keys = task_keys(workload, machine, pacing);
    per_distinct_key(&keys, |i| {
        TRACES.ensure_published(keys[i], || compile_task(workload, machine, pacing, i));
    });
}

/// Compiles every task of the workload from scratch — bypassing the
/// trace namespace entirely and ignoring the step cap — and returns the
/// total step count. This is the perfsuite's compile-cost probe: it prices
/// exactly the work a cold [`TraceMode::Compiled`] run pays up front.
///
/// # Panics
///
/// Panics if the workload has more tasks than the machine has processors.
pub fn compile_uncached(workload: &Workload, machine: &MachineConfig, pacing: Pacing) -> usize {
    assert!(
        workload.tasks.len() <= machine.procs.len(),
        "workload does not fit the machine"
    );
    (0..workload.tasks.len())
        .map(|i| {
            compile(
                &workload.tasks[i].segments,
                machine.procs[i],
                derived_pacing(pacing, i),
                usize::MAX,
            )
            .expect("uncapped compile cannot overflow")
            .steps()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_arch::{BusConfig, CacheConfig};
    use mesh_workloads::{MemPattern, TaskProgram};

    fn proc(cache_bytes: u64) -> ProcConfig {
        ProcConfig::new(CacheConfig::direct_mapped(cache_bytes, 32).unwrap())
    }

    fn thrash_segments(refs: u64) -> Vec<Segment> {
        // Stride one full (tiny) cache per reference: every access misses.
        vec![Segment::work(refs * 3).with_pattern(MemPattern::Strided {
            base: 0,
            stride: 1024,
            count: refs,
        })]
    }

    fn drain(trace: &Arc<TaskTrace>) -> Vec<TraceStep> {
        let mut reader = TraceCursor::new(Arc::clone(trace));
        let mut steps = Vec::new();
        loop {
            let s = reader.next_step();
            steps.push(s);
            if s.event == StepEvent::Finish {
                return steps;
            }
        }
    }

    #[test]
    fn compile_matches_cursor_feed() {
        let segments = vec![
            Segment::work(100).with_pattern(MemPattern::Random {
                base: 0,
                span: 8 * 1024,
                count: 40,
                seed: 7,
            }),
            Segment::idle(13),
            Segment::work(5).with_barrier(0),
        ];
        let p = proc(1024);
        for pacing in [Pacing::Even, Pacing::Poisson(42)] {
            let trace = Arc::new(compile(&segments, p, pacing, usize::MAX).expect("fits any cap"));
            let mut live = CursorFeed::new(&segments, p, pacing);
            for step in drain(&trace) {
                assert_eq!(step, live.next_step());
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_invisible() {
        // More miss events than one chunk holds.
        let refs = (CHUNK_STEPS + CHUNK_STEPS / 2) as u64;
        let segments = thrash_segments(refs);
        let p = proc(1024);
        let trace = Arc::new(compile(&segments, p, Pacing::Even, usize::MAX).unwrap());
        assert!(trace.chunks.len() > 1, "must span chunks");
        let steps = drain(&trace);
        assert_eq!(steps.len(), trace.steps());
        assert_eq!(
            steps.iter().filter(|s| s.event == StepEvent::Miss).count() as u64,
            refs
        );
        assert_eq!(steps.last().unwrap().event, StepEvent::Finish);
    }

    #[test]
    fn step_cap_rejects_large_tasks() {
        let segments = thrash_segments(100);
        assert!(compile(&segments, proc(1024), Pacing::Even, 8).is_none());
        assert!(compile(&segments, proc(1024), Pacing::Even, 200).is_some());
    }

    #[test]
    fn keys_are_content_sensitive() {
        let segments = thrash_segments(10);
        let base = trace_key(&segments, proc(1024), Pacing::Even);
        assert_eq!(base, trace_key(&segments, proc(1024), Pacing::Even));
        assert_ne!(base, trace_key(&segments, proc(2048), Pacing::Even));
        assert_ne!(base, trace_key(&segments, proc(1024), Pacing::Poisson(0)));
        assert_ne!(
            base,
            trace_key(&segments, proc(1024).with_hit_cycles(2), Pacing::Even)
        );
        assert_ne!(
            base,
            trace_key(&segments, proc(1024).with_power(0.5), Pacing::Even)
        );
        let other = thrash_segments(11);
        assert_ne!(base, trace_key(&other, proc(1024), Pacing::Even));
        assert_ne!(
            trace_key(&segments, proc(1024), Pacing::Poisson(1)),
            trace_key(&segments, proc(1024), Pacing::Poisson(2))
        );
    }

    #[test]
    fn cross_sweep_cache_reuses_compiles() {
        // A unique workload (so parallel tests can't collide on the key).
        let mut w = Workload::new();
        w.add_task(
            TaskProgram::new("t").with_segment(Segment::work(977_131).with_pattern(
                MemPattern::Strided {
                    base: 0xABCD_0000,
                    stride: 1024,
                    count: 17,
                },
            )),
        );
        let machine = MachineConfig::homogeneous(1, proc(1024), BusConfig::new(4));
        let first = compiled_for(&w, &machine, Pacing::Poisson(0x515));
        let second = compiled_for(&w, &machine, Pacing::Poisson(0x515));
        let (a, b) = (first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "second run must be served from cache");
        // A different pacing seed is a different stream: a fresh compile.
        let third = compiled_for(&w, &machine, Pacing::Poisson(0x516));
        assert!(!Arc::ptr_eq(a, third[0].as_ref().unwrap()));
    }

    #[test]
    fn compile_uncached_counts_steps() {
        let mut w = Workload::new();
        for t in 0..3 {
            w.add_task(TaskProgram::new(format!("t{t}")).with_segment(
                Segment::work(50).with_pattern(MemPattern::Strided {
                    base: t * 1024,
                    stride: 1024,
                    count: 5,
                }),
            ));
        }
        let machine = MachineConfig::homogeneous(3, proc(1024), BusConfig::new(4));
        let steps = compile_uncached(&w, &machine, Pacing::Even);
        // Per task: 5 miss steps plus the finishing step.
        assert_eq!(steps, 3 * 6);
    }

    /// The trace namespace's store payload.
    mod payload {
        use super::*;
        use proptest::prelude::*;

        fn arb_trace() -> impl Strategy<Value = TaskTrace> {
            let step = (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                prop_oneof![
                    Just(StepEvent::Miss),
                    Just(StepEvent::Io),
                    (0usize..1 << 40).prop_map(StepEvent::Barrier),
                ],
            )
                .prop_map(|(busy, idle, hits, event)| TraceStep {
                    busy,
                    idle,
                    hits,
                    event,
                });
            prop::collection::vec(step, 0..64).prop_map(|mut steps| {
                steps.push(TraceStep {
                    busy: 0,
                    idle: 0,
                    hits: 0,
                    event: StepEvent::Finish,
                });
                TaskTrace::from_steps(steps)
            })
        }

        proptest! {
            /// Every field of every step survives the store payload encoding.
            #[test]
            fn payload_round_trip_preserves_every_field(trace in arb_trace()) {
                prop_assert_eq!(decode_steps(&encode_steps(&trace)), Some(trace));
            }

            /// A payload cut anywhere is rejected, never misread.
            #[test]
            fn truncated_payloads_are_rejected(trace in arb_trace(), cut in 0.0f64..1.0) {
                let bytes = encode_steps(&trace);
                let cut = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
                prop_assert_eq!(decode_steps(&bytes[..cut]), None);
            }
        }

        #[test]
        fn payload_validation_rejects_malformed_steps() {
            let trace = compile(&thrash_segments(5), proc(1024), Pacing::Even, usize::MAX).unwrap();
            let bytes = encode_steps(&trace);
            assert!(decode_steps(&bytes).is_some());
            // An unknown event tag.
            let mut bad_tag = bytes.clone();
            bad_tag[24] = 9;
            assert_eq!(decode_steps(&bad_tag), None);
            // Finish moved off the end: drop the final record.
            assert_eq!(decode_steps(&bytes[..bytes.len() - STEP_LEN]), None);
            // A second Finish in the interior.
            let mut two_finishes = bytes.clone();
            two_finishes[24] = 3;
            two_finishes[25..33].fill(0);
            assert_eq!(decode_steps(&two_finishes), None);
        }
    }
}
