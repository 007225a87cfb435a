//! # Parallel design-space sweep engine
//!
//! Every experiment binary in this crate walks a grid of scenario points
//! (processor counts, bus delays, idle fractions, annotation policies, ...)
//! and evaluates each point independently — typically one hybrid kernel run
//! plus one cycle-accurate reference run per point. That makes the sweep
//! layer embarrassingly parallel, and on multi-core hosts the dominant
//! wall-clock cost of regenerating the paper's figures.
//!
//! This module provides the shared sweep engine the binaries route through:
//!
//! * **Parallel, pure `std`.** Points are distributed over
//!   [`std::thread::scope`] workers that work-steal from a shared atomic
//!   index — no external dependencies, no unsafe code.
//! * **Deterministic ordering.** Results land in a slot per input index, so
//!   the returned `Vec` is in input order and a binary's stdout is
//!   byte-identical whatever the worker count. `MESH_BENCH_JOBS=1` restores
//!   strictly serial evaluation (same thread, same order) for timing-faithful
//!   runs.
//! * **Memoization.** Each [`SweepEngine`] carries a hash-keyed in-memory
//!   cache; repeated scenario keys — across sweep calls or within one grid —
//!   are evaluated once. Ablation grids that revisit a baseline point get it
//!   for free.
//! * **Crash isolation.** Each point is evaluated inside
//!   [`std::panic::catch_unwind`] with a bounded retry ([`RETRIES_ENV`]) and
//!   linear backoff. A panicking point never takes down the sweep: every
//!   other point still completes, and the failure is reported as a
//!   [`PointFailure`] carrying the point's grid coordinates and the panic
//!   payload. The infallible [`SweepEngine::run`] /
//!   [`SweepEngine::run_labeled`] entry points re-panic with that full
//!   context instead of the generic "a scoped thread panicked" join failure.
//! * **Checkpoint/resume.** With [`CHECKPOINT_ENV`] set to a file path,
//!   every finished point is appended (and flushed) to an on-disk
//!   [`Checkpoint`]; a re-run after a crash or kill reloads the finished
//!   points and evaluates only the remainder. Values are encoded losslessly
//!   ([`Checkpointable`]), so a resumed run's output is byte-identical to an
//!   uninterrupted one.
//! * **Coarse progress.** When more than one worker runs and stderr is a
//!   terminal (or [`PROGRESS_ENV`] is set), completion counts are reported to
//!   stderr; stdout is never touched.
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `MESH_BENCH_JOBS` | worker count (default: available parallelism) |
//! | `MESH_BENCH_PROGRESS` | force progress lines to stderr |
//! | `MESH_BENCH_CHECKPOINT` | checkpoint file path enabling resume |
//! | `MESH_BENCH_RETRIES` | extra attempts per panicking point (default 1) |
//! | `MESH_BENCH_FAIL_POINT` | inject a panic at `index` or `label:index` |
//! | `MESH_BENCH_SHARDS` | run on the multi-process [`crate::fabric`] instead |
//!
//! ```bash
//! MESH_BENCH_JOBS=8 cargo run -p mesh-bench --bin fig6 --release
//! MESH_BENCH_JOBS=1 cargo run -p mesh-bench --bin table1 --release  # serial
//! MESH_BENCH_CHECKPOINT=/tmp/fig5.ckpt cargo run -p mesh-bench --bin fig5 --release
//! ```
//!
//! ## Example
//!
//! ```
//! use mesh_bench::sweep::SweepEngine;
//!
//! let engine = SweepEngine::with_jobs(4);
//! let squares = engine.run(&[1u64, 2, 3, 4], |&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Repeated keys hit the engine's cache instead of re-evaluating.
//! let again = engine.run(&[4u64, 3], |&n| n * n);
//! assert_eq!(again, vec![16, 9]);
//! assert_eq!(engine.cache_hits(), 2);
//! ```
//!
//! Floating-point sweep parameters are not `Hash`/`Eq`; wrap them in
//! [`FBits`] to key them by bit pattern:
//!
//! ```
//! use mesh_bench::sweep::{FBits, SweepEngine};
//!
//! let engine = SweepEngine::with_jobs(2);
//! let doubled = engine.run(&[FBits::new(0.5), FBits::new(1.25)], |m| m.get() * 2.0);
//! assert_eq!(doubled, vec![1.0, 2.5]);
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::io::IsTerminal as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub use crate::checkpoint::{stable_key_hash, Checkpoint, Checkpointable};

/// The sweep worker count and its environment variable, shared with trace
/// compilation: `MESH_BENCH_JOBS` if set to a positive integer (`1` =
/// serial evaluation), else the host's available parallelism; an invalid
/// value is reported on stderr.
pub use mesh_cyclesim::{jobs_from_env, trace::JOBS_ENV};

/// Environment variable forcing progress reporting to stderr even when
/// stderr is not a terminal (set to anything non-empty).
pub const PROGRESS_ENV: &str = "MESH_BENCH_PROGRESS";

/// Environment variable naming the checkpoint file for resumable sweeps.
///
/// When set, every finished point is appended to the file, and a re-run
/// (after a crash, a kill, or a reported point failure) skips the points
/// already on disk. See [`crate::checkpoint`] for the format.
pub const CHECKPOINT_ENV: &str = "MESH_BENCH_CHECKPOINT";

/// Environment variable bounding the retries of a panicking point
/// (non-negative integer; default 1 — one retry after the first failure).
pub const RETRIES_ENV: &str = "MESH_BENCH_RETRIES";

/// Environment variable injecting a deterministic panic at one grid point,
/// for exercising the crash-isolation path end to end: either a bare input
/// index (`3`) or `label:index` (`fig5:3`) to target one sweep of a
/// multi-sweep binary.
pub const FAIL_POINT_ENV: &str = "MESH_BENCH_FAIL_POINT";

/// Returns the per-point retry budget: [`RETRIES_ENV`] if set to a
/// non-negative integer, otherwise 1.
pub fn retries_from_env() -> u32 {
    match std::env::var(RETRIES_ENV) {
        Ok(value) => match value.trim().parse::<u32>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "mesh-bench: ignoring invalid {RETRIES_ENV}={value:?} (want a non-negative integer)"
                );
                1
            }
        },
        Err(_) => 1,
    }
}

/// The input index [`FAIL_POINT_ENV`] targets in the sweep named `label`,
/// if any — shared by the in-process engine and fabric workers, so fault
/// injection behaves identically whether or not the sweep is sharded.
pub(crate) fn fail_point_for(label: &str) -> Option<usize> {
    match fail_point_from_env() {
        Some((None, index)) => Some(index),
        Some((Some(l), index)) if l == label => Some(index),
        _ => None,
    }
}

/// Parses [`FAIL_POINT_ENV`]: `index` or `label:index`.
fn fail_point_from_env() -> Option<(Option<String>, usize)> {
    let value = std::env::var(FAIL_POINT_ENV).ok()?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    let parsed = match value.rsplit_once(':') {
        Some((label, idx)) => idx.parse().ok().map(|i| (Some(label.to_string()), i)),
        None => value.parse().ok().map(|i| (None, i)),
    };
    if parsed.is_none() {
        eprintln!(
            "mesh-bench: ignoring invalid {FAIL_POINT_ENV}={value:?} (want INDEX or LABEL:INDEX)"
        );
    }
    parsed
}

/// Opens the checkpoint named by [`CHECKPOINT_ENV`], if any.
///
/// Returns `Ok(None)` when the variable is unset or empty; a set-but-unusable
/// path is a hard [`SweepError::Checkpoint`] — silently dropping resumability
/// the user asked for would be worse than failing.
pub fn checkpoint_from_env() -> Result<Option<Checkpoint>, SweepError> {
    match std::env::var_os(CHECKPOINT_ENV) {
        Some(p) if !p.is_empty() => {
            let path = PathBuf::from(&p);
            Checkpoint::open(&path)
                .map(Some)
                .map_err(|e| SweepError::Checkpoint {
                    path,
                    error: e.to_string(),
                })
        }
        _ => Ok(None),
    }
}

/// An `f64` sweep parameter keyed by its bit pattern, so grids over
/// floating-point knobs (idle fractions, minimum timeslices, ...) can use
/// the engine's [`Hash`]-keyed cache.
///
/// Equality is bitwise: `-0.0 != 0.0` and `NaN == NaN` as keys, which is
/// exactly what a memoization key wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FBits(u64);

impl FBits {
    /// Wraps a float as a hashable sweep key.
    pub fn new(value: f64) -> FBits {
        FBits(value.to_bits())
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl From<f64> for FBits {
    fn from(value: f64) -> FBits {
        FBits::new(value)
    }
}

/// One grid point that kept failing after every allowed attempt.
///
/// Carries everything needed to reproduce the failure from the command
/// line: the sweep label, the point's input-order index, its coordinates
/// (the `Debug` rendering of the grid key) and the panic payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointFailure {
    /// Label of the sweep the point belongs to.
    pub label: String,
    /// Input-order index of the point within the grid.
    pub index: usize,
    /// `Debug` rendering of the grid key — the point's coordinates.
    pub coordinates: String,
    /// Text of the panic payload from the last attempt.
    pub payload: String,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Path of the flight-recorder dump covering the failure, when the
    /// recorder was on (`MESH_OBS_FLIGHTREC`) — the black-box postmortem
    /// for this point, written by the failing process itself (in-process
    /// and panicking-worker failures) or salvaged by the fabric supervisor
    /// (SIGKILLed workers).
    pub flight_record: Option<String>,
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point #{} {} of sweep '{}' panicked after {} attempt(s): {}",
            self.index, self.coordinates, self.label, self.attempts, self.payload
        )?;
        if let Some(rec) = &self.flight_record {
            write!(f, " [flight record: {rec}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for PointFailure {}

/// A failed sweep: either grid points that panicked (everything else still
/// completed), or an unusable checkpoint file.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// One or more points panicked on every attempt.
    Points {
        /// Label of the sweep.
        label: String,
        /// Total points in the grid.
        total: usize,
        /// Points that produced a value (directly or via cache/checkpoint).
        completed: usize,
        /// The failed points, in input order.
        failures: Vec<PointFailure>,
    },
    /// The checkpoint file requested via [`CHECKPOINT_ENV`] could not be
    /// opened or created.
    Checkpoint {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Points {
                label,
                total,
                completed,
                failures,
            } => {
                writeln!(
                    f,
                    "sweep '{label}' failed at {} of {total} points ({completed} completed):",
                    failures.len()
                )?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                write!(
                    f,
                    "  (set {CHECKPOINT_ENV}=<path> to keep finished points across re-runs)"
                )
            }
            SweepError::Checkpoint { path, error } => {
                write!(f, "cannot open checkpoint {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Checkpoint-prefill callback: returns the stored value for a key, if any.
type LookupFn<'a, K, V> = &'a dyn Fn(&K) -> Option<V>;

/// Checkpoint-append callback, invoked from worker threads as points finish.
type RecordFn<'a, K, V> = &'a (dyn Fn(&K, &V) + Sync);

/// A parallel, memoizing, crash-isolating design-space sweep runner.
///
/// One engine holds one result cache; binaries that run several grids over
/// the same point type share the engine so overlapping points are evaluated
/// once. See the [module docs](self) for the full contract and examples.
pub struct SweepEngine<K, V> {
    jobs: usize,
    progress: bool,
    retries: u32,
    backoff: Duration,
    fail_point: Option<(Option<String>, usize)>,
    cache: Mutex<HashMap<K, V>>,
    hits: AtomicUsize,
}

impl<K, V> SweepEngine<K, V>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send,
{
    /// Creates an engine configured from the environment: worker count from
    /// [`jobs_from_env`], retry budget from [`retries_from_env`], fault
    /// injection from [`FAIL_POINT_ENV`].
    pub fn from_env() -> SweepEngine<K, V> {
        let mut engine = SweepEngine::with_jobs(jobs_from_env());
        engine.retries = retries_from_env();
        engine.fail_point = fail_point_from_env();
        engine
    }

    /// Creates an engine with an explicit worker count (`jobs >= 1`), one
    /// retry per failed point and no fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> SweepEngine<K, V> {
        assert!(jobs >= 1, "sweep needs at least one worker");
        SweepEngine {
            jobs,
            progress: std::env::var_os(PROGRESS_ENV).is_some_and(|v| !v.is_empty())
                || std::io::stderr().is_terminal(),
            retries: 1,
            backoff: Duration::from_millis(25),
            fail_point: None,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
        }
    }

    /// Sets how many times a panicking point is re-attempted (builder
    /// style). Zero disables retries.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> SweepEngine<K, V> {
        self.retries = retries;
        self
    }

    /// Sets the base backoff slept between attempts; attempt `n` waits
    /// `n * backoff` (builder style).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> SweepEngine<K, V> {
        self.backoff = backoff;
        self
    }

    /// Injects a deterministic panic at the given input index of every
    /// sweep this engine runs (builder style) — the programmatic form of
    /// [`FAIL_POINT_ENV`], for tests.
    #[must_use]
    pub fn with_fail_point(mut self, index: usize) -> SweepEngine<K, V> {
        self.fail_point = Some((None, index));
        self
    }

    /// The number of worker threads the engine will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The number of points served from the cache so far (including
    /// duplicate keys within a single [`run`](Self::run) call).
    pub fn cache_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluates `eval` on every point, in parallel, returning results in
    /// input order.
    ///
    /// Cached points are returned without re-evaluation; duplicate keys
    /// within `points` are evaluated once. `eval` must be a pure function
    /// of the point — the engine assumes a key identifies its result.
    ///
    /// # Panics
    ///
    /// If a point fails every attempt, panics with a message naming the
    /// point's coordinates and the original panic payload (the fallible
    /// alternative is [`try_run_labeled`](Self::try_run_labeled)).
    pub fn run<F>(&self, points: &[K], eval: F) -> Vec<V>
    where
        F: Fn(&K) -> V + Sync,
    {
        self.run_labeled("sweep", points, eval)
    }

    /// [`run`](Self::run) with a label used in progress reports.
    ///
    /// # Panics
    ///
    /// See [`run`](Self::run).
    pub fn run_labeled<F>(&self, label: &str, points: &[K], eval: F) -> Vec<V>
    where
        F: Fn(&K) -> V + Sync,
    {
        match self.try_run_labeled(label, points, eval) {
            Ok(values) => values,
            Err(e) => panic!("{e}"),
        }
    }

    /// Crash-isolated sweep: every point that panics (after the retry
    /// budget) becomes a [`PointFailure`] in the returned error while all
    /// other points still complete and populate the cache.
    pub fn try_run_labeled<F>(
        &self,
        label: &str,
        points: &[K],
        eval: F,
    ) -> Result<Vec<V>, SweepError>
    where
        F: Fn(&K) -> V + Sync,
    {
        self.run_core(label, points, eval, None, None)
    }

    /// [`try_run_labeled`](Self::try_run_labeled) with on-disk
    /// checkpointing: points present in `checkpoint` are not re-evaluated,
    /// and every newly finished point is appended to it immediately.
    ///
    /// Because [`Checkpointable`] encodings are lossless, a resumed sweep
    /// returns values identical to an uninterrupted one.
    pub fn try_run_resumable<F>(
        &self,
        label: &str,
        points: &[K],
        checkpoint: Option<&Checkpoint>,
        eval: F,
    ) -> Result<Vec<V>, SweepError>
    where
        F: Fn(&K) -> V + Sync,
        V: Checkpointable,
    {
        match checkpoint {
            None => self.run_core(label, points, eval, None, None),
            Some(ck) => {
                let lookup = |key: &K| ck.lookup::<V>(label, stable_key_hash(key));
                let record = |key: &K, value: &V| {
                    if let Err(e) = ck.record(label, stable_key_hash(key), value) {
                        eprintln!(
                            "mesh-bench: checkpoint write to {} failed: {e}",
                            ck.path().display()
                        );
                    }
                };
                self.run_core(label, points, eval, Some(&lookup), Some(&record))
            }
        }
    }

    /// The shared core: cache/checkpoint prefill, crash-isolated parallel
    /// evaluation, failure collection, cache writeback.
    fn run_core<F>(
        &self,
        label: &str,
        points: &[K],
        eval: F,
        lookup: Option<LookupFn<'_, K, V>>,
        record: Option<RecordFn<'_, K, V>>,
    ) -> Result<Vec<V>, SweepError>
    where
        F: Fn(&K) -> V + Sync,
    {
        // Split points into cache/checkpoint hits and first-occurrence
        // misses, keeping every input index so results can be reassembled in
        // order.
        let mut slots: Vec<Option<V>> = Vec::with_capacity(points.len());
        let mut todo: Vec<(usize, &K)> = Vec::new();
        {
            let mut cache = self.cache.lock().expect("sweep cache poisoned");
            let mut claimed: HashSet<&K> = HashSet::new();
            for key in points {
                if let Some(value) = cache.get(key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    slots.push(Some(value.clone()));
                } else if let Some(value) = lookup.and_then(|f| f(key)) {
                    // Finished by a previous (possibly killed) run: resume
                    // from the checkpoint record instead of re-evaluating.
                    cache.insert(key.clone(), value.clone());
                    slots.push(Some(value));
                } else if !claimed.insert(key) {
                    // Duplicate of an uncached point: evaluated once by its
                    // first occurrence, filled from the cache afterwards.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    slots.push(None);
                } else {
                    slots.push(None);
                    todo.push((slots.len() - 1, key));
                }
            }
        }

        let obs_on = mesh_obs::enabled();
        if obs_on {
            mesh_obs::gauge("sweep.points_total").set(points.len() as u64);
            mesh_obs::gauge("sweep.points_done").set((points.len() - todo.len()) as u64);
        }
        let mut failures: Vec<PointFailure> = Vec::new();
        if !todo.is_empty() {
            let total = todo.len();
            let prefilled = points.len() - total;
            let sweep_start = std::time::Instant::now();
            let done = AtomicUsize::new(0);
            let next = AtomicUsize::new(0);
            let results: Vec<Mutex<Option<Result<V, PointFailure>>>> =
                todo.iter().map(|_| Mutex::new(None)).collect();
            let workers = self.jobs.min(total);
            let progress = self.progress;
            let retries = self.retries;
            let backoff = self.backoff;
            let fail_index = match &self.fail_point {
                Some((None, i)) => Some(*i),
                Some((Some(l), i)) if l == label => Some(*i),
                _ => None,
            };
            let worker = || loop {
                let claim = next.fetch_add(1, Ordering::Relaxed);
                if claim >= total {
                    break;
                }
                let (index, key) = todo[claim];
                let outcome = {
                    let _point_span = obs_on.then(|| {
                        mesh_obs::span_labeled("sweep.point_ns", format!("{label}[{index}]"))
                    });
                    eval_isolated(
                        label,
                        index,
                        key,
                        &eval,
                        retries,
                        backoff,
                        fail_index == Some(index),
                    )
                };
                if let (Ok(value), Some(record)) = (&outcome, record) {
                    // Persist before reporting progress: a kill right after
                    // this line loses at most the in-flight points.
                    record(key, value);
                }
                *results[claim].lock().expect("sweep slot poisoned") = Some(outcome);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if obs_on {
                    mesh_obs::gauge("sweep.points_done").set((prefilled + finished) as u64);
                }
                if progress && workers > 1 {
                    let elapsed = sweep_start.elapsed().as_secs_f64();
                    let eta = elapsed / finished as f64 * (total - finished) as f64;
                    eprintln!(
                        "mesh-bench {label}: {finished}/{total} points \
                         ({elapsed:.1}s elapsed, eta {eta:.1}s)"
                    );
                }
            };
            if workers == 1 {
                // Serial: same thread, same order, no pool overhead.
                worker();
            } else {
                let worker = &worker;
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(worker);
                    }
                });
            }

            let mut cache = self.cache.lock().expect("sweep cache poisoned");
            for ((index, key), result) in todo.iter().zip(results) {
                match result
                    .into_inner()
                    .expect("sweep slot poisoned")
                    .expect("sweep worker completed every claimed point")
                {
                    Ok(value) => {
                        slots[*index] = Some(value.clone());
                        cache.insert((*key).clone(), value);
                    }
                    Err(failure) => failures.push(failure),
                }
            }
        }

        let cache = self.cache.lock().expect("sweep cache poisoned");
        if !failures.is_empty() {
            failures.sort_by_key(|f| f.index);
            let completed = points
                .iter()
                .zip(&slots)
                .filter(|(key, slot)| slot.is_some() || cache.contains_key(key))
                .count();
            return Err(SweepError::Points {
                label: label.to_string(),
                total: points.len(),
                completed,
                failures,
            });
        }

        // Fill duplicate-of-miss slots from the now-populated cache, then
        // unwrap in input order.
        Ok(points
            .iter()
            .zip(slots)
            .map(|(key, slot)| {
                slot.unwrap_or_else(|| cache.get(key).expect("evaluated point").clone())
            })
            .collect())
    }
}

/// Evaluates one point inside `catch_unwind`, retrying with linear backoff
/// plus deterministic jitter up to the budget. A free function so workers
/// don't have to capture the whole engine (whose cache would demand
/// `K: Send`).
///
/// The jitter ([`mesh_core::Backoff`]) is seeded by the sweep label and the
/// point's input index, so each point's retry schedule is deterministic
/// across runs while distinct points retrying concurrently (a systemic
/// transient knocking out many points at once) do not stampede in lockstep.
fn eval_isolated<K, V, F>(
    label: &str,
    index: usize,
    key: &K,
    eval: &F,
    retries: u32,
    backoff: Duration,
    injected: bool,
) -> Result<V, PointFailure>
where
    K: fmt::Debug,
    F: Fn(&K) -> V + Sync,
{
    let attempts = retries + 1;
    let delays = mesh_core::Backoff::linear(backoff, backoff.saturating_mul(attempts))
        .with_seed(stable_key_hash(label) ^ index as u64);
    let mut payload = String::new();
    for attempt in 1..=attempts {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected failure ({FAIL_POINT_ENV})");
            }
            eval(key)
        }));
        match result {
            Ok(value) => return Ok(value),
            Err(p) => {
                payload = payload_text(p.as_ref());
                if attempt < attempts {
                    if attempt == 1 {
                        // One warning per point, however many retries follow
                        // — per-attempt lines turned retry storms into
                        // unreadable stderr.
                        eprintln!(
                            "mesh-bench: point #{index} {key:?} of sweep '{label}' panicked \
                             ({payload}); retrying up to {retries} time(s)"
                        );
                    }
                    if mesh_obs::enabled() {
                        mesh_obs::counter("sweep.retries").inc();
                    }
                    if mesh_obs::flightrec::enabled() {
                        mesh_obs::flightrec::event(
                            mesh_obs::flightrec::EventKind::Retry,
                            label,
                            index as u64,
                            u64::from(attempt),
                        );
                    }
                    std::thread::sleep(delays.delay(attempt));
                }
            }
        }
    }
    Err(PointFailure {
        label: label.to_string(),
        index,
        coordinates: format!("{key:?}"),
        payload,
        attempts,
        flight_record: dump_flight_record(label, index),
    })
}

/// Dumps the flight-recorder ring for an exhausted point, returning the
/// file path for the [`PointFailure`] — the in-process analogue of the
/// fabric salvaging a dead worker's `flightrec-<shard>` file. The dump
/// lands in the `MESH_OBS_OUT` directory when set, in a stable per-process
/// temp directory otherwise; `None` when the recorder is off or the write
/// fails (a postmortem must never turn a reported failure into a panic).
fn dump_flight_record(label: &str, index: usize) -> Option<String> {
    if !mesh_obs::flightrec::enabled() {
        return None;
    }
    let dir = match mesh_obs::report::out_dir() {
        Some(d) => d.to_path_buf(),
        None => std::env::temp_dir().join(format!("mesh-flightrec-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "flightrec-inproc-{}-{index}.json",
        crate::checkpoint::sanitize(label)
    ));
    mesh_obs::flightrec::write_file(&path).ok()?;
    Some(path.display().to_string())
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else is reported as opaque).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Sweeps `points` with a fresh engine configured from the environment —
/// the one-call entry point for binaries that run a single grid.
///
/// Results are in input order and byte-identical to a serial run; see
/// [`SweepEngine::run`].
///
/// # Examples
///
/// ```
/// let cubes = mesh_bench::sweep::sweep(&[1u64, 2, 3], |&n| n * n * n);
/// assert_eq!(cubes, vec![1, 8, 27]);
/// ```
pub fn sweep<K, V, F>(points: &[K], eval: F) -> Vec<V>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send,
    F: Fn(&K) -> V + Sync,
{
    SweepEngine::<K, V>::from_env().run(points, eval)
}

/// [`sweep`] with a label used in progress reports.
pub fn sweep_labeled<K, V, F>(label: &str, points: &[K], eval: F) -> Vec<V>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send,
    F: Fn(&K) -> V + Sync,
{
    SweepEngine::<K, V>::from_env().run_labeled(label, points, eval)
}

/// Crash-isolated, resumable sweep — the entry point the experiment
/// binaries use.
///
/// Engine configuration comes from the environment (see the [module
/// docs](self)); if [`CHECKPOINT_ENV`] names a file, finished points are
/// persisted there and a re-run resumes from it. On failure, every healthy
/// point has still been evaluated (and checkpointed), and the error lists
/// each failed point's grid coordinates.
///
/// With [`crate::fabric::SHARDS_ENV`] (`MESH_BENCH_SHARDS`) set, the sweep
/// runs on the multi-process [`crate::fabric`] instead of the in-process
/// engine — supervised worker processes with heartbeats, timeouts and
/// poison-point recovery — with output byte-identical to the in-process
/// path at any shard count. Inside a fabric worker process this same
/// function *is* the worker entrypoint: it evaluates the worker's assigned
/// shard and exits.
pub fn try_sweep_labeled<K, V, F>(label: &str, points: &[K], eval: F) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
{
    if let Some(cfg) = crate::fabric::worker_config() {
        return crate::fabric::worker_sweep(&cfg, label, points, eval);
    }
    let checkpoint = checkpoint_from_env()?;
    if let Some(shards) = crate::fabric::shards_from_env() {
        return crate::fabric::run_sharded(label, points, checkpoint.as_ref(), shards, None, eval);
    }
    SweepEngine::<K, V>::from_env().try_run_resumable(label, points, checkpoint.as_ref(), eval)
}

/// [`try_sweep_labeled`] with a trace-store pre-warm hook.
///
/// `prewarm` publishes every trace a point's evaluation will need to the
/// persistent trace store (`MESH_TRACE_STORE`), without running any
/// simulation — typically a thin wrapper over
/// [`mesh_cyclesim::ensure_stored`], which also skips already-published
/// traces instead of loading them into the parent.
/// It is invoked only on the **fabric parent** (before worker shards are
/// spawned), only for points not already resolved by cache or checkpoint,
/// and only when the trace store is enabled; everywhere else this function
/// behaves exactly like [`try_sweep_labeled`]. Pre-warming in the parent is
/// what makes compilation once-per-machine rather than once-per-shard: the
/// N workers then load shared traces instead of racing to compile the same
/// workloads N times.
pub fn try_sweep_labeled_prewarmed<K, V, F, P>(
    label: &str,
    points: &[K],
    prewarm: P,
    eval: F,
) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
    P: Fn(&K) + Sync,
{
    if let Some(cfg) = crate::fabric::worker_config() {
        return crate::fabric::worker_sweep(&cfg, label, points, eval);
    }
    let checkpoint = checkpoint_from_env()?;
    if let Some(shards) = crate::fabric::shards_from_env() {
        return crate::fabric::run_sharded(
            label,
            points,
            checkpoint.as_ref(),
            shards,
            Some(&prewarm),
            eval,
        );
    }
    SweepEngine::<K, V>::from_env().try_run_resumable(label, points, checkpoint.as_ref(), eval)
}

/// [`try_sweep_labeled`] with the default label.
pub fn try_sweep<K, V, F>(points: &[K], eval: F) -> Result<Vec<V>, SweepError>
where
    K: Hash + Eq + Clone + Sync + fmt::Debug,
    V: Clone + Send + Checkpointable,
    F: Fn(&K) -> V + Sync,
{
    try_sweep_labeled("sweep", points, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_results_match_serial_order() {
        // A fig5-style sweep: one result per (idle, bus delay, seed) point.
        let mut points = Vec::new();
        for idle in [0u64, 15, 30, 45, 60, 75, 90] {
            for delay in [2u64, 4, 8, 12, 16] {
                for seed in [1u64, 2, 3] {
                    points.push((idle, delay, seed));
                }
            }
        }
        let eval = |&(idle, delay, seed): &(u64, u64, u64)| {
            // Deterministic but non-trivial work.
            let mut acc = idle.wrapping_mul(31) ^ delay.wrapping_mul(17) ^ seed;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let serial = SweepEngine::with_jobs(1).run(&points, eval);
        let parallel = SweepEngine::with_jobs(4).run(&points, eval);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn cache_returns_hit_for_repeated_scenario_key() {
        let engine: SweepEngine<(u64, u64), u64> = SweepEngine::with_jobs(2);
        let evals = AtomicU64::new(0);
        let eval = |&(a, b): &(u64, u64)| {
            evals.fetch_add(1, Ordering::Relaxed);
            a * 1000 + b
        };
        let first = engine.run(&[(1, 2), (3, 4)], eval);
        assert_eq!(first, vec![1002, 3004]);
        assert_eq!(engine.cache_hits(), 0);

        // A second grid revisits (3, 4): it must come from the cache.
        let second = engine.run(&[(3, 4), (5, 6)], eval);
        assert_eq!(second, vec![3004, 5006]);
        assert_eq!(engine.cache_hits(), 1);
        assert_eq!(evals.load(Ordering::Relaxed), 3, "(3, 4) evaluated once");
    }

    #[test]
    fn duplicate_keys_within_one_grid_evaluate_once() {
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(3);
        let evals = AtomicU64::new(0);
        let results = engine.run(&[7, 7, 8, 7, 8], |&k| {
            evals.fetch_add(1, Ordering::Relaxed);
            k * 2
        });
        assert_eq!(results, vec![14, 14, 16, 14, 16]);
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        assert_eq!(engine.cache_hits(), 3);
    }

    #[test]
    fn fbits_keys_round_trip_and_distinguish_payloads() {
        assert_eq!(FBits::new(1.5).get(), 1.5);
        assert_eq!(FBits::new(0.0), FBits::from(0.0));
        assert_ne!(FBits::new(0.0), FBits::new(-0.0));
        let engine: SweepEngine<FBits, u64> = SweepEngine::with_jobs(2);
        let out = engine.run(&[FBits::new(0.25), FBits::new(0.5)], |m| m.get().to_bits());
        assert_eq!(out, vec![0.25f64.to_bits(), 0.5f64.to_bits()]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(4);
        let out: Vec<u64> = engine.run(&[], |&k| k);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_uses_calling_thread() {
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(1);
        let caller = std::thread::current().id();
        let out = engine.run(&[1, 2, 3], |&k| {
            assert_eq!(std::thread::current().id(), caller);
            k + 10
        });
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn panicking_point_is_isolated_and_named() {
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(3).with_retries(0);
        let err = engine
            .try_run_labeled("grid", &[10, 20, 30, 40], |&k| {
                if k == 30 {
                    panic!("bad point {k}");
                }
                k + 1
            })
            .unwrap_err();
        match err {
            SweepError::Points {
                label,
                total,
                completed,
                failures,
            } => {
                assert_eq!(label, "grid");
                assert_eq!(total, 4);
                assert_eq!(completed, 3, "every healthy point still evaluated");
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].index, 2);
                assert_eq!(failures[0].coordinates, "30");
                assert!(failures[0].payload.contains("bad point 30"));
                assert_eq!(failures[0].attempts, 1);
            }
            other => panic!("expected point failure, got {other:?}"),
        }
        // The healthy points made it into the cache.
        assert_eq!(
            engine.run(&[10u64, 20, 40], |_| unreachable!()),
            [11, 21, 41]
        );
    }

    #[test]
    fn run_labeled_propagates_panic_message_with_coordinates() {
        let engine: SweepEngine<(u64, u64), u64> = SweepEngine::with_jobs(2).with_retries(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.run_labeled("fig-test", &[(1, 2), (3, 4)], |&(a, _)| {
                if a == 3 {
                    panic!("exploded");
                }
                a
            })
        }))
        .unwrap_err();
        let message = payload_text(caught.as_ref());
        assert!(message.contains("fig-test"), "names the sweep: {message}");
        assert!(
            message.contains("(3, 4)"),
            "names the coordinates: {message}"
        );
        assert!(
            message.contains("exploded"),
            "carries the payload: {message}"
        );
    }

    #[test]
    fn retry_recovers_a_flaky_point() {
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(1)
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let attempts = AtomicU64::new(0);
        let out = engine
            .try_run_labeled("flaky", &[5], |&k| {
                if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                k * 2
            })
            .unwrap();
        assert_eq!(out, vec![10]);
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn injected_fail_point_reports_its_coordinates() {
        let engine: SweepEngine<u64, u64> =
            SweepEngine::with_jobs(2).with_retries(0).with_fail_point(1);
        let err = engine
            .try_run_labeled("inject", &[100, 200, 300], |&k| k)
            .unwrap_err();
        match err {
            SweepError::Points {
                completed,
                failures,
                ..
            } => {
                assert_eq!(completed, 2);
                assert_eq!(failures[0].coordinates, "200");
                assert!(failures[0].payload.contains(FAIL_POINT_ENV));
            }
            other => panic!("expected point failure, got {other:?}"),
        }
    }

    fn temp_checkpoint(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mesh-sweep-test-{}-{}",
            std::process::id(),
            stable_key_hash(name)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sweep.ckpt")
    }

    #[test]
    fn interrupted_sweep_resumes_byte_identical() {
        let path = temp_checkpoint("resume");
        let _ = std::fs::remove_file(&path);
        let points: Vec<u64> = (0..8).collect();
        let eval = |&k: &u64| (k as f64) * 1.5 + 0.1;

        // Uninterrupted reference run, no checkpoint.
        let reference: Vec<f64> = SweepEngine::with_jobs(2)
            .try_run_labeled("resume", &points, eval)
            .unwrap();

        // First run "crashes" at point 5 (retries exhausted); the other
        // points are on disk.
        {
            let ck = Checkpoint::open(&path).unwrap();
            let engine: SweepEngine<u64, f64> =
                SweepEngine::with_jobs(2).with_retries(0).with_fail_point(5);
            let err = engine
                .try_run_resumable("resume", &points, Some(&ck), eval)
                .unwrap_err();
            assert!(matches!(err, SweepError::Points { completed: 7, .. }));
        }

        // Second run resumes: only the failed point is evaluated.
        let evals = AtomicU64::new(0);
        let ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.loaded(), 7);
        let engine: SweepEngine<u64, f64> = SweepEngine::with_jobs(2);
        let resumed = engine
            .try_run_resumable("resume", &points, Some(&ck), |k| {
                evals.fetch_add(1, Ordering::Relaxed);
                eval(k)
            })
            .unwrap();
        assert_eq!(evals.load(Ordering::Relaxed), 1, "only point 5 re-ran");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed), bits(&reference), "byte-identical resume");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn checkpoint_distinguishes_labels() {
        let path = temp_checkpoint("labels");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpoint::open(&path).unwrap();
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(1);
        let a = engine
            .try_run_resumable("grid-a", &[1, 2], Some(&ck), |&k| k * 10)
            .unwrap();
        assert_eq!(a, vec![10, 20]);

        // Same keys under another label must not hit grid-a's records.
        let engine: SweepEngine<u64, u64> = SweepEngine::with_jobs(1);
        let evals = AtomicU64::new(0);
        let b = engine
            .try_run_resumable("grid-b", &[1, 2], Some(&ck), |&k| {
                evals.fetch_add(1, Ordering::Relaxed);
                k * 100
            })
            .unwrap();
        assert_eq!(b, vec![100, 200]);
        assert_eq!(evals.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
