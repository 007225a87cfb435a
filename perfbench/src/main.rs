//! The repository's benchmark: four workloads measured end to end with
//! tracing off, and a separate traced run for the per-layer numbers.
//! `BENCHMARK.json` lists all but `fft_fig4`, which runs by hand only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fft_fig4|phm_fig6|knob_ablation|direct_annotated> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's provenance. See `perfbench/README.md`.

mod check;
mod direct;
mod grid;
mod run;
mod traced;
mod traffic;

use check::Golden;
use grid::{Kind, Size};
use run::{Bench, Rep};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark's own settings of the program's knobs: one sweep worker
/// and one trace-compile thread, so runs measure the program and not the
/// host's scheduler.
const SETTINGS: [(&str, &str); 1] = [("MESH_BENCH_JOBS", "1")];

/// Repetitions every timed run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    dump_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut dump_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--dump-digests" {
            dump_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
        dump_digests,
    })
}

/// Refuses an environment that sets any `MESH_*` variable: each of them
/// silently changes what a run measures. Returns the offending names.
fn foreign_knobs() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MESH_"))
        .collect();
    names.sort();
    names
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--dump-traffic"]) {
        print!("{}", traffic::derive());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let foreign = foreign_knobs();
    if !foreign.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset every MESH_* variable",
            foreign.join(", ")
        );
        return ExitCode::from(2);
    }
    for (k, v) in SETTINGS {
        // Single-threaded here: nothing has read the environment yet.
        std::env::set_var(k, v);
    }
    let bench = Bench::new(args.kind, args.size, args.seed);
    let golden = Golden::load(args.size.name(), args.kind.name());
    let out = if args.trace {
        traced_run(&bench, &golden, &args)
    } else {
        timed_run(&bench, &golden, &args)
    };
    drop(bench);
    println!("{}", provenance(&args, out.digest, out.reps));
    let mut metrics = String::new();
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    digest: u64,
    reps: usize,
}

/// Points of one pass whose statistics differ from the committed digests.
fn golden_failures(golden: &Golden, rep: &Rep) -> u64 {
    rep.labels
        .iter()
        .zip(&rep.stats)
        .filter(|(label, s)| !golden.matches(label, s))
        .count() as u64
}

fn dump(args: &Args, rep: &Rep) {
    for (label, s) in rep.labels.iter().zip(&rep.stats) {
        println!(
            "{}",
            check::golden_line(args.size.name(), args.kind.name(), label, s)
        );
    }
}

fn timed_run(bench: &Bench, golden: &Golden, args: &Args) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut failed = 0;
    loop {
        let rep = bench.rep();
        failed += rep.failed;
        match reps.first() {
            None => {
                failed += golden_failures(golden, &rep);
                if args.dump_digests {
                    dump(args, &rep);
                }
            }
            // Every repetition must reproduce the first exactly.
            Some(first) if first.stats != rep.stats => failed += rep.evaluated,
            Some(_) => {}
        }
        reps.push(rep);
        if reps.len() >= MIN_REPS && Instant::now() >= deadline {
            break;
        }
    }
    let first = &reps[0];
    // The host switches between an uncontended state and contended ones
    // that slow a point 1.5x to 2.3x, for seconds or for minutes on end, so
    // a median over a run follows whichever states held most of it. Set-up
    // and each timed part of a sweep (a point; for knob_ablation also each
    // shared reference and the replay pass) therefore count with their
    // fastest time over the run's repetitions: one uncontended repetition
    // sets it, and no repetition reads faster than its work allows.
    let mut point_ms = fastest_ms(&reps, |r| &r.point_ns);
    let other_ms: f64 = fastest_ms(&reps, |r| &r.other_ns).iter().sum();
    // One caller evaluates the parts one after another, so a sweep takes
    // the sum of their times (the sweep engine adds 0.04%).
    let sweep_s = (point_ms.iter().sum::<f64>() + other_ms) / 1e3;
    point_ms.sort_by(f64::total_cmp);
    let setup_s = reps
        .iter()
        .map(|r| r.setup.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    Outcome {
        attempted: reps.iter().map(|r| r.evaluated).sum(),
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("sweep_s", sweep_s, "s"),
            ("point_ms_p50", quantile(&point_ms, 0.5), "ms"),
            ("point_ms_p90", quantile(&point_ms, 0.9), "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("mesh_err_pct", first.mesh_err, "%"),
            ("analytical_err_pct", first.analytical_err, "%"),
        ],
        digest: check::fold(first.stats.iter().map(|s| check::digest(s))),
        reps: reps.len(),
    }
}

fn traced_run(bench: &Bench, golden: &Golden, args: &Args) -> Outcome {
    let t = traced::traced(bench, golden);
    let l = &t.layers;
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = l.total().max(1) as f64;
    let share = |ns: f64| 100.0 * ns / total;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Negative when tracing slows the layers down more than compare's own
    // bookkeeping costs.
    let unattributed = l.unattributed() as f64;
    let unattributed_pct = 100.0 * ratio(unattributed, l.compare as f64);
    let cyclesim = (l.compile + l.consume) as f64;
    let annotate = (l.annotate_hybrid + l.annotate_analytical) as f64;
    let models = (l.evaluate + l.estimate) as f64;
    // The paper's speedup, reported twice and never gated: kernel only,
    // and end to end with the compile and annotation each leg needs.
    let hybrid_e2e = (l.annotate_hybrid + l.kernel + l.evaluate) as f64;
    let speedup_kernel = ratio(l.consume as f64, (l.kernel + l.evaluate) as f64);
    let speedup_e2e = ratio(cyclesim, hybrid_e2e);
    let store = t.production.store.unwrap_or_default();

    println!(
        "traced run: {} ({} points, seed {})",
        args.kind.name(),
        t.points,
        args.seed
    );
    println!("  {:<22} {:>12} {:>8}", "layer", "host ms", "share");
    for (name, ns) in [
        ("workloads", l.gen as f64),
        ("cyclesim.compile", l.compile as f64),
        ("cyclesim.consume", l.consume as f64),
        ("annotate", annotate),
        ("kernel", l.kernel as f64),
        ("models", models),
    ] {
        println!("  {name:<22} {:>12.3} {:>7.1}%", ns / 1e6, share(ns));
    }
    println!("  {:<22} {:>12.3} {:>7.1}%", "total", total / 1e6, 100.0);
    println!(
        "  bench.compare {:.3} ms, of which unattributed {:.3} ms ({:.1}% of compare)",
        ms(l.compare),
        unattributed / 1e6,
        unattributed_pct
    );
    if l.consume > 0 {
        println!(
            "  speedup, kernel only: ISS consume {:.3} ms / hybrid kernel+models {:.3} ms = {:.1}x",
            ms(l.consume),
            ms(l.kernel + l.evaluate),
            speedup_kernel
        );
        println!(
            "  speedup, end to end: ISS compile+consume {:.3} ms / hybrid annotate+kernel+models {:.3} ms = {:.2}x",
            cyclesim / 1e6,
            hybrid_e2e / 1e6,
            speedup_e2e
        );
    }
    match write_spans(args, &t.spans) {
        Ok(path) => println!("  spans: {path}"),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }

    let metrics = vec![
        ("workloads.gen_ms", ms(l.gen), "ms"),
        ("cyclesim.compile_ms", ms(l.compile), "ms"),
        ("cyclesim.compile_steps", l.compile_steps as f64, "count"),
        ("cyclesim.resident_steps", l.resident_steps as f64, "count"),
        ("cyclesim.consume_ms", ms(l.consume), "ms"),
        ("cyclesim.sim_mcycles", l.sim_cycles as f64 / 1e6, "Mcycles"),
        (
            "cyclesim.ns_per_sim_cycle",
            ratio(l.consume as f64, l.sim_cycles as f64),
            "ns",
        ),
        (
            "cyclesim.trace_cache_hit_ratio",
            ratio(l.cache_hits as f64, l.cache_lookups as f64),
            "ratio",
        ),
        ("annotate.hybrid_ms", ms(l.annotate_hybrid), "ms"),
        ("annotate.analytical_ms", ms(l.annotate_analytical), "ms"),
        ("annotate.regions", l.regions as f64, "count"),
        ("annotate.misses", l.misses as f64, "count"),
        ("kernel.run_ms", ms(l.kernel), "ms"),
        ("kernel.commits", l.commits as f64, "count"),
        ("kernel.slices", l.slices as f64, "count"),
        (
            "kernel.ns_per_commit",
            ratio(l.kernel as f64, l.commits as f64),
            "ns",
        ),
        ("models.evaluate_ms", ms(l.evaluate), "ms"),
        ("models.evaluations", l.evaluations as f64, "count"),
        ("models.estimate_ms", ms(l.estimate), "ms"),
        ("bench.compare_ms", ms(l.compare), "ms"),
        ("bench.unattributed_ms", unattributed / 1e6, "ms"),
        ("bench.unattributed_pct", unattributed_pct, "%"),
        (
            "bench.lru_hit_ratio",
            ratio(t.lru_hits as f64, t.lru_lookups as f64),
            "ratio",
        ),
        (
            "store.write_pass_ms",
            store.write_pass.as_secs_f64() * 1e3,
            "ms",
        ),
        (
            "store.read_pass_ms",
            store.read_pass.as_secs_f64() * 1e3,
            "ms",
        ),
        ("store.trace_hits", store.trace_hits as f64, "count"),
        ("store.publishes", store.publishes as f64, "count"),
        ("store.memo_hits", store.memo_hits as f64, "count"),
        ("hybrid.speedup_kernel", speedup_kernel, "x"),
        ("hybrid.speedup_e2e", speedup_e2e, "x"),
        ("share.workloads_pct", share(l.gen as f64), "%"),
        ("share.cyclesim_pct", share(cyclesim), "%"),
        ("share.annotate_pct", share(annotate), "%"),
        ("share.kernel_pct", share(l.kernel as f64), "%"),
        ("share.models_pct", share(models), "%"),
        ("traced.total_ms", total / 1e6, "ms"),
    ];
    Outcome {
        attempted: (t.points as u64 + t.production.evaluated).max(1),
        failed: t.failed,
        metrics,
        digest: check::fold(t.digests.iter().copied()),
        reps: 1,
    }
}

/// Writes the spans as a Chrome trace (viewable in Perfetto) under
/// `.bench_runs/` and returns its path.
fn write_spans(args: &Args, spans: &[traced::Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_runs");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "trace-{}-{}-seed{}.json",
        args.kind.name(),
        args.size.name(),
        args.seed
    ));
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"point\": {}, \"models_ns\": {}}}}}{sep}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.point,
            s.models_ns
        );
    }
    out.push_str("]}\n");
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// The run's provenance: the benchmark's settings and the host.
fn provenance(args: &Args, digest: u64, reps: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a repository rooted here names the code measured; a checkout
    // without `.git` must not pick up the sha of an enclosing repository.
    let sha = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["--git-dir", ".git", "rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let settings: Vec<String> = SETTINGS
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"size\": \"{}\", \"reps\": {reps}, \"digest\": \"{digest:016x}\", \"settings\": {{{}}}, \
         \"nproc\": {nproc}, \"cpu_model\": \"{}\", \"git_sha\": \"{sha}\"}}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.name(),
        settings.join(", "),
        cpu.replace('"', "'"),
    )
}

/// The fastest time, in ms, of each timed part of a repetition over all
/// repetitions.
fn fastest_ms(reps: &[Rep], part: impl Fn(&Rep) -> &[u64]) -> Vec<f64> {
    (0..part(&reps[0]).len())
        .map(|j| {
            reps.iter()
                .map(|r| part(r)[j] as f64 / 1e6)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
