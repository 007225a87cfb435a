//! The benchmark's own tests, at the tiny input size: every workload prints
//! every metric `BENCHMARK.json` names, with its unit, and passes its output
//! check; a stray `MESH_*` variable is refused.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["fft_fig4", "phm_fig6", "knob_ablation", "direct_annotated"];

/// A JSON value: just enough to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input in {text:?}");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, pos) else {
                    panic!("object key expected")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                let v = value(b, pos);
                assert!(m.insert(k, v).is_none(), "duplicate key");
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut a = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not expected");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return v;
                }
            }
            panic!("bad literal at {pos}");
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && b"+-.eE0123456789".contains(&b[*pos]) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s:?}")))
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mesh-perfbench"));
    cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("benchmark binary runs")
}

fn tiny(workload: &str, trace: &str) -> Json {
    let out = run(
        &[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--size",
            "tiny",
        ],
        &[],
    );
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let mut lines = stdout.lines().rev();
    let result = parse(lines.next().expect("a result line"));
    let provenance = parse(lines.next().expect("a provenance line"));
    let p = provenance.get("provenance");
    assert_eq!(p.get("workload").str(), workload);
    assert_eq!(p.get("settings").get("MESH_BENCH_JOBS").str(), "1");
    assert!(!p.get("cpu_model").str().is_empty());
    result
}

fn check_metrics(result: &Json, section: &str, workload: &str) {
    let Json::Obj(top) = result else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
    assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
    let Json::Arr(wanted) = benchmark_json().get(section).clone() else {
        panic!("{section} is a list")
    };
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is an object")
    };
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload}: exactly the {section} metrics"
    );
    for m in &wanted {
        let name = m.get("name").str();
        let got = &metrics[name];
        assert_eq!(
            got.get("unit").str(),
            m.get("unit").str(),
            "{workload} {name}"
        );
        assert!(
            matches!(got.get("value"), Json::Num(v) if v.is_finite()),
            "{workload} {name}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_and_outputs_check() {
    for w in WORKLOADS {
        let result = tiny(w, "0");
        check_metrics(&result, "end_to_end", w);
        for name in [
            "setup_s",
            "sweep_s",
            "point_ms_p50",
            "peak_rss_mb",
            "mesh_err_pct",
        ] {
            let Json::Num(v) = result.get("metrics").get(name).get("value") else {
                panic!("{name} is a number")
            };
            assert!(*v > 0.0, "{w}: {name} is never 0");
        }
    }
}

#[test]
fn every_per_layer_metric_is_printed_and_outputs_check() {
    for w in WORKLOADS {
        check_metrics(&tiny(w, "1"), "per_layer", w);
    }
}

#[test]
fn knob_ablation_replays_from_its_persistent_caches() {
    let metrics = tiny("knob_ablation", "1");
    let m = metrics.get("metrics");
    for name in [
        "store.publishes",
        "store.trace_hits",
        "store.memo_hits",
        "bench.lru_hit_ratio",
    ] {
        assert!(
            matches!(m.get(name).get("value"), Json::Num(v) if *v > 0.0),
            "{name} > 0"
        );
    }
}

#[test]
fn a_stray_mesh_variable_is_refused() {
    for (k, v) in [
        ("MESH_BENCH_JOBS", "2"),
        ("MESH_RESULT_CACHE", "/nonexistent"),
    ] {
        let out = run(
            &[
                "--workload",
                "fft_fig4",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--size",
                "tiny",
            ],
            &[(k, v)],
        );
        assert_eq!(out.status.code(), Some(2), "{k}");
        assert!(out.stdout.is_empty(), "{k}: no result is printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(k));
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "fft_fig4", "--trace", "2"],
        &["--workload", "fft_fig4", "--seconds", "-1"],
        &["--seed", "1"],
    ] {
        let out = run(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
