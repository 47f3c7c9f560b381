//! Smoke test of the benchmark itself: tiny sizes, every code path.
//!
//! * `BENCHMARK.json` is what `--manifest` prints;
//! * every run's last line parses, is correct, has no failed operation and
//!   carries exactly the metrics the manifest declares for its mode;
//! * the exact per-layer counts are identical across two runs (the
//!   compiler is deterministic).

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;
#[path = "../src/manifest.rs"]
#[allow(dead_code)]
mod manifest;

use json::Value;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn bench(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_hpf-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.code())
}

fn declared(manifest: &Value, section: &str) -> Vec<String> {
    manifest
        .get(section)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn manifest_file_is_what_the_harness_declares() {
    let file = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let (printed, code) = bench(&["--manifest"]);
    assert_eq!(code, Some(0));
    assert_eq!(file, printed, "regenerate with: hpf-benchmark --manifest > BENCHMARK.json");
    let v = json::parse(&file).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let names: Vec<String> =
        ["workloads", "end_to_end", "per_layer"].iter().flat_map(|s| declared(&v, s)).collect();
    for n in &names {
        assert!(
            n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {n}"
        );
        assert_eq!(names.iter().filter(|m| *m == n).count(), 1, "{n} declared twice");
    }
    for w in v.get("workloads").unwrap().as_arr() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {}", why.len());
    }
    assert!(declared(&v, "end_to_end").contains(&"setup_s".to_string()));
}

#[test]
fn every_workload_runs_checks_and_repeats_its_counts() {
    let manifest = json::parse(&manifest::json()).unwrap();
    for workload in declared(&manifest, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut exact: Vec<Vec<(String, u64)>> = Vec::new();
            // The counts must repeat; one untraced run is enough.
            for _ in 0..if trace == "1" { 2 } else { 1 } {
                let (stdout, code) = bench(&[
                    "--workload",
                    &workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.2",
                    "--trace",
                    trace,
                    "--smoke",
                ]);
                let last = stdout.lines().last().unwrap_or_default();
                let v = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
                assert_eq!(code, Some(0), "{workload} trace {trace}");
                let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{workload}");
                assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0), "{workload}");
                assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
                let metrics = v.get("metrics").unwrap().as_obj();
                let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(got, declared(&manifest, section), "{workload} trace {trace}");
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Value::as_f64).expect("a number");
                    assert!(value.is_finite(), "{workload} {name}");
                    assert!(m.get("unit").and_then(Value::as_str).is_some());
                }
                exact.push(
                    metrics
                        .iter()
                        .filter(|(k, _)| manifest::EXACT.contains(&k.as_str()))
                        .map(|(k, m)| {
                            (k.clone(), m.get("value").and_then(Value::as_f64).unwrap().to_bits())
                        })
                        .collect(),
                );
            }
            if trace == "1" {
                assert_eq!(exact[0].len(), manifest::EXACT.len());
                assert_eq!(exact[0], exact[1], "{workload}: exact counts differ between two runs");
            }
        }
    }
}

#[test]
fn all_smoke_writes_results_that_compare_equal_to_themselves() {
    let (stdout, code) = bench(&["--all", "--smoke", "--seed", "5"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("== zoo-compile-64") && stdout.contains("mpoints_per_s"));
    let results = repo_root().join("benchmark/out/results.json");
    let text = std::fs::read_to_string(&results).expect("results.json written");
    assert_eq!(json::parse(&text).unwrap().get("suites").unwrap().as_arr().len(), 1);
    let path = results.to_str().unwrap();
    let (table, code) = bench(&["--compare", path, path]);
    assert_eq!(code, Some(0), "{table}");
    assert!(table.contains("all pairs agree"));
}
