//! The whole suite from one driver: every workload in a child process of
//! its own (so peak memory is per workload and never more than one
//! workload's threads are runnable), untraced then traced; and the tool
//! that decides whether two sets of runs agree.

use crate::json::{self, Value};
use crate::manifest::{END_TO_END, EXACT};
use crate::stats::{median, quartiles};
use crate::workloads::{names, out_dir};
use std::process::{Command, ExitCode, Stdio};

/// One workload's two result lines.
struct Pair {
    workload: &'static str,
    untraced: String,
    traced: String,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("").to_string();
    if json::parse(&last).is_err() {
        return Err(format!(
            "{workload} (trace {}): no result line; exit {:?}",
            trace as u8,
            out.status.code()
        ));
    }
    Ok(last)
}

/// Run every workload once, untraced then traced.
fn suite(seed: u64, seconds: f64, smoke: bool) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for workload in names() {
        let untraced = child(workload, seed, seconds, false, smoke)?;
        let traced = child(workload, seed, seconds, true, smoke)?;
        pairs.push(Pair { workload, untraced, traced });
    }
    Ok(pairs)
}

fn print_suite(pairs: &[Pair]) -> bool {
    let mut ok = true;
    for p in pairs {
        println!("== {}", p.workload);
        for line in [&p.untraced, &p.traced] {
            let v = json::parse(line).expect("checked when the child returned");
            ok &= v.get("correct") == Some(&Value::Bool(true));
            for (name, m) in v.get("metrics").map_or(&[][..], |m| m.as_obj()) {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                println!("  {name:<36} {value:>16.6} {unit}");
            }
            let count = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!("  ops_failed / ops_total: {} / {}", count("failed"), count("attempted"));
        }
    }
    ok
}

fn suites_json(seed: u64, seconds: f64, suites: &[Vec<Pair>]) -> String {
    let suites: Vec<String> = suites
        .iter()
        .map(|pairs| {
            let rows: Vec<String> = pairs
                .iter()
                .map(|p| {
                    format!(
                        "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                        p.workload, p.untraced, p.traced
                    )
                })
                .collect();
            format!("{{{}}}", rows.join(",\n  "))
        })
        .collect();
    format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"suites\": [\n  {}\n]}}\n",
        suites.join(",\n  ")
    )
}

fn write_results(name: &str, text: &str) {
    let path = out_dir().join(name);
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `--all`.
pub fn all(seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    match suite(seed, seconds, smoke) {
        Ok(pairs) => {
            let ok = print_suite(&pairs);
            write_results("results.json", &suites_json(seed, seconds, &[pairs]));
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hpf-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// `--repeat K`: K suites, the first half compared with the second.
pub fn repeat(k: usize, seed: u64, seconds: f64, smoke: bool) -> ExitCode {
    let mut suites = Vec::new();
    for i in 0..k {
        eprintln!("suite {} of {k}", i + 1);
        match suite(seed, seconds, smoke) {
            Ok(pairs) => suites.push(pairs),
            Err(e) => {
                eprintln!("hpf-benchmark: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let text = suites_json(seed, seconds, &suites);
    write_results("repeat.json", &text);
    let parsed = json::parse(&text).expect("suites_json writes valid JSON");
    let all = parsed.get("suites").map_or(&[][..], |s| s.as_arr());
    let (a, b) = all.split_at(k.div_ceil(2));
    compare(a, b)
}

/// `--compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let suites = |v: &Value| v.get("suites").map_or(Vec::new(), |s| s.as_arr().to_vec());
            compare(&suites(&a), &suites(&b))
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("hpf-benchmark: {e}");
            }
            ExitCode::from(2)
        }
    }
}

/// Every value of `metric` on `workload` in `suites`, from the untraced
/// (`end_to_end`) or traced (`per_layer`) result.
fn values(suites: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    suites
        .iter()
        .filter_map(|s| {
            s.get(workload)?.get(section)?.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

/// Per workload row and end-to-end metric: both sides' median, quartiles
/// and sample count, and whether B is no worse than A by more than the
/// metric's bound. Also: no failed operation anywhere, and the exact
/// per-layer counts identical. Exit 0 only if everything agrees.
fn compare(a: &[Value], b: &[Value]) -> ExitCode {
    let mut ok = !a.is_empty() && !b.is_empty();
    println!(
        "{:<18} {:<14} {:>12} {:>25} {:>3} {:>12} {:>25} {:>3} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "n",
        "B median",
        "B quartiles",
        "n",
        "change",
        "bound"
    );
    for workload in names() {
        for m in &END_TO_END {
            let (va, vb) = (
                values(a, workload, "end_to_end", m.name),
                values(b, workload, "end_to_end", m.name),
            );
            let (ma, mb) = (median(&va), median(&vb));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            // Positive = worse, as a share of A's median.
            let worse = if m.better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            let agrees = !va.is_empty() && !vb.is_empty() && ma > 0.0 && worse <= m.bound;
            ok &= agrees;
            println!(
                "{workload:<18} {:<14} {ma:>12.5} {:>25} {:>3} {mb:>12.5} {:>25} {:>3} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                format!("[{:.5}, {:.5}]", qa.0, qa.1),
                va.len(),
                format!("[{:.5}, {:.5}]", qb.0, qb.1),
                vb.len(),
                worse * 100.0,
                m.bound * 100.0,
                if agrees { "agrees" } else { "DIFFERS" }
            );
        }
        for section in ["end_to_end", "per_layer"] {
            for s in a.iter().chain(b) {
                let failed = s.get(workload).and_then(|w| w.get(section)?.get("failed")?.as_f64());
                if failed != Some(0.0) {
                    println!("{workload:<18} {section}: ops_failed = {failed:?}  DIFFERS");
                    ok = false;
                }
            }
        }
        for name in EXACT {
            let mut all = values(a, workload, "per_layer", name);
            all.extend(values(b, workload, "per_layer", name));
            if all.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                println!("{workload:<18} {name}: exact count varies: {all:?}  DIFFERS");
                ok = false;
            }
        }
    }
    println!("{}", if ok { "all pairs agree" } else { "some pairs differ" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
