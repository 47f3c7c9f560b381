//! The regression gate's history file and differ.
//!
//! `BENCH_history.json` (`hpf-bench-history/v1`) accumulates one entry
//! per [`append_history`] call: host metadata, git revision, a Unix
//! timestamp, and a flat map of key metrics from a fixed, small canonical
//! suite ([`canonical_metrics`]). [`diff_histories`] compares the latest
//! entries of two history files with per-metric tolerances — exact for
//! deterministic counters, a small relative band for modeled times,
//! informational-only for host wall clocks — and the `benchdiff` binary
//! turns a regression into a nonzero exit for CI.

use hpf_core::trace::json::{parse, Value};
use std::time::{SystemTime, UNIX_EPOCH};

/// Where the run happened and what code it ran.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Hostname, or `"unknown"` when the environment does not say.
    pub host: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism (0 when the runtime cannot tell).
    pub cpus: u64,
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
    pub git_rev: String,
    /// Seconds since the Unix epoch.
    pub timestamp_unix: u64,
}

/// Collect the current host's metadata.
pub fn run_meta() -> RunMeta {
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::fs::read_to_string("/etc/hostname")
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    RunMeta {
        host,
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        cpus: hpf_core::runtime::cores() as u64,
        git_rev,
        timestamp_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

impl RunMeta {
    fn host_json(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.host.clone())),
            ("os".into(), Value::String(self.os.clone())),
            ("arch".into(), Value::String(self.arch.clone())),
            ("cpus".into(), Value::Number(self.cpus as f64)),
        ])
    }
}

/// Key metrics of the fixed canonical suite: small deterministic runs of
/// Problem 9 and Jacobi on a 2×2 grid, bytecode backend. Counter metrics
/// are exactly reproducible; `modeled_ms` is deterministic up to float
/// summation; `wall_ms` is the host's clock and only ever informational.
pub fn canonical_metrics() -> Vec<(String, f64)> {
    use hpf_core::{presets, Backend, CompileOptions, Kernel, MachineConfig};
    let mut out = Vec::new();
    let cases = [("problem9-32", presets::problem9(32)), ("jacobi-32", presets::jacobi(32, 4))];
    for (name, src) in cases {
        let kernel = Kernel::compile(&src, CompileOptions::full()).unwrap();
        let mut plan = kernel
            .plan(MachineConfig::grid([2, 2]))
            .init("U", crate::experiments::input)
            .backend(Backend::Bytecode)
            .build()
            .unwrap();
        plan.iterate(4);
        let stats = plan.stats();
        out.push((format!("{name}/messages"), stats.total_messages() as f64));
        out.push((format!("{name}/comm_bytes"), stats.total_comm_bytes() as f64));
        out.push((format!("{name}/peak_bytes"), stats.max_peak_bytes() as f64));
        out.push((format!("{name}/kernels_compiled"), stats.kernels_compiled as f64));
        out.push((format!("{name}/modeled_ms"), plan.modeled_ms()));
        out.push((format!("{name}/wall_ms"), plan.wall().as_secs_f64() * 1e3));
    }
    out
}

fn history_entry_json(meta: &RunMeta, metrics: &[(String, f64)]) -> Value {
    Value::Object(vec![
        ("host".into(), meta.host_json()),
        ("git_rev".into(), Value::String(meta.git_rev.clone())),
        ("timestamp_unix".into(), Value::Number(meta.timestamp_unix as f64)),
        (
            "metrics".into(),
            Value::Object(metrics.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect()),
        ),
    ])
}

/// Append one entry (metadata + metrics) to the `hpf-bench-history/v1`
/// document at `path`, creating it if absent. Returns the entry count
/// after the append.
pub fn append_history(
    path: &str,
    meta: &RunMeta,
    metrics: &[(String, f64)],
) -> Result<usize, String> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text)? {
            Value::Object(kv) => match kv.into_iter().find(|(k, _)| k == "entries") {
                Some((_, Value::Array(a))) => a,
                _ => return Err(format!("{path}: no entries array")),
            },
            _ => return Err(format!("{path}: not a history object")),
        },
        Err(_) => Vec::new(),
    };
    entries.push(history_entry_json(meta, metrics));
    let count = entries.len();
    let doc = Value::Object(vec![
        ("schema".into(), Value::String("hpf-bench-history/v1".into())),
        ("entries".into(), Value::Array(entries)),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
    Ok(count)
}

/// The comparison verdict for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance.
    Ok,
    /// Better than the baseline by more than the tolerance.
    Improved,
    /// Informational metric (host wall clock): never gated.
    Info,
    /// Worse than the baseline by more than the tolerance.
    Regressed,
    /// Present in the baseline, absent in the current entry.
    Missing,
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffLine {
    /// Metric key (`experiment/metric`).
    pub metric: String,
    /// Baseline value (`NaN` for metrics new in the current entry).
    pub base: f64,
    /// Current value (`NaN` when [`DiffStatus::Missing`]).
    pub current: f64,
    /// Verdict.
    pub status: DiffStatus,
}

/// The gating tolerance for a metric key: `None` marks it informational
/// (host wall clock — too noisy to gate), `Some(rel)` gates at a relative
/// band. Deterministic counters gate exactly; modeled times get a small
/// band for float-summation drift across refactors.
pub fn tolerance_for(metric: &str) -> Option<f64> {
    if metric.ends_with("/wall_ms") || metric.ends_with("/search_ms") {
        None
    } else if metric.ends_with("/modeled_ms") {
        Some(0.02)
    } else {
        Some(0.0)
    }
}

fn latest_metrics(history: &Value, which: &str) -> Result<Vec<(String, f64)>, String> {
    let entries = match history.get("entries") {
        Some(Value::Array(a)) if !a.is_empty() => a,
        _ => return Err(format!("{which}: no history entries")),
    };
    match entries.last().unwrap().get("metrics") {
        Some(Value::Object(kv)) => kv
            .iter()
            .map(|(k, v)| match v {
                Value::Number(n) => Ok((k.clone(), *n)),
                other => Err(format!("{which}: metric {k} is not a number: {other:?}")),
            })
            .collect(),
        _ => Err(format!("{which}: latest entry has no metrics object")),
    }
}

/// Compare the latest entries of two history documents. All metrics are
/// lower-is-better. A metric the baseline has and the current entry lacks
/// is a regression (coverage loss); a metric new in the current entry
/// passes.
pub fn diff_histories(base: &str, current: &str) -> Result<Vec<DiffLine>, String> {
    let b = parse(base).map_err(|e| format!("baseline: {e}"))?;
    let c = parse(current).map_err(|e| format!("current: {e}"))?;
    let base_m = latest_metrics(&b, "baseline")?;
    let cur_m = latest_metrics(&c, "current")?;
    let mut out = Vec::new();
    for (key, bv) in &base_m {
        let line = match cur_m.iter().find(|(k, _)| k == key) {
            None => DiffLine {
                metric: key.clone(),
                base: *bv,
                current: f64::NAN,
                status: DiffStatus::Missing,
            },
            Some((_, cv)) => {
                let status = match tolerance_for(key) {
                    None => DiffStatus::Info,
                    Some(tol) => {
                        let slack = bv.abs() * tol;
                        if *cv > bv + slack {
                            DiffStatus::Regressed
                        } else if *cv < bv - slack {
                            DiffStatus::Improved
                        } else {
                            DiffStatus::Ok
                        }
                    }
                };
                DiffLine { metric: key.clone(), base: *bv, current: *cv, status }
            }
        };
        out.push(line);
    }
    for (key, cv) in &cur_m {
        if !base_m.iter().any(|(k, _)| k == key) {
            out.push(DiffLine {
                metric: key.clone(),
                base: f64::NAN,
                current: *cv,
                status: DiffStatus::Ok,
            });
        }
    }
    Ok(out)
}

/// Does any compared metric gate the build?
pub fn has_regression(lines: &[DiffLine]) -> bool {
    lines.iter().any(|l| matches!(l.status, DiffStatus::Regressed | DiffStatus::Missing))
}

/// Render the comparison as a table.
pub fn render_diff(lines: &[DiffLine]) -> String {
    use hpf_core::trace::{Align, TextTable};
    let mut t = TextTable::new(&[
        ("metric", Align::Left),
        ("base", Align::Right),
        ("current", Align::Right),
        ("delta%", Align::Right),
        ("status", Align::Left),
    ]);
    let num = |v: f64| if v.is_nan() { "-".to_string() } else { format!("{v:.4}") };
    for l in lines {
        let delta = if l.base.is_nan() || l.current.is_nan() || l.base == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}", (l.current - l.base) / l.base * 100.0)
        };
        t.row([l.metric.clone(), num(l.base), num(l.current), delta, format!("{:?}", l.status)]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            host: "testhost".into(),
            os: "linux".into(),
            arch: "x86_64".into(),
            cpus: 8,
            git_rev: "abc1234".into(),
            timestamp_unix: 1_700_000_000,
        }
    }

    fn history_doc(metrics: &[(&str, f64)]) -> String {
        let owned: Vec<(String, f64)> = metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Value::Object(vec![
            ("schema".into(), Value::String("hpf-bench-history/v1".into())),
            ("entries".into(), Value::Array(vec![history_entry_json(&meta(), &owned)])),
        ])
        .render()
    }

    #[test]
    fn history_appends_and_keeps_prior_entries() {
        let path = std::env::temp_dir()
            .join(format!("hpf-bench-history-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_file(&path);
        let metrics = vec![("demo/messages".to_string(), 64.0)];
        assert_eq!(append_history(&path, &meta(), &metrics), Ok(1));
        assert_eq!(append_history(&path, &meta(), &metrics), Ok(2));
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema"), Some(&Value::String("hpf-bench-history/v1".into())));
        assert!(matches!(doc.get("entries"), Some(Value::Array(a)) if a.len() == 2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn identical_histories_do_not_regress() {
        let doc = history_doc(&[("p/messages", 64.0), ("p/modeled_ms", 1.0), ("p/wall_ms", 5.0)]);
        let lines = diff_histories(&doc, &doc).unwrap();
        assert!(!has_regression(&lines), "{lines:?}");
        assert!(lines.iter().all(|l| l.status != DiffStatus::Regressed));
    }

    #[test]
    fn injected_counter_regression_is_caught_exactly() {
        let base = history_doc(&[("p/messages", 64.0)]);
        let bad = history_doc(&[("p/messages", 65.0)]);
        let lines = diff_histories(&base, &bad).unwrap();
        assert!(has_regression(&lines));
        assert_eq!(lines[0].status, DiffStatus::Regressed);
        assert!(render_diff(&lines).contains("Regressed"));
        // Counters gate exactly: even one extra message fails; one fewer
        // is an improvement, not a failure.
        let better = history_doc(&[("p/messages", 63.0)]);
        let lines = diff_histories(&base, &better).unwrap();
        assert!(!has_regression(&lines));
        assert_eq!(lines[0].status, DiffStatus::Improved);
    }

    #[test]
    fn modeled_band_and_informational_wall() {
        let base = history_doc(&[("p/modeled_ms", 100.0), ("p/wall_ms", 10.0)]);
        // +1% modeled is inside the 2% band; 10x wall is informational.
        let near = history_doc(&[("p/modeled_ms", 101.0), ("p/wall_ms", 100.0)]);
        let lines = diff_histories(&base, &near).unwrap();
        assert!(!has_regression(&lines), "{lines:?}");
        assert!(lines.iter().any(|l| l.status == DiffStatus::Info));
        // +5% modeled is outside it.
        let far = history_doc(&[("p/modeled_ms", 105.0), ("p/wall_ms", 10.0)]);
        let lines = diff_histories(&base, &far).unwrap();
        assert!(has_regression(&lines));
    }

    #[test]
    fn losing_a_metric_is_a_regression_gaining_one_is_not() {
        let base = history_doc(&[("p/messages", 64.0)]);
        let lost = history_doc(&[("q/messages", 64.0)]);
        let lines = diff_histories(&base, &lost).unwrap();
        assert!(has_regression(&lines));
        assert!(lines.iter().any(|l| l.status == DiffStatus::Missing));
        assert!(lines.iter().any(|l| l.metric == "q/messages" && l.status == DiffStatus::Ok));
    }

    #[test]
    fn run_meta_is_populated() {
        let m = run_meta();
        assert!(!m.os.is_empty() && !m.arch.is_empty());
        assert!(m.timestamp_unix > 1_600_000_000);
        // git_rev resolves inside this repository's work tree.
        assert!(!m.git_rev.is_empty());
    }
}
