//! One run of one workload: the untraced run gives the end-to-end
//! metrics, the traced run wraps every call in a span, adds the per-layer
//! ladder and gives the per-layer metrics.

use crate::gen::Program;
use crate::layers;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::native;
use crate::spans;
use crate::stats::median;
use crate::workloads::{self as wl, Kind, Ops, Spec, Timed};
use hpf_core::{Kernel, Plan};
use std::collections::BTreeMap;

/// The result line of one run.
pub struct Outcome {
    pub ops: Ops,
    /// (name, value, unit) in the order the manifest declares them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// A declared metric could not be measured.
    pub incomplete: bool,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && !self.incomplete
    }

    /// The one JSON object the contract asks for on the last line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_value(*v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
pub fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

/// Start-up self-check of the hand-written floor: both sweeps bitwise
/// equal to the oracle at N = 64.
fn native_self_check(seed: u64) -> Result<(), String> {
    let n = 64;
    for (name, input, output) in [("problem9", "U", "T"), ("five_point", "SRC", "DST")] {
        let prog = crate::gen::frozen(name, n);
        let kernel = wl::compile(&prog)?;
        let f = crate::gen::init_for(seed, input);
        let g = f.clone();
        let want = kernel.oracle().init(input, move |p| g(p)).run();
        let mut src = native::Field::new(n, |p| f(p));
        let mut dst = native::Field::new(n, |_| 0.0);
        match name {
            "problem9" => native::nine_point_step(&mut src, &mut dst),
            _ => native::five_point_step(&src, &mut dst),
        }
        let same = dst
            .dense()
            .iter()
            .zip(&want.array_named(output).data)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("native {name} sweep differs from the oracle"));
        }
    }
    Ok(())
}

/// The timed steady state of the whole workload. Returns the workload's
/// `mpoints_per_s` and the per-plan results (in program order).
fn steady_state(
    spec: &Spec,
    programs: &[Program],
    plans: &mut [Plan<'_>],
    budget_s: f64,
    traced: bool,
    ops: &mut Ops,
) -> (f64, Vec<Timed>) {
    let batches = if spec.kind == Kind::Zoo { 25 } else { 100 };
    let each_s = budget_s / plans.len().max(1) as f64;
    let timed: Vec<Timed> = plans
        .iter_mut()
        .zip(programs)
        .map(|(plan, prog)| wl::time_plan(plan, prog, each_s, batches, traced, ops))
        .collect();
    // One kernel: its median batch. Several: the geometric mean of theirs.
    let medians: Vec<f64> = timed.iter().map(|t| median(&t.rates)).collect();
    (wl::geomean(&medians), timed)
}

/// Every phase of one run; returns whatever metrics could be measured
/// (a failed compile or build ends the run early, with the failure
/// already counted in `ops`).
fn measure(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    ops: &mut Ops,
) -> BTreeMap<&'static str, f64> {
    let mut metrics = BTreeMap::new();
    let programs = spec.programs(seed);
    ops.run("native self-check", || {
        spans::span("bench.native_self_check", || native_self_check(seed))
    });

    // The traced run spends most of its time on the ladder, so it repeats
    // the set-up less and steps for a third of the window.
    let (setup_reps, steady_s) = match (spec.kind, traced) {
        (Kind::Zoo, false) => ((spec.setup_reps.0, seconds / 2.0), seconds / 2.0),
        (Kind::Zoo, true) => ((3, seconds / 8.0), seconds / 4.0),
        (Kind::Tune, true) => ((1, 0.0), seconds / 3.0),
        (_, true) => ((3, spec.setup_reps.1 / 3.0), seconds / 3.0),
        (_, false) => (spec.setup_reps, seconds),
    };
    let setups = wl::setup_samples(spec, &programs, seed, setup_reps, ops);
    let setup_s = median(&setups.iter().map(|s| s.seconds).collect::<Vec<_>>());

    // The kernels and plans the steady state runs on (the tune workload's
    // plan comes from the decision its last set-up cached).
    let kernels: Vec<Kernel> = programs
        .iter()
        .filter_map(|p| ops.run(format_args!("compile {}", p.name), || wl::compile(p)))
        .collect();
    if kernels.len() != programs.len() {
        return metrics;
    }
    let (build_s, mpoints, timed) = {
        let t = std::time::Instant::now();
        let mut plans: Vec<Plan<'_>> = kernels
            .iter()
            .zip(&programs)
            .filter_map(|(k, p)| {
                ops.run(format_args!("build {}", p.name), || wl::build(spec, k, p, seed))
            })
            .collect();
        let build_s = t.elapsed().as_secs_f64();
        if plans.len() != programs.len() {
            return metrics;
        }
        let (mpoints, timed) = steady_state(spec, &programs, &mut plans, steady_s, traced, ops);
        (build_s, mpoints, timed)
    };
    // Memory is read before the check phase: the oracle's dense arrays
    // are the harness's cost, not the program's.
    metrics.insert("peak_rss_mb", wl::peak_rss_mib());
    metrics.insert("setup_s", setup_s);
    metrics.insert("mpoints_per_s", mpoints);

    if traced {
        let mut ladder = layers::Ladder::new(spec, &programs, &kernels, seed, ops);
        ladder.workload_steps(&timed, build_s, setups.last().and_then(|s| s.tune.as_ref()));
        ladder.run();
        metrics.extend(ladder.out);
    }
    let (oracle_s, oracle_updates) = wl::check(spec, &programs, &kernels, seed, ops);
    if traced {
        metrics.insert("bench.check_s", oracle_s);
        metrics.insert("exec.oracle_ns_per_pt", oracle_s * 1e9 / oracle_updates.max(1.0));
        let sum = spans::summary();
        metrics.insert("bench.attributed_pct", sum.attributed_pct);
        metrics.insert("bench.spans", sum.count as f64);
    }
    metrics
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        spans::enable();
    }
    let mut ops = Ops::default();
    let metrics = measure(spec, seed, seconds, traced, &mut ops);
    let _ = std::fs::remove_file(spec.tune_cache());
    if traced {
        let path = wl::out_dir().join(format!("trace-{}.json", spec.name));
        if let Err(e) = spans::write_json(&path, spec.name) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let declared: Vec<(&'static str, &'static str)> = if traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut incomplete = false;
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().filter(|v| v.is_finite());
            if v.is_none() {
                eprintln!("FAILED metric {name}: not measured");
                incomplete = true;
            }
            (name, v.unwrap_or(-1.0), unit)
        })
        .collect();
    Outcome { ops, metrics, incomplete }
}
