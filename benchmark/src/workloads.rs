//! The five workloads and the phases every run goes through: set-up
//! repetitions, the timed steady state, the memory reading, and the
//! correctness check against `Kernel::oracle()`.
//!
//! Only the API surface the ROADMAP keeps is called: `Kernel::{compile,
//! plan, lint, oracle, tune}`, the `Planner` setters and `build`,
//! `Plan::{step, iterate, gather, stats}` and `Tuner::{new, cache_path}`.

use crate::gen::{self, Program};
use crate::manifest::WORKLOAD_WHY;
use crate::spans::{span, timed};
use crate::stats::median;
use hpf_core::{
    Backend, CompileOptions, Engine, ExecConfig, Kernel, MachineConfig, Plan, Planner, TuneOutcome,
    Tuner,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// One Problem-9 plan, fixed configuration.
    Single,
    /// Four kernels of other shapes, stepped one after the other.
    Mixed,
    /// Many small programs; compiling them is the work.
    Zoo,
    /// Problem 9 with the configuration chosen by a cold auto-tune.
    Tune,
}

/// One workload at one scale.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Edge of the two-dimensional arrays.
    pub n: usize,
    /// Edge of `heat3d`'s arrays (workload kernel or ladder probe).
    pub n3: usize,
    pub grid: [usize; 2],
    pub engine: Engine,
    /// Programs in the zoo.
    pub zoo: usize,
    /// Problem size of the `tune.*` ladder probes (the workload's own
    /// search on the tune workload; a size a cold search finishes in
    /// about a second elsewhere).
    pub tune_n: usize,
    /// Seconds one ladder probe steps its plan for (a few probes that
    /// compare configurations take a multiple of it).
    pub probe_s: f64,
    /// Set-up repetitions: at least `.0`, then until `.1` seconds are up.
    pub setup_reps: (usize, f64),
    /// Logical steps of the correctness check (the oracle takes about a
    /// microsecond per point-update: 4 steps below N = 512, 2 below 1024,
    /// else 1; a superstep plan rounds up to its depth).
    pub check_steps: usize,
}

/// The workload names, in the manifest's order.
pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOAD_WHY.iter().map(|(name, _)| *name)
}

/// The workload called `name`; `smoke` shrinks every size so that the whole
/// suite runs in seconds (same code paths, no meaningful numbers).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    let name = names().find(|n| *n == name)?;
    let base = Spec {
        name,
        kind: Kind::Single,
        n: 0,
        n3: 0,
        grid: [2, 2],
        engine: Engine::Sequential,
        zoo: 0,
        tune_n: pick(256, 32),
        probe_s: pick(150, 10) as f64 / 1e3,
        setup_reps: (5, pick(2000, 100) as f64 / 1e3),
        check_steps: 4,
    };
    Some(match name {
        "p9-large-2048" => Spec { n: pick(2048, 96), n3: pick(160, 16), check_steps: 1, ..base },
        "p9-threaded-192" => Spec {
            n: pick(192, 48),
            n3: pick(32, 12),
            grid: [2, 1],
            engine: Engine::Threaded,
            tune_n: pick(192, 32),
            ..base
        },
        "mixed-shapes-768" => {
            Spec { kind: Kind::Mixed, n: pick(768, 64), n3: pick(96, 16), check_steps: 2, ..base }
        }
        "zoo-compile-64" => Spec {
            kind: Kind::Zoo,
            n: pick(64, 16),
            n3: pick(16, 8),
            zoo: pick(64, 12),
            tune_n: pick(64, 16),
            ..base
        },
        "tune-cold-1024" => Spec {
            kind: Kind::Tune,
            n: pick(1024, 64),
            n3: pick(96, 16),
            tune_n: pick(1024, 64),
            setup_reps: (2, 0.0),
            check_steps: if smoke { 4 } else { 1 },
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    /// The workload's programs, made from the seed. The seed decides the
    /// generated zoo programs; for the frozen kernels it decides only the
    /// initial array values ([`gen::init_for`]).
    pub fn programs(&self, seed: u64) -> Vec<Program> {
        match self.kind {
            Kind::Single | Kind::Tune => vec![gen::frozen("problem9", self.n)],
            Kind::Mixed => vec![
                gen::frozen("wave2d", self.n),
                gen::frozen("image_blur", self.n),
                gen::frozen("masked", self.n),
                gen::frozen("heat3d", self.n3),
            ],
            Kind::Zoo => gen::zoo(self.zoo, self.n, self.n3, seed),
        }
    }

    /// The workload's machine for a program of the given rank (a rank-3
    /// program gets the two-dimensional grid with a trailing axis of one).
    pub fn machine(&self, rank: usize) -> MachineConfig {
        let mut dims = self.grid.to_vec();
        dims.resize(rank, 1);
        MachineConfig::grid(dims)
    }

    /// Where the tune workload's set-up keeps its decision, so that the
    /// check phase can rebuild the winner without searching again.
    pub fn tune_cache(&self) -> PathBuf {
        out_dir().join(format!("tune-cache-{}.json", std::process::id()))
    }
}

/// `benchmark/out/`, relative to the checkout root the harness runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// Operations attempted and failed. An operation is one program set-up,
/// one timed batch, one output-array check or one start-up self-check; a
/// caught panic, an `Err` or a bitwise mismatch fails it.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Run one operation; a panic or an `Err` fails it and is reported on
    /// stderr, never propagated.
    pub fn run<R>(
        &mut self,
        what: impl std::fmt::Display,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                eprintln!("FAILED {what}: {e}");
                self.failed += 1;
                None
            }
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                eprintln!("FAILED {what}: panicked: {msg}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Source text → lint-clean kernel: `Kernel::compile` then `Kernel::lint`.
/// A lint diagnostic fails the set-up (the inputs are chosen to be clean).
pub fn compile(prog: &Program) -> Result<Kernel, String> {
    let kernel =
        span("core.Kernel::compile", || Kernel::compile(&prog.source, CompileOptions::full()))
            .map_err(|e| format!("{}: {e}", prog.name))?;
    let diags = span("analysis.Kernel::lint", || kernel.lint());
    if !diags.is_empty() {
        return Err(format!(
            "{}: {} lint diagnostics, first: {:?}",
            prog.name,
            diags.len(),
            diags[0]
        ));
    }
    Ok(kernel)
}

/// The tuner of the tune workload: the workload's 2x2 machine as the base,
/// decisions kept in [`Spec::tune_cache`].
pub fn tuner(spec: &Spec) -> Tuner {
    Tuner::new(spec.machine(2)).cache_path(spec.tune_cache())
}

/// The cold search of the tune workload: no decision on disk, so
/// `Kernel::tune` enumerates, prunes and times; the winner lands in the
/// cache file, where the `build` that follows (and the check phase's fresh
/// plan) finds it.
pub fn tune_cold(spec: &Spec, kernel: &Kernel) -> Result<TuneOutcome, String> {
    let _ = std::fs::remove_file(spec.tune_cache());
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let outcome =
        span("tune.Kernel::tune", || kernel.tune(&tuner(spec))).map_err(|e| e.to_string())?;
    if outcome.cache_hit {
        return Err("cold search answered from a cache".to_string());
    }
    Ok(outcome)
}

/// `planner` with every input array of `prog` initialised from the seed.
pub fn with_inputs<'k>(mut planner: Planner<'k>, prog: &Program, seed: u64) -> Planner<'k> {
    for a in &prog.inputs {
        let f = gen::init_for(seed, a);
        planner = planner.init(a, move |p| f(p));
    }
    planner
}

/// Kernel → plan ready to step, inputs filled from the seed. The tune
/// workload's plan takes the configuration its search decided.
pub fn build<'k>(
    spec: &Spec,
    kernel: &'k Kernel,
    prog: &Program,
    seed: u64,
) -> Result<Plan<'k>, String> {
    let planner = kernel.plan(spec.machine(prog.rank));
    let planner = if spec.kind == Kind::Tune {
        planner.config(ExecConfig::auto()).tuner(tuner(spec))
    } else {
        planner.engine(spec.engine).backend(Backend::Bytecode)
    };
    let planner = with_inputs(planner, prog, seed);
    let plan = span("exec.Planner::build", || planner.build())
        .map_err(|e| format!("{}: {e}", prog.name))?;
    if spec.kind == Kind::Tune && plan.stats().tune_cache_hits != 1 {
        return Err("the plan was not built from the cached decision".to_string());
    }
    Ok(plan)
}

/// One cold set-up of the whole workload.
pub struct SetUp {
    pub seconds: f64,
    /// The search of the tune workload.
    pub tune: Option<TuneOutcome>,
}

/// One cold set-up of the whole workload: each program compiled, linted,
/// (tune workload: searched,) and built into a plan ready to step, then
/// dropped. `None` when any program failed.
fn set_up_once(spec: &Spec, programs: &[Program], seed: u64, ops: &mut Ops) -> Option<SetUp> {
    let t = Instant::now();
    let mut tune = None;
    let ok = span("bench.setup", || {
        programs.iter().fold(true, |ok, p| {
            let done = ops.run(format_args!("set-up {}", p.name), || {
                let kernel = compile(p)?;
                if spec.kind == Kind::Tune {
                    tune = Some(tune_cold(spec, &kernel)?);
                }
                build(spec, &kernel, p, seed).map(drop)
            });
            ok && done.is_some()
        })
    });
    ok.then(|| SetUp { seconds: t.elapsed().as_secs_f64(), tune })
}

/// Repeat the cold set-up `reps` = (at least this often, then until this
/// many seconds are up); one entry per successful repetition.
pub fn setup_samples(
    spec: &Spec,
    programs: &[Program],
    seed: u64,
    reps: (usize, f64),
    ops: &mut Ops,
) -> Vec<SetUp> {
    let (min, window_s) = reps;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut done = 0;
    while done < min || start.elapsed().as_secs_f64() < window_s {
        samples.extend(set_up_once(spec, programs, seed, ops));
        done += 1;
    }
    samples
}

/// What the timed steady state of one plan gave.
#[derive(Default)]
pub struct Timed {
    /// 10⁶ logical point-updates per second, one value per batch.
    pub rates: Vec<f64>,
    /// Seconds per `Plan::step`, from the batches stepped one span each
    /// (traced run only).
    pub spanned_step_s: Vec<f64>,
    /// Seconds per step in the batches that ran as one `Plan::iterate`.
    pub plain_step_s: Vec<f64>,
}

/// Step `plan` for about `budget_s` seconds after a warm-up, cut into
/// `batches` equal batches of `Plan::iterate`. In the traced run every
/// other batch is stepped one `Plan::step` per span instead, which gives
/// the per-step distribution and the cost of the spans themselves.
pub fn time_plan(
    plan: &mut Plan<'_>,
    prog: &Program,
    budget_s: f64,
    batches: usize,
    traced: bool,
    ops: &mut Ops,
) -> Timed {
    let logical = (prog.sweeps * plan.logical_steps_per_step()) as f64;
    // Warm-up: caches, page faults, lazily grown buffers; also sizes the batch.
    let warm_budget = (budget_s * 0.05).max(0.01);
    let warm = Instant::now();
    let mut warm_steps = Vec::new();
    span("exec.Plan::step(warm-up)", || {
        while warm_steps.len() < 3
            || (warm.elapsed().as_secs_f64() < warm_budget && warm_steps.len() < 10_000)
        {
            let t = Instant::now();
            plan.step();
            warm_steps.push(t.elapsed().as_secs_f64());
        }
    });
    let step_s = median(&warm_steps).max(1e-9);
    let per_batch = ((budget_s / batches as f64 / step_s) as usize).max(1);

    let mut out = Timed::default();
    for b in 0..batches {
        let spanned = traced && b % 2 == 1;
        let t = Instant::now();
        let done = ops.run(format_args!("batch {b} of {}", prog.name), || {
            if spanned {
                for _ in 0..per_batch {
                    let ((), s) = timed("exec.Plan::step", || {
                        plan.step();
                    });
                    out.spanned_step_s.push(s);
                }
            } else {
                span("exec.Plan::iterate", || {
                    plan.iterate(per_batch);
                });
            }
            Ok(())
        });
        let dt = t.elapsed().as_secs_f64();
        if done.is_some() {
            out.rates.push(prog.points as f64 * per_batch as f64 * logical / dt / 1e6);
            if !spanned {
                out.plain_step_s.push(dt / per_batch as f64);
            }
        }
    }
    out
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The correctness phase, outside every timed region: for each program a
/// fresh plan (the tune workload's comes from the decision its last set-up
/// cached) stepped `check_steps` logical steps, every output array compared
/// bit for bit with the oracle stepped as far. Returns (oracle seconds,
/// oracle point-updates) for `bench.check_s` and `exec.oracle_ns_per_pt`.
pub fn check(
    spec: &Spec,
    programs: &[Program],
    kernels: &[Kernel],
    seed: u64,
    ops: &mut Ops,
) -> (f64, f64) {
    let (mut oracle_s, mut oracle_updates) = (0.0, 0.0);
    for (prog, kernel) in programs.iter().zip(kernels) {
        let Some(mut plan) =
            ops.run(format_args!("check build {}", prog.name), || build(spec, kernel, prog, seed))
        else {
            continue;
        };
        let per_step = prog.sweeps * plan.logical_steps_per_step();
        let plan_steps = spec.check_steps.div_ceil(per_step).max(1);
        span("exec.Plan::iterate", || {
            plan.iterate(plan_steps);
        });
        let mut oracle = kernel.oracle();
        for a in &prog.inputs {
            let f = gen::init_for(seed, a);
            oracle = oracle.init(a, move |p| f(p));
        }
        // `run_steps` runs the program text (its DO loop included) per step.
        let text_runs = plan_steps * plan.logical_steps_per_step();
        let (reference, s) = timed("exec.Kernel::oracle", || oracle.run_steps(text_runs));
        oracle_s += s;
        oracle_updates += (prog.points as usize * text_runs * prog.sweeps) as f64;
        for a in &prog.outputs {
            ops.run(format_args!("check {}.{a}", prog.name), || {
                let got =
                    span("runtime.Plan::gather", || plan.gather(a)).map_err(|e| e.to_string())?;
                let want = &reference.array_named(a).data;
                if got.len() != want.len() {
                    return Err(format!("{} points, the oracle has {}", got.len(), want.len()));
                }
                match got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
                    None => Ok(()),
                    Some(at) => Err(format!("differs from the oracle, first at point {at}")),
                }
            });
        }
    }
    (oracle_s, oracle_updates)
}

/// Geometric mean (of per-kernel rates: ratios average geometrically).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}
