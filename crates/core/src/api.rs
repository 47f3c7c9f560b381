//! The compile-and-run API.

use hpf_exec::{Backend, Engine, ExecConfig, ExecPlan, Reference};
use hpf_frontend::{compile_source, Checked, FrontError};
use hpf_ir::ArrayId;
use hpf_passes::{compile, CompileOptions, Compiled, NUM_PASSES, PASS_NAMES};
use hpf_runtime::{AggStats, Machine, MachineConfig, RtError};
use hpf_trace::{DriftReport, Event, MetricsSnapshot, SpanKind, Trace, Track};
use std::fmt;
use std::time::{Duration, Instant};

/// Any error from compiling or running a kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Lexing / parsing / semantic analysis failed.
    Front(FrontError),
    /// The machine rejected the program (memory budget, bad grid, …).
    Runtime(RtError),
    /// A named array does not exist.
    UnknownArray(String),
    /// Verification against the reference interpreter failed.
    VerificationFailed {
        /// Output array that differed.
        array: String,
        /// Largest element-wise difference.
        max_diff: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Front(e) => write!(f, "frontend error: {e}"),
            CoreError::Runtime(e) => write!(f, "runtime error: {e}"),
            CoreError::UnknownArray(n) => write!(f, "unknown array {n}"),
            CoreError::VerificationFailed { array, max_diff } => {
                write!(f, "verification failed on {array}: max diff {max_diff}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<FrontError> for CoreError {
    fn from(e: FrontError) -> Self {
        CoreError::Front(e)
    }
}

impl From<RtError> for CoreError {
    fn from(e: RtError) -> Self {
        CoreError::Runtime(e)
    }
}

/// The synthetic compile track: one [`SpanKind::Pass`] span per enabled
/// pipeline pass, laid end-to-end from 0 on its own timeline (pass timing
/// happens before any machine exists, so the epoch timestamps of the
/// run-time tracks do not apply; a separate track keeps the timelines from
/// colliding in viewers). Per-pass check and diagnostics counts stay on
/// [`hpf_passes::PipelineStats::pass_timings`], keyed by
/// [`hpf_passes::PASS_NAMES`].
fn compile_passes_track(stats: &hpf_passes::PipelineStats) -> Track {
    debug_assert_eq!(PASS_NAMES.len(), NUM_PASSES);
    let mut events = Vec::new();
    let mut t = 0u64;
    for pt in stats.pass_timings.iter() {
        if pt.wall_ns == 0 && pt.checks == 0 {
            continue; // pass disabled at this stage
        }
        events.push(Event { kind: SpanKind::Pass, start_ns: t, dur_ns: pt.wall_ns });
        t += pt.wall_ns;
    }
    Track { name: "compile-passes".to_string(), events, dropped: 0 }
}

/// A compiled stencil kernel.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// The checked source program (the reference interpreter's input).
    pub checked: Checked,
    /// The compiled pipeline output.
    pub compiled: Compiled,
}

impl Kernel {
    /// Compile HPF/Fortran90 source with the given pipeline options.
    pub fn compile(source: &str, options: CompileOptions) -> Result<Kernel, CoreError> {
        let checked = compile_source(source)?;
        let compiled = compile(&checked, options);
        Ok(Kernel { checked, compiled })
    }

    /// Look up an array by source name.
    pub fn array_id(&self, name: &str) -> Result<ArrayId, CoreError> {
        self.checked
            .symbols
            .lookup_array(name)
            .ok_or_else(|| CoreError::UnknownArray(name.to_string()))
    }

    /// The optimized array-level IR rendered in the paper's notation
    /// (Figures 12–15 style).
    pub fn listing(&self) -> String {
        hpf_ir::pretty::program(&self.compiled.array_ir)
    }

    /// The bytecode-VM code of every loop nest as compiled for PE 0 of a
    /// `config` machine (`hpfsc --emit bytecode`): jammed and unit bodies
    /// op by op, each fold with its links and operand kinds.
    pub fn bytecode_listing(&self, config: MachineConfig) -> Result<String, CoreError> {
        let node = &self.compiled.node;
        let mut machine = Machine::new(config);
        hpf_exec::allocate(&mut machine, node)?;
        let scalars = hpf_exec::nest::scalar_values(&node.symbols);
        let name = |a: u32| node.symbols.array(ArrayId(a)).name.clone();
        let (mut out, mut n) = (String::new(), 0usize);
        node.for_each_item(&mut |it| {
            if let hpf_passes::NodeItem::Nest(nest) = it {
                out += &format!("! nest {n} on PE 0\n");
                out += &match hpf_codegen::compile_nest(nest, &machine.pes[0], &scalars) {
                    Ok(cn) => cn.listing(&name),
                    Err(reason) => format!("  (not compilable: {reason})\n"),
                };
                n += 1;
            }
        });
        Ok(out)
    }

    /// Pipeline statistics (communication counts, temps, per-pass effects).
    pub fn stats(&self) -> &hpf_passes::PipelineStats {
        &self.compiled.stats
    }

    /// The deterministic kernel identity the auto-tuner keys its cache by:
    /// the optimized array-IR listing plus every array's declared shape.
    /// Problem size, statement structure, and distributions all land in
    /// this string, so any change to them re-keys the tuning cache
    /// ([`hpf_tune::fingerprint`] additionally mixes in the machine shape).
    pub fn tune_seed(&self) -> String {
        let mut seed = self.listing();
        for id in self.checked.symbols.array_ids() {
            let a = self.checked.symbols.array(id);
            seed.push_str(&format!("|{}{:?}", a.name, a.shape.0));
        }
        seed
    }

    /// Auto-tune this kernel: run `tuner` ([`hpf_tune::Tuner::best`]) over
    /// the compiled node program.
    pub fn tune(&self, tuner: &hpf_tune::Tuner) -> Result<hpf_tune::TuneOutcome, CoreError> {
        Ok(tuner.best(&self.compiled.node, &self.tune_seed())?)
    }

    /// Start configuring a persistent execution plan for this kernel: the
    /// machine is built once, every communication schedule is compiled once,
    /// and the kernel can then be stepped any number of times with zero
    /// per-step setup ([`Plan::step`] / [`Plan::iterate`]). Finish with
    /// [`Planner::build`], or with [`Planner::run`] /
    /// [`Planner::run_verified`] for a plan stepped once.
    pub fn plan(&self, config: MachineConfig) -> Planner<'_> {
        Planner {
            kernel: self,
            config,
            inits: Vec::new(),
            exec_cfg: ExecConfig::new(),
            tuner: None,
        }
    }

    /// Start configuring the reference interpreter — the correctness oracle.
    /// Initializers are supplied exactly like [`Planner::init`]:
    ///
    /// ```
    /// # use hpf_core::{Kernel, CompileOptions};
    /// # let kernel = Kernel::compile(&hpf_core::presets::five_point(8), CompileOptions::full()).unwrap();
    /// let oracle = kernel.oracle().init("SRC", |p| (p[0] + p[1]) as f64).run();
    /// ```
    pub fn oracle(&self) -> OracleRunner<'_> {
        OracleRunner { kernel: self, inits: Vec::new() }
    }

    /// Run every static lint over the compiled array IR: halo safety
    /// (HS001/HS002), residual subsumed shifts (CU001), temporary dataflow
    /// (DF001/DF002), and fusion legality (FP001). Diagnostics come back
    /// sorted for presentation; [`hpf_analysis::has_errors`] classifies the
    /// result, and `hpf_analysis::render_text` / `render_json` format it.
    pub fn lint(&self) -> Vec<hpf_ir::Diagnostic> {
        hpf_analysis::analyze(&self.compiled.array_ir, self.compiled.options.halo as i64)
    }

    /// Fault injection for the analyzer: delete the `k`-th `OVERLAP_SHIFT`
    /// (in program order) from the compiled array IR and re-lower the node
    /// program, leaving a kernel whose reads are no longer all covered —
    /// the static mirror of the runtime halo-poisoning harness. Returns
    /// `false` (kernel unchanged) when there are fewer than `k + 1` shifts.
    /// Pipeline statistics are not recomputed.
    pub fn drop_overlap_shift(&mut self, k: usize) -> bool {
        fn remove_kth(body: &mut Vec<hpf_ir::Stmt>, k: &mut usize) -> bool {
            let mut i = 0;
            while i < body.len() {
                if matches!(body[i], hpf_ir::Stmt::OverlapShift { .. }) {
                    if *k == 0 {
                        body.remove(i);
                        return true;
                    }
                    *k -= 1;
                } else if let hpf_ir::Stmt::TimeLoop { body: inner, .. } = &mut body[i] {
                    if remove_kth(inner, k) {
                        return true;
                    }
                }
                i += 1;
            }
            false
        }
        let mut k = k;
        if !remove_kth(&mut self.compiled.array_ir.body, &mut k) {
            return false;
        }
        let o = &self.compiled.options;
        let (mut node, _) = hpf_passes::scalarize::run(
            &self.compiled.array_ir,
            hpf_passes::scalarize::ScalarizeOptions {
                fuse: o.fuse,
                fortran_order: o.fortran_order,
            },
        );
        hpf_passes::memopt::run(
            &mut node,
            hpf_passes::memopt::MemOptOptions {
                scalar_replacement: o.scalar_replacement,
                unroll_factor: o.unroll_factor,
                permute: o.permute,
            },
        );
        self.compiled.node = node;
        true
    }
}

/// Builder for the reference interpreter, mirroring [`Planner`]: the oracle
/// and the machine take initializers the same way.
pub struct OracleRunner<'k> {
    kernel: &'k Kernel,
    inits: Vec<(String, InitFn)>,
}

impl OracleRunner<'_> {
    /// Initialize a named input array from a function of its coordinates.
    pub fn init(mut self, name: &str, f: impl Fn(&[i64]) -> f64 + Send + Sync + 'static) -> Self {
        self.inits.push((name.to_string(), std::sync::Arc::new(f)));
        self
    }

    /// Interpret the checked source program on dense global arrays.
    pub fn run(self) -> Reference {
        self.run_steps(1)
    }

    /// Interpret the program `steps` times in sequence on the same state —
    /// the oracle for driver-stepped superstep plans, where one machine
    /// step covers several logical sweeps ([`Plan::logical_steps_per_step`]).
    pub fn run_steps(self, steps: usize) -> Reference {
        let mut r = Reference::new(&self.kernel.checked);
        for (name, f) in &self.inits {
            r.fill_named(name, |p| f(p));
        }
        for _ in 0..steps.max(1) {
            r.run(&self.kernel.checked);
        }
        r
    }
}

/// Array initializer: a function of the 1-based global coordinates.
pub type InitFn = std::sync::Arc<dyn Fn(&[i64]) -> f64 + Send + Sync>;

/// Builder for a persistent execution plan ([`Kernel::plan`]).
pub struct Planner<'k> {
    kernel: &'k Kernel,
    config: MachineConfig,
    inits: Vec<(String, InitFn)>,
    exec_cfg: ExecConfig,
    tuner: Option<hpf_tune::Tuner>,
}

impl<'k> Planner<'k> {
    /// Initialize a named input array from a function of its coordinates.
    /// [`Planner::build`] writes the array as it allocates it, a large one
    /// on several threads: `f` may run on several threads at once, once per
    /// point, in no fixed PE order. Naming an array twice keeps the last
    /// function.
    pub fn init(mut self, name: &str, f: impl Fn(&[i64]) -> f64 + Send + Sync + 'static) -> Self {
        self.inits.push((name.to_string(), std::sync::Arc::new(f)));
        self
    }

    /// Select the executor.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.exec_cfg.engine = engine;
        self
    }

    /// Select the nest backend's spelling. Under either value the VM runs
    /// the bytecode kernels the plan compiles once at build time and
    /// reuses on every step; [`Backend::Interp`] is a deprecated alias of
    /// [`Backend::Bytecode`] kept for the benchmark package.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.exec_cfg.backend = backend;
        self
    }

    /// Replace the whole execution configuration (engine, backend, tracing,
    /// checking) in one call — e.g. with a parsed
    /// [`ExecConfig::from_cli_str`] value.
    pub fn config(mut self, cfg: ExecConfig) -> Self {
        self.exec_cfg = cfg;
        self
    }

    /// Toggle per-PE event tracing ([`Plan::take_trace`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.exec_cfg = self.exec_cfg.trace(on);
        self
    }

    /// Toggle metrics collection ([`Plan::metrics_snapshot`],
    /// [`Plan::drift_report`]).
    /// Observation-only: results and counters are bitwise identical with
    /// metrics on or off.
    pub fn metrics(mut self, on: bool) -> Self {
        self.exec_cfg = self.exec_cfg.metrics(on);
        self
    }

    /// Replace the tuner used to resolve [`ExecConfig::auto`] (e.g. to
    /// point its cache elsewhere). Without this, auto-tuned plans use
    /// `Tuner::new` over the planner's machine configuration.
    pub fn tuner(mut self, tuner: hpf_tune::Tuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Set the communication-avoiding superstep depth `k` (default 1, the
    /// classic exchange-every-step schedule): the machine's overlap area is
    /// deepened to the schedule's deep-fill depth automatically, one deep
    /// exchange then covers `k` sub-steps, and trapezoid boundary cells are
    /// redundantly recomputed instead of received. Results stay bitwise
    /// identical to the classic schedule. An ineligible kernel — or one
    /// whose deep halo would not fit the per-PE subgrids — falls back to
    /// `k = 1`;
    /// [`Plan::superstep_diags`] explains any fallback. For driver-stepped
    /// flat kernels one step then covers `k` logical sweeps
    /// ([`Plan::logical_steps_per_step`]).
    pub fn superstep(mut self, k: usize) -> Self {
        self.exec_cfg = self.exec_cfg.superstep(k);
        self
    }

    /// Execute one sweep: build the plan (allocating input arrays first,
    /// then the remaining arrays — respecting the memory budget, which is
    /// how Figure 11's exhaustion reproduces) and step it once.
    pub fn run(self) -> Result<Plan<'k>, CoreError> {
        let mut plan = self.build()?;
        plan.step();
        Ok(plan)
    }

    /// [`Planner::run`], then verify every named output array against the
    /// reference interpreter (exact comparison at `tol = 0.0`: the
    /// executors are deterministic and operation order matches the oracle
    /// for stencil kernels).
    pub fn run_verified(self, outputs: &[&str], tol: f64) -> Result<Plan<'k>, CoreError> {
        let kernel = self.kernel;
        let oracle = OracleRunner { kernel, inits: self.inits.clone() };
        let plan = self.run()?;
        // A driver-stepped superstep plan covers k logical sweeps per
        // machine step; the oracle must cover the same number.
        let reference = oracle.run_steps(plan.logical_steps_per_step());
        for name in outputs {
            let id = kernel.array_id(name)?;
            if !plan.machine.is_allocated(id) {
                // The program never references this array; nothing to check.
                continue;
            }
            let got = plan.gather(name)?;
            let want = &reference.arrays[&id].data;
            let diff = hpf_exec::max_abs_diff(&got, want);
            if diff > tol {
                return Err(CoreError::VerificationFailed {
                    array: name.to_string(),
                    max_diff: diff,
                });
            }
        }
        Ok(plan)
    }

    /// Build the plan: construct the machine, allocate the input arrays
    /// with their initial values, allocate every remaining array the kernel
    /// references, and compile every communication op into a persistent
    /// schedule. All per-sweep setup cost is paid here, once.
    pub fn build(self) -> Result<Plan<'k>, CoreError> {
        let mut config = self.config;
        let mut exec_cfg = self.exec_cfg;
        // `ExecConfig::auto`: resolve engine, backend, PE grid, and
        // superstep depth through the auto-tuner before the machine exists
        // — the grid is a machine parameter, so tuning must happen first.
        // The tuner's cache counters are recorded on the machine after the
        // stats reset below, so they survive into `Plan::stats`.
        let mut tuned: Option<(u64, u64, u64)> = None;
        if exec_cfg.auto {
            let tuner = self.tuner.clone().unwrap_or_else(|| hpf_tune::Tuner::new(config.clone()));
            let outcome = self.kernel.tune(&tuner)?;
            config.grid = hpf_runtime::PeGrid::new(outcome.best.grid.clone());
            let best = outcome.best.exec_config();
            exec_cfg = exec_cfg.engine(best.engine).backend(best.backend).superstep(best.superstep);
            exec_cfg.auto = false;
            tuned =
                Some((outcome.cache_hit as u64, (!outcome.cache_hit) as u64, outcome.search_ns));
        }
        let node = &self.kernel.compiled.node;
        let depth = exec_cfg.superstep;
        let mut gate_diags = Vec::new();
        // Deep-halo sizing: a depth-k superstep needs the overlap area
        // allocated to the deep-fill depth. An ineligible kernel returns
        // `None` and keeps the base halo — `ExecPlan::build` then records
        // the planner's `SS00x` diagnostics and builds classic.
        let base_halo = config.halo;
        if exec_cfg.superstep > 1 {
            if let Some(h) = hpf_exec::superstep_halo(node, exec_cfg.superstep) {
                config.halo = config.halo.max(h);
            }
        }
        // The pipeline's `check_invariants` option (on by default in debug
        // builds) promotes the plan to a checked build: communication plans
        // are prevalidated and the static verifiers (BV*/PL*) run.
        exec_cfg.check = exec_cfg.check || self.kernel.compiled.options.check_invariants;
        let attempt = |config: MachineConfig,
                       exec_cfg: &ExecConfig|
         -> Result<(Machine, ExecPlan), CoreError> {
            let mut machine = Machine::new(config);
            for (name, _) in &self.inits {
                let id = self.kernel.array_id(name)?;
                if !machine.is_allocated(id) {
                    // The last initializer named for an array is the one it gets.
                    let f = self.inits.iter().rfind(|(n, _)| n == name).map(|(_, f)| &**f as _);
                    machine.alloc_init(id, self.kernel.checked.symbols.array(id), f)?;
                }
            }
            machine.reset_stats();
            let exec = ExecPlan::build(&mut machine, node, exec_cfg)?;
            Ok((machine, exec))
        };
        let (mut machine, exec) = match attempt(config.clone(), &exec_cfg) {
            Err(CoreError::Runtime(RtError::HaloTooDeep { .. })) if exec_cfg.superstep > 1 => {
                // The deep halo does not fit this machine's per-PE
                // subgrids: too many PEs for the problem size at this
                // depth. Fall back to the classic schedule at the base
                // halo rather than fail the build.
                gate_diags.push(hpf_ir::Diagnostic::warning(
                    hpf_exec::superstep::SS008,
                    format!(
                        "depth-{} deep halo does not fit the per-PE subgrids; falling back to \
                         the classic schedule",
                        exec_cfg.superstep
                    ),
                ));
                exec_cfg = exec_cfg.superstep(1);
                config.halo = base_halo;
                attempt(config, &exec_cfg)?
            }
            other => other?,
        };
        if let Some((hits, misses, search_ns)) = tuned {
            machine.note_tune(hits, misses, search_ns);
        }
        Ok(Plan {
            kernel: self.kernel,
            machine,
            exec,
            depth,
            gate_diags,
            steps: 0,
            wall: Duration::ZERO,
        })
    }
}

/// A kernel bound to one machine with all communication schedules compiled:
/// step it, inspect or overwrite its warm state, step it again. A threaded
/// plan holds its worker threads from its first step until it drops.
///
/// A rotated copy-back (`U = T` turned into a storage swap) leaves `T`'s
/// storage stale at a step boundary, though its value is `U`'s. The plan's
/// observers — [`Plan::gather`], [`Plan::fill`], [`Plan::scatter`] — see
/// the program's values; the raw [`Plan::machine`] sees storage.
pub struct Plan<'k> {
    kernel: &'k Kernel,
    /// The machine carrying the arrays and counters (public for direct
    /// access to subgrids and per-PE state).
    pub machine: Machine,
    exec: ExecPlan,
    /// The superstep depth the plan was configured for.
    depth: usize,
    /// Core-level superstep fallback diagnostics (the halo-fit gate),
    /// reported alongside the exec planner's via [`Plan::superstep_diags`].
    gate_diags: Vec<hpf_ir::Diagnostic>,
    steps: u64,
    wall: Duration,
}

impl Plan<'_> {
    /// Run one sweep of the kernel on the configured engine, reusing every
    /// compiled schedule. With tracing on, the whole sweep is enveloped by
    /// a [`SpanKind::Step`] span on the driver track.
    pub fn step(&mut self) -> &mut Self {
        let started = Instant::now();
        let t0 = self.machine.driver_tracer().now();
        self.exec.step(&mut self.machine);
        self.machine.driver_tracer().record(SpanKind::Step, t0);
        self.steps += 1;
        self.wall += started.elapsed();
        self
    }

    /// The engine stepping this plan.
    pub fn engine(&self) -> Engine {
        self.exec.engine()
    }

    /// Run `n` sweeps.
    pub fn iterate(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.step();
        }
        self
    }

    /// Gather a named array's current (warm) state into a dense row-major
    /// buffer — through a rotation alias, the live array's.
    pub fn gather(&self, name: &str) -> Result<Vec<f64>, CoreError> {
        let id = self.kernel.array_id(name)?;
        Ok(self.machine.gather(self.exec.resolve(id)))
    }

    /// Overwrite a named array's warm state from a function of the global
    /// coordinates (e.g. to re-seed between sweeps without rebuilding).
    pub fn fill(&mut self, name: &str, f: impl Fn(&[i64]) -> f64) -> Result<(), CoreError> {
        let id = self.writable(name)?;
        self.machine.fill(id, f);
        Ok(())
    }

    /// Overwrite a named array's warm state from a dense row-major buffer.
    pub fn scatter(&mut self, name: &str, data: &[f64]) -> Result<(), CoreError> {
        let id = self.writable(name)?;
        self.machine.scatter(id, data);
        Ok(())
    }

    /// Prepare `name` for a write through the plan
    /// ([`ExecPlan::unalias_for_write`]).
    fn writable(&mut self, name: &str) -> Result<ArrayId, CoreError> {
        let id = self.kernel.array_id(name)?;
        self.exec.unalias_for_write(&mut self.machine, id);
        Ok(id)
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cumulative wall-clock time spent stepping (plan build excluded).
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Number of distinct communication schedules compiled at build time.
    pub fn comm_count(&self) -> usize {
        self.exec.comm_count()
    }

    /// Logical stencil steps one [`Plan::step`] covers: the superstep depth
    /// `k` for a flat (driver-stepped) kernel tiled in time by
    /// [`Planner::superstep`], else 1. Drivers stepping to a target count
    /// divide by this.
    pub fn logical_steps_per_step(&self) -> usize {
        self.exec.logical_steps_per_step()
    }

    /// The superstep depth the plan was configured for: the
    /// [`Planner::superstep`] depth, or the tuner's pick under
    /// [`ExecConfig::auto`]. A depth the kernel cannot be tiled at falls
    /// back to the classic schedule; [`Plan::superstep_diags`] says why.
    pub fn superstep_depth(&self) -> usize {
        self.depth
    }

    /// Superstep executions one [`Plan::step`] performs (zero on the
    /// classic schedule).
    pub fn supersteps_per_step(&self) -> u64 {
        self.exec.supersteps_per_step()
    }

    /// Exchange executions one step elides relative to the classic
    /// schedule of the same kernel (zero on the classic schedule).
    pub fn exchanges_elided_per_step(&self) -> u64 {
        self.exec.exchanges_elided_per_step()
    }

    /// Why the requested [`Planner::superstep`] depth fell back to the
    /// classic schedule: the exec planner's `SS00x` eligibility
    /// diagnostics plus the core-level halo-fit (SS008) gate. Empty when no
    /// fallback happened (or none was requested).
    pub fn superstep_diags(&self) -> Vec<hpf_ir::Diagnostic> {
        let mut out = self.gate_diags.clone();
        out.extend(self.exec.superstep_diags().iter().cloned());
        out
    }

    /// Run the static verifiers over the built plan — the bytecode
    /// verifier's `BV*` obligations on every compiled kernel and the plan
    /// checker's `PL*` obligations on every superstep (trapezoid coverage,
    /// PL004), rebind (PL005) and compiled schedule (box geometry, PL006) —
    /// and return the diagnostics (empty = machine-checked safe). `ExecPlan::build`
    /// already enforces this in debug/checked builds; this re-runs it for
    /// observation, e.g. behind `hpfsc --verify`.
    pub fn verify_static(&self) -> Vec<hpf_ir::Diagnostic> {
        self.exec.verify()
    }

    /// Bytes of message staging held for sequential steps (allocated by
    /// the first): one buffer, as large as the largest staged transfer.
    /// Zero on the threaded engine, which stages in endpoint buffers.
    pub fn pooled_bytes(&self) -> usize {
        self.exec.pooled_bytes()
    }

    /// Bytes the compiled communication schedules hold — their region
    /// descriptors plus [`Plan::pooled_bytes`]. O(rank) per region: it
    /// does not grow with the arrays, but for the one staged face.
    pub fn schedule_bytes(&self) -> usize {
        self.exec.schedule_bytes()
    }

    /// Message buffers the threaded engine's free lists have made so far;
    /// all are home, and held, at a step boundary. Zero on the sequential
    /// engine and before the first threaded step.
    pub fn endpoint_buffers(&self) -> usize {
        self.exec.endpoint_buffers()
    }

    /// Aggregated execution counters since the plan was built.
    pub fn stats(&self) -> AggStats {
        self.machine.stats()
    }

    /// Modeled execution time under the machine's cost model, milliseconds.
    pub fn modeled_ms(&self) -> f64 {
        self.machine.modeled_time_ms()
    }

    /// Whether the plan was built with event tracing enabled. Metrics
    /// alone keep no timeline, so this stays `false` for them.
    pub fn tracing_enabled(&self) -> bool {
        self.machine.tracing_enabled()
    }

    /// Snapshot of the collected metrics (per-PE folds, step series);
    /// `None` unless the plan was built with [`Planner::metrics`] /
    /// [`ExecConfig::metrics`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.exec.metrics_snapshot(&self.machine)
    }

    /// Cost-model drift report joining modeled component costs against
    /// measured span walls; `None` unless the plan was built with metrics.
    /// Its `modeled_time_ns` reconciles exactly with
    /// [`CostModel::modeled_time_ns`](hpf_runtime::CostModel::modeled_time_ns).
    pub fn drift_report(&self) -> Option<DriftReport> {
        self.exec.drift_report(&self.machine)
    }

    /// Take the trace recorded since the plan was built (or since the last
    /// call): the synthetic `compile-passes` track, the `driver` track
    /// (schedule builds, kernel compiles, step envelopes), and one track
    /// per PE. Recording stays enabled; the rings restart empty. Returns
    /// an empty trace when tracing was not enabled.
    pub fn take_trace(&mut self) -> Trace {
        if !self.tracing_enabled() {
            return Trace::default();
        }
        let mut trace = self.machine.take_trace();
        trace.tracks.insert(0, compile_passes_track(self.kernel.stats()));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use hpf_passes::Stage;

    #[test]
    fn compile_run_gather() {
        let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
        let plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| (p[0] * 3 + p[1]) as f64)
            .run()
            .unwrap();
        let t = plan.gather("T").unwrap();
        assert_eq!(t.len(), 256);
        assert_eq!(plan.steps(), 1);
        assert!(plan.stats().total_messages() > 0);
        assert!(plan.modeled_ms() > 0.0);
    }

    #[test]
    fn verified_run_passes_for_all_stages() {
        for stage in Stage::all() {
            let kernel =
                Kernel::compile(&presets::problem9(12), CompileOptions::upto(stage)).unwrap();
            kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", |p| ((p[0] * 7 + p[1]) as f64).sin())
                .run_verified(&["T"], 0.0)
                .unwrap();
        }
    }

    #[test]
    fn threaded_engine_equals_sequential() {
        let kernel = Kernel::compile(&presets::jacobi(16, 5), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] + 2 * p[1]) as f64).cos();
        let a = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .engine(Engine::Sequential)
            .run()
            .unwrap();
        let b = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .engine(Engine::Threaded)
            .run()
            .unwrap();
        assert_eq!(a.gather("U").unwrap(), b.gather("U").unwrap());
    }

    #[test]
    fn traced_run_carries_compile_driver_and_pe_tracks() {
        let kernel = Kernel::compile(&presets::jacobi(16, 3), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] * 3 + p[1]) as f64).sin();
        let mut run = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .config(ExecConfig::from_cli_str("threaded-bytecode").unwrap().trace(true))
            .run()
            .unwrap();
        assert!(run.tracing_enabled());
        let trace = run.take_trace();
        let summary = trace.summary();
        let compile = summary.track("compile-passes").expect("compile track");
        assert!(compile.count(SpanKind::Pass) > 0, "one span per enabled pass");
        let driver = summary.track("driver").expect("driver track");
        assert_eq!(driver.count(SpanKind::Step), 1, "one step envelope");
        assert!(driver.count(SpanKind::ScheduleBuild) > 0);
        assert_eq!(summary.pe_tracks().len(), 4);
        // An untraced run carries no trace and identical results.
        let mut plain = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .engine(Engine::Threaded)
            .backend(Backend::Bytecode)
            .run()
            .unwrap();
        assert!(!plain.tracing_enabled() && plain.take_trace().tracks.is_empty());
        assert_eq!(run.gather("U").unwrap(), plain.gather("U").unwrap());
        assert_eq!(run.stats().per_pe, plain.stats().per_pe);
    }

    #[test]
    fn metrics_run_snapshots_without_exposing_a_trace() {
        let kernel = Kernel::compile(&presets::jacobi(16, 3), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] * 5 + p[1]) as f64).sin();
        let mut plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .engine(Engine::Threaded)
            .metrics(true)
            .build()
            .unwrap();
        assert!(!plan.tracing_enabled(), "metrics alone keep no timeline");
        assert!(plan.machine.pes.iter().all(|p| !p.tracer.has_timeline()), "no event ring");
        plan.iterate(3);
        assert!(plan.take_trace().tracks.is_empty(), "no user-facing trace");
        let snap = plan.metrics_snapshot().expect("metrics were configured");
        assert_eq!(snap.pes, 4);
        assert_eq!(snap.steps, 3);
        assert_eq!(snap.series.len(), 3);
        assert!(snap.merged_pe_registry().hists().any(|(_, h)| h.count() > 0));
        let drift = plan.drift_report().expect("metrics were configured");
        // The report's totals reconcile exactly with their sources.
        let agg = plan.stats();
        let cost = &plan.machine.cfg.cost;
        assert_eq!(drift.modeled_time_ns, cost.modeled_time_ns(&agg));

        // Metrics + trace together: both surfaces populated.
        let mut traced = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .trace(true)
            .metrics(true)
            .run()
            .unwrap();
        assert!(!traced.take_trace().tracks.is_empty());
        assert!(traced.metrics_snapshot().is_some());
        // Observation-only: identical arrays and counters with metrics off.
        let plain = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).run().unwrap();
        assert_eq!(traced.gather("U").unwrap(), plain.gather("U").unwrap());
        assert_eq!(traced.stats().per_pe, plain.stats().per_pe);
        assert!(plain.metrics_snapshot().is_none() && plain.drift_report().is_none());
    }

    #[test]
    fn plan_take_trace_drains_and_keeps_recording() {
        let kernel = Kernel::compile(&presets::jacobi(16, 2), CompileOptions::full()).unwrap();
        let mut plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| (p[0] - p[1]) as f64)
            .trace(true)
            .build()
            .unwrap();
        assert!(plan.tracing_enabled());
        plan.step();
        let first = plan.take_trace();
        assert!(first.summary().track("driver").unwrap().count(SpanKind::Step) == 1);
        plan.step();
        plan.step();
        let second = plan.take_trace();
        assert_eq!(second.summary().track("driver").unwrap().count(SpanKind::Step), 2);
    }

    #[test]
    fn unknown_array_error() {
        let kernel = Kernel::compile(&presets::five_point(8), CompileOptions::full()).unwrap();
        assert!(matches!(
            kernel.plan(MachineConfig::sp2_2x2()).init("NOPE", |_| 0.0).run(),
            Err(CoreError::UnknownArray(_))
        ));
    }

    #[test]
    fn front_error_propagates() {
        let err = Kernel::compile("REAL A(\n", CompileOptions::full()).unwrap_err();
        assert!(matches!(err, CoreError::Front(_)));
    }

    #[test]
    fn plan_iterate_matches_chained_runs() {
        // Plan::iterate(n) must be bitwise-equal to n one-sweep Planner::run()
        // calls whose state is carried forward by hand, on both engines.
        let kernel = Kernel::compile(&presets::jacobi(16, 1), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] * 5 + p[1] * 3) as f64).sin();
        for engine in [Engine::Sequential, Engine::Threaded] {
            let mut plan = kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", init)
                .engine(engine)
                .build()
                .unwrap();
            plan.iterate(4);
            assert_eq!(plan.steps(), 4);
            // Chained one-sweep runs: each run's U output seeds the next.
            let mut state: Vec<f64> = {
                let n = 16 * 16;
                let mut v = vec![0.0; n];
                for (i, slot) in v.iter_mut().enumerate() {
                    let p = [(i / 16 + 1) as i64, (i % 16 + 1) as i64];
                    *slot = init(&p);
                }
                v
            };
            for _ in 0..4 {
                let s = state.clone();
                let run = kernel
                    .plan(MachineConfig::sp2_2x2())
                    .init("U", move |p| s[((p[0] - 1) * 16 + p[1] - 1) as usize])
                    .engine(engine)
                    .run()
                    .unwrap();
                state = run.gather("U").unwrap();
            }
            assert_eq!(plan.gather("U").unwrap(), state, "engine {engine:?}");
        }
    }

    #[test]
    fn plan_reuses_schedules_across_steps() {
        let kernel = Kernel::compile(&presets::jacobi(16, 1), CompileOptions::full()).unwrap();
        let mut plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| (p[0] + p[1]) as f64)
            .build()
            .unwrap();
        let pooled = plan.pooled_bytes();
        assert!(pooled > 0, "messages are staged");
        plan.iterate(10);
        let st = plan.stats();
        // Compiled once, reused on every one of the 10 steps.
        assert_eq!(st.schedules_built as usize, plan.comm_count());
        assert_eq!(st.schedule_reuses, 10 * st.schedules_built);
        assert_eq!(plan.pooled_bytes(), pooled, "no per-step buffer growth");
        // No allocations after build either: allocs counted at build only.
        let allocs_after_10 = plan.stats().total().allocs;
        plan.iterate(5);
        assert_eq!(plan.stats().total().allocs, allocs_after_10);
    }

    /// A Jacobi step written with its copy-back statement: the copy
    /// rotates, so the double buffer flips without a copy sweep.
    fn double_buffer(n: usize) -> Kernel {
        let src = format!(
            "PARAM N = {n}\nREAL SRC(N,N), DST(N,N)\n\
             DST = 0.2 * (SRC + CSHIFT(SRC,1,1) + CSHIFT(SRC,-1,1) + CSHIFT(SRC,1,2) \
             + CSHIFT(SRC,-1,2))\nSRC = DST\n"
        );
        let kernel = Kernel::compile(&src, CompileOptions::full()).unwrap();
        assert_eq!(kernel.stats().rotated, 1, "{}", kernel.listing());
        assert_eq!(kernel.stats().nests, 1, "no copy nest is left");
        kernel
    }

    #[test]
    fn plan_copy_back_rotates_into_a_double_buffer() {
        let kernel = double_buffer(8);
        let init = |p: &[i64]| ((p[0] * 3 + p[1]) as f64).cos();
        let mut plan = kernel.plan(MachineConfig::sp2_2x2()).init("SRC", init).build().unwrap();
        plan.iterate(3);
        let oracle = kernel.oracle().init("SRC", init).run_steps(3);
        for name in ["SRC", "DST"] {
            assert_eq!(plan.gather(name).unwrap(), oracle.array_named(name).data, "{name}");
        }
    }

    #[test]
    fn plan_warm_state_access() {
        let kernel = Kernel::compile(&presets::five_point(8), CompileOptions::full()).unwrap();
        let mut plan = kernel.plan(MachineConfig::sp2_2x2()).init("SRC", |_| 1.0).build().unwrap();
        plan.step();
        let t1 = plan.gather("DST").unwrap();
        // Re-seed SRC and zero DST, then step again: same result.
        plan.fill("SRC", |_| 1.0).unwrap();
        plan.scatter("DST", &vec![0.0; 64]).unwrap();
        plan.step();
        assert_eq!(plan.gather("DST").unwrap(), t1);
        assert!(plan.gather("NOPE").is_err());
    }

    #[test]
    fn plan_propagates_memory_exhaustion() {
        let kernel = Kernel::compile(&presets::problem9(8), CompileOptions::full()).unwrap();
        let err = kernel.plan(MachineConfig::sp2_2x2().budget(300)).init("U", |_| 0.0).build();
        assert!(matches!(err, Err(CoreError::Runtime(_))));
    }

    #[test]
    fn lint_clean_pipeline_flags_dropped_shift() {
        let mut kernel = Kernel::compile(&presets::problem9(8), CompileOptions::full()).unwrap();
        assert!(kernel.lint().is_empty(), "full pipeline output is lint-clean");
        assert!(!kernel.drop_overlap_shift(99), "only 4 shifts to drop");
        assert!(kernel.drop_overlap_shift(0));
        let diags = kernel.lint();
        assert!(hpf_analysis::has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == hpf_analysis::HS001));
        assert!(diags[0].span.is_some(), "HS001 carries the source span");
    }

    #[test]
    fn superstep_plan_matches_classic_and_elides_messages() {
        // Problem 9 is flat, so the superstep plan is driver-stepped: one
        // plan step covers k logical steps on one deep exchange.
        let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] * 7 + p[1] * 3) as f64).sin();
        let mut classic = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).build().unwrap();
        classic.iterate(8);
        let mut ss =
            kernel.plan(MachineConfig::sp2_2x2()).init("U", init).superstep(4).build().unwrap();
        assert!(ss.superstep_diags().is_empty(), "{:?}", ss.superstep_diags());
        assert_eq!(ss.logical_steps_per_step(), 4);
        assert_eq!(ss.supersteps_per_step(), 1);
        assert!(ss.exchanges_elided_per_step() > 0);
        ss.iterate(2); // 2 plan steps × 4 logical steps = 8
        assert_eq!(ss.gather("T").unwrap(), classic.gather("T").unwrap(), "bitwise identical");
        let (a, b) = (ss.stats(), classic.stats());
        assert!(
            a.total_messages() * 2 <= b.total_messages(),
            "superstep must at least halve message count: {} vs {}",
            a.total_messages(),
            b.total_messages()
        );
        assert_eq!(a.exchanges_elided, 2 * ss.exchanges_elided_per_step());

        // The time-looped Jacobi tiles in place: same plan-step count.
        let kernel = Kernel::compile(&presets::jacobi(16, 8), CompileOptions::full()).unwrap();
        let mut classic = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).build().unwrap();
        let mut ss =
            kernel.plan(MachineConfig::sp2_2x2()).init("U", init).superstep(4).build().unwrap();
        assert!(ss.superstep_diags().is_empty(), "{:?}", ss.superstep_diags());
        assert_eq!(ss.logical_steps_per_step(), 1, "the DO loop tiles in place");
        assert!(ss.supersteps_per_step() > 0);
        classic.step();
        ss.step();
        assert_eq!(ss.gather("U").unwrap(), classic.gather("U").unwrap());
        assert!(ss.verify_static().is_empty(), "{:?}", ss.verify_static());
    }

    #[test]
    fn superstep_tiles_a_rotating_double_buffer() {
        // The rebind runs inside every sub-step, so the double buffer tiles
        // in time like any other flat kernel.
        let kernel = double_buffer(16);
        let init = |p: &[i64]| ((p[0] + 2 * p[1]) as f64).cos();
        let mut tiled =
            kernel.plan(MachineConfig::sp2_2x2()).init("SRC", init).superstep(4).build().unwrap();
        assert!(tiled.superstep_diags().is_empty(), "{:?}", tiled.superstep_diags());
        assert_eq!(tiled.supersteps_per_step(), 1);
        let mut classic = kernel.plan(MachineConfig::sp2_2x2()).init("SRC", init).build().unwrap();
        tiled.iterate(3);
        classic.iterate(12);
        for name in ["SRC", "DST"] {
            assert_eq!(tiled.gather(name).unwrap(), classic.gather(name).unwrap(), "{name}");
        }
        assert!(tiled.verify_static().is_empty(), "{:?}", tiled.verify_static());
    }

    #[test]
    fn superstep_too_deep_for_subgrids_falls_back_with_ss008() {
        // Jacobi over 8×8 on 2×2 PEs leaves 4×4 subgrids; a depth-8
        // superstep needs an 8-deep halo, which cannot fit — the build
        // falls back to the classic schedule instead of failing.
        let kernel = Kernel::compile(&presets::jacobi(8, 16), CompileOptions::full()).unwrap();
        let init = |p: &[i64]| ((p[0] * 3 + p[1]) as f64).sin();
        let mut plan =
            kernel.plan(MachineConfig::sp2_2x2()).init("U", init).superstep(8).build().unwrap();
        assert!(
            plan.superstep_diags().iter().any(|d| d.code == "SS008"),
            "{:?}",
            plan.superstep_diags()
        );
        assert_eq!(plan.supersteps_per_step(), 0);
        let mut classic = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).build().unwrap();
        plan.step();
        classic.step();
        assert_eq!(plan.gather("U").unwrap(), classic.gather("U").unwrap());
    }

    #[test]
    fn listing_shows_paper_notation() {
        let kernel = Kernel::compile(&presets::problem9(8), CompileOptions::full()).unwrap();
        let listing = kernel.listing();
        assert!(listing.contains("CALL OVERLAP_CSHIFT(U,SHIFT=+1,DIM=1)"), "{listing}");
        assert!(listing.contains("U<+1,-1>"), "{listing}");
    }
}
