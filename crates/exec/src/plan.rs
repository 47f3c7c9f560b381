//! Persistent-schedule execution plans: compile once, step many times.
//!
//! [`ExecPlan::build`] takes an [`ExecConfig`] describing the whole run —
//! engine, nest backend, tracing, extra checking — then walks the compiled
//! node program once, allocates every array it references, and compiles
//! each communication op against the allocated subgrids into a
//! [`CompiledComm`] — neighbor PEs, RSD-extended bounds and the strided box
//! of every region are all resolved here, at plan time. Each subsequent
//! [`ExecPlan::step`] then executes one sweep of the kernel on the configured
//! engine with **zero** per-step subgrid math, plan recomputation, or buffer
//! allocation — the persistent-communication pattern of `MPI_Send_init`-style
//! halo exchange.
//!
//! One walker, `step_items`, interprets the step program for every engine.
//! It is generic over a `Fabric` — how a compiled schedule is exchanged and
//! which PEs the calling thread computes for — with two impls: the
//! direct-copy fabric (the sequential engine: one thread visits every PE
//! and messages are direct copies) and the channel fabric (the threaded
//! engine: one thread per PE, kept by the plan's worker pool from its
//! first step until it drops). Both engines are bitwise identical, and
//! neither counts as it goes: the build counts what one step does, per PE
//! ([`ExecPlan::pe_counts_per_step`]), and every step credits that once.
//!
//! With tracing enabled ([`ExecConfig::trace`]) every step additionally
//! records per-PE spans — kernel execution, pack/unpack, comm post/drain,
//! supersteps — on the machine's `hpf_trace` recorders, plus schedule-build
//! and kernel-compile spans on the driver track at build time.

use crate::backend::{self, Backend};
use crate::config::{Engine, ExecConfig};
use crate::nest::{expand_bounds, nest_local_bounds, scalar_values};
use crate::par::{Pool, StepCtx, Worker};
use crate::superstep::{self, SsShape, SuperstepSchedule};
use hpf_codegen::{compile_spmd, CompiledNest};
use hpf_ir::{ArrayId, Diagnostic, Section, ShiftKind};
use hpf_passes::loopir::{CommOp, Instr, LoopNest, NodeItem, NodeProgram};
use hpf_runtime::schedule::{cshift_plan, overlap_shift_plan};
use hpf_runtime::{CompiledComm, Machine, MoveKind, PeState, PeStats, RtError};
use hpf_trace::SpanKind;

/// One step-program item: like `NodeItem`, but communication ops are slots
/// into the plan's compiled-schedule table. Walked by the
/// [`crate::plan_verify`] race checker (and corrupted by its mutation
/// tests), and by checkers outside the crate through [`ExecPlan::program`].
#[derive(Debug)]
pub enum PlanItem {
    /// Execute the compiled schedule at this slot.
    Comm(usize),
    /// Run a subgrid loop nest on every PE, through the per-PE compiled
    /// kernel where one exists (`kernels` is empty under the interpreter
    /// backend and per-PE `None` where codegen declined the nest).
    Nest {
        /// The nest.
        nest: LoopNest,
        /// Per PE, its kernel.
        kernels: Vec<Option<CompiledNest>>,
    },
    /// A storage rotation: every PE swaps the two arrays' subgrids, so
    /// `dst` holds `src`'s values and `src` is dead until its next full
    /// definition (PL005 re-proves that from the items).
    Rebind {
        /// The array that takes over `src`'s storage.
        dst: ArrayId,
        /// The array left holding `dst`'s stale storage.
        src: ArrayId,
        /// Both arrays' whole index space: a nest storing `src` over
        /// exactly this space redefines it.
        full: Section,
    },
    /// Repeat the body (a `DO n TIMES` loop folded into one step).
    TimeLoop {
        /// Iterations per step.
        iters: usize,
        /// The items each iteration runs.
        body: Vec<PlanItem>,
    },
    /// A depth-`k` superstep (communication-avoiding temporal tile, see
    /// [`crate::superstep`]): execute the deep-fill schedules once, then
    /// run the body `k` times with trapezoidally shrinking ghost
    /// expansions and **no** communication — sub-step `j` redundantly
    /// recomputes neighbor-owned boundary cells from the deep halo.
    Superstep {
        /// Sub-steps per exchange.
        k: usize,
        /// Deep-fill schedule slots, in plan order.
        comms: Vec<usize>,
        /// One sub-step: [`PlanItem::Nest`]s (with per-PE kernels, shared by
        /// every sub-step) and [`PlanItem::Rebind`]s, in program order.
        body: Vec<PlanItem>,
        /// `expansions[j][n]`: per-dimension `(below, above)` ghost
        /// expansion of the body's `n`-th nest in sub-step `j` — the
        /// trapezoid.
        expansions: Vec<Vec<Vec<(i64, i64)>>>,
        /// Exchange executions this item elides relative to `k` classic
        /// steps of the same body.
        elided: u64,
    },
}

/// The nests of a superstep body with their per-PE kernels, in order (the
/// `n` of `expansions[j][n]`).
pub(crate) fn body_nests(
    body: &[PlanItem],
) -> impl Iterator<Item = (&LoopNest, &[Option<CompiledNest>])> {
    body.iter().filter_map(|item| match item {
        PlanItem::Nest { nest, kernels } => Some((nest, &kernels[..])),
        _ => None,
    })
}

/// A kernel compiled against one machine: allocated arrays, persistent
/// communication schedules, per-PE bytecode kernels (when built with the
/// bytecode [`Backend`]), and a step program that reuses them all.
#[derive(Debug)]
pub struct ExecPlan {
    pub(crate) items: Vec<PlanItem>,
    pub(crate) scheds: Vec<CompiledComm>,
    scalars: Vec<f64>,
    /// The engine [`ExecPlan::step`] dispatches to, fixed at build time.
    engine: Engine,
    /// What one step executes, counted once the plan is verified.
    per_step: PerStep,
    /// Logical stencil steps one [`ExecPlan::step`] covers: the superstep
    /// depth `k` for a flat (driver-stepped) program tiled in time, else 1.
    logical_steps: usize,
    /// Why the requested superstep depth fell back to the classic `k = 1`
    /// schedule (empty when it did not).
    superstep_diags: Vec<Diagnostic>,
    /// The rotation aliases every step leaves behind.
    step_aliases: Aliases,
    /// The aliases in force now: none before the first step, then
    /// `step_aliases` less what writes from outside broke since.
    aliases: Aliases,
    /// Metrics collection state ([`ExecConfig::metrics`]); `None` keeps
    /// stepping metric-free.
    metrics: Option<Box<crate::metrics::MetricsState>>,
    /// The worker threads of a threaded plan, started by its first step:
    /// a plan that is built, inspected and dropped never starts one.
    pool: Option<Pool>,
}

impl ExecPlan {
    /// Build an execution plan as described by `cfg`: allocate every
    /// referenced array (honoring the memory budget and overlap-width
    /// checks), enable the machine's event
    /// tracers when [`ExecConfig::trace`] is set, pre-validate every
    /// communication plan when [`ExecConfig::check`] is set, and compile
    /// every communication op of the node program into a persistent
    /// schedule. Under [`Backend::Bytecode`] every nest is additionally
    /// compiled to a per-PE bytecode kernel here, once, and every
    /// subsequent step reuses the kernels — the loop-nest analogue of the
    /// persistent communication schedules.
    ///
    /// An unresolved [`ExecConfig::auto`] flag is ignored here: auto-tuning
    /// is resolved by the planning layer above (`hpf-core`'s `Planner`,
    /// through `hpf-tune`), which rewrites the configuration before calling
    /// this. The plan is built for the embedded engine and backend as-is.
    pub fn build(
        machine: &mut Machine,
        node: &NodeProgram,
        cfg: &ExecConfig,
    ) -> Result<ExecPlan, RtError> {
        Self::build_with_fault(machine, node, cfg, |_| {})
    }

    /// [`ExecPlan::build`] with `fault` applied to the plan just before its
    /// static verification: how the mutation-kill suite shows that a
    /// corrupted plan never leaves a checked build.
    #[doc(hidden)]
    pub fn build_with_fault(
        machine: &mut Machine,
        node: &NodeProgram,
        cfg: &ExecConfig,
        fault: impl FnOnce(&mut ExecPlan),
    ) -> Result<ExecPlan, RtError> {
        // Trace and metrics share the recorders: both need them on, only
        // a trace needs the event timeline as well as the folds.
        if cfg.trace || cfg.metrics {
            machine.enable_tracing(cfg.trace);
        }
        crate::validate::allocate(machine, node)?;
        if cfg.check {
            crate::validate::prevalidate_comms(machine, &node.items)?;
        }
        let scalars = scalar_values(&node.symbols);
        let mut scheds = Vec::new();
        let mut compiled = 0u64;
        let mut superstep_diags = Vec::new();
        let mut logical_steps = 1usize;
        // A depth-k superstep build replaces the classic item compilation
        // wholesale; an ineligible kernel (or a machine whose halo is too
        // shallow for the deep fills) falls back to the classic schedule,
        // keeping the planner's diagnostics.
        let mut items = None;
        if cfg.superstep > 1 {
            match superstep::plan_superstep(node, cfg.superstep) {
                Ok(ss) if ss.halo <= machine.cfg.halo => {
                    if ss.shape == SsShape::Flat {
                        logical_steps = ss.k;
                    }
                    items = Some(build_superstep_items(
                        machine,
                        node,
                        &ss,
                        &mut scheds,
                        &scalars,
                        cfg.backend,
                        &mut compiled,
                    )?);
                }
                Ok(ss) => superstep_diags.push(Diagnostic::warning(
                    superstep::SS008,
                    format!(
                        "machine halo {} is shallower than the depth-{} deep fill ({} layers); \
                         falling back to the classic schedule (size the machine with \
                         superstep_halo)",
                        machine.cfg.halo, ss.k, ss.halo
                    ),
                )),
                Err(diags) => superstep_diags = diags,
            }
        }
        let items = match items {
            Some(items) => items,
            None => compile_items(
                machine,
                &node.items,
                &mut scheds,
                &scalars,
                cfg.backend,
                &mut compiled,
            )?,
        };
        machine.note_kernels_compiled(compiled);
        let mut plan = ExecPlan {
            items,
            scheds,
            scalars,
            engine: cfg.engine,
            per_step: PerStep::default(),
            logical_steps,
            superstep_diags,
            step_aliases: Aliases::after_step(&node.items),
            aliases: Aliases::default(),
            metrics: cfg.metrics.then(|| {
                Box::new(crate::metrics::MetricsState::new(cfg.label(), machine.pes.len()))
            }),
            pool: None,
        };
        // What a sequential step stages, so that the first allocates nothing.
        machine.reserve_staging(plan.pooled_bytes());
        fault(&mut plan);
        // Static verification (BV* kernel obligations, PL* plan rules):
        // always in debug builds, and on demand via `cfg.check`. Checked
        // builds fail hard; otherwise a rejected kernel falls back to the
        // interpreter — the counters below then describe the demoted plan.
        if cfg.check || cfg!(debug_assertions) {
            crate::plan_verify::enforce(&mut plan.items, &plan.scheds, cfg.check)?;
        }
        plan.per_step = PerStep::count(machine, &plan.scheds, &plan.items);
        Ok(plan)
    }

    /// The engine [`ExecPlan::step`] dispatches to (fixed at build time).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Run one sweep of the kernel on the configured engine. With
    /// metrics on, the step is bracketed by two readings of the per-PE
    /// folds whose difference is its `StepSample` — observation only,
    /// after the engines have finished the step.
    ///
    /// # Panics
    ///
    /// On the threaded engine, when a PE's step panics: the panic is
    /// re-raised here, naming the PE, after every other PE has abandoned
    /// the step. The plan is then poisoned — every later `step` panics at
    /// once with the same message — and the machine's arrays are
    /// unspecified. Dropping the plan still joins its threads.
    pub fn step(&mut self, machine: &mut Machine) {
        let begin = self.metrics.as_ref().map(|m| m.begin(machine));
        if self.engine == Engine::Sequential {
            let ExecPlan { items, scheds, scalars, .. } = &*self;
            step_items(&mut Direct { machine, scheds, scalars }, items);
        } else {
            self.step_threaded(machine);
        }
        self.aliases.clone_from(&self.step_aliases);
        // Every counter is credited here, once per step, from the counts
        // the build made: the engines count nothing.
        machine.note_schedule_reuses(self.per_step.comm_execs);
        machine.note_kernel_execs(self.per_step.kernel_execs);
        machine.note_superstep(self.per_step.elided, self.per_step.redundant);
        for (state, counts) in machine.pes.iter_mut().zip(&self.per_step.per_pe) {
            state.stats.merge(counts);
        }
        if let Some(begin) = begin {
            let logical = self.logical_steps;
            if let Some(m) = self.metrics.as_mut() {
                m.end(machine, begin, logical);
            }
        }
    }

    /// The collected metrics, frozen for export; `None` unless the plan
    /// was built with [`ExecConfig::metrics`].
    pub fn metrics_snapshot(&self, machine: &Machine) -> Option<hpf_trace::MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot(machine))
    }

    /// The cost-model drift report for the stepped-so-far run; `None`
    /// unless the plan was built with [`ExecConfig::metrics`].
    pub fn drift_report(&self, machine: &Machine) -> Option<hpf_trace::DriftReport> {
        self.metrics.as_ref().map(|m| m.drift_report(machine))
    }

    /// The step program and the compiled schedules its items index: what
    /// a checker outside this crate walks to recount a step.
    #[doc(hidden)]
    pub fn program(&self) -> (&[PlanItem], &[CompiledComm]) {
        (&self.items, &self.scheds)
    }

    /// Number of distinct communication schedules compiled.
    pub fn comm_count(&self) -> usize {
        self.scheds.len()
    }

    /// Schedule executions one step performs (counts time-loop repeats).
    pub fn comm_execs_per_step(&self) -> u64 {
        self.per_step.comm_execs
    }

    /// Compiled-kernel executions one step performs across all PEs
    /// (time-loop weighted; zero under the interpreter backend).
    pub fn kernel_execs_per_step(&self) -> u64 {
        self.per_step.kernel_execs
    }

    /// Every PE's counters one step adds, counted when the plan was built
    /// and credited by each [`ExecPlan::step`]: what the cost model prices
    /// without stepping the plan.
    pub fn pe_counts_per_step(&self) -> &[PeStats] {
        &self.per_step.per_pe
    }

    /// Every PE's nest rows one step runs ([`PeStats::iters`]' companion,
    /// counted at build beside it): the runs of an innermost loop, each of
    /// which pays the VM's row start-up. No cost model of the paper's
    /// machine prices them; the tuner's host profile does.
    pub fn rows_per_step(&self) -> &[u64] {
        &self.per_step.rows
    }

    /// Bytes of message staging the machine holds once this plan has stepped
    /// on the sequential engine: one buffer, as large as the largest staged
    /// transfer. None on the threaded engine, whose messages travel in
    /// endpoint buffers ([`ExecPlan::endpoint_buffers`]).
    pub fn pooled_bytes(&self) -> usize {
        let sequential = self.engine == Engine::Sequential;
        self.scheds.iter().filter(|_| sequential).map(|s| s.pooled_bytes()).max().unwrap_or(0)
    }

    /// Bytes the schedules hold: descriptors plus [`ExecPlan::pooled_bytes`].
    pub fn schedule_bytes(&self) -> usize {
        self.scheds.iter().map(|s| s.descriptor_bytes()).sum::<usize>() + self.pooled_bytes()
    }

    /// Message buffers the threaded engine's free lists have made so far;
    /// all are home again at a step boundary, so also how many they hold.
    pub fn endpoint_buffers(&self) -> usize {
        self.pool.as_ref().map_or(0, Pool::buffers_made)
    }

    /// Superstep executions one step performs (zero unless built with
    /// [`ExecConfig::superstep`] depth > 1 on an eligible kernel).
    pub fn supersteps_per_step(&self) -> u64 {
        self.per_step.supersteps
    }

    /// Exchange executions one step elides relative to the classic
    /// schedule of the same program.
    pub fn exchanges_elided_per_step(&self) -> u64 {
        self.per_step.elided
    }

    /// Ghost-zone points one step redundantly recomputes (the trapezoid
    /// price of the elided exchanges), summed over PEs and sub-steps.
    pub fn redundant_cells_per_step(&self) -> u64 {
        self.per_step.redundant
    }

    /// Logical stencil steps one [`ExecPlan::step`] covers. This is the
    /// superstep depth `k` when a *flat* (driver-stepped) program was tiled
    /// in time — drivers comparing against a classic schedule must then
    /// call `step` `S / k` times to cover `S` logical steps — and 1 in
    /// every other configuration (including a tiled `DO` loop, whose
    /// iteration count is absorbed inside the step).
    pub fn logical_steps_per_step(&self) -> usize {
        self.logical_steps
    }

    /// Why the requested [`ExecConfig::superstep`] depth fell back to the
    /// classic schedule — the planner's `SS00x` diagnostics, empty when
    /// the superstep build succeeded (or none was requested).
    pub fn superstep_diags(&self) -> &[Diagnostic] {
        &self.superstep_diags
    }

    /// The array whose storage holds `id`'s value now: `id` itself, or the
    /// live array a rotation left it standing for. Rotation aliases are
    /// none before the first step and the same after every step, less what
    /// [`ExecPlan::unalias_for_write`] ends.
    pub fn resolve(&self, id: ArrayId) -> ArrayId {
        self.aliases.resolve(id)
    }

    /// Prepare `id` for a write from outside the step program. Every alias
    /// the write would break ends first: an array standing for `id`'s value
    /// gets it copied into its own storage, once, and `id` itself, if it
    /// stood for another array, has a value of its own from now on.
    pub fn unalias_for_write(&mut self, machine: &mut Machine, id: ArrayId) {
        let stale: Vec<ArrayId> =
            self.aliases.0.iter().filter(|&&(_, live)| live == id).map(|&(dead, _)| dead).collect();
        self.aliases.written(id);
        if !stale.is_empty() {
            let value = machine.gather(id);
            for dead in stale {
                machine.scatter(dead, &value);
            }
        }
    }

    /// One sweep on the SPMD engines: every PE walks the step program as
    /// a channel [`Worker`] over the precompiled schedules (no per-step
    /// geometry or RSD math), PE 0 on the calling thread and the others on
    /// the plan's [`Pool`], which the first call starts.
    fn step_threaded(&mut self, machine: &mut Machine) {
        let ExecPlan { items, scheds, scalars, pool, .. } = self;
        let pool = pool.get_or_insert_with(|| Pool::start(machine.num_pes(), scheds));
        pool.step(&mut machine.pes, &StepCtx { items, scheds, scalars });
    }
}

/// Walk node items, compiling each communication op against the machine —
/// and, under the bytecode backend, each nest into per-PE kernels.
fn compile_items(
    machine: &mut Machine,
    items: &[NodeItem],
    scheds: &mut Vec<CompiledComm>,
    scalars: &[f64],
    backend: Backend,
    compiled: &mut u64,
) -> Result<Vec<PlanItem>, RtError> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            NodeItem::Comm(CommOp::FullShift { dst, src, shift, dim, kind }) => {
                let geom = machine.meta(*src).geom;
                let plan = cshift_plan(&geom, *shift, *dim, *kind);
                out.push(push_sched(
                    scheds,
                    machine.compile_comm(*dst, *src, plan, MoveKind::FullShift),
                ));
            }
            NodeItem::Comm(CommOp::Overlap { array, shift, dim, rsd, kind }) => {
                let geom = machine.meta(*array).geom;
                let plan =
                    overlap_shift_plan(&geom, *shift, *dim, rsd.as_ref(), *kind, machine.cfg.halo)?;
                out.push(push_sched(
                    scheds,
                    machine.compile_comm(*array, *array, plan, MoveKind::Overlap),
                ));
            }
            NodeItem::Nest(nest) => {
                let kernels = compile_kernels(machine, nest, scalars, backend, compiled);
                out.push(PlanItem::Nest { nest: nest.clone(), kernels });
            }
            NodeItem::Rebind { dst, src } => out.push(rebind_item(machine, *dst, *src)),
            NodeItem::TimeLoop { iters, body } => out.push(PlanItem::TimeLoop {
                iters: *iters,
                body: compile_items(machine, body, scheds, scalars, backend, compiled)?,
            }),
        }
    }
    Ok(out)
}

/// Under the bytecode backend, one kernel of `nest` per PE (`None` where
/// codegen declines), compiled once per distinct layout (each compile
/// counted in `compiled`) and shared by that layout's PEs, and VM scratch to
/// fit.
fn compile_kernels(
    machine: &mut Machine,
    nest: &LoopNest,
    scalars: &[f64],
    backend: Backend,
    compiled: &mut u64,
) -> Vec<Option<CompiledNest>> {
    if backend == Backend::Interp {
        return Vec::new();
    }
    let t0 = machine.driver_tracer().now();
    let (kernels, codes) = compile_spmd(nest, &machine.pes, scalars);
    for (pe, kernel) in machine.pes.iter_mut().zip(&kernels) {
        kernel.iter().for_each(|k| k.reserve_scratch(&mut pe.vm));
    }
    machine.driver_tracer().record(SpanKind::KernelCompile, t0);
    *compiled += codes as u64;
    kernels
}

fn push_sched(scheds: &mut Vec<CompiledComm>, sched: CompiledComm) -> PlanItem {
    scheds.push(sched);
    PlanItem::Comm(scheds.len() - 1)
}

/// A rebind of two arrays of one geometry (checked by `validate::allocate`).
fn rebind_item(machine: &Machine, dst: ArrayId, src: ArrayId) -> PlanItem {
    PlanItem::Rebind { dst, src, full: Section::full(&machine.meta(dst).shape) }
}

/// What storage rotation leaves for an observer at a step boundary:
/// `(dead, live)` pairs where a rebind handed `dead`'s storage away, so it
/// holds stale data, while its value — what the oracle has — is `live`'s.
/// [`ExecPlan::resolve`] reads through it; [`ExecPlan::unalias_for_write`]
/// ends the pairs a write from outside the step program would break.
#[derive(Clone, Debug, Default, PartialEq)]
struct Aliases(Vec<(ArrayId, ArrayId)>);

impl Aliases {
    /// The array whose storage holds `id`'s value: `id` itself, or the live
    /// array a rotation left it standing for.
    fn resolve(&self, id: ArrayId) -> ArrayId {
        self.0.iter().find(|(dead, _)| *dead == id).map_or(id, |&(_, live)| live)
    }

    /// A rebind: `src` stands for `dst` from now on, and so does whatever
    /// stood for `src`.
    fn rebind(&mut self, dst: ArrayId, src: ArrayId) {
        self.written(dst);
        for (_, live) in self.0.iter_mut().filter(|(_, live)| *live == src) {
            *live = dst;
        }
        self.0.push((src, dst));
    }

    /// A write to `a`: it is live again, and whatever stood for its old
    /// value stands for nothing.
    fn written(&mut self, a: ArrayId) {
        self.0.retain(|&(dead, live)| dead != a && live != a);
    }

    /// The map after one step of the node program. A time loop is walked
    /// twice at most: what a rebind in its body leaves behind is redefined
    /// before the next iteration reaches it again, so the second pass is
    /// the last one's.
    fn after_step(items: &[NodeItem]) -> Aliases {
        fn walk(items: &[NodeItem], aliases: &mut Aliases) {
            for item in items {
                match item {
                    NodeItem::Rebind { dst, src } => aliases.rebind(*dst, *src),
                    NodeItem::Nest(nest) => {
                        nest.stored().into_iter().for_each(|a| aliases.written(a))
                    }
                    NodeItem::Comm(CommOp::FullShift { dst, .. }) => aliases.written(*dst),
                    NodeItem::Comm(CommOp::Overlap { .. }) => {}
                    NodeItem::TimeLoop { iters, body } => {
                        for _ in 0..(*iters).min(2) {
                            walk(body, aliases);
                        }
                    }
                }
            }
        }
        let mut aliases = Aliases::default();
        walk(items, &mut aliases);
        aliases
    }
}

/// Compile a legal [`SuperstepSchedule`] against the machine: the deep
/// fills become persistent schedules, the body nests compile once (shared
/// by every sub-step), and the items assemble per the tiled shape — a flat
/// program becomes one [`PlanItem::Superstep`] covering `k` logical steps;
/// a `DO iters TIMES` loop becomes `iters / k` supersteps plus, when `k`
/// does not divide `iters`, a classic remainder loop (its shallow refills
/// re-establish whatever ghost validity it needs, so correctness does not
/// depend on what the last superstep left behind).
fn build_superstep_items(
    machine: &mut Machine,
    node: &NodeProgram,
    ss: &SuperstepSchedule,
    scheds: &mut Vec<CompiledComm>,
    scalars: &[f64],
    backend: Backend,
    compiled: &mut u64,
) -> Result<Vec<PlanItem>, RtError> {
    let body: &[NodeItem] = match ss.shape {
        SsShape::Flat => &node.items,
        SsShape::TimeLoop { .. } => match node.items.as_slice() {
            [NodeItem::TimeLoop { body, .. }] => body,
            _ => unreachable!("superstep shape detection admitted this program"),
        },
    };
    let mut comms = Vec::with_capacity(ss.deep.len());
    for f in &ss.deep {
        let geom = machine.meta(f.array).geom;
        let plan = overlap_shift_plan(
            &geom,
            f.shift,
            f.dim,
            Some(&f.rsd),
            ShiftKind::Circular,
            machine.cfg.halo,
        )?;
        scheds.push(machine.compile_comm(f.array, f.array, plan, MoveKind::Overlap));
        comms.push(scheds.len() - 1);
    }
    // The sub-step: the body's nests and rebinds (its comms are the deep
    // fills above).
    let mut sub = Vec::new();
    for item in body {
        match item {
            NodeItem::Nest(nest) => sub.push(PlanItem::Nest {
                nest: nest.clone(),
                kernels: compile_kernels(machine, nest, scalars, backend, compiled),
            }),
            NodeItem::Rebind { dst, src } => sub.push(rebind_item(machine, *dst, *src)),
            _ => {}
        }
    }
    let tile = PlanItem::Superstep {
        k: ss.k,
        comms,
        body: sub,
        expansions: ss.expansions.clone(),
        elided: ss.elided(),
    };
    match ss.shape {
        SsShape::Flat => Ok(vec![tile]),
        SsShape::TimeLoop { iters } => {
            let mut out = vec![PlanItem::TimeLoop { iters: iters / ss.k, body: vec![tile] }];
            let rem = iters % ss.k;
            if rem > 0 {
                let body_items = compile_items(machine, body, scheds, scalars, backend, compiled)?;
                out.push(PlanItem::TimeLoop { iters: rem, body: body_items });
            }
            Ok(out)
        }
    }
}

/// Run one PE's compute half of a superstep: every sub-step's nests over
/// their trapezoid expansions, and its rebinds, under one
/// [`SpanKind::Superstep`] span. The sub-steps exchange nothing, so PEs
/// proceed fully independently.
fn run_superstep_pe(
    state: &mut PeState,
    body: &[PlanItem],
    expansions: &[Vec<Vec<(i64, i64)>>],
    scalars: &[f64],
) {
    let t0 = state.tracer.now();
    for sub in expansions {
        let mut expand = sub.iter();
        for item in body {
            match item {
                PlanItem::Nest { nest, kernels } => {
                    let kernel = kernels.get(state.pe).and_then(|k| k.as_ref());
                    let e = expand.next().expect("one expansion per nest");
                    backend::run_nest_expanded(state, nest, kernel, scalars, e);
                }
                PlanItem::Rebind { dst, src, .. } => state.swap_subgrids(*dst, *src),
                _ => unreachable!("a superstep body holds nests and rebinds only"),
            }
        }
    }
    state.tracer.record(SpanKind::Superstep, t0);
}

/// What one [`ExecPlan::step`] executes, weighted by time-loop
/// iterations: counted from the verified items at build, then credited
/// identically by every engine.
#[derive(Clone, Debug, Default)]
struct PerStep {
    /// Schedule executions.
    comm_execs: u64,
    /// Compiled-kernel executions (none under the interpreter backend).
    kernel_execs: u64,
    /// Supersteps, the exchanges they elide against `k` classic steps, and
    /// the ghost points their trapezoids recompute.
    supersteps: u64,
    elided: u64,
    redundant: u64,
    /// Every PE's counters: each schedule's messages and copy bytes, each
    /// nest's loads, stores, flops and iterations over the box it sweeps.
    per_pe: Vec<PeStats>,
    /// Every PE's nest rows ([`nest_rows`]), beside its iterations.
    rows: Vec<u64>,
}

impl PerStep {
    /// Count one step of `items` on `machine`.
    fn count(machine: &Machine, scheds: &[CompiledComm], items: &[PlanItem]) -> PerStep {
        let pes = machine.pes.len();
        let mut counts = PerStep {
            per_pe: vec![PeStats::default(); pes],
            rows: vec![0; pes],
            ..PerStep::default()
        };
        counts.add(machine, scheds, items, 1);
        counts
    }

    /// Count what `items` execute, `times` over.
    fn add(&mut self, machine: &Machine, scheds: &[CompiledComm], items: &[PlanItem], times: u64) {
        let kernels = |k: &[Option<CompiledNest>]| times * k.iter().flatten().count() as u64;
        for item in items {
            match item {
                PlanItem::Comm(slot) => self.comm(&scheds[*slot], times),
                PlanItem::Nest { nest, kernels: k } => {
                    self.kernel_execs += kernels(k);
                    self.sweep(machine, nest, None, times);
                }
                PlanItem::Rebind { .. } => {}
                PlanItem::TimeLoop { iters, body } => {
                    self.add(machine, scheds, body, times * *iters as u64)
                }
                PlanItem::Superstep { comms, body, expansions, elided, .. } => {
                    comms.iter().for_each(|&slot| self.comm(&scheds[slot], times));
                    self.supersteps += times;
                    self.elided += times * elided;
                    for sub in expansions {
                        for ((nest, k), expand) in body_nests(body).zip(sub) {
                            self.kernel_execs += kernels(k);
                            self.sweep(machine, nest, Some(expand), times);
                        }
                    }
                }
            }
        }
    }

    /// Count `times` executions of `sched`.
    fn comm(&mut self, sched: &CompiledComm, times: u64) {
        self.comm_execs += times;
        sched.credit(|pe, counts| self.per_pe[pe].merge_times(counts, times));
    }

    /// Count `times` sweeps of `nest` on every PE over the box the executors
    /// run: its owned bounds or, for a superstep sub-step, those expanded by
    /// `expand` and clamped to storage — whose extra points are redundant.
    fn sweep(
        &mut self,
        machine: &Machine,
        nest: &LoopNest,
        expand: Option<&[(i64, i64)]>,
        times: u64,
    ) {
        let points = |lo: &[i64], hi: &[i64]| -> u64 {
            lo.iter().zip(hi).map(|(&l, &h)| (h - l + 1) as u64).product()
        };
        for ((state, counts), rows) in machine.pes.iter().zip(&mut self.per_pe).zip(&mut self.rows)
        {
            let Some((lo, hi)) = nest_local_bounds(state, nest) else { continue };
            let (lo_x, hi_x) = match expand {
                Some(e) => expand_bounds(state, nest, &lo, &hi, e),
                None => (lo, hi),
            };
            self.redundant += times * (points(&lo_x, &hi_x) - points(&lo, &hi));
            counts.merge_times(&nest_counts(nest, &lo_x, &hi_x), times);
            *rows += times * nest_rows(nest, &lo_x, &hi_x);
        }
    }
}

/// One sweep of `nest` over the local box `lo..=hi`, counted by the
/// executors' rule: the outermost loop runs the jammed body once per full
/// group of `factor` indices and the unit body once per remaining index,
/// each over every point of the inner loops. A body's loads, stores and
/// flops (`Bin` and `Neg`) are those of its source instructions; every load
/// is strided when the innermost loop is not the storage-contiguous one.
fn nest_counts(nest: &LoopNest, lo: &[i64], hi: &[i64]) -> PeStats {
    let (rank, d0) = (lo.len(), nest.order[0]);
    let extent = |d: usize| (hi[d] - lo[d] + 1) as u64;
    let inner: u64 = (0..rank).filter(|&d| d != d0).map(extent).product();
    let factor = nest.unroll.as_ref().map_or(1, |u| u.factor.max(1)) as u64;
    let (jammed, unit) = (extent(d0) / factor * inner, extent(d0) % factor * inner);
    let unit_body = nest.unroll.as_ref().map_or(&[][..], |u| &u.unit_body);
    let count = |f: fn(&Instr) -> bool| {
        let per_point = |body: &[Instr]| body.iter().filter(|i| f(i)).count() as u64;
        jammed * per_point(&nest.body) + unit * per_point(unit_body)
    };
    let loads = count(|i| matches!(i, Instr::Load { .. }));
    let strided = rank > 1 && nest.order[rank - 1] != rank - 1;
    PeStats {
        loads,
        strided_loads: if strided { loads } else { 0 },
        stores: count(|i| matches!(i, Instr::Store { .. })),
        flops: count(|i| matches!(i, Instr::Bin { .. } | Instr::Neg { .. })),
        iters: jammed + unit,
        ..PeStats::default()
    }
}

/// The rows one sweep of `nest` over the local box `lo..=hi` runs: the
/// VM's unit of start-up (a bounds proof and a dispatch per row), one per
/// maximal run of the innermost loop. The outermost loop contributes one
/// row group per jammed group of `factor` indices and one per remaining
/// index, each times the extents of the loops between it and the
/// innermost; a rank-1 sweep is at most one jammed and one unit row.
fn nest_rows(nest: &LoopNest, lo: &[i64], hi: &[i64]) -> u64 {
    let (rank, d0) = (lo.len(), nest.order[0]);
    let extent = |d: usize| (hi[d] - lo[d] + 1).max(0) as u64;
    let factor = nest.unroll.as_ref().map_or(1, |u| u.factor.max(1)) as u64;
    let (jammed, unit) = (extent(d0) / factor, extent(d0) % factor);
    if rank == 1 {
        return (jammed > 0) as u64 + (unit > 0) as u64;
    }
    let mids: u64 = nest.order[1..rank - 1].iter().map(|&d| extent(d)).product();
    (jammed + unit) * mids
}

/// Run a nest sweep on one PE through its compiled kernel where one exists
/// (`kernels` is indexed by PE), recording a [`SpanKind::KernelExec`] span
/// when it does and [`SpanKind::Compute`] when the interpreter evaluates
/// it (a no-op branch with tracing off).
fn run_nest_traced(
    pe: &mut PeState,
    nest: &LoopNest,
    kernels: &[Option<CompiledNest>],
    scalars: &[f64],
) {
    let kernel = kernels.get(pe.pe).and_then(|k| k.as_ref());
    let t0 = pe.tracer.now();
    backend::run_nest(pe, nest, kernel, scalars);
    let kind = if kernel.is_some() { SpanKind::KernelExec } else { SpanKind::Compute };
    pe.tracer.record(kind, t0);
}

/// What [`step_items`] needs from an engine: how a compiled schedule is
/// exchanged, and which PEs the calling thread computes for.
pub(crate) trait Fabric {
    /// Execute the compiled schedule at `slot`, returning once every PE
    /// of this fabric holds what the schedule delivers to it.
    fn exchange(&mut self, slot: usize);

    /// Run `f` on every PE this fabric computes for, in PE order, handing
    /// it the plan's scalar values.
    fn each_pe(&mut self, f: impl FnMut(&mut PeState, &[f64]));
}

/// The direct-copy fabric of the sequential engine: the calling thread
/// owns the whole machine, so an exchange is `Machine::run_compiled`
/// (same-PE transfers copied in place, messages staged through the
/// machine's one buffer) and every PE is computed here, one after the other.
struct Direct<'a> {
    machine: &'a mut Machine,
    scheds: &'a [CompiledComm],
    scalars: &'a [f64],
}

impl Fabric for Direct<'_> {
    fn exchange(&mut self, slot: usize) {
        self.machine.run_compiled(&self.scheds[slot]);
    }

    fn each_pe(&mut self, mut f: impl FnMut(&mut PeState, &[f64])) {
        for pe in &mut self.machine.pes {
            f(pe, self.scalars);
        }
    }
}

/// The channel fabric of the threaded engine: this worker computes its
/// own PE only, and an exchange is the post/finish message protocol of
/// [`crate::par`].
impl Fabric for Worker<'_> {
    fn exchange(&mut self, slot: usize) {
        let seq = self.comm_post(slot);
        self.comm_finish(slot, seq);
    }

    fn each_pe(&mut self, mut f: impl FnMut(&mut PeState, &[f64])) {
        f(self.state, self.ctx.scalars);
    }
}

/// Execute the step program on a fabric — the only interpreter of
/// [`PlanItem`]s, so every engine reads the program the PL004–PL006
/// verifier checked the same way.
pub(crate) fn step_items<F: Fabric>(f: &mut F, items: &[PlanItem]) {
    for item in items {
        match item {
            PlanItem::Comm(i) => f.exchange(*i),
            PlanItem::Nest { nest, kernels } => {
                f.each_pe(|pe, scalars| run_nest_traced(pe, nest, kernels, scalars));
            }
            // Each exchange before it has completed on this PE's side (its
            // sends are packed copies, its receives unpacked), so each PE
            // swaps its own two subgrids. No span is recorded.
            PlanItem::Rebind { dst, src, .. } => f.each_pe(|pe, _| pe.swap_subgrids(*dst, *src)),
            PlanItem::TimeLoop { iters, body } => {
                for _ in 0..*iters {
                    step_items(f, body);
                }
            }
            // Supersteps avoid (k-1)/k of all communication with one deep
            // fill. Sub-steps exchange nothing, so each PE runs all of its
            // sub-steps before the next PE starts.
            PlanItem::Superstep { comms, body, expansions, .. } => {
                for &i in comms {
                    f.exchange(i);
                }
                f.each_pe(|pe, scalars| run_superstep_pe(pe, body, expansions, scalars));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use hpf_frontend::compile_source;
    use hpf_passes::{compile, CompileOptions, Stage};
    use hpf_runtime::MachineConfig;

    const JACOBI: &str = r#"
PARAM N = 8
REAL U(N,N), T(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
"#;

    // Large enough for a depth-4 superstep's trapezoid on 2x2.
    const JACOBI16: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
"#;

    fn init(p: &[i64]) -> f64 {
        ((p[0] * 31 + p[1] * 7) as f64).sin()
    }

    /// Shorthand: the threaded engine.
    fn par() -> ExecConfig {
        ExecConfig::new().engine(Engine::Threaded)
    }

    /// The oracle's `U` after running `src` `steps` times from [`init`].
    fn oracle_u(src: &str, steps: usize) -> Vec<f64> {
        let checked = compile_source(src).unwrap();
        let mut r = Reference::new(&checked);
        r.fill_named("U", init);
        for _ in 0..steps {
            r.run(&checked);
        }
        r.arrays[&checked.symbols.lookup_array("U").unwrap()].data.clone()
    }

    fn setup(
        src: &str,
        stage: Stage,
        grid: &[usize],
    ) -> (Machine, hpf_passes::Compiled, hpf_ir::ArrayId) {
        let checked = compile_source(src).unwrap();
        let compiled = compile(&checked, CompileOptions::upto(stage));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::with_grid(grid.to_vec()));
        m.alloc(u, checked.symbols.array(u)).unwrap();
        m.fill(u, init);
        m.reset_stats();
        (m, compiled, u)
    }

    #[test]
    fn plan_steps_match_the_reference_interpreter() {
        let want = oracle_u(JACOBI, 5);
        for stage in [Stage::Original, Stage::MemOpt] {
            // Plan once, step 5 times.
            let (mut m, compiled, u) = setup(JACOBI, stage, &[2, 2]);
            let mut plan = ExecPlan::build(&mut m, &compiled.node, &ExecConfig::new()).unwrap();
            for _ in 0..5 {
                plan.step(&mut m);
            }
            assert_eq!(m.gather(u), want, "stage {stage:?}");
            let st = m.stats();
            assert_eq!(st.schedules_built as usize, plan.comm_count());
            assert_eq!(st.schedule_reuses, 5 * plan.comm_execs_per_step());
        }
    }

    #[test]
    fn plan_step_par_bitwise_equals_seq() {
        let (mut m_seq, compiled, u) = setup(JACOBI, Stage::MemOpt, &[2, 2]);
        let mut p_seq = ExecPlan::build(&mut m_seq, &compiled.node, &ExecConfig::new()).unwrap();
        let (mut m_par, compiled2, _) = setup(JACOBI, Stage::MemOpt, &[2, 2]);
        let mut p_par = ExecPlan::build(&mut m_par, &compiled2.node, &par()).unwrap();
        for _ in 0..4 {
            p_seq.step(&mut m_seq);
            p_par.step(&mut m_par);
        }
        assert_eq!(m_seq.gather(u), m_par.gather(u));
        assert_eq!(m_seq.stats(), m_par.stats());
    }

    #[test]
    fn plan_compiles_time_loops_once() {
        let src = r#"
PARAM N = 8
REAL U(N,N), T(N,N)
REAL C = 0.25
DO 6 TIMES
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
ENDDO
"#;
        let (mut m, compiled, u) = setup(src, Stage::MemOpt, &[2, 2]);
        let mut plan = ExecPlan::build(&mut m, &compiled.node, &ExecConfig::new()).unwrap();
        // The DO body's comm ops are compiled once but execute 6× per step.
        assert_eq!(plan.comm_execs_per_step(), 6 * plan.comm_count() as u64);
        plan.step(&mut m);
        let st = m.stats();
        assert_eq!(st.schedules_built as usize, plan.comm_count());
        assert_eq!(st.schedule_reuses, plan.comm_execs_per_step());
        assert_eq!(m.gather(u), oracle_u(src, 1));
    }

    #[test]
    fn traced_threaded_plan_records_comm_and_driver_spans() {
        // Every PE records its comm post/drain and kernel spans; the
        // driver track carries the build's schedule and kernel compiles.
        let (mut m, compiled, u) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let cfg = par().backend(Backend::Bytecode).trace(true);
        let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        assert!(m.tracing_enabled());
        for _ in 0..3 {
            plan.step(&mut m);
        }
        let summary = m.take_trace().summary();
        for pe in summary.pe_tracks() {
            for kind in [SpanKind::CommPost, SpanKind::CommDrain, SpanKind::KernelExec] {
                assert!(pe.count(kind) > 0, "{} {kind:?}", pe.name);
            }
        }
        let driver = summary.track("driver").expect("driver track");
        assert!(driver.count(SpanKind::ScheduleBuild) > 0);
        assert!(driver.count(SpanKind::KernelCompile) > 0);
        // Results stay bitwise identical to an untraced sequential plan.
        let (mut m_ref, c2, _) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let mut p_ref = ExecPlan::build(&mut m_ref, &c2.node, &ExecConfig::new()).unwrap();
        for _ in 0..3 {
            p_ref.step(&mut m_ref);
        }
        assert_eq!(m.gather(u), m_ref.gather(u));
        assert_eq!(m.stats().per_pe, m_ref.stats().per_pe);
    }

    #[test]
    fn nest_counts_follow_the_jammed_unit_rule() {
        use hpf_passes::loopir::Unroll;
        let (u, t) = (ArrayId(0), ArrayId(1));
        let unit = vec![
            Instr::Load { dst: 0, array: u, offsets: [0, 0].into() },
            Instr::Bin { op: hpf_ir::BinOp::Add, dst: 1, a: 0, b: 0 },
            Instr::Store { array: t, offsets: [0, 0].into(), src: 1 },
        ];
        let mut jammed = unit.clone();
        jammed.extend(unit.iter().cloned().map(|mut i| {
            i.remap(&mut |r| r + 2);
            i.shift_dim(0, 1);
            i
        }));
        let mut nest = LoopNest {
            space: Section::new([(1, 7), (1, 8)]),
            order: vec![0, 1],
            body: jammed,
            regs: 4,
            unroll: Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: 2 }),
        };
        // 7 rows of 8: three jammed executions of two rows each per
        // column, and the seventh row on the unit body.
        let want = PeStats { loads: 56, stores: 56, flops: 56, iters: 32, ..PeStats::default() };
        assert_eq!(nest_counts(&nest, &[1, 1], &[7, 8]), want);
        // The innermost loop over the non-contiguous dimension: every load
        // is strided.
        nest.order = vec![1, 0];
        nest.unroll = None;
        let counts = nest_counts(&nest, &[1, 1], &[4, 4]);
        assert_eq!((counts.loads, counts.strided_loads, counts.iters), (32, 32, 16));
    }

    #[test]
    fn nest_rows_count_the_runs_of_the_innermost_loop() {
        let (u, t) = (ArrayId(0), ArrayId(1));
        let body = vec![
            Instr::Load { dst: 0, array: u, offsets: [0, 0, 0].into() },
            Instr::Store { array: t, offsets: [0, 0, 0].into(), src: 0 },
        ];
        let unroll = |factor| hpf_passes::loopir::Unroll {
            dim: 0,
            factor,
            unit_body: body.clone(),
            unit_regs: 1,
        };
        let mut nest = LoopNest {
            space: Section::new([(1, 7), (1, 3), (1, 8)]),
            order: vec![0, 1, 2],
            body: body.clone(),
            regs: 1,
            unroll: Some(unroll(2)),
        };
        // Seven outer indices: three jammed groups and one unit index,
        // each running a row per index of the middle loop.
        assert_eq!(nest_rows(&nest, &[1, 1, 1], &[7, 3, 8]), (3 + 1) * 3);
        nest.unroll = None;
        assert_eq!(nest_rows(&nest, &[1, 1, 1], &[7, 3, 8]), 7 * 3);
        // Rank 1: one jammed row and one unit row, or just the one.
        nest.order = vec![0];
        nest.unroll = Some(unroll(2));
        assert_eq!(nest_rows(&nest, &[1], &[7]), 2);
        assert_eq!(nest_rows(&nest, &[1], &[8]), 1);
    }

    #[test]
    fn checked_build_rejects_bad_shifts_at_build_time() {
        let src = "PARAM N = 8\nREAL U(N,N), T(N,N)\nT = CSHIFT(U, SHIFT=2, DIM=1) + U\n";
        let checked = compile_source(src).unwrap();
        let compiled = compile(&checked, CompileOptions::full().halo(2));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::sp2_2x2()); // halo 1
        m.alloc(u, checked.symbols.array(u)).unwrap();
        let cfg = ExecConfig::new().check_invariants(true);
        let err = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap_err();
        assert!(matches!(err, RtError::ShiftTooWide { .. }));
    }

    #[test]
    fn plan_propagates_shift_too_wide() {
        let src = "PARAM N = 8\nREAL U(N,N), T(N,N)\nT = CSHIFT(U, SHIFT=2, DIM=1) + U\n";
        let checked = compile_source(src).unwrap();
        let compiled = compile(&checked, CompileOptions::full().halo(2));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::sp2_2x2()); // halo 1
        m.alloc(u, checked.symbols.array(u)).unwrap();
        let err = ExecPlan::build(&mut m, &compiled.node, &ExecConfig::new()).unwrap_err();
        assert!(matches!(err, RtError::ShiftTooWide { .. }));
    }

    #[test]
    fn rotated_copy_back_swaps_storage_and_leaves_an_alias() {
        // JACOBI's `U = T` rotates: a step runs one nest, then every PE
        // hands T's subgrid to U; T keeps U's old storage and stands for U.
        let (mut m, compiled, u) = setup(JACOBI, Stage::MemOpt, &[2, 2]);
        let t = compiled.node.symbols.lookup_array("T").unwrap();
        assert_eq!(compiled.node.nest_count(), 1, "no copy-back nest");
        let cfg = ExecConfig::new().backend(Backend::Bytecode);
        let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        assert_eq!(plan.resolve(t), t, "every array is live before the first step");
        // One nest: one layout on the dividing 2x2 grid, run by 4 PEs.
        assert_eq!(m.stats().kernels_compiled, 1, "one kernel per nest and layout");
        assert_eq!(plan.kernel_execs_per_step(), 4, "one execution per PE, no copy sweep");
        let storage = |m: &Machine, a| -> Vec<*const f64> {
            m.pes.iter().map(|pe| pe.subgrid(a).raw().as_ptr()).collect()
        };
        let u_before = storage(&m, u);
        plan.step(&mut m);
        assert_eq!(storage(&m, t), u_before, "U's old storage is T's now");
        assert_eq!(plan.resolve(t), u);
        assert_eq!(m.gather(u), oracle_u(JACOBI, 1));
        // A write to U first copies U's value into T's own storage.
        plan.unalias_for_write(&mut m, u);
        assert_eq!(plan.resolve(t), t);
        assert_eq!(m.gather(t), oracle_u(JACOBI, 1));
    }

    #[test]
    fn traced_plain_nests_record_kernel_exec_spans() {
        // `S = T + 1` reads T after `U = T`, so the copy cannot rotate and
        // runs, fused with S's compute, as a plain nest after the stencil's
        // one. Every compiled plain nest records a KernelExec span on its
        // PE's track.
        let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N), S(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
S = T + 1
"#;
        for engine in [Engine::Sequential, Engine::Threaded] {
            let (mut m, compiled, u) = setup(src, Stage::MemOpt, &[2, 2]);
            assert_eq!(compiled.node.nest_count(), 2, "the copy nest survives");
            let cfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode).trace(true);
            let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
            for _ in 0..2 {
                plan.step(&mut m);
            }
            assert_eq!(plan.aliases, Aliases::default(), "nothing rotated");
            let summary = m.take_trace().summary();
            let tracks = summary.pe_tracks();
            assert_eq!(tracks.len(), 4, "{engine:?}");
            for pe in tracks {
                assert!(pe.count(SpanKind::KernelExec) > 0, "{engine:?} {}", pe.name);
            }
            assert_eq!(m.gather(u), oracle_u(src, 2), "{engine:?}");
        }
    }

    /// Like [`setup`] at `Stage::MemOpt`, but with a `halo`-deep overlap
    /// area for superstep builds.
    fn setup_deep(
        src: &str,
        grid: &[usize],
        halo: usize,
    ) -> (Machine, hpf_passes::Compiled, hpf_ir::ArrayId) {
        let checked = compile_source(src).unwrap();
        let compiled = compile(&checked, CompileOptions::upto(Stage::MemOpt));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::with_grid(grid.to_vec()).halo(halo));
        m.alloc(u, checked.symbols.array(u)).unwrap();
        m.fill(u, init);
        m.reset_stats();
        (m, compiled, u)
    }

    #[test]
    fn flat_superstep_bitwise_equals_classic_across_engines() {
        const STEPS: usize = 8;
        let (mut m_ref, c_ref, u) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let mut p_ref = ExecPlan::build(&mut m_ref, &c_ref.node, &ExecConfig::new()).unwrap();
        for _ in 0..STEPS {
            p_ref.step(&mut m_ref);
        }
        let want = m_ref.gather(u);
        for k in [2usize, 4] {
            for backend in [Backend::Interp, Backend::Bytecode] {
                for engine in [Engine::Sequential, Engine::Threaded] {
                    let (mut m, c, _) = setup_deep(JACOBI16, &[2, 2], k);
                    let cfg = ExecConfig::new().engine(engine).backend(backend).superstep(k);
                    let mut plan = ExecPlan::build(&mut m, &c.node, &cfg).unwrap();
                    assert!(plan.superstep_diags().is_empty(), "{:?}", plan.superstep_diags());
                    assert_eq!(plan.logical_steps_per_step(), k, "flat kernel is driver-stepped");
                    assert_eq!(plan.supersteps_per_step(), 1);
                    assert!(plan.redundant_cells_per_step() > 0);
                    for _ in 0..STEPS / k {
                        plan.step(&mut m);
                    }
                    assert_eq!(m.gather(u), want, "k={k} {backend:?} {engine:?}");
                }
            }
        }
    }

    #[test]
    fn superstep_elides_exchanges_and_counts_redundancy() {
        const STEPS: usize = 8;
        let k = 4usize;
        let (mut m_ref, c_ref, u) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let mut p_ref = ExecPlan::build(&mut m_ref, &c_ref.node, &ExecConfig::new()).unwrap();
        for _ in 0..STEPS {
            p_ref.step(&mut m_ref);
        }
        let (mut m, c, _) = setup_deep(JACOBI16, &[2, 2], k);
        let cfg = ExecConfig::new().superstep(k).trace(true);
        let mut plan = ExecPlan::build(&mut m, &c.node, &cfg).unwrap();
        for _ in 0..STEPS / k {
            plan.step(&mut m);
        }
        assert_eq!(m.gather(u), m_ref.gather(u));
        let st = m.stats();
        let st_ref = m_ref.stats();
        // k−1 of every k exchange phases disappear, and the counters say so.
        assert_eq!(plan.exchanges_elided_per_step(), (k as u64 - 1) * 4);
        assert_eq!(st.exchanges_elided, (STEPS / k) as u64 * plan.exchanges_elided_per_step());
        assert_eq!(st.redundant_cells, (STEPS / k) as u64 * plan.redundant_cells_per_step());
        assert_eq!(st_ref.exchanges_elided, 0);
        // Visible in schedule traffic: 4 deep fills per superstep replace
        // 4 exchanges per classic step.
        assert_eq!(st.schedule_reuses * k as u64, st_ref.schedule_reuses);
        // Every PE records one Superstep span per superstep.
        for pe in m.take_trace().summary().pe_tracks() {
            assert_eq!(pe.count(SpanKind::Superstep), (STEPS / k) as u64, "{}", pe.name);
        }
    }

    #[test]
    fn time_loop_superstep_tiles_with_remainder() {
        // 11 iterations: k=2 → 5 supersteps + 1 classic; k=4 → 2 + 3.
        const SRC: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
REAL C = 0.25
DO 11 TIMES
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
ENDDO
"#;
        let (mut m_ref, c_ref, u) = setup(SRC, Stage::MemOpt, &[2, 2]);
        let mut p_ref = ExecPlan::build(&mut m_ref, &c_ref.node, &ExecConfig::new()).unwrap();
        p_ref.step(&mut m_ref);
        for k in [2usize, 4] {
            let (mut m, c, _) = setup_deep(SRC, &[2, 2], k);
            let cfg = ExecConfig::new().backend(Backend::Bytecode).superstep(k);
            let mut plan = ExecPlan::build(&mut m, &c.node, &cfg).unwrap();
            assert_eq!(plan.logical_steps_per_step(), 1, "the loop tiles in place");
            assert_eq!(plan.supersteps_per_step(), (11 / k) as u64);
            plan.step(&mut m);
            assert_eq!(m.gather(u), m_ref.gather(u), "k={k}");
        }
    }

    #[test]
    fn ineligible_kernel_falls_back_to_classic_with_diagnostics() {
        // Stage::Original leaves full-shift copies — SS002-ineligible — so
        // the build keeps the classic schedule and explains why.
        let (mut m, compiled, u) = setup(JACOBI16, Stage::Original, &[2, 2]);
        let cfg = ExecConfig::new().superstep(4);
        let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        assert!(
            plan.superstep_diags().iter().any(|d| d.code == superstep::SS002),
            "{:?}",
            plan.superstep_diags()
        );
        assert_eq!(plan.supersteps_per_step(), 0);
        assert_eq!(plan.logical_steps_per_step(), 1);
        let (mut m_ref, c2, _) = setup(JACOBI16, Stage::Original, &[2, 2]);
        let mut p_ref = ExecPlan::build(&mut m_ref, &c2.node, &ExecConfig::new()).unwrap();
        for _ in 0..3 {
            plan.step(&mut m);
            p_ref.step(&mut m_ref);
        }
        assert_eq!(m.gather(u), m_ref.gather(u));
        assert_eq!(m.stats(), m_ref.stats());
    }

    #[test]
    fn shallow_halo_falls_back_with_ss008() {
        // Machine halo 1 cannot hold a depth-4 deep fill; the build falls
        // back to the classic schedule rather than fail.
        let (mut m, compiled, _) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let plan =
            ExecPlan::build(&mut m, &compiled.node, &ExecConfig::new().superstep(4)).unwrap();
        assert!(
            plan.superstep_diags().iter().any(|d| d.code == superstep::SS008),
            "{:?}",
            plan.superstep_diags()
        );
        assert_eq!(plan.supersteps_per_step(), 0);
    }
}
