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
//! engines: one thread per PE, kept by the plan's worker pool from its
//! first step until it drops). All engines are bitwise identical and
//! produce the same per-PE counters.
//!
//! With tracing enabled ([`ExecConfig::trace`]) every step additionally
//! records per-PE spans — kernel execution, pack/unpack, comm post/drain,
//! and the overlap engine's interior/boundary sweeps — on the machine's
//! `hpf_trace` recorders, plus schedule-build and kernel-compile spans on
//! the driver track at build time.

use crate::backend::{self, Backend};
use crate::config::{Engine, ExecConfig};
use crate::nest::{expand_bounds, nest_local_bounds, scalar_values};
use crate::par::{Pool, StepCtx, Worker};
use crate::superstep::{self, SsShape, SuperstepSchedule};
use hpf_analysis::overlap::{split_region, RegionSplit};
use hpf_codegen::{compile_nest, reads_before_def, CompiledNest};
use hpf_ir::{ArrayId, Diagnostic, Section, ShiftKind};
use hpf_passes::loopir::{CommOp, Instr, LoopNest, NodeItem, NodeProgram};
use hpf_passes::memopt::iteration_local;
use hpf_runtime::schedule::{cshift_plan, overlap_shift_plan, regions_intersect};
use hpf_runtime::{CompiledComm, Machine, MoveKind, PeState, RtError};
use hpf_trace::SpanKind;

/// One step-program item: like `NodeItem`, but communication ops are slots
/// into the plan's compiled-schedule table. Crate-visible so the
/// [`crate::plan_verify`] race checker can walk and (in its mutation tests)
/// corrupt the step program.
#[derive(Debug)]
pub(crate) enum PlanItem {
    /// Execute the compiled schedule at this slot.
    Comm(usize),
    /// Run a subgrid loop nest on every PE, through the per-PE compiled
    /// kernel where one exists (`kernels` is empty under the interpreter
    /// backend and per-PE `None` where codegen declined the nest).
    Nest { nest: LoopNest, kernels: Vec<Option<CompiledNest>> },
    /// A split-phase overlap window (fused when building for
    /// [`Engine::ThreadedOverlap`]): a run
    /// of consecutive overlap-shift schedules fused with the nest that
    /// consumes them. The overlapped engine posts every schedule's send
    /// half, runs the nest's interior while messages are in flight, drains
    /// the receives in plan order, then runs the boundary strips. The
    /// blocking engines execute it exactly like the unfused sequence.
    Overlap {
        /// Schedule slots, in plan order.
        comms: Vec<usize>,
        /// `barriers[i]`: drain every pending receive before posting
        /// `comms[i]` — set when that schedule's sends read ghost cells an
        /// earlier schedule's receives write (corner forwarding; see
        /// `CompiledComm::depends_on`).
        barriers: Vec<bool>,
        /// `pre_drain[i]`: `comms[i]`'s receives must complete before the
        /// interior runs, because its unpack writes ghost cells the
        /// interior reads (halo along a dimension the split does not
        /// shrink). Only comms with `pre_drain[i] == false` stay in flight
        /// across the interior sweep.
        pre_drain: Vec<bool>,
        /// The nest, as in [`PlanItem::Nest`].
        nest: LoopNest,
        /// Per-PE compiled kernels, as in [`PlanItem::Nest`].
        kernels: Vec<Option<CompiledNest>>,
        /// Per-PE interior/boundary split; `None` means that PE's interior
        /// is degenerate and it takes the fully-blocking path (drain first,
        /// then run the whole nest).
        splits: Vec<Option<RegionSplit>>,
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
    TimeLoop { iters: usize, body: Vec<PlanItem> },
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
    /// For [`Engine::ThreadedOverlap`] the plan then fuses every maximal
    /// run of consecutive overlap-shift schedules with the eligible nest
    /// that follows it into a split-phase [window](PlanItem::Overlap),
    /// computing each PE's interior/boundary split once, here at plan
    /// time. Callers gate that engine on halo-safety (HS001/HS002) being
    /// lint-clean — an unproven program must be built for a blocking
    /// engine instead.
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
        if cfg.engine == Engine::ThreadedOverlap {
            let items = std::mem::take(&mut plan.items);
            plan.items = fuse_windows(machine, items, &plan.scheds);
        }
        fault(&mut plan);
        // Static verification (BV* kernel obligations, PL* plan-level
        // races): always in debug builds, and on demand via `cfg.check`.
        // Checked builds fail hard; otherwise a rejected kernel falls back
        // to the interpreter and a rejected window to the blocking path —
        // the counters below then describe the demoted plan.
        if cfg.check || cfg!(debug_assertions) {
            crate::plan_verify::enforce(&mut plan.items, &plan.scheds, cfg.check)?;
        }
        plan.per_step.add(machine, &plan.items, 1);
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
    /// On the threaded engines, when a PE's step panics: the panic is
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
        // Machine-wide counters are credited here, once per step, so every
        // engine reports identical numbers.
        machine.note_kernel_execs(self.per_step.kernel_execs);
        machine.note_superstep(self.per_step.elided, self.per_step.redundant);
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

    /// Bytes of message staging the machine holds once this plan has stepped
    /// on the sequential engine: one buffer, as large as the largest staged
    /// transfer. None on the threaded engines, whose messages travel in
    /// endpoint buffers ([`ExecPlan::endpoint_buffers`]).
    pub fn pooled_bytes(&self) -> usize {
        let sequential = self.engine == Engine::Sequential;
        self.scheds.iter().filter(|_| sequential).map(|s| s.pooled_bytes()).max().unwrap_or(0)
    }

    /// Bytes the schedules hold: descriptors plus [`ExecPlan::pooled_bytes`].
    pub fn schedule_bytes(&self) -> usize {
        self.scheds.iter().map(|s| s.descriptor_bytes()).sum::<usize>() + self.pooled_bytes()
    }

    /// Message buffers the threaded engines' free lists have made so far;
    /// all are home again at a step boundary, so also how many they hold.
    pub fn endpoint_buffers(&self) -> usize {
        self.pool.as_ref().map_or(0, Pool::buffers_made)
    }

    /// Split-phase windows one step executes (zero unless built for
    /// [`Engine::ThreadedOverlap`]).
    pub fn overlap_windows_per_step(&self) -> u64 {
        self.per_step.windows
    }

    /// Interior points one step computes while halo messages are in flight.
    pub fn interior_cells_per_step(&self) -> u64 {
        self.per_step.interior
    }

    /// Boundary-strip points one step computes after the receives drain.
    pub fn boundary_cells_per_step(&self) -> u64 {
        self.per_step.boundary
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

    /// The storage rotation's observation map in force now: empty before
    /// the first step and when the program rotates nothing, the same after
    /// every step, and thinned by [`ExecPlan::unalias_for_write`].
    pub fn aliases(&self) -> &Aliases {
        &self.aliases
    }

    /// The array whose storage holds `id`'s value now ([`Aliases::resolve`]).
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
    /// the plan's [`Pool`], which the first call starts. A plan built for
    /// [`Engine::ThreadedOverlap`] runs its [windows](PlanItem::Overlap)
    /// split-phase; the only observable difference from the blocking
    /// engines is the `overlapped_steps` / `interior_cells` /
    /// `boundary_cells` counters and the hidden-communication credit.
    fn step_threaded(&mut self, machine: &mut Machine) {
        let split_phase = self.engine == Engine::ThreadedOverlap;
        let ExecPlan { items, scheds, scalars, pool, .. } = self;
        let pool = pool.get_or_insert_with(|| Pool::start(machine.num_pes(), scheds));
        let ctx = StepCtx { items, scheds, scalars, cfg: &machine.cfg, split_phase };
        pool.step(&mut machine.pes, &ctx);
        // Workers deliver messages themselves, bypassing `apply_compiled`
        // and its reuse accounting; credit the reuses here.
        machine.note_schedule_reuses(self.per_step.comm_execs);
        if split_phase {
            let n = &self.per_step;
            machine.note_overlap(n.windows, n.interior, n.boundary);
        }
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
                let geom = machine.meta(*src).geom.clone();
                let plan = cshift_plan(&geom, *shift, *dim, *kind);
                out.push(push_sched(
                    scheds,
                    machine.compile_comm(*dst, *src, plan, MoveKind::FullShift),
                ));
            }
            NodeItem::Comm(CommOp::Overlap { array, shift, dim, rsd, kind }) => {
                let geom = machine.meta(*array).geom.clone();
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
/// codegen declines, counted in `compiled` where not) and VM scratch to fit.
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
    let kernels: Vec<Option<CompiledNest>> = (machine.pes.iter_mut())
        .map(|pe| compile_nest(nest, pe, scalars).inspect(|k| k.reserve_scratch(&mut pe.vm)))
        .collect();
    machine.driver_tracer().record(SpanKind::KernelCompile, t0);
    *compiled += kernels.iter().flatten().count() as u64;
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
pub struct Aliases(Vec<(ArrayId, ArrayId)>);

impl Aliases {
    /// The array whose storage holds `id`'s value: `id` itself, or the live
    /// array a rotation left it standing for.
    pub fn resolve(&self, id: ArrayId) -> ArrayId {
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
        let geom = machine.meta(f.array).geom.clone();
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
                    let _ = backend::run_nest_expanded(state, nest, kernel, scalars, e);
                }
                PlanItem::Rebind { dst, src, .. } => state.swap_subgrids(*dst, *src),
                _ => unreachable!("a superstep body holds nests and rebinds only"),
            }
        }
    }
    state.tracer.record(SpanKind::Superstep, t0);
}

/// What one [`ExecPlan::step`] executes, summed over PEs and weighted by
/// time-loop iterations: counted from the verified items at build, then
/// credited identically by every engine.
#[derive(Clone, Copy, Debug, Default)]
struct PerStep {
    /// Schedule executions.
    comm_execs: u64,
    /// Compiled-kernel executions (none under the interpreter backend).
    kernel_execs: u64,
    /// Split-phase windows, the points their interiors compute while the
    /// receives are in flight, and the points their boundary strips compute
    /// after (split PEs only).
    windows: u64,
    interior: u64,
    boundary: u64,
    /// Supersteps, the exchanges they elide against `k` classic steps, and
    /// the ghost points their trapezoids recompute.
    supersteps: u64,
    elided: u64,
    redundant: u64,
}

impl PerStep {
    /// Count what `items` execute, `times` over.
    fn add(&mut self, machine: &Machine, items: &[PlanItem], times: u64) {
        let kernels = |k: &[Option<CompiledNest>]| times * k.iter().flatten().count() as u64;
        for item in items {
            match item {
                PlanItem::Comm(_) => self.comm_execs += times,
                PlanItem::Nest { kernels: k, .. } => self.kernel_execs += kernels(k),
                PlanItem::Overlap { comms, kernels: k, splits, .. } => {
                    self.comm_execs += times * comms.len() as u64;
                    self.kernel_execs += kernels(k);
                    self.windows += times;
                    for s in splits.iter().flatten() {
                        self.interior += times * s.interior_cells();
                        self.boundary += times * s.boundary_cells();
                    }
                }
                PlanItem::Rebind { .. } => {}
                PlanItem::TimeLoop { iters, body } => {
                    self.add(machine, body, times * *iters as u64)
                }
                PlanItem::Superstep { comms, body, expansions, elided, .. } => {
                    self.comm_execs += times * comms.len() as u64;
                    self.add(machine, body, times * expansions.len() as u64);
                    self.supersteps += times;
                    self.elided += times * elided;
                    self.redundant += times * redundant_cells(machine, body, expansions);
                }
            }
        }
    }
}

/// Ghost points one superstep's sweeps recompute, summed over sub-steps,
/// nests and PEs: the storage-clamped expanded box minus the owned box,
/// exactly what `run_nest_expanded` computes.
fn redundant_cells(
    machine: &Machine,
    body: &[PlanItem],
    expansions: &[Vec<Vec<(i64, i64)>>],
) -> u64 {
    let points = |lo: &[i64], hi: &[i64]| -> u64 {
        lo.iter().zip(hi).map(|(&l, &h)| (h - l + 1) as u64).product()
    };
    let mut cells = 0;
    for sub in expansions {
        for ((nest, _), expand) in body_nests(body).zip(sub) {
            for state in &machine.pes {
                let Some((lo, hi)) = nest_local_bounds(state, nest) else { continue };
                let (lo_x, hi_x) = expand_bounds(state, nest, &lo, &hi, expand);
                cells += points(&lo_x, &hi_x) - points(&lo, &hi);
            }
        }
    }
    cells
}

/// Rewrite a compiled item list, fusing each maximal run of consecutive
/// overlap-shift schedules followed by an eligible nest into a split-phase
/// [window](PlanItem::Overlap). Runs broken by any other item (a full
/// shift, a time loop, an ineligible nest) are flushed back as plain comm
/// items — the conservative fully-blocking path.
fn fuse_windows(machine: &Machine, items: Vec<PlanItem>, scheds: &[CompiledComm]) -> Vec<PlanItem> {
    let mut out = Vec::with_capacity(items.len());
    let mut run: Vec<usize> = Vec::new();
    let flush = |out: &mut Vec<PlanItem>, run: &mut Vec<usize>| {
        out.extend(run.drain(..).map(PlanItem::Comm));
    };
    for item in items {
        match item {
            PlanItem::Comm(i) if scheds[i].kind == MoveKind::Overlap => run.push(i),
            PlanItem::Nest { nest, kernels } if !run.is_empty() => {
                let derived = derive_splits(machine, &nest);
                let pre_drain: Vec<bool> = derived
                    .as_ref()
                    .map(|(splits, read_lo, read_hi)| {
                        run.iter()
                            .map(|&c| !comm_overlappable(&scheds[c], splits, read_lo, read_hi))
                            .collect()
                    })
                    .unwrap_or_default();
                match derived {
                    // A window where every receive would have to drain
                    // before the interior overlaps nothing: keep it on the
                    // blocking path so the counters stay meaningful.
                    Some((splits, _, _)) if !pre_drain.iter().all(|&b| b) => {
                        let barriers = run
                            .iter()
                            .enumerate()
                            .map(|(ci, &c)| {
                                run[..ci].iter().any(|&e| scheds[c].depends_on(&scheds[e]))
                            })
                            .collect();
                        out.push(PlanItem::Overlap {
                            comms: std::mem::take(&mut run),
                            barriers,
                            pre_drain,
                            nest,
                            kernels,
                            splits,
                        });
                    }
                    _ => {
                        flush(&mut out, &mut run);
                        out.push(PlanItem::Nest { nest, kernels });
                    }
                }
            }
            PlanItem::TimeLoop { iters, body } => {
                flush(&mut out, &mut run);
                out.push(PlanItem::TimeLoop { iters, body: fuse_windows(machine, body, scheds) });
            }
            other => {
                flush(&mut out, &mut run);
                out.push(other);
            }
        }
    }
    flush(&mut out, &mut run);
    out
}

/// Per-PE interior/boundary splits plus the unit body's per-dimension read
/// radii `(read_lo, read_hi)`.
type SplitPlan = (Vec<Option<RegionSplit>>, Vec<i64>, Vec<i64>);

/// Decide split-phase eligibility for a nest and compute each PE's
/// interior/boundary split. `None` means the whole nest takes the blocking
/// path; a per-PE `None` inside the vector means only that PE does (its
/// interior is degenerate).
///
/// Eligibility is judged on the semantic unit body (the pre-jam body for
/// unrolled nests — the jammed body is `factor` independent unit iterations
/// interleaved, so unit-level properties govern):
/// * [`iteration_local`] — every iteration's loads and stores of written
///   arrays hit only its own point, so iterations commute and interior
///   stores stay inside owned cells;
/// * no [`reads_before_def`] in either body — the interpreter and VM share
///   one register file across points, so a register read before its
///   definition would carry state across the interior/boundary seam.
///
/// The interior shrink per dimension is the widest load/store offset of the
/// unit body in that dimension: interior accesses then stay within owned
/// storage, untouched by the in-flight receives (which write ghost cells
/// only) — [`comm_overlappable`] double-checks that geometrically per
/// schedule and pre-drains any receive whose unpack would intersect the
/// interior's read region. Jammed accesses need no extra margin — a jammed
/// access at group start `i`, copy `k` is the unit access at point `i + k`,
/// and every group point lies inside the interior.
///
/// Returns the per-PE splits plus the unit body's per-dimension read radii
/// `(read_lo, read_hi)`.
fn derive_splits(machine: &Machine, nest: &LoopNest) -> Option<SplitPlan> {
    let unit = nest.unit_body();
    if !iteration_local(unit) || reads_before_def(unit) || reads_before_def(&nest.body) {
        return None;
    }
    let rank = nest.order.len();
    let mut read_lo = vec![0i64; rank];
    let mut read_hi = vec![0i64; rank];
    for i in unit {
        if let Instr::Load { offsets, .. } | Instr::Store { offsets, .. } = i {
            for (d, &o) in offsets.iter().enumerate() {
                read_lo[d] = read_lo[d].max(-o);
                read_hi[d] = read_hi[d].max(o);
            }
        }
    }
    let shrink_lo = read_lo.clone();
    let shrink_hi = read_hi.clone();
    let factor = nest.unroll.as_ref().map_or(1, |u| u.factor as i64);
    let splits: Vec<Option<RegionSplit>> = machine
        .pes
        .iter()
        .map(|pe| {
            let (lo, hi) = nest_local_bounds(pe, nest)?;
            split_region(&lo, &hi, &shrink_lo, &shrink_hi, &nest.order, factor)
        })
        .collect();
    // A window where no PE can split would overlap nothing: keep it on the
    // blocking path so the counters stay meaningful.
    if splits.iter().all(|s| s.is_none()) {
        return None;
    }
    Some((splits, read_lo, read_hi))
}

/// May this schedule's receives stay in flight while the interior runs?
/// Yes iff on every split PE, no cross-PE unpack region intersects the
/// cells that PE's interior reads — the interior box expanded by the
/// nest's per-dimension read radii. Local copies and fills execute in the
/// post half and non-split PEs drain everything before their nest, so only
/// receiving transfers on split PEs matter. Their decoded boxes and the
/// bounds share the 1-based local coordinate frame (owned cells `1..=ext`,
/// ghosts outside); a box that does not decode keeps its receive blocking.
fn comm_overlappable(
    sched: &CompiledComm,
    splits: &[Option<RegionSplit>],
    read_lo: &[i64],
    read_hi: &[i64],
) -> bool {
    splits.iter().enumerate().all(|(pe, split)| {
        let Some(split) = split else { return true };
        let read: Vec<(i64, i64)> = split
            .interior
            .iter()
            .enumerate()
            .map(|(d, &(l, h))| (l - read_lo[d], h + read_hi[d]))
            .collect();
        sched.received(pe).all(|w| w.is_some_and(|w| !regions_intersect(&read, &w)))
    })
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

    /// Execute a [window](PlanItem::Overlap) split-phase and return
    /// `true`; or execute nothing and return `false` when this fabric has
    /// no split phase — the walker then runs the window's unfused sequence.
    fn overlap_window(
        &mut self,
        comms: &[usize],
        barriers: &[bool],
        pre_drain: &[bool],
        nest: &LoopNest,
        kernels: &[Option<CompiledNest>],
        splits: &[Option<RegionSplit>],
    ) -> bool;
}

/// The direct-copy fabric of the sequential engine: the calling thread
/// owns the whole machine, so an exchange is `Machine::apply_compiled`
/// (same-PE transfers copied in place, messages staged through the
/// machine's one buffer) and every PE is computed here, one after the other.
struct Direct<'a> {
    machine: &'a mut Machine,
    scheds: &'a [CompiledComm],
    scalars: &'a [f64],
}

impl Fabric for Direct<'_> {
    fn exchange(&mut self, slot: usize) {
        self.machine.apply_compiled(&self.scheds[slot]);
    }

    fn each_pe(&mut self, mut f: impl FnMut(&mut PeState, &[f64])) {
        for pe in &mut self.machine.pes {
            f(pe, self.scalars);
        }
    }

    fn overlap_window(
        &mut self,
        _: &[usize],
        _: &[bool],
        _: &[bool],
        _: &LoopNest,
        _: &[Option<CompiledNest>],
        _: &[Option<RegionSplit>],
    ) -> bool {
        false
    }
}

/// The channel fabric of the threaded engines: this worker computes its
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

    /// Post every schedule's send half (draining pending receives first
    /// wherever a dependency barrier demands it), compute the nest's
    /// interior while the messages are in flight, drain the remaining
    /// receives in plan order, then compute the boundary strips. A PE
    /// whose interior is degenerate drains immediately and runs the whole
    /// nest — the blocking protocol.
    fn overlap_window(
        &mut self,
        comms: &[usize],
        barriers: &[bool],
        pre_drain: &[bool],
        nest: &LoopNest,
        kernels: &[Option<CompiledNest>],
        splits: &[Option<RegionSplit>],
    ) -> bool {
        if !self.ctx.split_phase {
            return false;
        }
        let scalars = self.ctx.scalars;
        let drain = |w: &mut Self, pending: &mut Vec<(usize, u64)>| {
            for (ci, seq) in pending.drain(..) {
                w.comm_finish(comms[ci], seq);
            }
        };
        let mut pending: Vec<(usize, u64)> = Vec::with_capacity(comms.len());
        for (ci, &slot) in comms.iter().enumerate() {
            if barriers[ci] {
                drain(self, &mut pending);
            }
            let seq = self.comm_post(slot);
            pending.push((ci, seq));
        }
        let Some(split) = splits.get(self.state.pe).and_then(|s| s.as_ref()) else {
            drain(self, &mut pending);
            run_nest_traced(self.state, nest, kernels, scalars);
            return true;
        };
        let kernel = kernels.get(self.state.pe).and_then(|k| k.as_ref());
        // Receives whose unpack writes cells the interior reads (halo
        // along unshrunk dimensions) must land first; the rest stay in
        // flight across the interior sweep.
        let mut in_flight: Vec<(usize, u64)> = Vec::with_capacity(pending.len());
        for (ci, seq) in pending.drain(..) {
            if pre_drain[ci] {
                self.comm_finish(comms[ci], seq);
            } else {
                in_flight.push((ci, seq));
            }
        }
        // Snapshot counters around the interior sweep and the drain: the
        // cost model credits the receive time that was covered by
        // interior compute (the latency split-phase hides; DESIGN.md §5d).
        let pre = self.state.stats;
        let t_int = self.state.tracer.now();
        backend::run_nest_range(self.state, nest, kernel, scalars, &split.interior);
        let t_int_end = self.state.tracer.now();
        let mid = self.state.stats;
        // The window's receives drain under one span (the per-comm spans
        // stay quiet) so the drain's modeled attribution is the same
        // per-window quantity the hidden-credit counter is built from.
        let t_drn = self.state.tracer.now();
        for (ci, seq) in in_flight.drain(..) {
            self.comm_finish_quiet(comms[ci], seq);
        }
        let t_drn_end = self.state.tracer.now();
        let post = self.state.stats;
        let t_bnd = self.state.tracer.now();
        for strip in &split.boundary {
            backend::run_nest_range(self.state, nest, kernel, scalars, strip);
        }
        self.state.tracer.record(SpanKind::Boundary, t_bnd);
        let cost = &self.ctx.cfg.cost;
        let interior_ns = cost.pe_time_ns(&mid.delta_since(&pre));
        let recv_ns = cost.pe_time_ns(&post.delta_since(&mid));
        let hidden = recv_ns.min(interior_ns);
        self.state.overlap_hidden_ns += hidden;
        let tracer = &mut self.state.tracer;
        tracer.record_at(SpanKind::Interior, t_int, t_int_end, interior_ns, 0.0);
        tracer.record_at(SpanKind::CommDrain, t_drn, t_drn_end, recv_ns, hidden);
        true
    }
}

/// Execute the step program on a fabric — the only interpreter of
/// [`PlanItem`]s, so every engine reads the program the PL001–PL006
/// verifier checked the same way.
pub(crate) fn step_items<F: Fabric>(f: &mut F, items: &[PlanItem]) {
    for item in items {
        match item {
            PlanItem::Comm(i) => f.exchange(*i),
            PlanItem::Nest { nest, kernels } => {
                f.each_pe(|pe, scalars| run_nest_traced(pe, nest, kernels, scalars));
            }
            PlanItem::Overlap { comms, barriers, pre_drain, nest, kernels, splits } => {
                if !f.overlap_window(comms, barriers, pre_drain, nest, kernels, splits) {
                    for &i in comms {
                        f.exchange(i);
                    }
                    f.each_pe(|pe, scalars| run_nest_traced(pe, nest, kernels, scalars));
                }
            }
            // Every blocking exchange has completed, and a window drains
            // before the walker moves on, so no message is in flight: each
            // PE swaps its own two subgrids. No span is recorded.
            PlanItem::Rebind { dst, src, .. } => f.each_pe(|pe, _| pe.swap_subgrids(*dst, *src)),
            PlanItem::TimeLoop { iters, body } => {
                for _ in 0..*iters {
                    step_items(f, body);
                }
            }
            // Supersteps already avoid (k-1)/k of all communication; the
            // single deep fill stays on the blocking protocol. Sub-steps
            // exchange nothing, so each PE runs all of its sub-steps
            // before the next PE starts.
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

    // Large enough that each PE's 8x8 block keeps a factor-aligned interior
    // after shrinking by the stencil radius (8x8 blocks over 2x2 do not).
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

    /// Shorthand: the split-phase overlapped engine on a given backend.
    fn ovl(backend: Backend) -> ExecConfig {
        ExecConfig::new().engine(Engine::ThreadedOverlap).backend(backend)
    }

    /// Shorthand: the blocking threaded engine.
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
    fn overlapped_plan_fuses_windows_and_steps_bitwise_equal() {
        for backend in [Backend::Interp, Backend::Bytecode] {
            for stage in [Stage::Original, Stage::MemOpt] {
                let (mut m_seq, compiled, u) = setup(JACOBI16, stage, &[2, 2]);
                let mut p_seq = ExecPlan::build(
                    &mut m_seq,
                    &compiled.node,
                    &ExecConfig::new().backend(backend),
                )
                .unwrap();
                let (mut m_ovl, compiled2, _) = setup(JACOBI16, stage, &[2, 2]);
                let mut p_ovl =
                    ExecPlan::build(&mut m_ovl, &compiled2.node, &ovl(backend)).unwrap();
                if stage == Stage::MemOpt {
                    // Only the optimized pipeline emits overlap shifts; at
                    // Stage::Original every CSHIFT is a full-shift copy and
                    // the plan has nothing to fuse.
                    assert!(
                        p_ovl.overlap_windows_per_step() > 0,
                        "JACOBI at {stage:?} should fuse at least one window"
                    );
                    assert!(p_ovl.interior_cells_per_step() > 0);
                    assert!(p_ovl.boundary_cells_per_step() > 0);
                }
                for _ in 0..4 {
                    p_seq.step(&mut m_seq);
                    p_ovl.step(&mut m_ovl);
                }
                assert_eq!(m_seq.gather(u), m_ovl.gather(u), "{backend:?} {stage:?}");
                assert_eq!(m_seq.stats().per_pe, m_ovl.stats().per_pe, "{backend:?} {stage:?}");
                let st = m_ovl.stats();
                assert_eq!(st.overlapped_steps, 4 * p_ovl.overlap_windows_per_step());
                assert_eq!(st.interior_cells, 4 * p_ovl.interior_cells_per_step());
                assert_eq!(st.boundary_cells, 4 * p_ovl.boundary_cells_per_step());
            }
        }
    }

    #[test]
    fn overlapped_steps_record_hidden_comm_credit() {
        // Same kernel, same counters on every PE — but the split-phase
        // engine hides receive time behind measured interior compute, so it
        // records a positive per-PE credit and its modeled time is strictly
        // below the blocking plan's. Blocking engines record zero.
        let (mut m_blk, compiled, _) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let mut p_blk = ExecPlan::build(&mut m_blk, &compiled.node, &par()).unwrap();
        let (mut m_ovl, c2, _) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let mut p_ovl = ExecPlan::build(&mut m_ovl, &c2.node, &ovl(Backend::Interp)).unwrap();
        assert!(p_ovl.overlap_windows_per_step() > 0);
        for _ in 0..3 {
            p_blk.step(&mut m_blk);
            p_ovl.step(&mut m_ovl);
        }
        let st_blk = m_blk.stats();
        let st_ovl = m_ovl.stats();
        assert_eq!(st_blk.per_pe, st_ovl.per_pe, "counters stay engine-independent");
        assert!(st_blk.hidden_comm_ns.iter().all(|&h| h == 0.0));
        assert!(
            st_ovl.hidden_comm_ns.iter().all(|&h| h > 0.0),
            "every split PE hid some receive time: {:?}",
            st_ovl.hidden_comm_ns
        );
        let cost = hpf_runtime::CostModel::sp2();
        assert!(cost.modeled_time_ns(&st_ovl) < cost.modeled_time_ns(&st_blk));
        // The credit can never exceed what a receive actually costs.
        for (pe, s) in st_ovl.per_pe.iter().enumerate() {
            let recv_only = hpf_runtime::PeStats {
                msgs_recv: s.msgs_recv,
                bytes_recv: s.bytes_recv,
                ..Default::default()
            };
            assert!(st_ovl.hidden_comm_ns[pe] <= cost.pe_time_ns(&recv_only));
        }
    }

    #[test]
    fn window_degenerate_interior_takes_blocking_path() {
        // A 4-row space shrunk by 1 on each side over a 4x1 grid leaves a
        // single owned row per PE along dim 0 — factor alignment then
        // consumes the interior on every PE, so no window is fused and the
        // plan still steps correctly.
        let (mut m_seq, compiled, u) = setup(JACOBI, Stage::MemOpt, &[4, 1]);
        let mut p_seq = ExecPlan::build(&mut m_seq, &compiled.node, &ExecConfig::new()).unwrap();
        let (mut m_ovl, c2, _) = setup(JACOBI, Stage::MemOpt, &[4, 1]);
        let mut p_ovl = ExecPlan::build(&mut m_ovl, &c2.node, &ovl(Backend::Interp)).unwrap();
        assert_eq!(p_ovl.overlap_windows_per_step(), 0, "degenerate interiors: no window");
        for _ in 0..3 {
            p_seq.step(&mut m_seq);
            p_ovl.step(&mut m_ovl);
        }
        assert_eq!(m_seq.gather(u), m_ovl.gather(u));
        assert_eq!(m_seq.stats().per_pe, m_ovl.stats().per_pe);
    }

    #[test]
    fn traced_overlap_plan_spans_reproduce_hidden_credit() {
        // With tracing on, every overlap window records an Interior span
        // and one window-drain CommDrain span carrying the cost-model
        // attribution — summing the drains' hidden_ns per PE reproduces
        // the always-on hidden_comm_ns counters exactly.
        let (mut m, compiled, u) = setup(JACOBI16, Stage::MemOpt, &[2, 2]);
        let cfg = ovl(Backend::Bytecode).trace(true);
        let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        assert_eq!(plan.engine(), Engine::ThreadedOverlap);
        assert!(m.tracing_enabled());
        for _ in 0..3 {
            plan.step(&mut m);
        }
        let stats = m.stats();
        let summary = m.take_trace().summary();
        let derived = summary.hidden_comm_ns();
        assert_eq!(derived, stats.hidden_comm_ns, "trace-derived hidden == counter");
        assert!(derived.iter().all(|&h| h > 0.0));
        for pe in summary.pe_tracks() {
            assert!(pe.count(SpanKind::Interior) > 0, "{}", pe.name);
            assert!(pe.count(SpanKind::Boundary) > 0, "{}", pe.name);
            assert!(pe.count(SpanKind::CommPost) > 0, "{}", pe.name);
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
        assert_eq!(plan.kernel_execs_per_step(), 4, "one kernel per PE, no copy sweep");
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
        // (windowed, under the overlap engine) one. Every compiled plain
        // nest records a KernelExec span on its PE's track.
        let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N), S(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
S = T + 1
"#;
        for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
            let (mut m, compiled, u) = setup(src, Stage::MemOpt, &[2, 2]);
            assert_eq!(compiled.node.nest_count(), 2, "the copy nest survives");
            let cfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode).trace(true);
            let mut plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
            for _ in 0..2 {
                plan.step(&mut m);
            }
            assert_eq!(plan.aliases(), &Aliases::default(), "nothing rotated");
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
                for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
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
