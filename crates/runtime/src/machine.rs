//! The machine: PE states, distributed arrays, and data-movement operations.

use crate::cost::CostModel;
use crate::dist::{BlockDim, PeGrid};
use crate::error::RtError;
use crate::schedule::{
    regions_intersect, CommAction, CompiledComm, CompiledFill, CompiledTransfer, Geometry,
};
use crate::stats::{AggStats, PeStats};
use crate::subgrid::{row_values, CellInit, Subgrid};
use hpf_ir::{ArrayDecl, ArrayId, DimDist, Dims, Section, Shape};
use hpf_trace::{SpanKind, Trace, Tracer, Track};
use std::cell::RefCell;

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// PE mesh; rank must match the program's array rank.
    pub grid: PeGrid,
    /// Overlap-area width (ghost layers per side per dimension).
    pub halo: usize,
    /// Optional per-PE memory budget in bytes (Figure 11's 256 MB/PE).
    pub mem_budget: Option<usize>,
    /// Cost model used for modeled time.
    pub cost: CostModel,
}

impl MachineConfig {
    /// Builder entry point: a PE mesh with the defaults every other knob
    /// starts from (overlap width 1, no memory budget, SP-2 cost model).
    ///
    /// ```
    /// use hpf_runtime::{CostModel, MachineConfig};
    /// let cfg = MachineConfig::grid([2, 2]).memory_mb(256).cost(CostModel::sp2());
    /// assert_eq!(cfg.mem_budget, Some(256 << 20));
    /// ```
    pub fn grid(grid: impl Into<Vec<usize>>) -> Self {
        let grid: Vec<usize> = grid.into();
        MachineConfig { grid: PeGrid::new(grid), halo: 1, mem_budget: None, cost: CostModel::sp2() }
    }

    /// The paper's machine: a 4-processor SP-2 arranged 2×2, overlap width 1.
    pub fn sp2_2x2() -> Self {
        Self::grid([2, 2]).cost(CostModel::sp2())
    }

    /// Arbitrary grid with defaults (alias of [`MachineConfig::grid`], kept
    /// for source compatibility).
    pub fn with_grid(grid: impl Into<Vec<usize>>) -> Self {
        Self::grid(grid)
    }

    /// Set the overlap width.
    pub fn halo(mut self, halo: usize) -> Self {
        self.halo = halo;
        self
    }

    /// Set the per-PE memory budget.
    pub fn budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Set the per-PE memory budget in megabytes (Figure 11's 256 MB/PE).
    pub fn memory_mb(self, mb: usize) -> Self {
        self.budget(mb << 20)
    }

    /// Set the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

/// Metadata of an allocated distributed array.
#[derive(Clone, Debug)]
pub struct ArrayMeta {
    /// Name (diagnostics).
    pub name: String,
    /// Global shape.
    pub shape: Shape,
    /// Geometry (distribution arithmetic on the PE grid).
    pub geom: Geometry,
}

/// Working storage of the bytecode VM (`hpf-codegen`) on one PE, grown to
/// the largest kernel's need when a plan is built so that executing a kernel
/// allocates nothing: the scalar register file, the chunked executor's strip
/// file, and the `(storage, length)` table of the arrays a running kernel
/// names. Lent out by [`PeState::with_vm`] only.
#[derive(Clone, Debug, Default)]
pub struct VmScratch {
    regs: Vec<f64>,
    strips: Vec<f64>,
    arrs: Vec<(*mut f64, usize)>,
}

// SAFETY: `arrs` holds pointers only inside `PeState::with_vm`, which fills
// it from subgrids it has `&mut` to and empties it before returning (a panic
// in between leaves stale entries that the next call discards unread). A
// scratch that can be sent or cloned is therefore plain data.
unsafe impl Send for VmScratch {}

impl VmScratch {
    /// Make room for `regs` registers, `strips` strip cells and a table of
    /// `arrays` entries (never shrinks).
    pub fn reserve(&mut self, regs: usize, strips: usize, arrays: usize) {
        let grow = |v: &mut Vec<f64>, n: usize| v.resize(v.len().max(n), 0.0);
        grow(&mut self.regs, regs);
        grow(&mut self.strips, strips);
        self.arrs.clear();
        self.arrs.reserve(arrays);
    }
}

/// Per-PE mutable state: subgrids, counters, memory accounting.
#[derive(Clone, Debug)]
pub struct PeState {
    /// Linear PE index.
    pub pe: usize,
    /// Subgrids indexed by `ArrayId`.
    pub subgrids: Vec<Option<Subgrid>>,
    /// Execution counters.
    pub stats: PeStats,
    /// Currently allocated bytes.
    pub cur_bytes: usize,
    /// Peak allocated bytes.
    pub peak_bytes: usize,
    /// Span recorder for this PE's timeline ("PE n" track). Single writer:
    /// only the thread currently driving this PE (the sequential engine on
    /// the main thread, or this PE's worker under the threaded engine)
    /// records into it, so tracing needs no locks. Disabled (a no-op)
    /// unless [`Machine::enable_tracing`] was called.
    pub tracer: Tracer,
    /// The bytecode VM's working storage on this PE.
    pub vm: VmScratch,
}

impl PeState {
    /// Borrow a subgrid.
    pub fn subgrid(&self, id: ArrayId) -> &Subgrid {
        self.subgrids
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("array {id:?} not allocated on PE {}", self.pe))
    }

    /// Borrow a subgrid mutably.
    pub fn subgrid_mut(&mut self, id: ArrayId) -> &mut Subgrid {
        let pe = self.pe;
        self.subgrids
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("array {id:?} not allocated on PE {pe}"))
    }

    /// Lend the VM its storage for one kernel execution: `f(regs, strips,
    /// arrs)` with `regs` and `strips` zeroed cells of the asked lengths and
    /// `arrs[i]` the `(storage, length)` of array `arrays[i]`, valid for the
    /// call.
    pub fn with_vm<R>(
        &mut self,
        (regs, strips): (usize, usize),
        arrays: &[u32],
        f: impl FnOnce(&mut [f64], &mut [f64], &[(*mut f64, usize)]) -> R,
    ) -> R {
        let PeState { pe, subgrids, vm, .. } = self;
        vm.reserve(regs, strips, arrays.len());
        for &a in arrays {
            let sub = subgrids[a as usize].as_mut();
            let raw = sub.unwrap_or_else(|| panic!("array {a} not allocated on PE {pe}")).raw_mut();
            vm.arrs.push((raw.as_mut_ptr(), raw.len()));
        }
        let (regs, strips) = (&mut vm.regs[..regs], &mut vm.strips[..strips]);
        regs.fill(0.0);
        strips.fill(0.0);
        let out = f(regs, strips, &vm.arrs);
        vm.arrs.clear();
        out
    }

    /// Execute a same-PE transfer of `sched`: from box to box when
    /// [direct](CompiledTransfer::direct), else packed into `stage` (handed
    /// back empty) and unpacked. Records no span and counts nothing.
    pub fn copy_local(&mut self, sched: &CompiledComm, t: &CompiledTransfer, stage: &mut Vec<f64>) {
        let (src, dst) = (sched.src.0 as usize, sched.dst.0 as usize);
        if !t.direct {
            t.src.pack(self.subgrid(sched.src).raw(), stage);
            t.dst.unpack(self.subgrid_mut(sched.dst).raw_mut(), stage);
            stage.clear();
        } else if src == dst {
            t.src.copy_within(&t.dst, self.subgrid_mut(sched.dst).raw_mut());
        } else if let Ok([Some(from), Some(to)]) = self.subgrids.get_disjoint_mut([src, dst]) {
            t.src.copy_to(from.raw(), &t.dst, to.raw_mut());
        } else {
            panic!("array {:?} or {:?} not allocated on PE {}", sched.src, sched.dst, self.pe);
        }
    }

    /// Swap the storage of two arrays on this PE: `a` takes `b`'s subgrid
    /// and `b` takes `a`'s — a storage rotation, O(1) and moving no data.
    /// The plan checks their geometries once ([`Machine::check_same_geometry`]).
    pub fn swap_subgrids(&mut self, a: ArrayId, b: ArrayId) {
        self.subgrids.swap(a.0 as usize, b.0 as usize);
    }
}

/// How to account a data-movement plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveKind {
    /// Full shift: self-transfers are the intraprocessor component.
    FullShift,
    /// Overlap shift: self-transfers are local wrap copies into the halo.
    Overlap,
}

/// The simulated distributed-memory machine (sequential engine; the SPMD
/// threaded engine in `hpf-exec` reuses the same schedules and per-PE state).
#[derive(Clone, Debug)]
pub struct Machine {
    /// Configuration.
    pub cfg: MachineConfig,
    metas: Vec<Option<ArrayMeta>>,
    /// Per-PE state, indexed by linear PE id.
    pub pes: Vec<PeState>,
    /// Persistent schedules compiled so far (machine-wide).
    sched_built: u64,
    /// Executions of already-compiled schedules (machine-wide).
    sched_reuses: u64,
    /// Bytecode kernels compiled so far (machine-wide, per nest × PE).
    kernels_built: u64,
    /// Executions of already-compiled bytecode kernels (machine-wide).
    kernel_execs: u64,
    /// Auto-tuner cache hits credited to this machine's run.
    tune_hits: u64,
    /// Auto-tuner cache misses (full searches) credited to this run.
    tune_misses: u64,
    /// Wall nanoseconds the auto-tuner spent resolving this run's config.
    tune_search_ns: u64,
    /// Halo exchanges elided by superstep schedules (machine-wide).
    exchanges_elided: u64,
    /// Points redundantly recomputed by trapezoid sub-step sweeps.
    redundant_cells: u64,
    /// Span recorder for driver-side work (schedule builds, kernel
    /// compiles, step envelopes) — the "driver" track.
    driver_tracer: Tracer,
    /// Staging of [`Machine::apply_compiled`]: empty between transfers,
    /// with room for the largest staged one of any schedule executed here.
    stage: Vec<f64>,
}

thread_local! {
    /// Array storage of the machines dropped on this thread, oldest first,
    /// kept for the next ones built here. A plan rebuilt for the same problem
    /// (a tuner's candidates, a driver's set-up repetitions) takes its arrays
    /// back instead of freeing them and asking again: what an allocator is
    /// given back it either unmaps, so the rebuild pays the page faults, or
    /// keeps as a hole the next request must fit exactly and, after any small
    /// allocation in between, no longer does. Blocks of [`SPARE_MIN`] cells
    /// and more only, kept empty: the array that takes one back writes each
    /// of its cells once ([`Subgrid::with_storage`]). A dropped machine's
    /// blocks join the list, which then gives up its oldest until it holds at
    /// most its cap: twice the large storage of the largest machine dropped
    /// here. So set-ups that cycle through machines of several sizes keep
    /// the blocks of all of them.
    static SPARE: RefCell<(Vec<Vec<f64>>, usize)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Storage below this many cells (1 MiB) goes back to the allocator; an
/// array of this many cells or more is written on every core.
const SPARE_MIN: usize = 1 << 17;

/// Storage for `len` cells, for [`Subgrid::with_storage`]: an empty spare
/// block with room for about that many if there is one, else a new
/// allocation, of `len` zeros when `zeroed` (which the allocator hands out
/// unwritten) or empty. Always taken on the thread that builds the machine:
/// what a writing thread allocated would come from that thread's heap.
fn storage(len: usize, zeroed: bool) -> Vec<f64> {
    let spare = SPARE.with(|spare| {
        let (spare, _) = &mut *spare.borrow_mut();
        let suits = |b: &Vec<f64>| b.capacity() >= len && b.capacity() - len <= len / 16;
        spare.iter().position(suits).map(|i| spare.remove(i))
    });
    spare.unwrap_or_else(|| if zeroed { vec![0.0; len] } else { Vec::with_capacity(len) })
}

/// `make(pe, block)` of every job on `threads` threads, the calling thread
/// one of them: the subgrids in job order. A panic in `make` is raised
/// again here once every thread has stopped.
fn write_blocks(
    mut jobs: Vec<(usize, Vec<f64>)>,
    threads: usize,
    make: impl Fn(usize, Vec<f64>) -> Subgrid + Sync,
) -> Vec<Subgrid> {
    let make = &make;
    let n = jobs.len();
    std::thread::scope(|s| {
        let shares: Vec<_> = (1..threads)
            .rev()
            .map(|t| jobs.split_off(t * n / threads))
            .map(|share| s.spawn(move || share.into_iter().map(|(pe, b)| make(pe, b)).collect()))
            .collect();
        let mut subs: Vec<Subgrid> = jobs.into_iter().map(|(pe, b)| make(pe, b)).collect();
        for share in shares.into_iter().rev() {
            match share.join() {
                Ok(more) => subs.extend::<Vec<_>>(more),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        subs
    })
}

impl Drop for Machine {
    /// Leave the large arrays to the next machine built on this thread.
    fn drop(&mut self) {
        let subgrids = self.pes.iter_mut().flat_map(|pe| pe.subgrids.iter_mut().flatten());
        let mut blocks: Vec<Vec<f64>> = subgrids.map(Subgrid::take_storage).collect();
        blocks.retain_mut(|b| {
            b.clear();
            b.capacity() >= SPARE_MIN
        });
        let twice = 2 * blocks.iter().map(Vec::capacity).sum::<usize>();
        // A thread's last machine may outlive the thread's list.
        let _ = SPARE.try_with(|spare| {
            let (spare, cap) = &mut *spare.borrow_mut();
            *cap = twice.max(*cap);
            spare.extend(blocks);
            let mut held: usize = spare.iter().map(Vec::capacity).sum();
            while held > *cap {
                held -= spare.remove(0).capacity();
            }
        });
    }
}

impl Machine {
    /// Build a machine with no arrays allocated.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.grid.num_pes();
        let pes = (0..n)
            .map(|pe| PeState {
                pe,
                subgrids: Vec::new(),
                stats: PeStats::default(),
                cur_bytes: 0,
                peak_bytes: 0,
                tracer: Tracer::disabled(),
                vm: VmScratch::default(),
            })
            .collect();
        Machine {
            cfg,
            metas: Vec::new(),
            pes,
            sched_built: 0,
            sched_reuses: 0,
            kernels_built: 0,
            kernel_execs: 0,
            tune_hits: 0,
            tune_misses: 0,
            tune_search_ns: 0,
            exchanges_elided: 0,
            redundant_cells: 0,
            driver_tracer: Tracer::disabled(),
            stage: Vec::new(),
        }
    }

    /// Turn on span recording: the driver tracer and every PE's tracer get
    /// an empty per-kind fold and, when `timeline` is set, a freshly
    /// preallocated event ring. Until this is called, every tracer is a
    /// no-op and instrumented code paths cost a single branch.
    pub fn enable_tracing(&mut self, timeline: bool) {
        self.driver_tracer.enable(timeline);
        for p in &mut self.pes {
            p.tracer.enable(timeline);
        }
    }

    /// Whether a span timeline is being kept ([`Machine::take_trace`]
    /// has something to return).
    pub fn tracing_enabled(&self) -> bool {
        self.driver_tracer.has_timeline()
    }

    /// The driver-side tracer (schedule builds, kernel compiles, step
    /// envelopes). Executors above this crate record driver-side spans
    /// through this.
    pub fn driver_tracer(&mut self) -> &mut Tracer {
        &mut self.driver_tracer
    }

    /// Collect everything recorded so far into a [`Trace`] — the "driver"
    /// track followed by one track per PE — and reset the rings (tracers
    /// stay enabled, so stepping on records a fresh timeline).
    pub fn take_trace(&mut self) -> Trace {
        let mut tracks = Vec::with_capacity(self.pes.len() + 1);
        let (events, dropped) = self.driver_tracer.drain();
        tracks.push(Track { name: "driver".to_string(), events, dropped });
        for p in &mut self.pes {
            let (events, dropped) = p.tracer.drain();
            tracks.push(Track { name: format!("PE {}", p.pe), events, dropped });
        }
        Trace { tracks }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.cfg.grid.num_pes()
    }

    /// Geometry for a declaration on this machine.
    pub fn geometry_for(&self, decl: &ArrayDecl) -> Result<Geometry, RtError> {
        if decl.rank() != self.cfg.grid.rank() {
            return Err(RtError::RankMismatch {
                machine: self.cfg.grid.rank(),
                array: decl.rank(),
            });
        }
        let mut dims = Dims::new();
        for d in 0..decl.rank() {
            let p = match decl.dist.dim(d) {
                DimDist::Block => self.cfg.grid.dims[d],
                DimDist::Collapsed => {
                    if self.cfg.grid.dims[d] != 1 {
                        return Err(RtError::BadDistribution(format!(
                            "array {}: collapsed dim {} on a grid axis of {} PEs",
                            decl.name,
                            d + 1,
                            self.cfg.grid.dims[d]
                        )));
                    }
                    1
                }
            };
            dims.push(BlockDim::new(decl.shape.extent(d), p));
        }
        Ok(Geometry::new(dims, self.cfg.grid))
    }

    /// Allocate a distributed array of zeros ([`Machine::alloc_init`]
    /// without an initializer).
    pub fn alloc(&mut self, id: ArrayId, decl: &ArrayDecl) -> Result<(), RtError> {
        self.alloc_init(id, decl, None)
    }

    /// Allocate a distributed array, writing each cell of every PE's block
    /// once: an owned cell gets `init` of its 1-based global coordinates, a
    /// ghost cell `0.0`; without `init` every cell is `0.0`. All-or-nothing:
    /// fails without side effects when any PE would exceed its memory budget.
    ///
    /// An array of 2^17 cells (1 MiB) or more is written on one thread per
    /// core, up to one per PE, the calling thread among them: `init` may run
    /// on several threads at once, once per owned point, in no fixed PE
    /// order. A panic in `init` propagates once every thread has stopped.
    pub fn alloc_init(
        &mut self,
        id: ArrayId,
        decl: &ArrayDecl,
        init: Option<&CellInit>,
    ) -> Result<(), RtError> {
        let idx = id.0 as usize;
        if self.metas.len() > idx && self.metas[idx].is_some() {
            return Err(RtError::AlreadyAllocated(decl.name.clone()));
        }
        let geom = self.geometry_for(decl)?;
        // The halo must fit every PE's block: a ghost region deeper than
        // the smallest owned extent along a dimension cannot be filled by
        // one neighbor exchange (the data lives two or more PEs away), so
        // deep-halo (superstep) configurations that overshoot the block
        // size fail here instead of silently mis-filling ghost cells.
        for d in 0..geom.dims.len() {
            let min_ext = (0..self.num_pes())
                .map(|pe| {
                    let (lo, hi) = geom.owned(pe)[d];
                    (hi - lo + 1).max(0) as usize
                })
                .filter(|&e| e > 0)
                .min();
            if let Some(extent) = min_ext {
                if self.cfg.halo > extent {
                    return Err(RtError::HaloTooDeep { halo: self.cfg.halo, dim: d, extent });
                }
            }
        }
        // Pre-check that a strided box can address every subgrid (under
        // 2^32 cells), and the budgets.
        let (limit, halo, pes) = (u32::MAX as usize, self.cfg.halo, self.num_pes());
        let len = |pe| Subgrid::storage_bytes(&geom.extents(pe), halo) / size_of::<f64>();
        let mut total = 0;
        for pe in 0..pes {
            let cells = len(pe);
            if cells > limit {
                return Err(RtError::SubgridTooLarge { pe, cells, limit });
            }
            total += cells;
            let bytes = cells * size_of::<f64>();
            let (needed, budget) =
                (self.pes[pe].cur_bytes.saturating_add(bytes), self.cfg.mem_budget);
            if let Some(budget) = budget.filter(|&b| needed > b) {
                return Err(RtError::MemoryExhausted { pe, needed, budget });
            }
        }
        if self.metas.len() <= idx {
            self.metas.resize(idx + 1, None);
        }
        let make =
            |pe, block| Subgrid::with_storage(Section::new(geom.owned(pe)), halo, block, init);
        let threads = if total >= SPARE_MIN { crate::cores().min(pes) } else { 1 };
        if threads > 1 {
            let jobs = (0..pes).map(|pe| (pe, storage(len(pe), init.is_none()))).collect();
            for (pe, sub) in write_blocks(jobs, threads, make).into_iter().enumerate() {
                self.place(idx, pe, sub);
            }
        } else {
            for pe in 0..pes {
                let sub = make(pe, storage(len(pe), init.is_none()));
                self.place(idx, pe, sub);
            }
        }
        self.metas[idx] = Some(ArrayMeta { name: decl.name.clone(), shape: decl.shape, geom });
        Ok(())
    }

    /// Install PE `pe`'s block of array `idx` and account for it.
    fn place(&mut self, idx: usize, pe: usize, sub: Subgrid) {
        let st = &mut self.pes[pe];
        st.cur_bytes += sub.bytes();
        st.peak_bytes = st.peak_bytes.max(st.cur_bytes);
        st.stats.allocs += 1;
        if st.subgrids.len() <= idx {
            st.subgrids.resize(idx + 1, None);
        }
        st.subgrids[idx] = Some(sub);
    }

    /// Free a distributed array.
    pub fn free(&mut self, id: ArrayId) {
        let idx = id.0 as usize;
        if self.metas.get(idx).is_none_or(|m| m.is_none()) {
            return;
        }
        for st in &mut self.pes {
            if let Some(sub) = st.subgrids[idx].take() {
                st.cur_bytes -= sub.bytes();
            }
        }
        self.metas[idx] = None;
    }

    /// True when the array is allocated.
    pub fn is_allocated(&self, id: ArrayId) -> bool {
        self.metas.get(id.0 as usize).is_some_and(|m| m.is_some())
    }

    /// Metadata of an allocated array.
    pub fn meta(&self, id: ArrayId) -> &ArrayMeta {
        self.metas[id.0 as usize].as_ref().unwrap_or_else(|| panic!("array {id:?} not allocated"))
    }

    /// Overwrite every element of an allocated array from a function of the
    /// global coordinates, leaving ghost cells as they are. `f` sees every
    /// point exactly once, each PE's block in row-major order.
    pub fn fill(&mut self, id: ArrayId, f: impl Fn(&[i64]) -> f64) {
        for pe in &mut self.pes {
            let sub = pe.subgrid_mut(id);
            let rows = sub.owned_rows();
            let data = sub.raw_mut();
            rows.for_each(|point, flat, len| {
                for (cell, v) in data[flat..flat + len].iter_mut().zip(row_values(point, len, &f)) {
                    *cell = v;
                }
            });
        }
    }

    /// Read one element by global coordinates.
    pub fn get(&self, id: ArrayId, point: &[i64]) -> f64 {
        let geom = &self.meta(id).geom;
        let pe = self.owner_pe(geom, point);
        self.pes[pe].subgrid(id).get_global(point)
    }

    /// Write one element by global coordinates.
    pub fn set(&mut self, id: ArrayId, point: &[i64], v: f64) {
        let geom = self.meta(id).geom;
        let pe = self.owner_pe(&geom, point);
        self.pes[pe].subgrid_mut(id).set_global(point, v);
    }

    fn owner_pe(&self, geom: &Geometry, point: &[i64]) -> usize {
        let coords: Vec<usize> = point
            .iter()
            .zip(&geom.dims)
            .map(|(&i, b)| b.owner(i).expect("point out of bounds"))
            .collect();
        geom.grid.linear(&coords)
    }

    /// Gather an array into a dense global row-major buffer.
    pub fn gather(&self, id: ArrayId) -> Vec<f64> {
        let shape = &self.meta(id).shape;
        let mut out = vec![0.0; shape.len()];
        let strides = row_major_strides(shape);
        for pe in &self.pes {
            let sub = pe.subgrid(id);
            sub.owned_rows().for_each(|point, flat, len| {
                let at = dense_index(point, &strides);
                out[at..at + len].copy_from_slice(&sub.raw()[flat..flat + len]);
            });
        }
        out
    }

    /// Scatter a dense global row-major buffer into a distributed array.
    pub fn scatter(&mut self, id: ArrayId, data: &[f64]) {
        let shape = &self.meta(id).shape;
        assert_eq!(data.len(), shape.len());
        let strides = row_major_strides(shape);
        for pe in &mut self.pes {
            let sub = pe.subgrid_mut(id);
            let rows = sub.owned_rows();
            let raw = sub.raw_mut();
            rows.for_each(|point, flat, len| {
                let at = dense_index(point, &strides);
                raw[flat..flat + len].copy_from_slice(&data[at..at + len]);
            });
        }
    }

    /// Overwrite the ghost cells of every allocated subgrid with `value`,
    /// leaving owned elements untouched. Test instrumentation for the
    /// overlap-coverage invariant: poison the halos, run one communication +
    /// compute step, and any ghost element the schedules failed to fill
    /// before a loop nest read it shows up as `value` contaminating the
    /// output.
    pub fn poison_halos(&mut self, value: f64) {
        for st in &mut self.pes {
            for sub in st.subgrids.iter_mut().flatten() {
                sub.poison_halo(value);
            }
        }
    }

    /// Compile a communication plan against the allocated subgrids into a
    /// persistent schedule: every region is resolved into a strided box, and
    /// the plan is dropped. Executing the result via
    /// [`Machine::apply_compiled`] performs zero subgrid coordinate math and,
    /// with staging reserved, zero allocation.
    ///
    /// # Panics
    ///
    /// When `src` and `dst` differ in geometry, or a transfer's two regions
    /// in shape.
    pub fn compile_comm(
        &mut self,
        dst: ArrayId,
        src: ArrayId,
        plan: Vec<CommAction>,
        kind: MoveKind,
    ) -> CompiledComm {
        let t0 = self.driver_tracer.now();
        self.check_same_geometry(src, dst, "cannot share a schedule")
            .unwrap_or_else(|e| panic!("{e}"));
        let geom = self.meta(src).geom;
        let mut transfers = Vec::new();
        let mut fills = Vec::new();
        for action in plan {
            match action {
                CommAction::Transfer(t) => {
                    let from = self.pes[t.src_pe].subgrid(src).region_box(&t.src_local);
                    let to = self.pes[t.dst_pe].subgrid(dst).region_box(&t.dst_local);
                    assert!(from.congruent(&to), "transfer between regions of unlike shape: {t:?}");
                    let clobbers = src == dst && regions_intersect(&t.src_local, &t.dst_local);
                    transfers.push(CompiledTransfer {
                        src_pe: t.src_pe,
                        dst_pe: t.dst_pe,
                        src: from,
                        dst: to,
                        direct: t.src_pe == t.dst_pe && !clobbers,
                    });
                }
                CommAction::Fill { pe, local, value } => fills.push(CompiledFill {
                    pe,
                    region: self.pes[pe].subgrid(dst).region_box(&local),
                    value,
                }),
            }
        }
        let halo = self.pes[0].subgrid(src).halo;
        self.sched_built += 1;
        self.driver_tracer.record(SpanKind::ScheduleBuild, t0);
        CompiledComm { dst, src, kind, transfers, fills, geom, halo }
    }

    /// Make room to stage `bytes` of one message in [`Machine::apply_compiled`].
    /// A plan built for the sequential engine does it once; a machine stepped
    /// by the threaded engine, which never comes through there, holds none.
    pub fn reserve_staging(&mut self, bytes: usize) {
        self.stage.reserve_exact(bytes / std::mem::size_of::<f64>());
    }

    /// Execute a persistent schedule and count it: [`Machine::run_compiled`]
    /// plus the schedule's [credit](CompiledComm::credit) and one reuse.
    pub fn apply_compiled(&mut self, sched: &CompiledComm) {
        self.run_compiled(sched);
        sched.credit(|pe, counts| self.pes[pe].stats.merge(counts));
        self.sched_reuses += 1;
    }

    /// Execute a persistent schedule, counting nothing: copy each same-PE
    /// transfer from box to box (one `Pack` span), stage each message
    /// through this machine's buffer (`Pack` on the sender, `Unpack` on the
    /// receiver), apply fills. A plan step runs its schedules through here
    /// and credits what they move once per step. Grows the buffer if
    /// [`Machine::reserve_staging`] has not made enough room.
    pub fn run_compiled(&mut self, sched: &CompiledComm) {
        self.reserve_staging(sched.pooled_bytes());
        for t in &sched.transfers {
            let sender = &mut self.pes[t.src_pe];
            let t0 = sender.tracer.now();
            if t.src_pe == t.dst_pe {
                sender.copy_local(sched, t, &mut self.stage);
                sender.tracer.record(SpanKind::Pack, t0);
                continue;
            }
            t.src.pack(sender.subgrid(sched.src).raw(), &mut self.stage);
            sender.tracer.record(SpanKind::Pack, t0);
            let receiver = &mut self.pes[t.dst_pe];
            let t0 = receiver.tracer.now();
            t.dst.unpack(receiver.subgrid_mut(sched.dst).raw_mut(), &self.stage);
            receiver.tracer.record(SpanKind::Unpack, t0);
            self.stage.clear();
        }
        for f in &sched.fills {
            f.region.fill(self.pes[f.pe].subgrid_mut(sched.dst).raw_mut(), f.value);
        }
    }

    /// Record schedule executions performed outside [`Machine::apply_compiled`]
    /// (a plan step runs its schedules uncounted, on either engine, and
    /// credits the reuses here once per step).
    pub fn note_schedule_reuses(&mut self, n: u64) {
        self.sched_reuses += n;
    }

    /// Record bytecode-kernel compilations a plan build performed (one per
    /// nest and subgrid layout; the kernels themselves live in `hpf-exec`).
    pub fn note_kernels_compiled(&mut self, n: u64) {
        self.kernels_built += n;
    }

    /// Record executions of already-compiled bytecode kernels (one nest
    /// sweep on one PE each). The threaded engine runs kernels on worker
    /// threads and credits the executions here, like schedule reuses.
    pub fn note_kernel_execs(&mut self, n: u64) {
        self.kernel_execs += n;
    }

    /// Record superstep work performed by the executors: per executed
    /// superstep of depth `k`, the `(k-1) * comms` halo exchanges the
    /// classic schedule would have issued but the deep-halo schedule did
    /// not, and the points the trapezoid sub-step sweeps recomputed
    /// redundantly (outside the owning PE's region). Credited by the plan
    /// driver after the step, like [`Machine::note_kernel_execs`].
    pub fn note_superstep(&mut self, exchanges_elided: u64, redundant_cells: u64) {
        self.exchanges_elided += exchanges_elided;
        self.redundant_cells += redundant_cells;
    }

    /// Record an auto-tuner resolution against this machine: how the
    /// configuration lookup went (cache `hits`/`misses`) and the wall
    /// nanoseconds the search took. Called by the planning layer after it
    /// resolves `ExecConfig::auto()` through `hpf-tune`, so the cost of
    /// choosing the configuration shows up in [`AggStats`] next to the
    /// cost of running it.
    pub fn note_tune(&mut self, hits: u64, misses: u64, search_ns: u64) {
        self.tune_hits += hits;
        self.tune_misses += misses;
        self.tune_search_ns += search_ns;
    }

    /// Check that two allocated arrays have the same geometry, so every PE
    /// holds the same block of both in subgrids of one layout: what a storage
    /// rotation ([`PeState::swap_subgrids`]) needs of its two arrays, a loop
    /// nest of every array it accesses, and a schedule of its source and
    /// destination. `what` says which, as in "cannot share a loop nest".
    pub fn check_same_geometry(&self, a: ArrayId, b: ArrayId, what: &str) -> Result<(), RtError> {
        let (ma, mb) = (self.meta(a), self.meta(b));
        if ma.geom != mb.geom {
            return Err(RtError::BadDistribution(format!(
                "{} and {} {what}: different shapes or distributions",
                ma.name, mb.name
            )));
        }
        Ok(())
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> AggStats {
        AggStats {
            per_pe: self.pes.iter().map(|p| p.stats).collect(),
            peak_bytes: self.pes.iter().map(|p| p.peak_bytes).collect(),
            schedules_built: self.sched_built,
            schedule_reuses: self.sched_reuses,
            kernels_compiled: self.kernels_built,
            kernel_execs: self.kernel_execs,
            tune_cache_hits: self.tune_hits,
            tune_cache_misses: self.tune_misses,
            tune_search_ns: self.tune_search_ns,
            exchanges_elided: self.exchanges_elided,
            redundant_cells: self.redundant_cells,
        }
    }

    /// Reset all counters (memory peaks and schedule counters included).
    pub fn reset_stats(&mut self) {
        for p in &mut self.pes {
            p.stats = PeStats::default();
            p.peak_bytes = p.cur_bytes;
        }
        self.sched_built = 0;
        self.sched_reuses = 0;
        self.kernels_built = 0;
        self.kernel_execs = 0;
        self.tune_hits = 0;
        self.tune_misses = 0;
        self.tune_search_ns = 0;
        self.exchanges_elided = 0;
        self.redundant_cells = 0;
    }

    /// Modeled execution time of the counters so far, in milliseconds.
    pub fn modeled_time_ms(&self) -> f64 {
        self.cfg.cost.modeled_time_ms(&self.stats())
    }
}

/// Index of a 1-based global point in a dense row-major buffer.
fn dense_index(point: &[i64], strides: &[usize]) -> usize {
    point.iter().zip(strides).map(|(&p, &s)| (p - 1) as usize * s).sum()
}

/// Row-major strides of a shape.
pub fn row_major_strides(shape: &Shape) -> Vec<usize> {
    let r = shape.rank();
    let mut s = vec![1usize; r];
    for d in (0..r.saturating_sub(1)).rev() {
        s[d] = s[d + 1] * shape.extent(d + 1);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{cshift_plan, overlap_shift_plan};
    use hpf_ir::{Distribution, ShiftKind};

    fn decl(name: &str, n: usize) -> ArrayDecl {
        ArrayDecl::user(name, Shape::new([n, n]), Distribution::block(2))
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::sp2_2x2())
    }

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);

    /// `dst = CSHIFT(src, SHIFT=s, DIM=d)` (or `EOSHIFT`) the way a plan
    /// moves data: a schedule compiled from the shift's plan, then applied
    /// and counted.
    fn shift(m: &mut Machine, dst: ArrayId, src: ArrayId, s: i64, d: usize, kind: ShiftKind) {
        let plan = cshift_plan(&m.meta(src).geom.clone(), s, d, kind);
        let sched = m.compile_comm(dst, src, plan, MoveKind::FullShift);
        m.apply_compiled(&sched);
    }

    /// `CALL OVERLAP_SHIFT(id, SHIFT=s, DIM=d)` the same way.
    fn ghost_shift(
        m: &mut Machine,
        id: ArrayId,
        s: i64,
        d: usize,
        kind: ShiftKind,
    ) -> Result<(), RtError> {
        let plan = overlap_shift_plan(&m.meta(id).geom.clone(), s, d, None, kind, m.cfg.halo)?;
        let sched = m.compile_comm(id, id, plan, MoveKind::Overlap);
        m.apply_compiled(&sched);
        Ok(())
    }

    #[test]
    fn alloc_free_accounting() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        assert!(m.is_allocated(U));
        // 8x8 over 2x2: subgrid 4x4 halo 1 -> 6x6 = 36 elems = 288 bytes.
        assert_eq!(m.pes[0].cur_bytes, 288);
        m.alloc(T, &decl("T", 8)).unwrap();
        assert_eq!(m.pes[0].cur_bytes, 576);
        assert_eq!(m.pes[0].peak_bytes, 576);
        m.free(U);
        assert!(!m.is_allocated(U));
        assert_eq!(m.pes[0].cur_bytes, 288);
        assert_eq!(m.pes[0].peak_bytes, 576, "peak persists");
        assert_eq!(m.stats().per_pe[0].allocs, 2);
    }

    #[test]
    fn double_alloc_fails() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        assert!(matches!(m.alloc(U, &decl("U", 8)), Err(RtError::AlreadyAllocated(_))));
    }

    #[test]
    fn budget_exhaustion() {
        let mut m = Machine::new(MachineConfig::sp2_2x2().budget(500));
        m.alloc(U, &decl("U", 8)).unwrap(); // 288 bytes/PE
        let err = m.alloc(T, &decl("T", 8)).unwrap_err();
        assert!(matches!(err, RtError::MemoryExhausted { needed: 576, budget: 500, .. }));
        // All-or-nothing: T not partially allocated.
        assert!(!m.is_allocated(T));
        assert_eq!(m.pes[0].cur_bytes, 288);
    }

    #[test]
    fn a_subgrid_no_strided_box_can_address_is_refused_before_allocating() {
        // 70 000² cells on one PE: past the 2^32 cells a box's u32 strides
        // reach, refused without a budget and without touching memory.
        let mut m = Machine::new(MachineConfig::grid([1, 1]));
        let huge = ArrayDecl::user("U", Shape::new([70_000, 70_000]), Distribution::block(2));
        let err = m.alloc(U, &huge).unwrap_err();
        let cells = 70_002 * 70_002;
        assert!(matches!(err, RtError::SubgridTooLarge { pe: 0, cells: c, .. } if c == cells));
        assert!(!m.is_allocated(U) && m.pes[0].cur_bytes == 0);
    }

    #[test]
    fn halo_deeper_than_block_extent_is_rejected() {
        // 8x8 over 2x2: block extent 4. A depth-4 halo still fits (each
        // ghost layer is fillable from the one adjacent neighbor); depth 5
        // would need data from two PEs away and is rejected at alloc time.
        let mut ok = Machine::new(MachineConfig::sp2_2x2().halo(4));
        ok.alloc(U, &decl("U", 8)).unwrap();
        let mut m = Machine::new(MachineConfig::sp2_2x2().halo(5));
        let err = m.alloc(U, &decl("U", 8)).unwrap_err();
        assert_eq!(err, RtError::HaloTooDeep { halo: 5, dim: 0, extent: 4 });
        assert!(!m.is_allocated(U), "rejected alloc leaves no state behind");
        // Uneven blocks: 5 over 4 PEs gives extents 2,2,1,0 -> min
        // non-empty extent 1, so a depth-2 halo cannot be filled there.
        let mut u = Machine::new(MachineConfig::grid([4]).halo(2));
        let d1 = ArrayDecl::user("V", Shape::new([5]), Distribution::block(1));
        let err = u.alloc(U, &d1).unwrap_err();
        assert_eq!(err, RtError::HaloTooDeep { halo: 2, dim: 0, extent: 1 });
    }

    #[test]
    fn note_superstep_accumulates_and_resets() {
        let mut m = machine();
        m.note_superstep(6, 240);
        m.note_superstep(6, 240);
        let agg = m.stats();
        assert_eq!(agg.exchanges_elided, 12);
        assert_eq!(agg.redundant_cells, 480);
        m.reset_stats();
        assert_eq!(m.stats().exchanges_elided, 0);
        assert_eq!(m.stats().redundant_cells, 0);
    }

    #[test]
    fn rank_and_distribution_validation() {
        let mut m = machine();
        let bad_rank = ArrayDecl::user("A", Shape::new([8]), Distribution::block(1));
        assert!(matches!(m.alloc(U, &bad_rank), Err(RtError::RankMismatch { .. })));
        let bad_dist = ArrayDecl::user(
            "B",
            Shape::new([8, 8]),
            Distribution([DimDist::Block, DimDist::Collapsed].into()),
        );
        assert!(matches!(m.alloc(U, &bad_dist), Err(RtError::BadDistribution(_))));
        // (BLOCK,*) works on a (4,1) grid.
        let mut m2 = Machine::new(MachineConfig::with_grid([4, 1]));
        assert!(m2.alloc(U, &bad_dist).is_ok());
    }

    #[test]
    fn fill_get_set_gather_scatter() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.fill(U, |p| (p[0] * 10 + p[1]) as f64);
        assert_eq!(m.get(U, &[3, 7]), 37.0);
        m.set(U, &[3, 7], -1.0);
        assert_eq!(m.get(U, &[3, 7]), -1.0);
        let g = m.gather(U);
        assert_eq!(g.len(), 64);
        assert_eq!(g[(3 - 1) * 8 + (7 - 1)], -1.0);
        assert_eq!(g[0], 11.0);
        let mut m2 = machine();
        m2.alloc(T, &decl("T", 8)).unwrap();
        // T has id 1; alloc only T.
        m2.scatter(T, &g);
        assert_eq!(m2.get(T, &[3, 7]), -1.0);

        // An initialized alloc writes what alloc + fill write, bit for bit:
        // ranks 1 to 3, halos 0 to 3, a PE with an empty block (5 over 4 is
        // 2 + 2 + 1 + 0), and arrays on both sides of `SPARE_MIN` cells, the
        // large ones (written on every core) in the spare blocks of a dropped
        // array of -1.0 with NaN ghosts.
        let init = |p: &[i64]| p.iter().fold(0.5, |acc, &i| acc * 1.75 + i as f64);
        let cases: [(&[usize], &[usize], &[usize]); 8] = [
            (&[15], &[4], &[0, 1, 2, 3]),
            (&[5], &[4], &[0, 1]),
            (&[8, 8], &[2, 2], &[0, 1, 2, 3]),
            (&[9, 5], &[4, 1], &[0, 1]),
            (&[12, 10, 9], &[2, 2, 1], &[0, 1, 2, 3]),
            (&[5, 7, 3], &[4, 2, 1], &[0, 1]),
            (&[600_000], &[4], &[0, 3]),
            (&[800, 700], &[2, 2], &[1, 3]),
        ];
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for (shape, grid, halos) in cases {
            let shape = Shape::new(shape.to_vec());
            let decl = ArrayDecl::user("U", shape, Distribution::block(shape.rank()));
            let dense: Vec<f64> = Section::full(&shape).points().map(|p| init(&p)).collect();
            for &halo in halos {
                let what = format!("{shape:?} on {grid:?}, halo {halo}");
                let cfg = MachineConfig::grid(grid.to_vec()).halo(halo);
                let large = shape.len() >= 4 * SPARE_MIN;
                // The spare blocks a dropped array leaves, or `None` for a
                // small one: those go back to the allocator.
                let stale = || {
                    let mut m = Machine::new(cfg.clone());
                    m.alloc(U, &decl).unwrap();
                    m.fill(U, |_| -1.0);
                    m.poison_halos(f64::NAN);
                    drop(m);
                    large.then(|| SPARE.with(|s| s.borrow().0.iter().map(|b| b.as_ptr()).collect()))
                };
                let taken = |m: &Machine, spare: Option<Vec<_>>| {
                    spare.is_none_or(|s| {
                        m.pes.iter().all(|pe| s.contains(&pe.subgrid(U).raw().as_ptr()))
                    })
                };
                let spare = stale();
                let mut want = Machine::new(cfg.clone());
                want.alloc(U, &decl).unwrap();
                assert!(taken(&want, spare), "{what}: spare blocks");
                for pe in &want.pes {
                    assert!(pe.subgrid(U).raw().iter().all(|c| c.to_bits() == 0), "{what}: zeros");
                }
                want.fill(U, init);
                let spare = stale();
                let mut m = Machine::new(cfg.clone());
                m.alloc_init(U, &decl, Some(&init)).unwrap();
                assert!(taken(&m, spare), "{what}: spare blocks");
                assert_eq!(bits(&m.gather(U)), bits(&dense), "{what}: gather");
                for (got, want) in m.pes.iter().zip(&want.pes) {
                    let (sub, pe) = (got.subgrid(U), got.pe);
                    assert_eq!(
                        sub.owned,
                        Section::new(m.meta(U).geom.owned(pe)),
                        "{what}: PE {pe}"
                    );
                    assert_eq!(bits(sub.raw()), bits(want.subgrid(U).raw()), "{what}: PE {pe}");
                    let mut owned = vec![false; sub.raw().len()];
                    sub.owned_rows().for_each(|_, flat, len| owned[flat..flat + len].fill(true));
                    let mut ghosts = sub.raw().iter().zip(owned).filter(|&(_, o)| !o);
                    assert!(ghosts.all(|(c, _)| c.to_bits() == 0), "{what}: PE {pe} ghosts");
                }
            }
        }
    }

    #[test]
    fn whole_array_walks_visit_every_point_once_in_row_major_order() {
        // Rank 3, uneven blocks: 5 rows over 4 PEs is 2 + 2 + 1 + 0 (the last
        // PE row owns nothing), 7 columns over 2 is 4 + 3.
        let shape = Shape::new([5, 7, 3]);
        let mut m = Machine::new(MachineConfig::with_grid(vec![4, 2, 1]));
        m.alloc(U, &ArrayDecl::user("U", shape, Distribution::block(3))).unwrap();
        let seen = std::cell::RefCell::new(Vec::new());
        m.fill(U, |p| {
            seen.borrow_mut().push(p.to_vec());
            (p[0] * 100 + p[1] * 10 + p[2]) as f64
        });
        let mut seen = seen.into_inner();
        assert_eq!(seen.len(), 105);
        let block_order: Vec<Vec<i64>> = (0..m.num_pes())
            .flat_map(|pe| m.pes[pe].subgrid(U).owned.points().collect::<Vec<_>>())
            .collect();
        assert_eq!(seen, block_order, "each PE's block in row-major order");
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 105, "no point twice");
        for p in Section::full(&shape).points() {
            assert_eq!(m.get(U, &p), (p[0] * 100 + p[1] * 10 + p[2]) as f64);
        }
        let dense = m.gather(U);
        let want: Vec<f64> = Section::full(&shape)
            .points()
            .map(|p| (p[0] * 100 + p[1] * 10 + p[2]) as f64)
            .collect();
        assert_eq!(dense, want);
        let mut m2 = m.clone();
        m2.fill(U, |_| -1.0);
        m2.scatter(U, &dense);
        assert_eq!(m2.gather(U), dense);
        // Ghost cells are nobody's points: none of the three writes them.
        let ghosts = |m: &Machine| -> f64 {
            m.pes.iter().map(|pe| pe.subgrid(U).raw().iter().sum::<f64>()).sum::<f64>()
                - dense.iter().sum::<f64>()
        };
        assert_eq!((ghosts(&m), ghosts(&m2)), (0.0, 0.0));
    }

    #[test]
    fn cshift_matches_global_semantics() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        for (s, d) in [(1i64, 0usize), (-1, 0), (3, 1), (-5, 1), (8, 0)] {
            shift(&mut m, T, U, s, d, ShiftKind::Circular);
            for p in Section::new([(1, 8), (1, 8)]).points() {
                let mut q = p.clone();
                q[d] = (q[d] - 1 + s).rem_euclid(8) + 1;
                assert_eq!(m.get(T, &p), m.get(U, &q), "cshift s={s} d={d} at {p:?}");
            }
        }
    }

    #[test]
    fn eoshift_matches_global_semantics() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        shift(&mut m, T, U, 3, 1, ShiftKind::EndOff(-7.0));
        for p in Section::new([(1, 8), (1, 8)]).points() {
            let j = p[1] + 3;
            let want = if (1..=8).contains(&j) { m.get(U, &[p[0], j]) } else { -7.0 };
            assert_eq!(m.get(T, &p), want, "at {p:?}");
        }
    }

    #[test]
    fn cshift_counts_messages_and_intra() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.reset_stats();
        shift(&mut m, T, U, 1, 0, ShiftKind::Circular);
        let agg = m.stats();
        // Each PE sends one 4-element row: 4 messages, 32 bytes each.
        assert_eq!(agg.total_messages(), 4);
        assert_eq!(agg.total_comm_bytes(), 4 * 4 * 8);
        // Each PE copies 3 rows of 4 locally.
        assert_eq!(agg.total_intra_bytes(), 4 * 3 * 4 * 8);
    }

    #[test]
    fn overlap_shift_fills_halo_and_counts() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        m.reset_stats();
        ghost_shift(&mut m, U, 1, 0, ShiftKind::Circular).unwrap();
        // PE 0 owns (1:4,1:4); its dim-0 high ghost row should now hold
        // global row 5 (owned by PE 2).
        let sub = m.pes[0].subgrid(U);
        for j in 1..=4i64 {
            assert_eq!(sub.get(&[5, j]), (500 + j) as f64);
        }
        let agg = m.stats();
        assert_eq!(agg.total_messages(), 4);
        assert_eq!(agg.total_intra_bytes(), 0, "no intraprocessor movement");
    }

    #[test]
    fn overlap_shift_wraps_at_boundary() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        ghost_shift(&mut m, U, 1, 0, ShiftKind::Circular).unwrap();
        // PE 2 owns (5:8, 1:4); its high ghost should hold global row 1.
        let sub = m.pes[2].subgrid(U);
        for j in 1..=4i64 {
            assert_eq!(sub.get(&[5, j]), (100 + j) as f64);
        }
    }

    #[test]
    fn overlap_shift_endoff_boundary_fill() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.fill(U, |_| 1.0);
        m.reset_stats();
        ghost_shift(&mut m, U, -1, 1, ShiftKind::EndOff(42.0)).unwrap();
        // PEs 0 and 2 are at the low edge of dim 1: filled, not sent to.
        // PEs 1 and 3 own columns 5:8: interior edge, they receive data.
        for (pe, want) in [(0, 42.0), (2, 42.0), (1, 1.0), (3, 1.0)] {
            let sub = m.pes[pe].subgrid(U);
            for i in 1..=4i64 {
                assert_eq!(sub.get(&[i, 0]), want, "PE {pe} row {i}");
            }
        }
        // Fills count nothing: two messages, no local copies.
        let agg = m.stats();
        assert_eq!((agg.total_messages(), agg.total_intra_bytes()), (2, 0));
    }

    #[test]
    fn a_dropped_machines_large_arrays_go_to_the_next_one() {
        let storage = |m: &Machine| -> Vec<*const f64> {
            let subgrids = m.pes.iter().flat_map(|pe| pe.subgrids.iter().flatten());
            let mut at: Vec<_> = subgrids.map(|s| s.raw().as_ptr()).collect();
            at.sort();
            at
        };
        let spare = || SPARE.with(|s| s.borrow().0.iter().map(|b| b.as_ptr()).collect::<Vec<_>>());
        let held = || SPARE.with(|s| s.borrow().0.iter().map(Vec::capacity).sum::<usize>());
        let build = |shapes: &[[usize; 2]]| {
            let mut m = machine();
            for (a, &shape) in shapes.iter().enumerate() {
                let decl = ArrayDecl::user("A", Shape::new(shape), Distribution::block(2));
                m.alloc(ArrayId(a as u32), &decl).unwrap();
            }
            m
        };
        // Drop `m` after writing its arrays: the list keeps at most twice
        // the storage of the largest machine dropped so far.
        let mut cap = 0;
        let mut drop_used = |mut m: Machine| {
            let cells: usize = (m.pes.iter().flat_map(|pe| pe.subgrids.iter().flatten()))
                .map(|s| s.raw().len())
                .sum();
            cap = cap.max(2 * cells);
            for a in 0..m.pes[0].subgrids.len() as u32 {
                m.fill(ArrayId(a), |p| (p[0] * 1000 + p[1]) as f64);
            }
            drop(m);
            assert!(held() <= cap, "{} cells held over a cap of {cap}", held());
        };
        // Two sizes of machine over 2x2 with 1 059 968 cells each, in blocks
        // of 1 MiB and more: `wide`, one 724x1452 array (four 364x728
        // subgrids), and `square`, two 724x724 arrays (eight of 364x364).
        let (wide, square) = (&[[724, 1452]][..], &[[724, 724], [724, 724]][..]);
        // First round: every block is new, and a request no spare block
        // suits leaves the list alone.
        let mut first = Vec::new();
        for shapes in [wide, square] {
            let m = build(shapes);
            first.push(storage(&m));
            drop_used(m);
        }
        assert_eq!(spare().len(), 12, "both machines' blocks kept");
        // Second round: each size takes back its own blocks, zeroed.
        for (shapes, blocks) in [wide, square].into_iter().zip(first) {
            let m = build(shapes);
            assert_eq!(storage(&m), blocks, "the same blocks");
            for pe in &m.pes {
                assert!(pe.subgrids.iter().flatten().all(|s| s.raw().iter().all(|&c| c == 0.0)));
            }
            drop_used(m);
        }
        // A third size past the cap: the oldest blocks go, the newest stay.
        let m = build(&[[760, 760], [760, 760]]);
        let newest = storage(&m);
        drop_used(m);
        assert!(newest.iter().all(|b| spare().contains(b)));
        assert!(spare().len() < 12 + newest.len(), "some older blocks given up");
        // Small arrays are never kept.
        let m = build(&[[8, 8], [724, 724]]);
        drop(m);
        assert!(SPARE.with(|s| s.borrow().0.iter().all(|b| b.capacity() >= SPARE_MIN)));
    }

    #[test]
    fn modeled_time_positive_after_comm() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.reset_stats();
        assert_eq!(m.modeled_time_ms(), 0.0);
        shift(&mut m, T, U, 1, 0, ShiftKind::Circular);
        assert!(m.modeled_time_ms() > 0.0);
    }

    #[test]
    fn shift_too_wide_reports_error() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        let err = ghost_shift(&mut m, U, 2, 0, ShiftKind::Circular).unwrap_err();
        assert!(matches!(err, RtError::ShiftTooWide { .. }));
    }

    #[test]
    fn compiled_schedule_reuse_counts_and_pools() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.fill(U, |p| (p[0] * 10 + p[1]) as f64);
        m.reset_stats();
        let plan = cshift_plan(&m.meta(U).geom.clone(), 1, 0, ShiftKind::Circular);
        let sched = m.compile_comm(T, U, plan, MoveKind::FullShift);
        // Staging is one 4-element row, the largest message; the 3-row
        // intraprocessor copies go from box to box. The descriptors do not
        // grow with the array.
        assert_eq!(sched.pooled_bytes(), 4 * 8);
        assert_eq!(m.stage.capacity(), 0, "no staging before the first execution");
        assert!(sched.transfers.iter().all(|t| t.direct == (t.src_pe == t.dst_pe)));
        let mut big = Machine::new(MachineConfig::sp2_2x2());
        big.alloc(U, &decl("U", 64)).unwrap();
        big.alloc(T, &decl("T", 64)).unwrap();
        let plan = cshift_plan(&big.meta(U).geom.clone(), 1, 0, ShiftKind::Circular);
        let wide = big.compile_comm(T, U, plan, MoveKind::FullShift);
        assert_eq!(wide.descriptor_bytes(), sched.descriptor_bytes());
        m.apply_compiled(&sched);
        let room = m.stage.capacity();
        assert!(room >= 4);
        for _ in 1..10 {
            m.apply_compiled(&sched);
        }
        // Built once, reused ten times; the buffer never grew again.
        assert_eq!(m.stats().schedules_built, 1);
        assert_eq!(m.stats().schedule_reuses, 10);
        assert_eq!((m.stage.len(), m.stage.capacity()), (0, room));
        // Ten executions count ten times one execution's messages.
        assert_eq!(m.stats().total_messages(), 10 * 4);
    }

    #[test]
    fn swap_subgrids_flips_storage() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 8)).unwrap();
        m.fill(U, |_| 1.0);
        m.fill(T, |_| 2.0);
        m.check_same_geometry(U, T, "cannot trade storage").unwrap();
        for pe in &mut m.pes {
            pe.swap_subgrids(U, T);
        }
        assert_eq!(m.get(U, &[1, 1]), 2.0);
        assert_eq!(m.get(T, &[1, 1]), 1.0);
        m.pes[0].swap_subgrids(U, U); // no-op
        assert_eq!(m.get(U, &[1, 1]), 2.0);
    }

    #[test]
    fn rebind_check_rejects_mismatched_geometry() {
        let mut m = machine();
        m.alloc(U, &decl("U", 8)).unwrap();
        m.alloc(T, &decl("T", 12)).unwrap();
        let err = m.check_same_geometry(U, T, "cannot trade storage").unwrap_err();
        assert!(err.to_string().contains("U and T cannot trade storage: different"), "{err}");
    }

    #[test]
    fn memory_mb_and_cost_builder() {
        let free_comm = CostModel { alpha_ns: 0.0, beta_ns_per_byte: 0.0, ..CostModel::sp2() };
        let cfg = MachineConfig::grid([4, 1]).memory_mb(1).cost(free_comm);
        assert_eq!(cfg.mem_budget, Some(1 << 20));
        assert_eq!(cfg.cost, free_comm);
        assert_eq!(cfg.grid.num_pes(), 4);
        // sp2_2x2 is the builder with the paper's knobs.
        let sp2 = MachineConfig::sp2_2x2();
        assert_eq!(sp2.grid.dims, vec![2, 2]);
        assert_eq!(sp2.halo, 1);
        assert_eq!(sp2.mem_budget, None);
    }

    #[test]
    fn row_major_strides_shape() {
        assert_eq!(row_major_strides(&Shape::new([4, 6, 2])), vec![12, 2, 1]);
        assert_eq!(row_major_strides(&Shape::new([5])), vec![1]);
    }
}
