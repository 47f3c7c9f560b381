//! The kernel VM: compiled nests and their execution over subgrid storage.
//!
//! [`compile_nest`] specializes one loop nest against one subgrid layout:
//! flat-index deltas, constant preloads, and the jammed/unit
//! (interior/boundary) body split are all resolved at compile time, and the
//! code is shared by every PE with that layout ([`compile_spmd`]), each
//! with its own SPMD bounds. [`exec_compiled`] then walks the iteration space *by rows*
//! (maximal runs of the innermost loop): each row performs **one** bounds
//! check — `base + min_delta` and `last_base + max_delta` against the flat
//! slice — and when it passes, the whole row executes with unchecked
//! indexing. Register and array-slot indices are validated at compile time,
//! so the only runtime obligation is that row check; rows that fail it
//! (impossible for halo-lint-clean programs, see DESIGN.md §5c) take a
//! checked fallback that panics exactly where the interpreter would.
//!
//! Rows the compiler proves chunk-safe ([`vector_safe`]: no store in one
//! lane can alias another lane's memory operand, and no register state
//! carries between points) run through a *chunked* executor: each op
//! executes over up to [`LANES`] consecutive points before the next op
//! dispatches, which amortizes dispatch cost over the chunk and turns every
//! op into a straight-line lane loop the optimizer vectorizes. An
//! accumulator fold ([`Op::Chain`]) keeps its accumulator in one
//! `[f64; LANES]` local for the whole fold: on contiguous rows every tap
//! is read straight from subgrid memory and the result written straight
//! back, so a stencil statement costs one pass over its taps instead of a
//! strip-register round trip per tap.
//!
//! The row loop is compiled twice, portable and (x86-64) for AVX2, and
//! [`Tier::active`] picks one per process. Every lane runs the same IEEE
//! operations at either width, never fused into an FMA: the tiers agree.
//!
//! Execution order, operation order, and rounding are identical to the tree
//! interpreter (`hpf-exec`'s `exec_nest`): results are bitwise equal. Like
//! the interpreter, the VM counts nothing: a plan counts what each sweep
//! does when it is built.

use crate::bytecode::{
    compile_body, reads_before_def, BodyCx, ChainDst, KernelCode, Op, Operand, Slot,
};
use hpf_ir::expr::CmpOp;
use hpf_ir::ArrayId;
use hpf_ir::BinOp;
use hpf_passes::loopir::{Instr, LoopNest};
use hpf_runtime::{PeState, Subgrid, VmScratch};
use std::sync::Arc;

/// Chunk width of the vectorized row executor: each op runs over this many
/// consecutive row points before the VM dispatches the next op, amortizing
/// dispatch cost and exposing straight-line lane loops the optimizer
/// auto-vectorizes.
pub(crate) const LANES: usize = 32;

/// The instruction set the chunked row executor runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The target's baseline: SSE2, two doubles per instruction, on x86-64.
    Portable,
    /// AVX2, four doubles per instruction (x86-64 hosts that have it).
    Avx2,
}

impl Tier {
    /// The tier of this process: AVX2 where the host has it. The CPU probe
    /// runs once per process (std caches it); Miri runs the portable tier.
    pub fn active() -> Tier {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
        Tier::Portable
    }

    /// The tier's name in the program's output: `portable` or `avx2`.
    pub fn name(self) -> &'static str {
        ["portable", "avx2"][self as usize]
    }
}

/// One loop nest compiled for one subgrid layout (strides, halo, flat
/// length), shared by every PE with that layout: the SPMD node program.
/// Fields are crate-visible so the static verifier (`crate::verify`) can
/// re-derive the executor's obligations from the data the executor runs on.
#[derive(Clone, Debug)]
pub(crate) struct NestCode {
    /// Row-major strides of every referenced subgrid (layouts verified equal).
    pub(crate) strides: Vec<i64>,
    /// Ghost-layer width of the shared layout.
    pub(crate) halo: i64,
    /// Loop order, outermost first.
    pub(crate) order: Vec<usize>,
    /// Unroll factor of the outermost loop (1 when not unrolled).
    pub(crate) factor: i64,
    /// Jammed (interior) body.
    pub(crate) jammed: KernelCode,
    /// Unit body for remainder (boundary) iterations of the unrolled loop.
    pub(crate) unit: Option<KernelCode>,
    /// Array table: `arrays[slot]` is the raw `ArrayId` index.
    pub(crate) arrays: Vec<u32>,
    /// Register-file size (jammed + unit + preloads).
    pub(crate) regs: usize,
    /// Constants written once per execution.
    pub(crate) preloads: Vec<(u16, f64)>,
    /// Flat length of every referenced subgrid.
    pub(crate) len: usize,
    /// Jammed rows may run through the chunked (vectorized) executor.
    pub(crate) jam_vec: bool,
    /// Unit/remainder rows may run through the chunked executor.
    pub(crate) unit_vec: bool,
    /// Bodies share one register file with the interpreter's persistent
    /// numbering (loop-carried state): no hoisting, fold growth or chunking.
    pub(crate) strict: bool,
}

/// One loop nest compiled for one PE: its layout's shared code plus the PE's
/// own loop bounds. Build with [`compile_nest`] or [`compile_spmd`];
/// execute (many times) with [`exec_compiled`].
#[derive(Clone, Debug)]
pub struct CompiledNest {
    /// This PE owns no part of the iteration space: execution is a no-op.
    pub(crate) empty: bool,
    /// Local loop bounds (inclusive), per dimension.
    pub(crate) lo: Vec<i64>,
    pub(crate) hi: Vec<i64>,
    /// The code of this PE's layout.
    pub(crate) code: Arc<NestCode>,
}

impl CompiledNest {
    /// Grow a PE's VM scratch to what executing this kernel needs. A plan
    /// does this for every kernel it compiles, so its steps allocate nothing;
    /// a kernel run outside a plan grows it on its first execution.
    pub fn reserve_scratch(&self, vm: &mut VmScratch) {
        vm.reserve(self.code.regs.max(1), self.code.strip_len(), self.code.arrays.len());
    }

    /// `code` over `sub`'s part of the nest's iteration space, in local
    /// coordinates: O(rank).
    fn bind(code: Arc<NestCode>, nest: &LoopNest, sub: &Subgrid) -> CompiledNest {
        let rank = sub.ext.len();
        let mut empty = sub.ext.contains(&0);
        let (mut lo, mut hi) = (vec![0i64; rank], vec![0i64; rank]);
        for d in 0..rank {
            let (olo, _) = sub.owned.dim(d);
            let (slo, shi) = nest.space.dim(d);
            lo[d] = (slo - olo + 1).max(1);
            hi[d] = (shi - olo + 1).min(sub.ext[d] as i64);
            empty |= hi[d] < lo[d];
        }
        CompiledNest { empty, lo, hi, code }
    }
}

/// The subgrid of the first array `nest` references on `pe`, when every one
/// it references is allocated there with that layout (the VM reuses one
/// base index and one flat length for all of them).
fn layout<'a>(nest: &LoopNest, pe: &'a PeState) -> Option<&'a Subgrid> {
    let bodies: [&[Instr]; 2] =
        [&nest.body, nest.unroll.as_ref().map_or(&[][..], |u| &u.unit_body)];
    let mut arrays = bodies.into_iter().flatten().filter_map(|i| match i {
        Instr::Load { array, .. } | Instr::Store { array, .. } => Some(*array),
        _ => None,
    });
    let sub_of = |a: ArrayId| pe.subgrids.get(a.0 as usize)?.as_ref();
    let sub = sub_of(arrays.next()?)?;
    arrays.all(|a| sub_of(a).is_some_and(|s| same_layout(s, sub))).then_some(sub)
}

/// Do `a` and `b` share strides, halo and flat length?
fn same_layout(a: &Subgrid, b: &Subgrid) -> bool {
    a.strides() == b.strides() && a.halo == b.halo && a.raw().len() == b.raw().len()
}

/// Compile `nest` for the layout `pe` holds. Arrays referenced by the body
/// must already be allocated. Returns `None` when the nest cannot be
/// compiled — referenced subgrids disagree on layout, index ranges overflow
/// the bytecode, or the unroll annotation is malformed — in which case the
/// caller falls back to the interpreter for this nest on this layout.
pub fn compile_nest(nest: &LoopNest, pe: &PeState, scalars: &[f64]) -> Option<CompiledNest> {
    compile_spmd(nest, std::slice::from_ref(pe), scalars).0.pop()?
}

/// [`compile_nest`] for every PE of `pes`, compiling once per distinct
/// layout, whose PEs share the code: the per-PE kernels and how many codes
/// were compiled.
pub fn compile_spmd(
    nest: &LoopNest,
    pes: &[PeState],
    scalars: &[f64],
) -> (Vec<Option<CompiledNest>>, usize) {
    let mut codes: Vec<(&Subgrid, Arc<NestCode>)> = Vec::new();
    let kernels = (pes.iter())
        .map(|pe| {
            let sub = layout(nest, pe)?;
            let code = match codes.iter().find(|(s, _)| same_layout(s, sub)) {
                Some((_, code)) => Arc::clone(code),
                None => {
                    codes.push((sub, Arc::new(compile_code(nest, sub, scalars)?)));
                    Arc::clone(&codes.last()?.1)
                }
            };
            Some(CompiledNest::bind(code, nest, sub))
        })
        .collect();
    (kernels, codes.len())
}

/// Lower `nest` for `sub`'s layout ([`compile_nest`]'s work less the
/// per-PE bounds).
fn compile_code(nest: &LoopNest, sub: &Subgrid, scalars: &[f64]) -> Option<NestCode> {
    let (strides, halo, len) = (sub.strides(), sub.halo, sub.raw().len());
    let rank = sub.ext.len();
    if nest.order.len() != rank {
        return None;
    }
    let factor = match &nest.unroll {
        Some(u) => {
            if u.dim != nest.order[0] || u.factor < 2 {
                return None;
            }
            u.factor as i64
        }
        None => 1,
    };

    // Hoisting constants out of the per-point code is only sound when no
    // body observes register state it did not write itself; otherwise fall
    // back to a strict translation sharing one register numbering, exactly
    // like the interpreter's persistent register file.
    let bodies: [&[Instr]; 2] =
        [&nest.body, nest.unroll.as_ref().map_or(&[][..], |u| &u.unit_body)];
    let strict = bodies.iter().any(|b| reads_before_def(b));
    let jr = nest.regs;
    let ur = nest.unroll.as_ref().map_or(0, |u| u.unit_regs);
    let unit_base = if strict { 0 } else { jr };

    let mut cx = BodyCx::with_min_regs(if strict { jr.max(ur) } else { 0 });
    let jammed = compile_body(&nest.body, strides, scalars, 0, strict, &mut cx)?;
    let unit = match &nest.unroll {
        Some(u) => Some(compile_body(&u.unit_body, strides, scalars, unit_base, strict, &mut cx)?),
        None => None,
    };

    // Chunked (vectorized) execution runs a row op-at-a-time over up to
    // LANES points, reordering memory ops across lanes. That is observable
    // only when a store in one lane can alias a load or store in a *different*
    // lane of the same chunk, or when register state carries between points
    // (strict mode). Both are decidable here because each body's row step is
    // fixed at compile time; rows failing the test run point-at-a-time.
    let istrides: Vec<i64> = strides.iter().map(|&s| s as i64).collect();
    let inner_step = istrides[*nest.order.last()?];
    let (jam_step, unit_step) = if rank == 1 {
        (factor * istrides[nest.order[0]], istrides[nest.order[0]])
    } else {
        (inner_step, inner_step)
    };
    let jam_vec = !strict && vector_safe(&jammed, jam_step);
    let unit_vec = !strict && vector_safe(unit.as_ref().unwrap_or(&jammed), unit_step);

    Some(NestCode {
        strides: istrides,
        halo: halo as i64,
        order: nest.order.clone(),
        factor,
        jammed,
        unit,
        arrays: cx.arrays,
        regs: cx.max_reg + 1,
        preloads: cx.preloads,
        len,
        jam_vec,
        unit_vec,
        strict,
    })
}

impl NestCode {
    /// Length of the strip register file the chunked executor needs.
    fn strip_len(&self) -> usize {
        if self.jam_vec || self.unit_vec {
            self.regs.max(1) * LANES
        } else {
            0
        }
    }
}

/// May `code` execute op-at-a-time over a `LANES`-wide chunk of a row with
/// step `step` and still produce the interpreter's point-at-a-time results?
/// Only memory can carry state across lanes (fast-mode bodies define every
/// register they read), so the test is purely about aliasing: a store and
/// another memory operand on the same array whose flat-delta difference is
/// a multiple of the step smaller than the chunk width would make one lane
/// touch another lane's location, and the chunk interleaving would become
/// observable. A fold's taps and its store are memory operands like any
/// other (it reads every tap of a lane before it stores that lane).
fn vector_safe(code: &KernelCode, step: i64) -> bool {
    if step == 0 {
        return false;
    }
    let mut stores: Vec<(Slot, i64)> = Vec::new();
    let mut mems: Vec<(Slot, i64)> = Vec::new();
    code.for_each_mem(|arr, delta, is_store| {
        mems.push((arr, delta as i64));
        if is_store {
            stores.push((arr, delta as i64));
        }
    });
    stores.iter().all(|&(sa, sd)| {
        mems.iter().all(|&(ma, md)| {
            let diff = sd - md;
            sa != ma
                || diff == 0
                || diff % step != 0
                || (diff / step).unsigned_abs() >= LANES as u64
        })
    })
}

impl CompiledNest {
    /// The compiled (jammed, unit) bodies (for tests and debugging).
    pub fn bodies(&self) -> (&KernelCode, Option<&KernelCode>) {
        (&self.code.jammed, self.code.unit.as_ref())
    }

    /// Constants hoisted out of the per-point code.
    pub fn preload_count(&self) -> usize {
        self.code.preloads.len()
    }

    /// May the (jammed, unit) bodies use the chunked row executor? (For
    /// tests and debugging.)
    pub fn vectorized(&self) -> (bool, bool) {
        (self.code.jam_vec, self.code.unit_vec)
    }

    /// Was this nest compiled in strict mode (a body reads registers it did
    /// not define, so state carries across iteration points)? Strict kernels
    /// take no hoisting, fold growth or chunking — the discipline BV002
    /// checks.
    pub fn strict(&self) -> bool {
        self.code.strict
    }

    /// The declared `[min_delta, max_delta]` flat-index envelope of the
    /// jammed (`unit == false`) or unit body — the envelope the per-row
    /// bounds proof hoists, and the soundness precondition BV003 re-checks
    /// against the actual memory ops.
    pub fn declared_deltas(&self, unit: bool) -> (i64, i64) {
        let (jammed, unit_code) = self.bodies();
        let k = if unit { unit_code.unwrap_or(jammed) } else { jammed };
        (k.min_delta, k.max_delta)
    }

    /// Local loop bounds (inclusive, per dimension) this nest was compiled
    /// for — the PE's intersection of the iteration space with its owned
    /// block. Empty nests report `None`. Superstep sweeps
    /// ([`exec_compiled_over`]) expand these into the ghost layers.
    pub fn local_bounds(&self) -> Option<(&[i64], &[i64])> {
        if self.empty {
            None
        } else {
            Some((&self.lo, &self.hi))
        }
    }
}

/// Execute a compiled nest on the PE it was compiled for. May be called any
/// number of times (plans reuse compiled nests across time steps).
pub fn exec_compiled(pe: &mut PeState, cn: &CompiledNest) {
    if cn.empty {
        return;
    }
    exec_over(pe, cn, &cn.lo, &cn.hi);
}

/// Execute a compiled nest over an explicit local box `lo..=hi` that may
/// *extend beyond* the compiled owned bounds into the ghost layers — the
/// trapezoid sub-step sweeps of the superstep schedule, which redundantly
/// recompute neighbor-owned cells from deep-halo data. The caller
/// guarantees that, per dimension, the box stays within subgrid storage
/// (`1 - halo ..= ext + halo`) and that every read offset from a box point
/// also lands in storage (expansion + read radius ≤ halo — the superstep
/// legality conditions); rows violating that fall back to the checked
/// executor and panic exactly like the interpreter would. Iteration order
/// is the compiled row-major order: ghost points overlap neighbor-owned
/// points, so order stays observable-safe only by matching the interpreter
/// walk exactly.
pub fn exec_compiled_over(pe: &mut PeState, cn: &CompiledNest, lo: &[i64], hi: &[i64]) {
    if cn.empty {
        return;
    }
    debug_assert_eq!(lo.len(), cn.lo.len());
    if lo.iter().zip(hi).any(|(l, h)| h < l) {
        return;
    }
    exec_over(pe, cn, lo, hi);
}

/// The executor body behind [`exec_compiled`] / [`exec_compiled_over`]:
/// runs the bytecode over the box `lo..=hi` (local, inclusive). Jammed/unit
/// grouping is decided against these bounds.
fn exec_over(pe: &mut PeState, cn: &CompiledNest, lo: &[i64], hi: &[i64]) {
    // Raw slice table `arrs`. Distinct `ArrayId`s own distinct allocations,
    // so the pointers never alias each other; ops execute strictly in order,
    // so same-array load/store ordering is preserved.
    let code = &*cn.code;
    // The tier is picked once per execution, not per row or chunk.
    pe.with_vm((code.regs.max(1), code.strip_len()), &code.arrays, |regs, strips, arrs| {
        #[cfg(target_arch = "x86_64")]
        if Tier::active() == Tier::Avx2 {
            // SAFETY: `Tier::active` found AVX2 on this host.
            return unsafe { exec_frame_avx2(code, lo, hi, (regs, strips, arrs)) };
        }
        exec_frame(code, lo, hi, (regs, strips, arrs))
    })
}

/// The VM storage a PE lends one nest execution: zeroed `regs` and
/// `strips`, and the storage table `arrs` of the nest's arrays.
type Frame<'a> = (&'a mut [f64], &'a mut [f64], &'a [(*mut f64, usize)]);

/// [`exec_frame`] compiled with AVX2 enabled: the row loop and the chunked
/// executor inline into it, so its lane loops run four doubles wide.
///
/// # Safety
/// The host must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exec_frame_avx2(cn: &NestCode, lo: &[i64], hi: &[i64], frame: Frame) {
    exec_frame(cn, lo, hi, frame)
}

/// [`exec_over`] on the VM storage the PE lent; each tier's entry inlines it.
#[inline(always)]
fn exec_frame(cn: &NestCode, lo: &[i64], hi: &[i64], mut frame: Frame) {
    let (regs, strips, _) = &mut frame;
    for &(r, v) in &cn.preloads {
        regs[r as usize] = v;
    }
    // Strip register file for the chunked executor: LANES lanes per register,
    // preloads broadcast once. Ops never write preload registers (their defs
    // were hoisted), so the broadcast survives the whole execution.
    if !strips.is_empty() {
        for &(r, v) in &cn.preloads {
            strips[r as usize * LANES..(r as usize + 1) * LANES].fill(v);
        }
    }

    let rank = cn.order.len();
    let d0 = cn.order[0];
    let inner = *cn.order.last().unwrap();
    let base_of = |point: &[i64]| -> i64 {
        point.iter().zip(&cn.strides).map(|(&l, &s)| (l + cn.halo - 1) * s).sum()
    };

    if rank == 1 {
        let n = hi[d0] - lo[d0] + 1;
        let jam_steps = n / cn.factor;
        let rest = n - jam_steps * cn.factor;
        let base = base_of(&[lo[d0]]);
        let stride = cn.strides[d0];
        run_line(cn, (&cn.jammed, cn.jam_vec), (base, jam_steps, cn.factor * stride), &mut frame);
        let ubase = base + jam_steps * cn.factor * stride;
        let unit = cn.unit.as_ref().unwrap_or(&cn.jammed);
        run_line(cn, (unit, cn.unit_vec), (ubase, rest, stride), &mut frame);
    } else {
        // Middle dims: everything between the (possibly unrolled)
        // outermost loop and the innermost row dimension.
        let mids: Vec<usize> = cn.order[1..rank - 1].to_vec();
        let row_len = hi[inner] - lo[inner] + 1;
        let row_step = cn.strides[inner];
        let mut point = lo.to_vec();
        let mut i = lo[d0];
        while i <= hi[d0] {
            let use_jammed = i + cn.factor - 1 <= hi[d0];
            let (kernel, vec_ok) = if use_jammed {
                (&cn.jammed, cn.jam_vec)
            } else {
                (cn.unit.as_ref().unwrap_or(&cn.jammed), cn.unit_vec)
            };
            point[d0] = i;
            for &d in &mids {
                point[d] = lo[d];
            }
            'mids: loop {
                point[inner] = lo[inner];
                run_line(cn, (kernel, vec_ok), (base_of(&point), row_len, row_step), &mut frame);
                for idx in (0..mids.len()).rev() {
                    let d = mids[idx];
                    point[d] += 1;
                    if point[d] <= hi[d] {
                        continue 'mids;
                    }
                    point[d] = lo[d];
                }
                break;
            }
            i += if use_jammed { cn.factor } else { 1 };
        }
    }
}

/// One row of `count` points from flat index `base`, `step` apart (chunked
/// when `vec_ok`). A function, not a closure, so that it inlines into each
/// tier's entry with its executors: a closure here stays out of line, portable.
#[inline(always)]
fn run_line(
    cn: &NestCode,
    (kernel, vec_ok): (&KernelCode, bool),
    (base, count, step): (i64, i64, i64),
    (regs, strips, arrs): &mut Frame,
) {
    if count <= 0 {
        return;
    }
    let first = base + kernel.min_delta;
    let last = base + (count - 1) * step + kernel.max_delta;
    if first >= 0 && (last as u64) < cn.len as u64 {
        // SAFETY: every flat index this row touches lies in [first, last] ⊆
        // [0, len); register and slot indices were validated at compile time.
        // The chunked executor is only entered when `vector_safe` proved the
        // op-at-a-time interleaving unobservable.
        unsafe {
            if vec_ok {
                run_row_vec(kernel, arrs, strips, base, count, step)
            } else {
                run_row::<false>(kernel, arrs, regs, base, count, step)
            }
        }
    } else {
        // Out-of-layout access (a halo violation the lints would flag): run
        // checked, panicking like the interpreter.
        // SAFETY: register and slot indices were validated at compile time;
        // CHECKED = true asserts every memory index before touching it, so no
        // out-of-bounds access occurs.
        unsafe { run_row::<true>(kernel, arrs, regs, base, count, step) }
    }
}

/// Execute `code` over one row of `count` points, advancing the base index
/// by `step` per point. With `CHECKED = false`, all indexing is unchecked —
/// the caller has proven every index in range; with `CHECKED = true`, every
/// memory access is asserted in range first.
///
/// # Safety
/// Register indices must be `< regs.len()` and slot indices `< arrs.len()`
/// (guaranteed by `compile_body`; machine-checked by the bytecode verifier,
/// BV001). With `CHECKED = false`, the caller must guarantee
/// `base + delta ∈ [0, len)` for every memory operand at every point of the
/// row — the obligation the hoisted row proof discharges and BV003
/// re-derives by interval analysis.
unsafe fn run_row<const CHECKED: bool>(
    code: &KernelCode,
    arrs: &[(*mut f64, usize)],
    regs: &mut [f64],
    mut base: i64,
    count: i64,
    step: i64,
) {
    macro_rules! r {
        ($i:expr) => {
            // SAFETY: every register operand is < `cn.regs`, which sized
            // `regs` — validated by `compile_body` and machine-checked by
            // the bytecode verifier (BV001).
            unsafe { *regs.get_unchecked($i as usize) }
        };
    }
    macro_rules! w {
        ($i:expr, $v:expr) => {{
            let v = $v;
            // SAFETY: destination registers are < `regs.len()` (BV001).
            unsafe { *regs.get_unchecked_mut($i as usize) = v }
        }};
    }
    macro_rules! ld {
        ($arr:expr, $delta:expr) => {{
            // SAFETY: array-slot operands index the kernel's slot table,
            // which `arrs` mirrors entry for entry (BV001).
            let (ptr, len) = unsafe { *arrs.get_unchecked($arr as usize) };
            let idx = (base + $delta as i64) as usize;
            if CHECKED {
                assert!(idx < len, "subgrid access out of bounds: {idx} >= {len}");
            }
            // SAFETY: `idx < len` — asserted just above under CHECKED;
            // in fast mode the caller's hoisted row proof guarantees
            // `base + delta ∈ [0, len)` for every memory operand of the
            // row, because every delta lies inside the kernel's declared
            // `[min_delta, max_delta]` envelope (BV003).
            unsafe { *ptr.add(idx) }
        }};
    }
    macro_rules! st {
        ($arr:expr, $delta:expr, $v:expr) => {{
            let v = $v;
            // SAFETY: slot < `arrs.len()` (BV001), as in `ld!`.
            let (ptr, len) = unsafe { *arrs.get_unchecked($arr as usize) };
            let idx = (base + $delta as i64) as usize;
            if CHECKED {
                assert!(idx < len, "subgrid access out of bounds: {idx} >= {len}");
            }
            // SAFETY: `idx < len` — by the CHECKED assert or the hoisted
            // row bounds proof over the declared delta envelope (BV003).
            unsafe { *ptr.add(idx) = v }
        }};
    }
    // One fold operand; the scaled forms round the product first.
    macro_rules! operand {
        ($o:expr) => {
            match $o {
                Operand::Tap { arr, delta } => ld!(arr, delta),
                Operand::Reg(q) => r!(q),
                Operand::Imm(v) => v,
                Operand::ImmTap { v, arr, delta } => v * ld!(arr, delta),
                Operand::ImmReg { v, r: q } => v * r!(q),
            }
        };
    }
    for _ in 0..count {
        for op in &code.ops {
            match *op {
                Op::Const { dst, v } => w!(dst, v),
                Op::Load { dst, arr, delta } => w!(dst, ld!(arr, delta)),
                Op::Store { arr, delta, src } => st!(arr, delta, r!(src)),
                Op::Chain { first, lo, hi, dst } => {
                    let mut acc = operand!(first);
                    for l in code.chain_links(lo, hi) {
                        let x = operand!(l.x);
                        acc = if l.rev { l.op.apply(x, acc) } else { l.op.apply(acc, x) };
                    }
                    match dst {
                        ChainDst::Reg(d) => w!(d, acc),
                        ChainDst::Store { arr, delta } => st!(arr, delta, acc),
                    }
                }
                Op::Neg { dst, src } => w!(dst, -r!(src)),
                Op::Copy { dst, src } => w!(dst, r!(src)),
                Op::Cmp { op, dst, a, b } => w!(dst, op.apply(r!(a), r!(b))),
                Op::CmpImmR { op, dst, a, v } => w!(dst, op.apply(r!(a), v)),
                Op::CmpImmL { op, dst, v, b } => w!(dst, op.apply(v, r!(b))),
                Op::Select { dst, c, t, e } => {
                    w!(dst, if r!(c) != 0.0 { r!(t) } else { r!(e) })
                }
                Op::SelStore { arr, delta, c, t, e } => {
                    st!(arr, delta, if r!(c) != 0.0 { r!(t) } else { r!(e) })
                }
            }
        }
        base += step;
    }
}

/// Execute `code` over one row through the chunked executor: the row is cut
/// into chunks of up to [`LANES`] points and each op runs across the whole
/// chunk before the next op dispatches. Per-lane results are bitwise
/// identical to the scalar executor — each lane performs the same operation
/// sequence on the same operands — and `vector_safe` proved no lane's store
/// aliases another lane's memory operand, so the interleaving is
/// unobservable.
///
/// # Safety
/// Same contract as `run_row::<false>` (every `base + i*step + delta` in
/// range, register/slot indices compile-time validated), plus: `strips` has
/// `LANES` lanes per register with preloads broadcast, and the kernel was
/// admitted by `vector_safe` for this `step` (re-derived independently by
/// the bytecode verifier, BV004).
#[inline(always)]
unsafe fn run_row_vec(
    code: &KernelCode,
    arrs: &[(*mut f64, usize)],
    strips: &mut [f64],
    mut base: i64,
    count: i64,
    step: i64,
) {
    let sp = strips.as_mut_ptr();
    let mut left = count;
    while left > 0 {
        let n = (left as usize).min(LANES);
        // SAFETY: `n <= LANES` points starting at `base` lie inside this
        // row, so the caller's row bounds proof covers every lane access;
        // `sp` points at the caller's `regs * LANES` strip buffer with
        // preloads broadcast, and the kernel was admitted by the chunk-
        // safety test for this step (independently re-derived by BV004).
        unsafe { run_chunk(code, arrs, sp, base, n, step) };
        base += n as i64 * step;
        left -= n as i64;
    }
}

/// `LANES` consecutive lane values, by value.
type Lanes = [f64; LANES];

/// The additive identity of every `f64` bit pattern (`x + -0.0 == x`, signed
/// zeros included), for padding a short run of additions.
static NEG_ZERO: Lanes = [-0.0; LANES];

/// Address of lane 0 of the tap `arr[base + i*step + delta]`.
///
/// # Safety
/// `arr` is a valid slot (BV001) and `base` the first point of a chunk
/// inside a row whose bounds proof covers the tap (BV003).
#[inline(always)]
unsafe fn tap_ptr((arr, delta): (Slot, i32), arrs: &[(*mut f64, usize)], base: i64) -> *const f64 {
    // SAFETY: slot < `arrs.len()` (BV001).
    let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
    // SAFETY: lane 0 of the chunk lies in the row, so the row bounds proof
    // over the declared envelope (BV003) puts `base + delta` in the subgrid.
    unsafe { ptr.add((base + delta as i64) as usize) }
}

/// The `LANES` lane values of a tap: straight into subgrid memory for a
/// full contiguous chunk, otherwise gathered into `tmp` (lanes `n..` keep
/// stale values whose results never reach memory).
///
/// # Safety
/// As `run_chunk`: `(base, n, step)` describe a chunk inside a row whose
/// bounds proof covers the tap, and its slot is valid.
#[inline(always)]
unsafe fn tap_lanes(
    tap: (Slot, i32),
    arrs: &[(*mut f64, usize)],
    (base, n, step): (i64, usize, i64),
    tmp: &mut Lanes,
) -> *const Lanes {
    // SAFETY: the caller's contract is `tap_ptr`'s.
    let p = unsafe { tap_ptr(tap, arrs, base) };
    if step == 1 && n == LANES {
        return p as *const Lanes;
    }
    for (i, t) in tmp.iter_mut().enumerate().take(n) {
        // SAFETY: lane `i < n` lies in the row, so the same proof covers
        // `base + i*step + delta`.
        *t = unsafe { *p.offset(i as isize * step as isize) };
    }
    tmp
}

/// The `LANES` lane values of a fold operand, as a pointer the link loops
/// read in place: subgrid memory for a tap (see `tap_lanes`), the strip
/// file for a register, `tmp` for an immediate or an `imm × x` product.
///
/// # Safety
/// As `run_chunk`: `chunk = (base, n, step)` lies inside a row whose bounds
/// proof covers every tap, and register/slot operands are in range.
#[inline(always)]
unsafe fn lanes_of(
    o: Operand,
    arrs: &[(*mut f64, usize)],
    sp: *const f64,
    chunk: (i64, usize, i64),
    tmp: &mut Lanes,
) -> *const Lanes {
    // SAFETY: register operands are < the kernel's register-file size
    // (BV001) and `sp` spans `regs * LANES` initialized elements.
    let strip = |r: u16| unsafe { sp.add(r as usize * LANES) } as *const Lanes;
    let scaled = |v: f64, src: *const Lanes, tmp: &mut Lanes| {
        // SAFETY: `src` points at `LANES` initialized `f64`s — a full
        // in-row chunk of the subgrid, a strip register, or `tmp` itself
        // (read out by value before `tmp` is overwritten).
        let x = unsafe { *src };
        for i in 0..LANES {
            tmp[i] = v * x[i];
        }
        tmp as *const Lanes
    };
    match o {
        Operand::Imm(v) => {
            *tmp = [v; LANES];
            tmp
        }
        Operand::Reg(r) => strip(r),
        Operand::ImmReg { v, r } => scaled(v, strip(r), tmp),
        // SAFETY: the caller's contract is `tap_lanes`'s.
        Operand::Tap { arr, delta } => unsafe { tap_lanes((arr, delta), arrs, chunk, tmp) },
        Operand::ImmTap { v, arr, delta } => {
            // SAFETY: as above.
            let src = unsafe { tap_lanes((arr, delta), arrs, chunk, tmp) };
            scaled(v, src, tmp)
        }
    }
}

/// One chunk of up to `n <= LANES` row points, op-at-a-time. Register ops
/// compute all `LANES` lanes (straight-line loops the optimizer vectorizes);
/// lanes beyond `n` hold stale values whose results never reach memory —
/// only the memory ops honor `n`.
///
/// # Safety
/// See `run_row_vec`; `sp` must point at `regs * LANES` initialized `f64`s.
#[inline(always)]
unsafe fn run_chunk(
    code: &KernelCode,
    arrs: &[(*mut f64, usize)],
    sp: *mut f64,
    base: i64,
    n: usize,
    step: i64,
) {
    // Lane pointer of register `r`.
    macro_rules! strip {
        ($r:expr) => {
            // SAFETY: register operands are < the kernel's register-file
            // size (BV001) and `sp` spans `regs * LANES` elements.
            unsafe { sp.add($r as usize * LANES) }
        };
    }
    // Whole-register reads/writes as fixed-size arrays: value semantics keep
    // the lane loops free of aliasing, so they compile to vector code.
    macro_rules! rd {
        ($r:expr) => {{
            let p = strip!($r) as *const Lanes;
            // SAFETY: `strip!` points at `LANES` initialized `f64`s inside
            // the strip buffer (zero-filled at allocation, preloads
            // broadcast), properly aligned for `[f64; LANES]`.
            unsafe { *p }
        }};
    }
    macro_rules! lanes {
        ($dst:expr, |$i:ident| $e:expr) => {{
            let mut out = [0.0f64; LANES];
            for $i in 0..LANES {
                out[$i] = $e;
            }
            let p = strip!($dst) as *mut Lanes;
            // SAFETY: as in `rd!` — the destination strip holds `LANES`
            // `f64`s owned exclusively by this call (registers and subgrid
            // storage are distinct allocations).
            unsafe { *p = out };
        }};
    }
    macro_rules! mem_at {
        ($ptr:expr, $delta:expr, $i:expr) => {
            // SAFETY: lane `i < n` lies in this row, so the caller's row
            // bounds proof over the declared delta envelope (BV003) puts
            // `base + i*step + delta` inside `[0, len)` of the subgrid.
            unsafe { $ptr.add((base + $i as i64 * step + $delta as i64) as usize) }
        };
    }
    // `n` lane values to memory: a block move on contiguous rows.
    macro_rules! store_lanes {
        ($arr:expr, $delta:expr, $src:expr) => {{
            // SAFETY: slot < `arrs.len()` (BV001).
            let (ptr, _) = unsafe { *arrs.get_unchecked($arr as usize) };
            let s: *const f64 = $src;
            if step == 1 {
                let m = mem_at!(ptr, $delta, 0);
                // SAFETY: `n` in-row destination elements (bounds proof,
                // BV003); the source is a strip register or a local, a
                // separate allocation, so the copies never overlap.
                unsafe { std::ptr::copy_nonoverlapping(s, m, n) };
            } else {
                for i in 0..n {
                    let m = mem_at!(ptr, $delta, i);
                    // SAFETY: lane `i < n <= LANES` of the source; in-row
                    // subgrid write covered by the row bounds proof.
                    unsafe { *m = *s.add(i) };
                }
            }
        }};
    }
    // Comparison with the predicate match hoisted out of the lane loop.
    macro_rules! cmp_lanes {
        ($op:expr, $dst:expr, |$i:ident| ($a:expr, $b:expr)) => {
            match $op {
                CmpOp::Gt => lanes!($dst, |$i| if $a > $b { 1.0 } else { 0.0 }),
                CmpOp::Lt => lanes!($dst, |$i| if $a < $b { 1.0 } else { 0.0 }),
                CmpOp::Ge => lanes!($dst, |$i| if $a >= $b { 1.0 } else { 0.0 }),
                CmpOp::Le => lanes!($dst, |$i| if $a <= $b { 1.0 } else { 0.0 }),
                CmpOp::Eq => lanes!($dst, |$i| if $a == $b { 1.0 } else { 0.0 }),
                CmpOp::Ne => lanes!($dst, |$i| if $a != $b { 1.0 } else { 0.0 }),
            }
        };
    }
    for op in &code.ops {
        match *op {
            Op::Const { dst, v } => lanes!(dst, |_i| v),
            Op::Load { dst, arr, delta } => {
                // SAFETY: slot < `arrs.len()` (BV001).
                let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
                let d = strip!(dst);
                if step == 1 {
                    let m = mem_at!(ptr, delta, 0);
                    // SAFETY: the `n` contiguous source elements lie in the
                    // row (bounds proof, BV003); the destination strip is a
                    // separate allocation, so the copies never overlap.
                    unsafe { std::ptr::copy_nonoverlapping(m, d, n) };
                } else {
                    for i in 0..n {
                        let m = mem_at!(ptr, delta, i);
                        // SAFETY: lane `i < n <= LANES` of the strip; the
                        // subgrid read is covered by the row bounds proof.
                        unsafe { *d.add(i) = *m };
                    }
                }
            }
            Op::Store { arr, delta, src } => store_lanes!(arr, delta, strip!(src)),
            Op::Chain { first, lo, hi, dst } => {
                // The accumulator lives in one local for the whole fold;
                // each link is one straight-line loop over it and the
                // operand's lanes, read in place wherever they already are.
                let mut tmp = [0.0f64; LANES];
                // SAFETY: this chunk's contract is `lanes_of`'s.
                let mut acc = unsafe { *lanes_of(first, arrs, sp, (base, n, step), &mut tmp) };
                // Where an operand's lanes already sit in place: a strip
                // register, or a tap of a full contiguous chunk.
                let place = |o: Operand| match o {
                    Operand::Reg(r) => Some(strip!(r) as *const Lanes),
                    Operand::Tap { arr, delta } if step == 1 && n == LANES => {
                        // SAFETY: this chunk's contract is `tap_ptr`'s.
                        Some(unsafe { tap_ptr((arr, delta), arrs, base) } as *const Lanes)
                    }
                    _ => None,
                };
                let links = code.chain_links(lo, hi);
                let mut k = 0;
                while k < links.len() {
                    // A run of additions whose operands sit in place folds
                    // up to four per pass over `acc`, padded with -0.0,
                    // which `+` leaves every value unchanged by.
                    let mut run = [&NEG_ZERO as *const Lanes; 4];
                    let mut len = 0;
                    for l in links[k..].iter().take(4) {
                        match place(l.x) {
                            Some(p) if l.op == BinOp::Add => run[len] = p,
                            _ => break,
                        }
                        len += 1;
                    }
                    if len >= 2 {
                        // SAFETY: each pointer targets `LANES` initialized
                        // `f64`s nothing writes while the loop reads them.
                        let [a, b, c, d] = run.map(|p| unsafe { &*p });
                        for i in 0..LANES {
                            acc[i] = (((acc[i] + a[i]) + b[i]) + c[i]) + d[i];
                        }
                        k += len;
                        continue;
                    }
                    let l = links[k];
                    k += 1;
                    // SAFETY: as above; the pointer targets `LANES`
                    // initialized `f64`s that nothing writes while `x`
                    // lives (the loops below only write `acc`).
                    let x = unsafe { &*lanes_of(l.x, arrs, sp, (base, n, step), &mut tmp) };
                    match (l.op, l.rev) {
                        (BinOp::Add, _) => (0..LANES).for_each(|i| acc[i] += x[i]),
                        (BinOp::Mul, _) => (0..LANES).for_each(|i| acc[i] *= x[i]),
                        (BinOp::Sub, false) => (0..LANES).for_each(|i| acc[i] -= x[i]),
                        (BinOp::Sub, true) => (0..LANES).for_each(|i| acc[i] = x[i] - acc[i]),
                        (BinOp::Div, false) => (0..LANES).for_each(|i| acc[i] /= x[i]),
                        (BinOp::Div, true) => (0..LANES).for_each(|i| acc[i] = x[i] / acc[i]),
                    }
                }
                match dst {
                    ChainDst::Reg(d) => {
                        let p = strip!(d) as *mut Lanes;
                        // SAFETY: as in `lanes!` — an exclusively owned
                        // strip of `LANES` `f64`s.
                        unsafe { *p = acc }
                    }
                    ChainDst::Store { arr, delta } => store_lanes!(arr, delta, acc.as_ptr()),
                }
            }
            Op::Neg { dst, src } => {
                let x = rd!(src);
                lanes!(dst, |i| -x[i]);
            }
            Op::Copy { dst, src } => {
                let x = rd!(src);
                lanes!(dst, |i| x[i]);
            }
            Op::Cmp { op, dst, a, b } => {
                let (x, y) = (rd!(a), rd!(b));
                cmp_lanes!(op, dst, |i| (x[i], y[i]));
            }
            Op::CmpImmR { op, dst, a, v } => {
                let x = rd!(a);
                cmp_lanes!(op, dst, |i| (x[i], v));
            }
            Op::CmpImmL { op, dst, v, b } => {
                let y = rd!(b);
                cmp_lanes!(op, dst, |i| (v, y[i]));
            }
            Op::Select { dst, c, t, e } => {
                let (cv, tv, ev) = (rd!(c), rd!(t), rd!(e));
                lanes!(dst, |i| if cv[i] != 0.0 { tv[i] } else { ev[i] });
            }
            Op::SelStore { arr, delta, c, t, e } => {
                // SAFETY: slot < `arrs.len()` (BV001).
                let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
                let (cv, tv, ev) = (rd!(c), rd!(t), rd!(e));
                for i in 0..n {
                    let m = mem_at!(ptr, delta, i);
                    // SAFETY: in-row subgrid write, covered by the row
                    // bounds proof over the declared deltas (BV003).
                    unsafe { *m = if cv[i] != 0.0 { tv[i] } else { ev[i] } };
                }
            }
        }
    }
}

/// Unit tests that drive the unsafe row executors directly on hand-built
/// buffers — the `miri_` prefix is what CI's Miri pass filters on, backing
/// the SAFETY comments above with an actual aliasing/UB check of every
/// raw-pointer path (scalar unchecked, scalar checked, chunked block-move,
/// chunked strided, predicated store, and the fold's in-place taps, gathered
/// taps, scaled operands, batched additions and direct stores), each chunked
/// row on every [`Tier`] the host has (only the portable one under Miri).
#[cfg(test)]
mod unsafe_row_tests {
    use super::*;
    use crate::bytecode::Link;
    use hpf_ir::expr::CmpOp;

    fn arrs_of(bufs: &mut [Vec<f64>]) -> Vec<(*mut f64, usize)> {
        bufs.iter_mut().map(|b| (b.as_mut_ptr(), b.len())).collect()
    }

    fn code(ops: Vec<Op>, links: Vec<Link>) -> KernelCode {
        KernelCode { ops, links, ..Default::default() }
    }

    fn tap(arr: Slot, delta: i32) -> Operand {
        Operand::Tap { arr, delta }
    }

    fn link(op: BinOp, rev: bool, x: Operand) -> Link {
        Link { op, rev, x }
    }

    /// Every tier this host can run: the portable one, and AVX2 where the
    /// host has it (never under Miri).
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if Tier::active() == Tier::Avx2 {
            tiers.push(Tier::Avx2);
        }
        tiers
    }

    /// `run_row_vec` as `tier` compiles it.
    ///
    /// # Safety
    /// `run_row_vec`'s contract; `tier` is one of [`tiers`].
    unsafe fn run_row_vec_at(
        tier: Tier,
        k: &KernelCode,
        arrs: &[(*mut f64, usize)],
        strips: &mut [f64],
        (base, count, step): (i64, i64, i64),
    ) {
        #[cfg(target_arch = "x86_64")]
        if tier == Tier::Avx2 {
            // SAFETY: the caller's contract; `tiers` offers AVX2 only on a
            // host that has it.
            return unsafe { run_row_vec_avx2(k, arrs, strips, (base, count, step)) };
        }
        // SAFETY: the caller's contract.
        unsafe { run_row_vec(k, arrs, strips, base, count, step) }
    }

    /// `run_row_vec` compiled with AVX2 enabled, as `exec_frame_avx2`
    /// inlines it.
    ///
    /// # Safety
    /// `run_row_vec`'s contract, on a host with AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_row_vec_avx2(
        k: &KernelCode,
        arrs: &[(*mut f64, usize)],
        strips: &mut [f64],
        (base, count, step): (i64, i64, i64),
    ) {
        // SAFETY: the caller's contract.
        unsafe { run_row_vec(k, arrs, strips, base, count, step) }
    }

    /// Equal bits, or NaN on both sides: two NaN operands leave whichever
    /// payload the instruction's operand order picks, and the compiler may
    /// order a commutative operation's operands differently in scalar and
    /// lane code. No other value may differ.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan())
    }

    /// Run `k` over the row `(base, count, step)` of `bufs` once through the
    /// scalar executor and once through the chunked one of every tier; all
    /// must leave the same bits behind. Returns the buffers.
    fn both_ways(
        k: &KernelCode,
        regs: usize,
        bufs: &[Vec<f64>],
        row: (i64, i64, i64),
    ) -> Vec<Vec<f64>> {
        let (base, count, step) = row;
        let mut scalar = bufs.to_vec();
        {
            let arrs = arrs_of(&mut scalar);
            // SAFETY: the caller passes rows whose every access is in range
            // and kernels whose register/slot operands are in range.
            unsafe { run_row::<false>(k, &arrs, &mut vec![0.0; regs], base, count, step) };
        }
        for tier in tiers() {
            let mut chunked = bufs.to_vec();
            let arrs = arrs_of(&mut chunked);
            // SAFETY: as above; `regs * LANES` zeroed strips, and the test
            // kernels store to arrays they do not read at other deltas.
            unsafe { run_row_vec_at(tier, k, &arrs, &mut vec![0.0; regs * LANES], row) };
            for (a, b) in scalar.iter().zip(&chunked) {
                assert!(
                    same_bits(a, b),
                    "the {} chunked row and the scalar row disagree",
                    tier.name()
                );
            }
        }
        scalar
    }

    #[test]
    fn miri_run_row_unchecked_and_checked_match() {
        let mut bufs = vec![vec![0.0f64; 16], (0..16).map(|i| i as f64).collect::<Vec<_>>()];
        let k = code(
            vec![
                Op::Load { dst: 0, arr: 1, delta: -1 },
                Op::Chain { first: Operand::Reg(0), lo: 0, hi: 1, dst: ChainDst::Reg(1) },
                Op::Store { arr: 0, delta: 0, src: 1 },
            ],
            vec![link(BinOp::Add, false, Operand::Imm(10.0))],
        );
        let mut regs = [0.0f64; 2];
        {
            let arrs = arrs_of(&mut bufs);
            // Points 1..=14: every access (delta -1..0) stays in [0, 16).
            // SAFETY: regs/slots < 2; min index 0, max index 14 < 16.
            unsafe { run_row::<false>(&k, &arrs, &mut regs, 1, 7, 1) };
            // SAFETY: same contract; the checked variant asserts per access.
            unsafe { run_row::<true>(&k, &arrs, &mut regs, 8, 7, 1) };
        }
        for (i, &v) in bufs[0].iter().enumerate().take(15).skip(1) {
            assert_eq!(v, (i - 1) as f64 + 10.0, "point {i}");
        }
        assert_eq!(bufs[0][0], 0.0);
        assert_eq!(bufs[0][15], 0.0);
        // The same row through the chunked executor of every tier.
        let fresh = vec![vec![0.0f64; 16], bufs[1].clone()];
        assert!(same_bits(&both_ways(&k, 2, &fresh, (1, 14, 1))[0], &bufs[0]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn miri_checked_row_panics_like_the_interpreter() {
        let mut bufs = vec![vec![0.0f64; 8]];
        let k = code(
            vec![Op::Chain {
                first: Operand::Imm(1.0),
                lo: 0,
                hi: 0,
                dst: ChainDst::Store { arr: 0, delta: 0 },
            }],
            vec![],
        );
        let mut regs = [0.0f64; 1];
        let arrs = arrs_of(&mut bufs);
        // SAFETY: regs/slots in range; CHECKED = true asserts every index,
        // so the out-of-range fourth point panics instead of writing.
        unsafe { run_row::<true>(&k, &arrs, &mut regs, 5, 4, 1) };
    }

    #[test]
    fn miri_chunked_row_contiguous_and_strided() {
        // 40 points: a full 32-lane chunk plus an 8-point tail, once with
        // step 1 (memcpy-style block moves) and once with step 2 (per-lane
        // loops), both against the same scalar recurrence.
        const N: usize = 96;
        let bufs = vec![vec![0.0f64; N], (0..N).map(|i| ((i * i) % 37) as f64).collect::<Vec<_>>()];
        let k = code(
            vec![
                Op::Load { dst: 0, arr: 1, delta: 0 },
                Op::Chain { first: Operand::Reg(0), lo: 0, hi: 1, dst: ChainDst::Reg(1) },
                Op::Store { arr: 0, delta: 0, src: 1 },
            ],
            vec![link(BinOp::Mul, false, Operand::Imm(3.0))],
        );
        // Step-1 indices span [0, 40) and step-2 indices span [40, 95).
        let out = both_ways(&k, 2, &bufs, (0, 40, 1));
        let out = both_ways(&k, 2, &out, (40, 28, 2));
        for (i, &v) in out[0].iter().enumerate().take(40) {
            assert_eq!(v, 3.0 * (((i * i) % 37) as f64), "step-1 point {i}");
        }
        for j in 0..28usize {
            let i = 40 + 2 * j;
            assert_eq!(out[0][i], 3.0 * (((i * i) % 37) as f64), "step-2 point {j}");
        }
    }

    #[test]
    fn miri_chunked_predicated_store_lanes() {
        // WHERE (x > 20) x = -x through the chunked SelStore path; the
        // store's delta equals the load's, so per-lane locations coincide
        // (diff 0) and chunking is admissible.
        const N: usize = 40;
        let bufs = vec![(0..N).map(|i| i as f64).collect::<Vec<f64>>()];
        let k = code(
            vec![
                Op::Load { dst: 0, arr: 0, delta: 0 },
                Op::CmpImmR { op: CmpOp::Gt, dst: 1, a: 0, v: 20.0 },
                Op::Neg { dst: 2, src: 0 },
                Op::SelStore { arr: 0, delta: 0, c: 1, t: 2, e: 0 },
            ],
            vec![],
        );
        let out = both_ways(&k, 3, &bufs, (0, N as i64, 1));
        for (i, &v) in out[0].iter().enumerate() {
            let want = if i as f64 > 20.0 { -(i as f64) } else { i as f64 };
            assert_eq!(v, want, "point {i}");
        }
    }

    /// The nine-point sum as one fold from taps to a store: rows of 1, 31,
    /// 32, 33 and 64 + 5 points cover the in-place tap read of a full
    /// chunk, the gathered tail, the batched additions (two runs of four)
    /// and the direct block store; step 3 covers the strided gather/store.
    #[test]
    fn miri_chunked_fold_reads_taps_in_place_and_stores_direct() {
        const W: i32 = 80;
        let src: Vec<f64> = (0..3 * W as usize).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
        let bufs = vec![vec![0.0f64; 3 * W as usize], src];
        let deltas = [W, -W, -1, 1, W - 1, W + 1, -W - 1, -W + 1];
        let k = code(
            vec![Op::Chain {
                first: tap(1, 0),
                lo: 0,
                hi: 8,
                dst: ChainDst::Store { arr: 0, delta: 0 },
            }],
            deltas.iter().map(|&d| link(BinOp::Add, false, tap(1, d))).collect(),
        );
        let base = W as i64 + 1;
        for (count, step) in [(1, 1), (31, 1), (32, 1), (33, 1), (69, 1), (26, 3)] {
            // Indices stay in [base - W - 1, base + 77 + W + 1] ⊂ [0, 240).
            let out = both_ways(&k, 1, &bufs, (base, count, step));
            for j in 0..count {
                let at = (base + j * step) as usize;
                let mut want = bufs[1][at];
                for d in deltas {
                    want += bufs[1][(at as i64 + d as i64) as usize];
                }
                assert_eq!(out[0][at], want, "count {count} step {step} point {j}");
            }
        }
    }

    /// Every operand kind and both operand sides: scaled tap, scaled
    /// register, immediate, register, `x - acc`, `x / acc`, a fold into a
    /// register, and an in-place update (store to the location a tap read).
    #[test]
    fn miri_chunked_fold_operand_kinds() {
        const N: usize = 70;
        let bufs = vec![
            (0..N).map(|i| 1.0 + (i % 9) as f64).collect::<Vec<f64>>(),
            (0..N).map(|i| 0.5 * (i % 5) as f64 - 1.0).collect::<Vec<f64>>(),
        ];
        let k = code(
            vec![
                // r0 = 2 * b[0] - a[0]
                Op::Chain {
                    first: Operand::ImmTap { v: 2.0, arr: 1, delta: 0 },
                    lo: 0,
                    hi: 1,
                    dst: ChainDst::Reg(0),
                },
                // a[0] = 7 / (3 - (a[0] * r0 + 0.5 * r0 + r0 + r0)) + -0.0
                Op::Chain {
                    first: tap(0, 0),
                    lo: 1,
                    hi: 8,
                    dst: ChainDst::Store { arr: 0, delta: 0 },
                },
            ],
            vec![
                link(BinOp::Sub, false, tap(0, 0)),
                link(BinOp::Mul, false, Operand::Reg(0)),
                link(BinOp::Add, false, Operand::ImmReg { v: 0.5, r: 0 }),
                link(BinOp::Add, false, Operand::Reg(0)),
                link(BinOp::Add, false, Operand::Reg(0)),
                link(BinOp::Sub, true, Operand::Imm(3.0)),
                link(BinOp::Div, true, Operand::Imm(7.0)),
                link(BinOp::Add, false, Operand::Imm(-0.0)),
            ],
        );
        for (count, step) in [(N as i64, 1), (23, 3)] {
            let out = both_ways(&k, 1, &bufs, (0, count, step));
            for j in 0..count as usize {
                let at = j * step as usize;
                let (a, b) = (bufs[0][at], bufs[1][at]);
                let r0 = 2.0 * b - a;
                let want = 7.0 / (3.0 - (a * r0 + 0.5 * r0 + r0 + r0)) + -0.0;
                assert_eq!(out[0][at].to_bits(), want.to_bits(), "step {step} point {j}");
            }
        }
    }

    /// A splitmix64 stream: the proptest draws one seed, the kernel and its
    /// data come from here.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A value of either sign, signed zeros included.
        fn value(&mut self) -> f64 {
            match self.below(16) {
                0 => 0.0,
                1 => -0.0,
                _ => (self.below(2001) as f64 - 1000.0) / 64.0,
            }
        }
    }

    /// Reach of the random taps: array 1 is read at deltas in `-R..=R`.
    const R: i64 = 4;

    /// A random chunk-safe kernel over two arrays: every store goes to
    /// array 0 at delta 0, the only delta array 0 is read at, and array 1
    /// is read anywhere within `R`. Every register is defined before it is
    /// read. Returns the kernel and its register count.
    fn random_kernel(rng: &mut Rng) -> (KernelCode, usize) {
        let mut k = KernelCode::default();
        let mut defined: Vec<u16> = Vec::new();
        let reg = |rng: &mut Rng, defined: &[u16]| defined[rng.below(defined.len())];
        let tap = |rng: &mut Rng| match rng.below(4) {
            0 => (0, 0),
            _ => (1, rng.below(2 * R as usize + 1) as i32 - R as i32),
        };
        let operand = |rng: &mut Rng, defined: &[u16]| match rng.below(5) {
            0 if !defined.is_empty() => Operand::Reg(reg(rng, defined)),
            1 => Operand::Imm(rng.value()),
            2 => {
                let (arr, delta) = tap(rng);
                Operand::ImmTap { v: rng.value(), arr, delta }
            }
            3 if !defined.is_empty() => Operand::ImmReg { v: rng.value(), r: reg(rng, defined) },
            _ => {
                let (arr, delta) = tap(rng);
                Operand::Tap { arr, delta }
            }
        };
        let cmp = |rng: &mut Rng| {
            [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Eq, CmpOp::Ne][rng.below(6)]
        };
        for _ in 0..1 + rng.below(8) {
            let dst = defined.len() as u16;
            // Ops that read registers wait until one is defined.
            let op = match rng.below(if defined.is_empty() { 3 } else { 11 }) {
                0 | 1 => {
                    let first = operand(rng, &defined);
                    let lo = k.links.len() as u32;
                    for _ in 0..rng.below(9) {
                        // Additions are half of all links, so runs of them
                        // take the batched path.
                        let op = match rng.below(8) {
                            0..=3 => BinOp::Add,
                            4 => BinOp::Sub,
                            5 => BinOp::Mul,
                            _ => BinOp::Div,
                        };
                        let x = operand(rng, &defined);
                        k.links.push(Link { op, rev: rng.below(2) == 0, x });
                    }
                    let hi = k.links.len() as u32;
                    let dst = match rng.below(2) {
                        0 => ChainDst::Reg(dst),
                        _ => ChainDst::Store { arr: 0, delta: 0 },
                    };
                    Op::Chain { first, lo, hi, dst }
                }
                2 => match tap(rng) {
                    (arr, delta) if rng.below(4) > 0 => Op::Load { dst, arr, delta },
                    _ => Op::Const { dst, v: rng.value() },
                },
                3 => Op::Cmp { op: cmp(rng), dst, a: reg(rng, &defined), b: reg(rng, &defined) },
                4 => Op::CmpImmR { op: cmp(rng), dst, a: reg(rng, &defined), v: rng.value() },
                5 => Op::CmpImmL { op: cmp(rng), dst, v: rng.value(), b: reg(rng, &defined) },
                6 | 7 => {
                    let (c, t, e) = (reg(rng, &defined), reg(rng, &defined), reg(rng, &defined));
                    match rng.below(2) {
                        0 => Op::Select { dst, c, t, e },
                        _ => Op::SelStore { arr: 0, delta: 0, c, t, e },
                    }
                }
                8 => Op::Neg { dst, src: reg(rng, &defined) },
                9 => Op::Copy { dst, src: reg(rng, &defined) },
                _ => Op::Store { arr: 0, delta: 0, src: reg(rng, &defined) },
            };
            if matches!(
                op,
                Op::Chain { dst: ChainDst::Reg(_), .. }
                    | Op::Load { .. }
                    | Op::Const { .. }
                    | Op::Cmp { .. }
                    | Op::CmpImmR { .. }
                    | Op::CmpImmL { .. }
                    | Op::Select { .. }
                    | Op::Neg { .. }
                    | Op::Copy { .. }
            ) {
                defined.push(dst);
            }
            k.ops.push(op);
        }
        (k, defined.len().max(1))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..Default::default()
        })]

        /// Random folds and the register and predicated ops around them,
        /// over rows of 1-100 points (no chunk, partial chunks, full ones)
        /// at steps 1-3: the scalar executor and every tier's chunked one
        /// leave the same bits.
        #[test]
        fn random_kernels_give_the_same_bits_on_every_tier(
            seed in 0u64..1_000_000,
            count in 1i64..=100,
            step in 1i64..=3,
        ) {
            let mut rng = Rng(seed);
            let (k, regs) = random_kernel(&mut rng);
            assert!(vector_safe(&k, step), "{k:?}");
            let len = (2 * R + (count - 1) * step + 1) as usize;
            let bufs: Vec<Vec<f64>> =
                (0..2).map(|_| (0..len).map(|_| rng.value()).collect()).collect();
            both_ways(&k, regs, &bufs, (R, count, step));
        }
    }
}
