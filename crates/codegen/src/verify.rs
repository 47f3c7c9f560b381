//! The bytecode verifier: an abstract interpreter over compiled kernels
//! that machine-checks every invariant the unchecked row executors rely on.
//!
//! [`compile_nest`](crate::compile_nest) emits kernels whose execution is
//! *trusted*: `run_row::<false>` indexes registers, array slots and subgrid
//! storage unchecked, justified by compile-time validation plus one hoisted
//! bounds proof per row. This module re-derives each of those obligations
//! from the finished [`CompiledNest`] alone — independently of how the
//! compiler established them — and reports violations as standard
//! [`Diagnostic`]s:
//!
//! - **BV001 — register and slot discipline.** Every register operand is
//!   inside the register file, every slot operand inside the array table,
//!   no op overwrites a preloaded register (the chunked executor broadcasts
//!   preloads once and assumes they survive), and in fast (non-strict) mode
//!   every register read is preceded by a definition — the property that
//!   makes dropping dead writes and reordering lanes sound.
//! - **BV002 — strict-mode discipline.** A kernel whose body observes
//!   loop-carried register state must take the interpreter-faithful
//!   translation: no preloads, no fused ops (a grown fold, `SelStore`), and
//!   no chunked execution. Any of those appearing in a strict kernel would
//!   change observable results.
//! - **BV003 — bounds. (a)** Every memory operand's flat delta lies inside
//!   the kernel's declared `[min_delta, max_delta]` envelope — the
//!   soundness precondition of the hoisted per-row proof (`first = base +
//!   min_delta`, `last = last_base + max_delta`). **(b)** Interval analysis
//!   over the kernel's own base/step/count geometry: the extreme flat
//!   indices any row can touch stay inside `[0, len)` of the PE's subgrid
//!   (owned cells plus ghost layer).
//! - **BV004 — chunk safety.** For bodies flagged for the 32-lane chunked
//!   executor, re-derive store/load aliasing disjointness from scratch: no
//!   store in one lane may touch another lane's memory operand (a flat-
//!   delta difference of `k * step`, `0 < k <` [`LANES`]). This repeats the
//!   compiler's `vector_safe` conclusion without sharing its code.
//!
//! An accumulator fold ([`Op::Chain`]) reads subgrid memory and strip
//! registers *per operand*, so each rule sees it operand by operand: its
//! link range must lie inside the body's link table and every register
//! operand (`first`, each link, scaled or not) be in the file and defined
//! before the fold (BV001); in a strict kernel it must be the plain
//! translation of one `Bin` — one link over registers and immediates into a
//! register (BV002); every tap and the fold's store must sit inside the
//! declared envelope (BV003), since the chunked executor reads a full
//! chunk's taps straight from subgrid memory on the strength of the row
//! proof alone; and taps and store enter the aliasing test like loads and
//! stores (BV004) — a fold reads all taps of a lane before it stores that
//! lane, the order the scalar executor has too.
//!
//! The verifier is *sound but intentionally not minimal*: it flags anything
//! it cannot prove safe. Compiler-emitted kernels always verify clean (a
//! property the workspace-root proptests enforce); the mutation-kill suite
//! injects [`Fault`]s and asserts each one is rejected.
//!
//! Note what BV003 does **not** check: ghost-cell *freshness*. A kernel
//! reading a halo cell no communication filled is memory-safe (the cell
//! exists) but numerically stale — that is the halo-safety lints' job
//! (HS001/HS002 in `hpf-analysis`), not the verifier's.

use crate::bytecode::{ChainDst, KernelCode, Link, Op, Operand, Reg, Slot};
use crate::vm::{CompiledNest, NestCode, LANES};
use hpf_ir::diag::Diagnostic;
use std::sync::Arc;

/// Register/slot discipline violation (out-of-range operand, read before
/// definition in fast mode, write to a preloaded register).
pub const BV001: &str = "BV001";
/// Strict-mode discipline violation (preloads, fused ops, or chunked
/// execution in a loop-carried kernel).
pub const BV002: &str = "BV002";
/// Bounds violation (delta outside the declared envelope, or the interval
/// analysis cannot keep every row access inside `[0, len)`).
pub const BV003: &str = "BV003";
/// Chunk-safety violation (a store may alias another lane's memory op in a
/// body flagged for the chunked executor).
pub const BV004: &str = "BV004";

/// Verify one compiled kernel. Returns every violated obligation as an
/// error diagnostic (empty = the kernel is proven safe for the unchecked
/// executors). Empty nests are trivially clean: execution is a no-op.
pub fn verify_nest(cn: &CompiledNest) -> Vec<Diagnostic> {
    verify_shared(&[cn])
}

/// Verify one nest's per-PE kernels, each distinct code once for all the PEs
/// that share it: each code's PEs, in order, with its diagnostics.
pub fn verify_kernels(kernels: &[Option<CompiledNest>]) -> Vec<(Vec<usize>, Vec<Diagnostic>)> {
    let mut groups: Vec<(Vec<usize>, Vec<&CompiledNest>)> = Vec::new();
    for (pe, k) in kernels.iter().enumerate().filter_map(|(pe, k)| Some((pe, k.as_ref()?))) {
        match groups.iter_mut().find(|(_, g)| Arc::ptr_eq(&g[0].code, &k.code)) {
            Some((pes, g)) => {
                pes.push(pe);
                g.push(k);
            }
            None => groups.push((vec![pe], vec![k])),
        }
    }
    groups.into_iter().map(|(pes, g)| (pes, verify_shared(&g))).collect()
}

/// Verify kernels that run one shared code, each over its own bounds: each
/// body is proven once, over the widest box it runs on any sharer (the hull
/// of its boxes), which holds every sharer's rows.
fn verify_shared(sharers: &[&CompiledNest]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let live: Vec<&CompiledNest> = sharers.iter().copied().filter(|k| !k.empty).collect();
    let Some(first) = live.first() else { return out };
    let cn = &*first.code;
    if !live.iter().all(|k| structure_ok(cn, &k.lo, &k.hi, &mut out)) {
        return out;
    }
    // Each body's box over every sharer: the hull of the boxes it runs.
    let mut bodies: Vec<BodyView> = Vec::new();
    for k in &live {
        for body in Geometry::of(cn, &k.lo, &k.hi).bodies(cn, &k.lo, &k.hi) {
            let Some(b) = bodies.iter_mut().find(|b| b.name == body.name) else {
                bodies.push(body);
                continue;
            };
            for d in 0..b.lo.len() {
                (b.lo[d], b.hi[d]) = (b.lo[d].min(body.lo[d]), b.hi[d].max(body.hi[d]));
            }
        }
    }
    for body in &bodies {
        check_registers(cn, body, &mut out);
        check_bounds(cn, body, &mut out);
        if body.vec {
            check_chunk_safety(body, &mut out);
        }
    }
    check_strict_discipline(cn, &mut out);
    out
}

impl CompiledNest {
    /// Run the bytecode verifier on this kernel; see [`verify_nest`].
    pub fn verify(&self) -> Vec<Diagnostic> {
        verify_nest(self)
    }
}

/// Dimension tables must agree on rank and the loop order must be a
/// permutation — everything later indexes through them.
fn structure_ok(cn: &NestCode, lo: &[i64], hi: &[i64], out: &mut Vec<Diagnostic>) -> bool {
    let rank = lo.len();
    if hi.len() != rank || cn.strides.len() != rank || cn.order.len() != rank || rank == 0 {
        out.push(Diagnostic::error(
            BV001,
            format!(
                "malformed kernel: dimension tables disagree on rank \
                 (lo {}, hi {}, strides {}, order {})",
                lo.len(),
                hi.len(),
                cn.strides.len(),
                cn.order.len()
            ),
        ));
        return false;
    }
    let mut seen = vec![false; rank];
    for &d in &cn.order {
        if d >= rank || std::mem::replace(&mut seen[d], true) {
            out.push(Diagnostic::error(
                BV001,
                format!("malformed kernel: loop order {:?} is not a permutation", cn.order),
            ));
            return false;
        }
    }
    if cn.factor < 1 {
        out.push(Diagnostic::error(
            BV001,
            format!("malformed kernel: unroll factor {} < 1", cn.factor),
        ));
        return false;
    }
    true
}

/// The executor's grouping geometry, re-derived from the kernel alone: how
/// many outermost iterations run the jammed body, where the unit remainder
/// starts, and what step each body's rows advance by.
struct Geometry {
    /// Outermost loop dimension.
    d0: usize,
    /// Jammed group starts along `d0`: `lo, lo+f, ..` (`groups` of them).
    groups: i64,
    /// Remainder iterations along `d0` after the last full group.
    rem: i64,
    /// Flat-index step of a chunked jammed row.
    jam_step: i64,
    /// Flat-index step of a chunked unit row.
    unit_step: i64,
}

impl Geometry {
    fn of(cn: &NestCode, lo: &[i64], hi: &[i64]) -> Geometry {
        let d0 = cn.order[0];
        let n0 = (hi[d0] - lo[d0] + 1).max(0);
        let groups = n0 / cn.factor;
        let rem = n0 - groups * cn.factor;
        let inner = *cn.order.last().unwrap();
        let (jam_step, unit_step) = if cn.order.len() == 1 {
            (cn.factor * cn.strides[d0], cn.strides[d0])
        } else {
            (cn.strides[inner], cn.strides[inner])
        };
        Geometry { d0, groups, rem, jam_step, unit_step }
    }

    /// The bodies the executor can actually reach over the bounds
    /// `lo..=hi`, each with the box of its row points: the outermost index
    /// is restricted to group starts for the jammed body, remainder points
    /// for the unit body.
    fn bodies<'a>(&self, cn: &'a NestCode, lo: &[i64], hi: &[i64]) -> Vec<BodyView<'a>> {
        let view = |name, code, vec, step, outer: (i64, i64)| {
            let (mut lo, mut hi) = (lo.to_vec(), hi.to_vec());
            (lo[self.d0], hi[self.d0]) = outer;
            BodyView { name, code, vec, step, lo, hi }
        };
        let mut v = Vec::new();
        let first = lo[self.d0];
        if self.groups > 0 {
            let outer = (first, first + (self.groups - 1) * cn.factor);
            v.push(view("jammed", &cn.jammed, cn.jam_vec, self.jam_step, outer));
        }
        if self.rem > 0 {
            let unit = cn.unit.as_ref().unwrap_or(&cn.jammed);
            let outer = (first + self.groups * cn.factor, hi[self.d0]);
            v.push(view("unit", unit, cn.unit_vec, self.unit_step, outer));
        }
        v
    }
}

/// One reachable body plus the geometry its rows execute under.
struct BodyView<'a> {
    name: &'static str,
    code: &'a KernelCode,
    /// Flagged for the chunked (vectorized) executor.
    vec: bool,
    /// Flat-index step between consecutive chunk lanes.
    step: i64,
    /// Inclusive box of the points this body's rows cover.
    lo: Vec<i64>,
    hi: Vec<i64>,
}

/// A chain's operands (`first`, then each link's) — empty when its link
/// range escapes the table (BV001 reports that separately).
fn chain_operands(first: Operand, lo: u32, hi: u32, links: &[Link]) -> Vec<Operand> {
    let xs = links.get(lo as usize..hi as usize).unwrap_or(&[]);
    std::iter::once(first).chain(xs.iter().map(|l| l.x)).collect()
}

/// Registers an op reads, in operand order.
fn op_reads(op: &Op, links: &[Link]) -> Vec<Reg> {
    match *op {
        Op::Const { .. } | Op::Load { .. } => vec![],
        Op::Store { src, .. } => vec![src],
        Op::Chain { first, lo, hi, .. } => chain_operands(first, lo, hi, links)
            .iter()
            .filter_map(|o| match *o {
                Operand::Reg(r) | Operand::ImmReg { r, .. } => Some(r),
                Operand::Tap { .. } | Operand::Imm(_) | Operand::ImmTap { .. } => None,
            })
            .collect(),
        Op::Cmp { a, b, .. } => vec![a, b],
        Op::CmpImmR { a, .. } => vec![a],
        Op::CmpImmL { b, .. } => vec![b],
        Op::Neg { src, .. } | Op::Copy { src, .. } => vec![src],
        Op::Select { c, t, e, .. } => vec![c, t, e],
        Op::SelStore { c, t, e, .. } => vec![c, t, e],
    }
}

/// The register an op defines, if any.
fn op_dst(op: &Op) -> Option<Reg> {
    match *op {
        Op::Store { .. } | Op::SelStore { .. } | Op::Chain { dst: ChainDst::Store { .. }, .. } => {
            None
        }
        Op::Const { dst, .. }
        | Op::Load { dst, .. }
        | Op::Chain { dst: ChainDst::Reg(dst), .. }
        | Op::Neg { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::CmpImmR { dst, .. }
        | Op::CmpImmL { dst, .. }
        | Op::Select { dst, .. } => Some(dst),
    }
}

/// Every memory operand of an op as `(slot, delta, is_store)`: a chain's
/// taps (plain and scaled) in operand order, then its store.
fn op_mems(op: &Op, links: &[Link]) -> Vec<(Slot, i32, bool)> {
    match *op {
        Op::Load { arr, delta, .. } => vec![(arr, delta, false)],
        Op::Store { arr, delta, .. } | Op::SelStore { arr, delta, .. } => vec![(arr, delta, true)],
        Op::Chain { first, lo, hi, dst } => {
            let mut v: Vec<(Slot, i32, bool)> = chain_operands(first, lo, hi, links)
                .iter()
                .filter_map(|o| match *o {
                    Operand::Tap { arr, delta } | Operand::ImmTap { arr, delta, .. } => {
                        Some((arr, delta, false))
                    }
                    Operand::Reg(_) | Operand::Imm(_) | Operand::ImmReg { .. } => None,
                })
                .collect();
            if let ChainDst::Store { arr, delta } = dst {
                v.push((arr, delta, true));
            }
            v
        }
        _ => vec![],
    }
}

/// BV001: abstract interpretation of the register file. The abstract state
/// is the set of defined registers, seeded with the preloads; each op must
/// read only defined registers (fast mode), stay inside the register file
/// and slot table, and never define a preloaded register.
fn check_registers(cn: &NestCode, body: &BodyView, out: &mut Vec<Diagnostic>) {
    let regs = cn.regs;
    let mut defined = vec![false; regs];
    for &(r, _) in &cn.preloads {
        if (r as usize) < regs {
            defined[r as usize] = true;
        } else {
            out.push(Diagnostic::error(
                BV001,
                format!("preload register r{r} outside the register file (size {regs})"),
            ));
        }
    }
    let preloaded: Vec<bool> = {
        let mut p = vec![false; regs];
        for &(r, _) in &cn.preloads {
            if (r as usize) < regs {
                p[r as usize] = true;
            }
        }
        p
    };
    let links = &body.code.links;
    for (i, op) in body.code.ops.iter().enumerate() {
        if let Op::Chain { lo, hi, .. } = *op {
            if lo > hi || hi as usize > links.len() {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} folds links {lo}..{hi} outside the link table (size {})",
                        body.name,
                        links.len()
                    ),
                ));
            }
        }
        for r in op_reads(op, links) {
            if r as usize >= regs {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} reads register r{r} outside the register file (size {regs})",
                        body.name
                    ),
                ));
            } else if !cn.strict && !defined[r as usize] {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} reads register r{r} before any definition — fast-mode \
                         kernels must define every register they read",
                        body.name
                    ),
                ));
            }
        }
        for (slot, _, _) in op_mems(op, links) {
            if slot as usize >= cn.arrays.len() {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} addresses array slot {slot} outside the slot table \
                         (size {})",
                        body.name,
                        cn.arrays.len()
                    ),
                ));
            }
        }
        if let Some(d) = op_dst(op) {
            if d as usize >= regs {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} defines register r{d} outside the register file (size {regs})",
                        body.name
                    ),
                ));
            } else {
                if preloaded[d as usize] {
                    out.push(Diagnostic::error(
                        BV001,
                        format!(
                            "{} op {i} overwrites preloaded register r{d} — the chunked \
                             executor broadcasts preloads once and assumes they survive",
                            body.name
                        ),
                    ));
                }
                defined[d as usize] = true;
            }
        }
    }
}

/// BV002: a strict (loop-carried) kernel must be the interpreter-faithful
/// translation — no preloads, no fused ops, no chunked execution.
fn check_strict_discipline(cn: &NestCode, out: &mut Vec<Diagnostic>) {
    if !cn.strict {
        return;
    }
    if !cn.preloads.is_empty() {
        out.push(Diagnostic::error(
            BV002,
            format!(
                "strict kernel hoists {} constant preload(s) — loop-carried register \
                 state must start at zero like the interpreter's file",
                cn.preloads.len()
            ),
        ));
    }
    for (name, code) in [("jammed", &cn.jammed), ("unit", cn.unit.as_ref().unwrap_or(&cn.jammed))] {
        // The faithful translation of a `Bin` is one link over registers
        // and immediates into a register; anything more is a grown fold.
        let plain = |o: Operand| matches!(o, Operand::Reg(_) | Operand::Imm(_));
        if let Some(i) = code.ops.iter().position(|op| match *op {
            Op::SelStore { .. } => true,
            Op::Chain { first, lo, hi, dst } => {
                hi != lo + 1
                    || matches!(dst, ChainDst::Store { .. })
                    || !chain_operands(first, lo, hi, &code.links).into_iter().all(plain)
            }
            _ => false,
        }) {
            out.push(Diagnostic::error(
                BV002,
                format!(
                    "strict kernel contains fused op at {name} position {i} — fusion drops \
                     intermediate register writes that loop-carried bodies may observe"
                ),
            ));
        }
    }
    if cn.jam_vec || cn.unit_vec {
        out.push(Diagnostic::error(
            BV002,
            "strict kernel flagged for chunked execution — lanes would not observe \
             the previous point's register state"
                .to_string(),
        ));
    }
}

/// BV003: (a) every memory delta inside the declared envelope; (b) interval
/// analysis proving the extreme flat indices of every reachable row stay
/// inside `[0, len)`.
fn check_bounds(cn: &NestCode, body: &BodyView, out: &mut Vec<Diagnostic>) {
    let (dmin, dmax) = (body.code.min_delta, body.code.max_delta);
    for (i, op) in body.code.ops.iter().enumerate() {
        for (_, delta, _) in op_mems(op, &body.code.links) {
            let d = delta as i64;
            if d < dmin || d > dmax {
                out.push(Diagnostic::error(
                    BV003,
                    format!(
                        "{} op {i} delta {d} escapes the declared envelope [{dmin}, {dmax}] \
                         the hoisted row bounds proof covers",
                        body.name
                    ),
                ));
            }
        }
    }

    // Extreme base indices over the body's reachable iteration points:
    // per-dimension contribution intervals of `(point + halo - 1) * stride`
    // over the body's box. Rows advance along the innermost dimension,
    // whose full range is already part of the interval, so `base + delta`
    // bounds every row access — including the column-major thin-strip
    // walk, which visits the same point set in a different order.
    let (mut min_base, mut max_base) = (0i64, 0i64);
    for d in 0..body.lo.len() {
        let a = (body.lo[d] + cn.halo - 1) * cn.strides[d];
        let b = (body.hi[d] + cn.halo - 1) * cn.strides[d];
        min_base += a.min(b);
        max_base += a.max(b);
    }
    let (first, last) = (min_base + dmin, max_base + dmax);
    if first < 0 || last >= cn.len as i64 {
        out.push(Diagnostic::error(
            BV003,
            format!(
                "{} body can touch flat indices [{first}, {last}] outside the subgrid \
                 [0, {}) — the unchecked row executor would read or write out of bounds",
                body.name, cn.len
            ),
        ));
    }
}

/// BV004: independent re-derivation of chunk safety. A store at delta `sd`
/// and a memory op at delta `md` on the same array collide across lanes iff
/// `sd - md = k * step` for some `0 < k < LANES` (lane `i`'s store hits
/// lane `i+k`'s location, or vice versa); `diff == 0` is the same lane and
/// per-lane op order is preserved. Derived by enumerating `k` directly —
/// not by the compiler's divisibility test — so a bug in one cannot hide in
/// the other.
fn check_chunk_safety(body: &BodyView, out: &mut Vec<Diagnostic>) {
    if body.step == 0 {
        out.push(Diagnostic::error(
            BV004,
            format!("{} body chunked with step 0 — every lane would alias", body.name),
        ));
        return;
    }
    let mems: Vec<(Slot, i64, bool)> = body
        .code
        .ops
        .iter()
        .flat_map(|op| op_mems(op, &body.code.links))
        .map(|(a, d, is_store)| (a, d as i64, is_store))
        .collect();
    for &(sa, sd, s_store) in &mems {
        if !s_store {
            continue;
        }
        for &(ma, md, _) in &mems {
            if sa != ma || sd == md {
                continue;
            }
            let diff = sd - md;
            for k in 1..LANES as i64 {
                if diff == k * body.step || diff == -k * body.step {
                    out.push(Diagnostic::error(
                        BV004,
                        format!(
                            "{} body chunked with step {}: store at delta {sd} aliases a \
                             memory op at delta {md} {k} lane(s) away (chunk width {LANES})",
                            body.name, body.step
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

/// A deliberate kernel corruption for the mutation-kill suite: each variant
/// violates one invariant the verifier proves, so `verify()` must reject
/// the mutated kernel with a `BV*` diagnostic. [`CompiledNest::inject`]
/// returns `false` when the fault does not apply to this kernel (no such
/// op, nothing to corrupt), letting drivers skip inapplicable mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Swap ops `i` and `j` of the jammed (`unit == false`) or unit body —
    /// reorders a definition after its use (BV001). Two ops that commute
    /// (two independent folds, say) change nothing swapped: not applicable.
    SwapOps {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// First op position.
        i: usize,
        /// Second op position.
        j: usize,
    },
    /// Add `by` to the delta of the `i`-th *memory* op of the body without
    /// updating the declared envelope (BV003).
    PerturbDelta {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Index among the body's memory ops (loads, stores, sel-stores).
        i: usize,
        /// Delta perturbation.
        by: i32,
    },
    /// Add `by` to the delta of the `tap`-th memory tap of the `chain`-th
    /// fold of the body without updating the declared envelope — the
    /// chunked executor would read a whole chunk from there (BV003).
    PerturbChainTap {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Index among the body's chain ops.
        chain: usize,
        /// Index among that chain's tap operands (plain and scaled).
        tap: usize,
        /// Delta perturbation.
        by: i32,
    },
    /// Make the last operand of the `chain`-th fold read the lowest strip
    /// register nothing has written by then (BV001).
    LinkReadsUnwritten {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Index among the body's chain ops.
        chain: usize,
    },
    /// Point the `chain`-th fold's store one lane past its first tap, on
    /// the tap's array: lane `i` then overwrites what lane `i + 1` reads
    /// (BV004 in a chunked body).
    ChainStoreAliasesTap {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Index among the body's chain ops.
        chain: usize,
    },
    /// Widen the declared upper loop bound of dimension `dim` by `by` —
    /// rows then walk past the subgrid (BV003).
    WidenBounds {
        /// Dimension whose upper bound grows.
        dim: usize,
        /// Extra iterations.
        by: i64,
    },
    /// Shrink the body's declared `[min_delta, max_delta]` envelope to
    /// `[0, 0]` — the hoisted row proof then covers nothing (BV003).
    ShrinkDeclaredDeltas {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
    },
    /// Retarget the first register operand of op `i` to `reg` (out-of-range
    /// or undefined registers trip BV001); a fold without register operands
    /// has its first operand replaced by the register.
    RetargetReg {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Op position.
        i: usize,
        /// New register for the op's first source operand.
        reg: Reg,
    },
    /// Claim chunk safety for both bodies regardless of the aliasing test
    /// (BV004, or BV002 for strict kernels).
    ForceVectorized,
}

impl CompiledNest {
    /// Apply a [`Fault`] to this kernel in place, for the mutation-kill
    /// suite. Returns `true` when the corruption was applied; `false` when
    /// it does not apply (out-of-range positions, no matching op, or the
    /// fault would change nothing).
    pub fn inject(&mut self, fault: Fault) -> bool {
        fn body_mut(cn: &mut NestCode, unit: bool) -> &mut KernelCode {
            if unit {
                cn.unit.as_mut().unwrap_or(&mut cn.jammed)
            } else {
                &mut cn.jammed
            }
        }
        /// Positions of the body's chain ops.
        fn chain_positions(code: &KernelCode) -> impl Iterator<Item = usize> + '_ {
            (0..code.ops.len()).filter(|&p| matches!(code.ops[p], Op::Chain { .. }))
        }
        /// The `chain`-th fold of the body: first operand, links, destination.
        fn chain_mut(
            code: &mut KernelCode,
            chain: usize,
        ) -> Option<(&mut Operand, &mut [Link], &mut ChainDst)> {
            let at = chain_positions(code).nth(chain)?;
            match &mut code.ops[at] {
                Op::Chain { first, lo, hi, dst } => {
                    Some((first, code.links.get_mut(*lo as usize..*hi as usize)?, dst))
                }
                _ => None,
            }
        }
        if self.empty || self.code.order.is_empty() {
            return false;
        }
        // Is the `KernelCode` the fault would mutate reachable by the
        // executor? Faults on dead code (a remainder body that never runs, a
        // jammed body with zero groups) change nothing observable, so they
        // do not apply. Note the shared-code cases: when `unit` is `None`
        // both body views execute the jammed `KernelCode`.
        let g = Geometry::of(&self.code, &self.lo, &self.hi);
        let has_unit = self.code.unit.is_some();
        let body_live = |unit: bool| {
            if unit && has_unit {
                g.rem > 0
            } else if unit {
                g.groups > 0 || g.rem > 0
            } else {
                g.groups > 0 || (!has_unit && g.rem > 0)
            }
        };
        let cn = Arc::make_mut(&mut self.code);
        match fault {
            Fault::SwapOps { unit, i, j } => {
                if !body_live(unit) {
                    return false;
                }
                let code = body_mut(cn, unit);
                if i == j || i >= code.ops.len() || j >= code.ops.len() {
                    return false;
                }
                // One op clashes with another when it defines a register
                // the other names or touches a location the other stores.
                let clash = |a: &Op, b: &Op| {
                    let (ma, mb) = (op_mems(a, &code.links), op_mems(b, &code.links));
                    op_dst(a).is_some_and(|d| {
                        op_dst(b) == Some(d) || op_reads(b, &code.links).contains(&d)
                    }) || ma.iter().any(|&(sa, da, wa)| {
                        mb.iter().any(|&(sb, db, wb)| (wa || wb) && (sa, da) == (sb, db))
                    })
                };
                if !clash(&code.ops[i], &code.ops[j]) && !clash(&code.ops[j], &code.ops[i]) {
                    return false;
                }
                code.ops.swap(i, j);
                true
            }
            Fault::PerturbDelta { unit, i, by } => {
                if by == 0 || !body_live(unit) {
                    return false;
                }
                let code = body_mut(cn, unit);
                let plain = code.ops.iter_mut().filter_map(|op| match op {
                    Op::Load { delta, .. }
                    | Op::Store { delta, .. }
                    | Op::SelStore { delta, .. } => Some(delta),
                    _ => None,
                });
                let Some(delta) = { plain }.nth(i) else { return false };
                *delta = delta.wrapping_add(by);
                true
            }
            Fault::PerturbChainTap { unit, chain, tap, by } => {
                if by == 0 || !body_live(unit) {
                    return false;
                }
                let code = body_mut(cn, unit);
                let Some((first, links, _)) = chain_mut(code, chain) else { return false };
                let taps = std::iter::once(first).chain(links.iter_mut().map(|l| &mut l.x));
                let deltas = taps.filter_map(|o| match o {
                    Operand::Tap { delta, .. } | Operand::ImmTap { delta, .. } => Some(delta),
                    _ => None,
                });
                let Some(delta) = { deltas }.nth(tap) else { return false };
                *delta = delta.wrapping_add(by);
                true
            }
            Fault::LinkReadsUnwritten { unit, chain } => {
                if cn.strict || !body_live(unit) {
                    return false;
                }
                let mut written = vec![false; cn.regs];
                for &(r, _) in &cn.preloads {
                    written[r as usize] = true;
                }
                let code = body_mut(cn, unit);
                let Some(at) = chain_positions(code).nth(chain) else { return false };
                for r in code.ops[..at].iter().filter_map(op_dst) {
                    written[r as usize] = true;
                }
                let Some(reg) = written.iter().position(|w| !w) else { return false };
                let Some((first, links, _)) = chain_mut(code, chain) else { return false };
                *links.last_mut().map_or(first, |l| &mut l.x) = Operand::Reg(reg as Reg);
                true
            }
            Fault::ChainStoreAliasesTap { unit, chain } => {
                if !body_live(unit) {
                    return false;
                }
                let step = if unit { g.unit_step } else { g.jam_step };
                let code = body_mut(cn, unit);
                let Some((first, links, dst)) = chain_mut(code, chain) else { return false };
                let tap = std::iter::once(&*first).chain(links.iter().map(|l| &l.x)).find_map(
                    |o| match *o {
                        Operand::Tap { arr, delta } | Operand::ImmTap { arr, delta, .. } => {
                            Some((arr, delta))
                        }
                        _ => None,
                    },
                );
                let Some((arr, delta)) = tap else { return false };
                let Ok(step) = i32::try_from(step) else { return false };
                *dst = ChainDst::Store { arr, delta: delta.wrapping_add(step) };
                true
            }
            Fault::WidenBounds { dim, by } => {
                if by <= 0 || dim >= self.hi.len() {
                    return false;
                }
                self.hi[dim] += by;
                true
            }
            Fault::ShrinkDeclaredDeltas { unit } => {
                if !body_live(unit) {
                    return false;
                }
                let code = body_mut(cn, unit);
                if code.min_delta == 0 && code.max_delta == 0 {
                    return false;
                }
                code.min_delta = 0;
                code.max_delta = 0;
                true
            }
            Fault::RetargetReg { unit, i, reg } => {
                if !body_live(unit) {
                    return false;
                }
                let code = body_mut(cn, unit);
                let Some(op) = code.ops.get_mut(i) else { return false };
                match op {
                    Op::Store { src, .. } => *src = reg,
                    Op::Cmp { a, .. } | Op::CmpImmR { a, .. } => *a = reg,
                    Op::CmpImmL { b, .. } => *b = reg,
                    Op::Chain { first, lo, hi, .. } => {
                        let xs =
                            code.links[*lo as usize..*hi as usize].iter_mut().map(|l| &mut l.x);
                        let named = std::iter::once(&mut *first).chain(xs).find_map(|o| match o {
                            Operand::Reg(r) | Operand::ImmReg { r, .. } => Some(r),
                            _ => None,
                        });
                        match named {
                            Some(r) => *r = reg,
                            None => *first = Operand::Reg(reg),
                        }
                    }
                    Op::Neg { src, .. } | Op::Copy { src, .. } => *src = reg,
                    Op::Select { c, .. } | Op::SelStore { c, .. } => *c = reg,
                    Op::Const { .. } | Op::Load { .. } => return false,
                }
                true
            }
            Fault::ForceVectorized => {
                if cn.jam_vec && cn.unit_vec {
                    return false;
                }
                cn.jam_vec = true;
                cn.unit_vec = true;
                true
            }
        }
    }
}

/// Apply `fault` to the first of one nest's per-PE `kernels` and the code it
/// runs on every PE that shares it — a layout miscompiled once — for the
/// mutation-kill suite; `false` when the fault does not apply.
#[doc(hidden)]
pub fn inject_shared(kernels: &mut [Option<CompiledNest>], fault: Fault) -> bool {
    let Some(first) = kernels.iter_mut().flatten().next() else { return false };
    let sound = Arc::clone(&first.code);
    if !first.inject(fault) {
        first.code = sound;
        return false;
    }
    let faulty = Arc::clone(&first.code);
    for k in kernels.iter_mut().flatten().filter(|k| Arc::ptr_eq(&k.code, &sound)) {
        k.code = Arc::clone(&faulty);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built 1-D kernel over a 16-cell subgrid with halo 1: bounds
    /// `lo..=hi` in local coordinates, flat length 18.
    fn kernel_1d(ops: Vec<Op>, regs: usize, lo: i64, hi: i64) -> CompiledNest {
        chain_kernel_1d(ops, vec![], regs, lo, hi)
    }

    /// [`kernel_1d`] with a link table for its chain ops.
    fn chain_kernel_1d(
        ops: Vec<Op>,
        links: Vec<Link>,
        regs: usize,
        lo: i64,
        hi: i64,
    ) -> CompiledNest {
        let (mut min_delta, mut max_delta) = (0i64, 0i64);
        for (_, d, _) in ops.iter().flat_map(|op| op_mems(op, &links)) {
            min_delta = min_delta.min(d as i64);
            max_delta = max_delta.max(d as i64);
        }
        let code = NestCode {
            strides: vec![1],
            halo: 1,
            order: vec![0],
            factor: 1,
            jammed: KernelCode { ops, links, min_delta, max_delta },
            unit: None,
            arrays: vec![0, 1],
            regs,
            preloads: vec![],
            len: 18,
            jam_vec: false,
            unit_vec: false,
            strict: false,
        };
        CompiledNest { empty: false, lo: vec![lo], hi: vec![hi], code: Arc::new(code) }
    }

    /// The code `cn` runs, made its own to corrupt by hand.
    fn code_mut(cn: &mut CompiledNest) -> &mut NestCode {
        Arc::make_mut(&mut cn.code)
    }

    fn copy_ops() -> Vec<Op> {
        vec![Op::Load { dst: 0, arr: 0, delta: 0 }, Op::Store { arr: 1, delta: 0, src: 0 }]
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_kernel_verifies_clean() {
        let cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn empty_kernel_is_trivially_clean() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        cn.empty = true;
        code_mut(&mut cn).regs = 0; // even nonsense fields are unreachable
        assert!(cn.verify().is_empty());
    }

    #[test]
    fn bv001_flags_out_of_range_register_and_slot() {
        let cn = kernel_1d(
            vec![Op::Load { dst: 7, arr: 0, delta: 0 }, Op::Store { arr: 5, delta: 0, src: 7 }],
            1,
            1,
            16,
        );
        let d = cn.verify();
        assert!(codes(&d).iter().all(|&c| c == BV001), "{d:?}");
        assert!(d.len() >= 3, "dst, slot and src violations: {d:?}");
    }

    #[test]
    fn bv001_flags_read_before_def_in_fast_mode() {
        let cn = kernel_1d(vec![Op::Store { arr: 0, delta: 0, src: 0 }], 1, 1, 16);
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("before any definition"));
    }

    #[test]
    fn bv001_allows_read_before_def_in_strict_mode() {
        let mut cn = kernel_1d(vec![Op::Store { arr: 0, delta: 0, src: 0 }], 1, 1, 16);
        code_mut(&mut cn).strict = true;
        assert!(cn.verify().is_empty());
    }

    #[test]
    fn bv001_flags_preload_overwrite() {
        let mut cn = kernel_1d(
            vec![Op::Const { dst: 0, v: 1.0 }, Op::Store { arr: 0, delta: 0, src: 0 }],
            1,
            1,
            16,
        );
        code_mut(&mut cn).preloads = vec![(0, 2.0)];
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("preloaded"));
    }

    #[test]
    fn bv002_flags_fused_ops_and_preloads_in_strict_kernels() {
        let mut cn = chain_kernel_1d(
            vec![
                Op::Load { dst: 0, arr: 0, delta: 0 },
                Op::Chain { first: Operand::Reg(1), lo: 0, hi: 2, dst: ChainDst::Reg(1) },
                Op::Store { arr: 1, delta: 0, src: 1 },
            ],
            vec![
                Link { op: hpf_ir::BinOp::Mul, rev: false, x: Operand::Reg(0) },
                Link { op: hpf_ir::BinOp::Add, rev: true, x: Operand::Reg(0) },
            ],
            2,
            1,
            16,
        );
        code_mut(&mut cn).strict = true;
        code_mut(&mut cn).preloads = vec![(0, 3.0)];
        let d = cn.verify();
        assert!(codes(&d).contains(&BV002), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("fused")));
        assert!(d.iter().any(|x| x.message.contains("preload")));
    }

    #[test]
    fn bv003_flags_delta_escaping_declared_envelope() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::PerturbDelta { unit: false, i: 0, by: 3 }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
        assert!(d[0].message.contains("envelope"));
    }

    #[test]
    fn bv003_flags_rows_escaping_the_subgrid() {
        // lo..=hi touches flat indices up to (17+1-1)+0 = 17 < 18: clean.
        let cn = kernel_1d(copy_ops(), 1, 1, 17);
        assert!(cn.verify().is_empty());
        // One wider and the last row escapes.
        let mut wide = kernel_1d(copy_ops(), 1, 1, 17);
        assert!(wide.inject(Fault::WidenBounds { dim: 0, by: 1 }));
        let d = wide.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
    }

    #[test]
    fn bv003_flags_shrunk_declared_envelope() {
        let ops =
            vec![Op::Load { dst: 0, arr: 0, delta: -1 }, Op::Store { arr: 1, delta: 0, src: 0 }];
        let mut cn = kernel_1d(ops, 1, 2, 16);
        assert!(cn.verify().is_empty());
        assert!(cn.inject(Fault::ShrinkDeclaredDeltas { unit: false }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
    }

    #[test]
    fn bv004_flags_cross_lane_aliasing() {
        // Store one step ahead of the load on the same array: lane i's
        // store hits lane i+1's load.
        let ops =
            vec![Op::Load { dst: 0, arr: 0, delta: 0 }, Op::Store { arr: 0, delta: 1, src: 0 }];
        let mut cn = kernel_1d(ops, 1, 1, 15);
        assert!(cn.verify().is_empty(), "scalar rows are fine");
        assert!(cn.inject(Fault::ForceVectorized));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV004], "{d:?}");
        assert!(d[0].message.contains("lane"));
    }

    #[test]
    fn bv004_accepts_disjoint_arrays_and_same_location() {
        // Distinct arrays and same-delta store/load chunk safely.
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::ForceVectorized));
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn bv002_flags_forced_vectorization_of_strict_kernels() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        code_mut(&mut cn).strict = true;
        assert!(cn.inject(Fault::ForceVectorized));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV002], "{d:?}");
    }

    #[test]
    fn swap_and_retarget_faults_trip_bv001() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::SwapOps { unit: false, i: 0, j: 1 }));
        assert_eq!(codes(&cn.verify()), vec![BV001]);

        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::RetargetReg { unit: false, i: 1, reg: 9 }));
        assert!(codes(&cn.verify()).contains(&BV001));
    }

    #[test]
    fn inapplicable_faults_report_false() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(!cn.inject(Fault::SwapOps { unit: false, i: 0, j: 0 }));
        assert!(!cn.inject(Fault::SwapOps { unit: false, i: 0, j: 9 }));
        assert!(!cn.inject(Fault::PerturbDelta { unit: false, i: 5, by: 1 }));
        assert!(!cn.inject(Fault::PerturbDelta { unit: false, i: 0, by: 0 }));
        assert!(!cn.inject(Fault::WidenBounds { dim: 3, by: 1 }));
        assert!(!cn.inject(Fault::WidenBounds { dim: 0, by: 0 }));
        assert!(!cn.inject(Fault::ShrinkDeclaredDeltas { unit: false }));
        assert!(!cn.inject(Fault::RetargetReg { unit: false, i: 0, reg: 3 }), "Load has no src");
    }

    /// `b[0] = a[-1] + a[+1]` as one fold, over points 2..=15.
    fn fold_kernel() -> CompiledNest {
        let add =
            |delta| Link { op: hpf_ir::BinOp::Add, rev: false, x: Operand::Tap { arr: 0, delta } };
        chain_kernel_1d(
            vec![Op::Chain {
                first: Operand::Tap { arr: 0, delta: -1 },
                lo: 0,
                hi: 1,
                dst: ChainDst::Store { arr: 1, delta: 0 },
            }],
            vec![add(1)],
            1,
            2,
            15,
        )
    }

    #[test]
    fn folds_verify_clean_scalar_and_chunked() {
        let mut cn = fold_kernel();
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
        assert!(cn.inject(Fault::ForceVectorized));
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn bv001_flags_link_ranges_outside_the_table() {
        let mut cn = fold_kernel();
        code_mut(&mut cn).jammed.ops[0] = match code_mut(&mut cn).jammed.ops[0] {
            Op::Chain { first, lo, dst, .. } => Op::Chain { first, lo, hi: 9, dst },
            other => other,
        };
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("link table"));
    }

    #[test]
    fn bv003_flags_a_chain_tap_outside_the_envelope() {
        let mut cn = fold_kernel();
        assert!(cn.inject(Fault::PerturbChainTap { unit: false, chain: 0, tap: 1, by: 2 }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
        assert!(d[0].message.contains("delta 3"), "{d:?}");
    }

    #[test]
    fn bv001_flags_a_link_reading_an_unwritten_register() {
        let mut cn = fold_kernel();
        assert!(cn.inject(Fault::LinkReadsUnwritten { unit: false, chain: 0 }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("before any definition"));
        // Strict kernels carry register state: there is nothing to catch.
        let mut strict = fold_kernel();
        code_mut(&mut strict).strict = true;
        assert!(!strict.inject(Fault::LinkReadsUnwritten { unit: false, chain: 0 }));
    }

    #[test]
    fn bv004_flags_a_chain_store_aliasing_another_lanes_tap() {
        let mut cn = fold_kernel();
        assert!(cn.inject(Fault::ForceVectorized));
        assert!(cn.inject(Fault::ChainStoreAliasesTap { unit: false, chain: 0 }));
        let d = cn.verify();
        assert!(codes(&d).contains(&BV004), "{d:?}");
        // The scalar executor runs the same body point by point: no BV004.
        code_mut(&mut cn).jam_vec = false;
        code_mut(&mut cn).unit_vec = false;
        assert!(!codes(&cn.verify()).contains(&BV004));
    }

    #[test]
    fn swapping_ops_that_commute_is_not_a_fault() {
        // Two independent folds (different sources, different targets).
        let fold = |from: i32, to: i32| Op::Chain {
            first: Operand::Tap { arr: 0, delta: from },
            lo: 0,
            hi: 0,
            dst: ChainDst::Store { arr: 1, delta: to },
        };
        let mut cn = chain_kernel_1d(vec![fold(0, 0), fold(1, 1)], vec![], 1, 1, 15);
        assert!(!cn.inject(Fault::SwapOps { unit: false, i: 0, j: 1 }));
        // Writing what the other reads, or the same location, does clash.
        let mut cn = chain_kernel_1d(vec![fold(0, 0), fold(1, 0)], vec![], 1, 1, 15);
        assert!(cn.inject(Fault::SwapOps { unit: false, i: 0, j: 1 }));
    }

    #[test]
    fn chain_faults_need_a_chain() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(!cn.inject(Fault::PerturbChainTap { unit: false, chain: 0, tap: 0, by: 1 }));
        assert!(!cn.inject(Fault::LinkReadsUnwritten { unit: false, chain: 0 }));
        assert!(!cn.inject(Fault::ChainStoreAliasesTap { unit: false, chain: 0 }));
        let mut cn = fold_kernel();
        assert!(!cn.inject(Fault::PerturbChainTap { unit: false, chain: 0, tap: 2, by: 1 }));
        assert!(!cn.inject(Fault::PerturbChainTap { unit: false, chain: 1, tap: 0, by: 1 }));
    }

    #[test]
    fn unrolled_geometry_covers_group_starts_and_remainder() {
        // factor 2 over lo=1..hi=16 with a jammed body reaching delta +1:
        // group starts 1,3,..,15; last jammed access 15+1+... within len.
        let ops = vec![
            Op::Load { dst: 0, arr: 0, delta: 0 },
            Op::Store { arr: 1, delta: 0, src: 0 },
            Op::Load { dst: 1, arr: 0, delta: 1 },
            Op::Store { arr: 1, delta: 1, src: 1 },
        ];
        let mut cn = kernel_1d(ops, 2, 1, 16);
        code_mut(&mut cn).factor = 2;
        code_mut(&mut cn).unit = Some(KernelCode {
            ops: copy_ops()
                .iter()
                .map(|op| match *op {
                    Op::Load { arr, delta, .. } => Op::Load { dst: 2, arr, delta },
                    Op::Store { arr, delta, .. } => Op::Store { arr, delta, src: 2 },
                    other => other,
                })
                .collect(),
            links: vec![],
            min_delta: 0,
            max_delta: 0,
        });
        code_mut(&mut cn).regs = 3;
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
        // Widening the bound pushes the remainder row out of the subgrid.
        assert!(cn.inject(Fault::WidenBounds { dim: 0, by: 2 }));
        assert!(codes(&cn.verify()).contains(&BV003));
    }
}
