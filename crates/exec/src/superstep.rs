//! Communication-avoiding superstep planning: deep-halo temporal tiling.
//!
//! A classic stencil schedule exchanges halos before every step — `S` steps
//! cost `S` exchange phases. A depth-`k` **superstep** instead allocates
//! halos deep enough for `k` steps, issues **one** deep exchange, then runs
//! `k` sub-steps without communicating. Each sub-step `j` (0-based) computes
//! a *trapezoidally shrinking* region: the PE's owned block expanded into
//! the ghost zone by the ghost depth later sub-steps still consume, so
//! neighbor-owned boundary cells are **redundantly recomputed** from the
//! deep halo instead of being received. The trade — `(k-1)` elided exchange
//! phases against a thin ring of recomputed points — wins whenever message
//! latency dominates, which is exactly the SP-2 regime the paper's cost
//! model describes (§2.2: large per-message software overhead).
//!
//! This module is the *planning* half: given the lowered node program and a
//! depth `k` it decides
//!
//! 1. **shape** — which program forms are superstep-able
//!    ([`SsShape`]): a program that is exactly one top-level `DO n TIMES`
//!    loop (the whole body tiles in time), or a program with no time loop
//!    at all (the driver's step loop is the time dimension, and one plan
//!    step then covers `k` logical steps);
//! 2. **eligibility** — circular overlap-shift communication only,
//!    full-space iteration-local nests (diagnosed as `SS00x` warnings; an
//!    ineligible kernel falls back to the classic `k = 1` schedule);
//! 3. **requirements** — a backward ghost-validity pass over the
//!    `k`-unrolled body with all interior communication elided, yielding
//!    each nest instance's expansion box and each array's residual deep-fill
//!    depth (for a self-updating stencil of radius `r` this is the textbook
//!    `k·r`; for a read-only input array it stays at the chain radius, and
//!    the deep fill then satisfies *every* sub-step);
//! 4. **deep schedules** — the original overlap shifts re-derived at
//!    deep-fill depth, corner-augmented RSDs included, with zero-need sides
//!    elided and duplicate `(array, dim, direction)` fills deduped;
//! 5. **coverage proof** — the depth-coordinate geometry of
//!    [`hpf_analysis::superstep`] confirms the deep fills cover every ghost
//!    cell the trapezoid reads; an uncovered witness point makes the kernel
//!    ineligible rather than silently wrong. The plan verifier's PL004 rule
//!    (see [`crate::plan_verify`]) later re-simulates the *compiled*
//!    schedule boxes, decoded, against the same geometry as a defense in
//!    depth.
//!
//! The execution half lives in [`crate::plan`]: a [`PlanItem::Superstep`]
//! item carries the deep-fill schedule slots, the body nests, and the
//! per-sub-step expansion boxes.
//!
//! [`PlanItem::Superstep`]: crate::plan::PlanItem

use hpf_analysis::superstep::{uncovered_ghost, FillBox};
use hpf_codegen::reads_before_def;
use hpf_ir::hash::HashMap;
use hpf_ir::{ArrayId, Diagnostic, Dims, Rsd, Section, ShiftKind};
use hpf_passes::loopir::{CommOp, Instr, NodeItem, NodeProgram};
use hpf_passes::memopt::iteration_local;

/// SS001: the program's time structure does not tile (nested or multiple
/// time loops, or statements alongside the single time loop).
pub const SS001: &str = "SS001";
/// SS002: communication other than a circular overlap shift (full-shift
/// copies and `EOSHIFT` boundary injection re-derive per step and cannot be
/// deepened).
pub const SS002: &str = "SS002";
/// SS003: a nest iterates over a partial section — the trapezoid expansion
/// assumes the stencil formula holds over the whole array, ghosts included.
pub const SS003: &str = "SS003";
/// SS004: a nest body is not iteration-local (or reads a register before
/// defining it), so sub-step iterations cannot be replayed over an expanded
/// region.
pub const SS004: &str = "SS004";
/// SS005: a sub-step reads ghost cells of an array no overlap shift fills.
pub const SS005: &str = "SS005";
/// SS006: the derived deep fills leave a required ghost cell uncovered (a
/// coverage witness in depth coordinates is reported).
pub const SS006: &str = "SS006";
/// SS007: the time loop is shorter than the requested depth.
pub const SS007: &str = "SS007";
/// SS008: the machine's allocated halo is shallower than the deep-fill
/// depth the schedule requires (size the machine with [`superstep_halo`]).
pub const SS008: &str = "SS008";
/// SS009: a storage rebind precedes a communication op in the tiled body.
/// The deep fills run before sub-step 0, so they would fill the storage the
/// rebind is about to hand to another array.
pub const SS009: &str = "SS009";

/// Which program form the superstep tiles (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SsShape {
    /// One top-level `DO iters TIMES` loop and nothing else: the plan keeps
    /// one step per program pass, tiling the loop into `iters / k`
    /// supersteps plus a classic remainder.
    TimeLoop {
        /// The loop's iteration count.
        iters: usize,
    },
    /// No time loop anywhere: the driver's step loop is the time dimension,
    /// so one plan step becomes one depth-`k` superstep covering `k`
    /// logical steps ([`crate::ExecPlan::logical_steps_per_step`]).
    Flat,
}

/// One deep-fill communication: an overlap shift of `|shift|` ghost layers
/// on the `shift.signum()` side of `dim`, corner-augmented along the other
/// dimensions by `rsd`.
#[derive(Clone, Debug)]
pub(crate) struct DeepFill {
    /// Array whose ghosts the fill writes.
    pub array: ArrayId,
    /// Signed depth: `sign · layers`, as `overlap_shift_plan` expects.
    pub shift: i64,
    /// Dimension of the fill.
    pub dim: usize,
    /// Corner forwarding: ghost layers of *other* dimensions the
    /// transferred band carries, available because an earlier fill in plan
    /// order already wrote them on the sender.
    pub rsd: Rsd,
}

/// A legal superstep schedule for one node program at one depth.
#[derive(Clone, Debug)]
pub(crate) struct SuperstepSchedule {
    /// The tiled program form.
    pub shape: SsShape,
    /// Sub-steps per exchange.
    pub k: usize,
    /// Deep fills, in (deduped) plan order of the original comms.
    pub deep: Vec<DeepFill>,
    /// `expansions[j][n]` = per-dimension `(below, above)` ghost expansion
    /// of the `n`-th body nest in sub-step `j` — the trapezoid.
    pub expansions: Vec<Vec<Vec<(i64, i64)>>>,
    /// Communication ops one classic pass of the body executes — the
    /// baseline the elision counter is measured against.
    pub body_comms: usize,
    /// Ghost depth the deep fills require the machine to allocate.
    pub halo: usize,
}

impl SuperstepSchedule {
    /// Exchange executions one depth-`k` superstep elides relative to `k`
    /// classic steps of the same body.
    pub fn elided(&self) -> u64 {
        (self.k * self.body_comms) as u64 - self.deep.len() as u64
    }
}

/// Ghost depth a depth-`k` superstep schedule of this program needs per
/// halo side, or `None` when the program is ineligible (callers then keep
/// their base halo and the classic schedule). `hpf-core`'s planner calls
/// this before building the machine so the subgrids are allocated deep
/// enough; `hpf-tune` calls it to price deep-`k` candidates.
pub fn superstep_halo(node: &NodeProgram, k: usize) -> Option<usize> {
    plan_superstep(node, k).ok().map(|s| s.halo)
}

/// The `SS00x` diagnostics explaining why a depth-`k` superstep schedule of
/// this program is not legal — empty when it is. What
/// [`crate::ExecPlan::superstep_diags`] reports after a fallback build.
pub fn superstep_diags(node: &NodeProgram, k: usize) -> Vec<Diagnostic> {
    plan_superstep(node, k).err().unwrap_or_default()
}

/// Plan a depth-`k` superstep schedule, or explain why there is none.
pub(crate) fn plan_superstep(
    node: &NodeProgram,
    k: usize,
) -> Result<SuperstepSchedule, Vec<Diagnostic>> {
    let (shape, body) = tile_shape(node, k)?;
    let mut diags = check_body(node, body);
    if !diags.is_empty() {
        return Err(diags);
    }
    let (expansions, residual) = backward_requirements(node, body, k);
    // Every residual ghost need must come from an array some overlap shift
    // in the body fills; a comm-less array's ghosts would stay poison.
    let filled: Vec<ArrayId> = body
        .iter()
        .filter_map(|i| match i {
            NodeItem::Comm(CommOp::Overlap { array, .. }) => Some(*array),
            _ => None,
        })
        .collect();
    for (&a, need) in residual.iter() {
        let nonzero = need.iter().any(|&(lo, hi)| lo > 0 || hi > 0);
        if nonzero && !filled.contains(&ArrayId(a)) {
            diags.push(Diagnostic::warning(
                SS005,
                format!(
                    "superstep sub-steps read ghost cells of {} that no overlap shift fills",
                    node.symbols.array(ArrayId(a)).name
                ),
            ));
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    let deep = derive_deep_fills(body, &residual);
    // Coverage proof: in depth coordinates, the deep fills must cover every
    // ghost cell the residual requirement describes, corners included.
    for (&a, need) in residual.iter() {
        let fills: Vec<FillBox> = deep.iter().filter(|f| f.array.0 == a).map(fill_box).collect();
        if let Some(witness) = uncovered_ghost(need, &fills) {
            diags.push(Diagnostic::warning(
                SS006,
                format!(
                    "deep fills of {} leave ghost cell at depth {:?} uncovered (need {:?})",
                    node.symbols.array(ArrayId(a)).name,
                    witness,
                    need
                ),
            ));
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    let halo = residual
        .values()
        .flat_map(|need| need.iter().flat_map(|&(lo, hi)| [lo, hi]))
        .max()
        .unwrap_or(0) as usize;
    let body_comms = body.iter().filter(|i| matches!(i, NodeItem::Comm(_))).count();
    Ok(SuperstepSchedule { shape, k, deep, expansions, body_comms, halo })
}

/// Decide the tiled form and the body the `k` sub-steps repeat.
fn tile_shape(node: &NodeProgram, k: usize) -> Result<(SsShape, &[NodeItem]), Vec<Diagnostic>> {
    let has_nested_loop =
        |items: &[NodeItem]| items.iter().any(|i| matches!(i, NodeItem::TimeLoop { .. }));
    match node.items.as_slice() {
        [NodeItem::TimeLoop { iters, body }] => {
            if has_nested_loop(body) {
                return Err(vec![Diagnostic::warning(
                    SS001,
                    "superstep tiling needs a single flat time loop; found a nested DO loop",
                )]);
            }
            if *iters < k {
                return Err(vec![Diagnostic::warning(
                    SS007,
                    format!("time loop runs {iters} iterations, fewer than superstep depth {k}"),
                )]);
            }
            Ok((SsShape::TimeLoop { iters: *iters }, body))
        }
        items if !has_nested_loop(items) => Ok((SsShape::Flat, items)),
        _ => Err(vec![Diagnostic::warning(
            SS001,
            "superstep tiling needs the program to be exactly one top-level DO loop \
             (or no DO loop at all); found a DO loop among other statements",
        )]),
    }
}

/// Per-item eligibility over the tiled body.
fn check_body(node: &NodeProgram, body: &[NodeItem]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let first_rebind = body.iter().position(|i| matches!(i, NodeItem::Rebind { .. }));
    let last_comm = body.iter().rposition(|i| matches!(i, NodeItem::Comm(_)));
    if first_rebind.zip(last_comm).is_some_and(|(r, c)| r < c) {
        diags.push(Diagnostic::warning(
            SS009,
            "a storage rebind precedes a communication op; the deep fills run before the \
             first sub-step and cannot follow it",
        ));
    }
    for item in body {
        match item {
            NodeItem::Comm(CommOp::FullShift { src, .. }) => diags.push(Diagnostic::warning(
                SS002,
                format!(
                    "full-shift copy of {} cannot be deepened; superstep needs overlap shifts \
                     (compile at least to the overlap stage)",
                    node.symbols.array(*src).name
                ),
            )),
            NodeItem::Comm(CommOp::Overlap { array, kind: ShiftKind::EndOff(_), .. }) => diags
                .push(Diagnostic::warning(
                    SS002,
                    format!(
                        "EOSHIFT boundary injection on {} re-derives per step and cannot be \
                         deepened",
                        node.symbols.array(*array).name
                    ),
                )),
            NodeItem::Comm(CommOp::Overlap { .. }) => {}
            NodeItem::Nest(nest) => {
                for a in nest.stored() {
                    let decl = node.symbols.array(a);
                    if nest.space != Section::full(&decl.shape) {
                        diags.push(Diagnostic::warning(
                            SS003,
                            format!(
                                "nest writes {} over partial section {:?}; trapezoid expansion \
                                 needs the stencil to hold over the full space",
                                decl.name, nest.space
                            ),
                        ));
                    }
                }
                let unit = nest.unit_body();
                let zero_stores = unit.iter().all(|i| match i {
                    Instr::Store { offsets, .. } => offsets.iter().all(|&o| o == 0),
                    _ => true,
                });
                if !zero_stores
                    || !iteration_local(unit)
                    || reads_before_def(unit)
                    || reads_before_def(&nest.body)
                {
                    diags.push(Diagnostic::warning(
                        SS004,
                        "nest body is not iteration-local with in-place stores, so its \
                         iterations cannot be replayed over an expanded region",
                    ));
                }
            }
            NodeItem::Rebind { .. } => {}
            NodeItem::TimeLoop { .. } => unreachable!("tile_shape rejected nested loops"),
        }
    }
    diags
}

/// Per-array ghost-validity requirement, `(lo, hi)` layers per dimension,
/// keyed by `ArrayId.0`.
type Req = HashMap<u32, Vec<(i64, i64)>>;

/// Per-sub-step, per-nest region expansion, `(lo, hi)` layers per dimension.
type Expansions = Vec<Vec<Vec<(i64, i64)>>>;

/// The backward requirement pass (module docs, step 3): walk the
/// `k`-unrolled body in reverse with every communication elided. At a nest,
/// the expansion is the ghost depth later sub-steps still need of the
/// arrays it writes; each read at offset `o` then demands the read array's
/// ghosts out to `expansion + |o|`, and the written arrays' requirement
/// resets (the expanded sweep freshly computes their ghosts). A rebind
/// swaps two arrays' storage, so it swaps their requirements. Returns the
/// per-sub-step per-nest expansions and the residual requirement at the
/// start — the deep-fill depth per array.
fn backward_requirements(node: &NodeProgram, body: &[NodeItem], k: usize) -> (Expansions, Req) {
    let nests = body.iter().filter(|i| matches!(i, NodeItem::Nest(_))).count();
    let mut req: Req = HashMap::default();
    let mut expansions = vec![vec![Vec::new(); nests]; k];
    for j in (0..k).rev() {
        let mut n_idx = nests;
        for item in body.iter().rev() {
            let nest = match item {
                NodeItem::Nest(nest) => nest,
                NodeItem::Rebind { dst, src } => {
                    let (d, s) = (req.remove(&dst.0), req.remove(&src.0));
                    if let Some(need) = d {
                        req.insert(src.0, need);
                    }
                    if let Some(need) = s {
                        req.insert(dst.0, need);
                    }
                    continue;
                }
                _ => continue,
            };
            n_idx -= 1;
            let rank = nest.order.len();
            let written = nest.stored();
            // The nest's expansion: the widest ghost need of anything it
            // writes, per dimension and side.
            let mut e = vec![(0i64, 0i64); rank];
            for a in &written {
                if let Some(need) = req.get(&a.0) {
                    for d in 0..rank {
                        e[d].0 = e[d].0.max(need[d].0);
                        e[d].1 = e[d].1.max(need[d].1);
                    }
                }
            }
            expansions[j][n_idx] = e.clone();
            // The expanded sweep freshly computes the written arrays'
            // ghosts out to `e`; requirements from later sub-steps are
            // satisfied here, and the loads below re-impose this nest's
            // own needs (including self-reads of a written array).
            for a in &written {
                req.remove(&a.0);
            }
            for i in nest.unit_body() {
                let Instr::Load { array, offsets, .. } = i else { continue };
                let need = req.entry(array.0).or_insert_with(|| vec![(0, 0); rank]);
                for (d, &o) in offsets.iter().enumerate() {
                    need[d].0 = need[d].0.max(e[d].0 + (-o).max(0));
                    need[d].1 = need[d].1.max(e[d].1 + o.max(0));
                }
            }
        }
        debug_assert_eq!(n_idx, 0);
    }
    // Arrays the symbol table sizes at a different rank than the nests
    // never appear here: node programs are single-space (validated
    // upstream), so every requirement vector has the body rank.
    let _ = node;
    (expansions, req)
}

/// Derive the deep fills (module docs, step 4) from the body's comm ops in
/// plan order: deepen each overlap shift to the residual requirement on its
/// side, elide zero-need sides, dedupe repeated `(array, dim, direction)`
/// fills, and corner-augment each fill's RSD along every dimension an
/// earlier fill of the same array already wrote — the sender's freshly
/// filled ghosts forward into the corners, exactly like the classic
/// schedule's RSD corner forwarding but at deep-fill width.
fn derive_deep_fills(body: &[NodeItem], residual: &Req) -> Vec<DeepFill> {
    let mut deep: Vec<DeepFill> = Vec::new();
    for item in body {
        let NodeItem::Comm(CommOp::Overlap { array, shift, dim, .. }) = item else { continue };
        let Some(need) = residual.get(&array.0) else { continue };
        let pos = *shift > 0;
        let depth = if pos { need[*dim].1 } else { need[*dim].0 };
        if depth == 0 {
            continue;
        }
        if deep.iter().any(|f| f.array == *array && f.dim == *dim && (f.shift > 0) == pos) {
            continue;
        }
        let rank = need.len();
        let mut ext = Dims::filled(rank, (0u32, 0u32));
        for e in 0..rank {
            if e == *dim {
                continue;
            }
            let lo_done = deep.iter().any(|f| f.array == *array && f.dim == e && f.shift < 0);
            let hi_done = deep.iter().any(|f| f.array == *array && f.dim == e && f.shift > 0);
            ext[e] = (
                if lo_done { need[e].0 as u32 } else { 0 },
                if hi_done { need[e].1 as u32 } else { 0 },
            );
        }
        deep.push(DeepFill {
            array: *array,
            shift: if pos { depth } else { -depth },
            dim: *dim,
            rsd: Rsd { ext },
        });
    }
    deep
}

/// A deep fill as a depth-coordinate box for the coverage proof.
fn fill_box(f: &DeepFill) -> FillBox {
    let rank = f.rsd.ext.len();
    (0..rank)
        .map(|d| {
            if d == f.dim {
                let depth = f.shift.unsigned_abs() as i64;
                if f.shift > 0 {
                    (1, depth)
                } else {
                    (-depth, -1)
                }
            } else {
                (-(f.rsd.ext[d].0 as i64), f.rsd.ext[d].1 as i64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_frontend::compile_source;
    use hpf_passes::{compile, CompileOptions, Stage};

    const JACOBI_LOOP: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
REAL C = 0.25
DO 12 TIMES
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
ENDDO
"#;

    const JACOBI_FLAT: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
"#;

    fn node(src: &str) -> NodeProgram {
        let checked = compile_source(src).unwrap();
        compile(&checked, CompileOptions::upto(Stage::MemOpt)).node
    }

    #[test]
    fn jacobi_time_loop_tiles_with_kr_halo() {
        let n = node(JACOBI_LOOP);
        for k in [2usize, 4] {
            let s = plan_superstep(&n, k).expect("eligible");
            assert_eq!(s.shape, SsShape::TimeLoop { iters: 12 });
            assert_eq!(s.halo, k, "radius-1 chain needs k·r ghost layers");
            assert_eq!(s.body_comms, 4);
            assert_eq!(s.deep.len(), 4, "four deep fills, none elided");
            assert_eq!(s.elided(), (k as u64 - 1) * 4);
            // Trapezoid: both nests of sub-step j expand by (k-1-j).
            for (j, subs) in s.expansions.iter().enumerate() {
                let want = (k - 1 - j) as i64;
                for e in subs {
                    assert!(e.iter().all(|&(lo, hi)| lo == want && hi == want), "{j}: {e:?}");
                }
            }
        }
    }

    #[test]
    fn flat_program_tiles_as_driver_stepped() {
        let n = node(JACOBI_FLAT);
        let s = plan_superstep(&n, 4).expect("eligible");
        assert_eq!(s.shape, SsShape::Flat);
        assert_eq!(s.halo, 4);
    }

    #[test]
    fn depth_one_is_trivially_legal() {
        let n = node(JACOBI_LOOP);
        let s = plan_superstep(&n, 1).expect("k=1 always eligible for eligible kernels");
        assert_eq!(s.halo, 1);
        assert_eq!(s.elided(), 0);
        assert!(s.expansions[0].iter().all(|e| e.iter().all(|&x| x == (0, 0))));
    }

    #[test]
    fn deep_fills_carry_corner_rsds() {
        let n = node(JACOBI_LOOP);
        let s = plan_superstep(&n, 2).unwrap();
        // Later fills must forward the dimensions earlier fills wrote.
        let last = s.deep.last().unwrap();
        let other: usize = 1 - last.dim;
        assert_eq!(last.rsd.ext[other], (2, 2), "corner augmentation at deep width");
        assert_eq!(s.deep[0].rsd.ext, vec![(0, 0), (0, 0)], "first fill has nothing to forward");
    }

    #[test]
    fn full_shift_stage_is_ineligible() {
        let checked = compile_source(JACOBI_LOOP).unwrap();
        let n = compile(&checked, CompileOptions::upto(Stage::Original)).node;
        let diags = plan_superstep(&n, 4).unwrap_err();
        assert!(diags.iter().any(|d| d.code == SS002), "{diags:?}");
        assert_eq!(superstep_halo(&n, 4), None);
    }

    #[test]
    fn eoshift_is_ineligible() {
        let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
T = EOSHIFT(U,1,1) + EOSHIFT(U,-1,1)
U = T
"#;
        let n = node(src);
        let diags = plan_superstep(&n, 2).unwrap_err();
        assert!(diags.iter().any(|d| d.code == SS002), "{diags:?}");
    }

    #[test]
    fn partial_space_nest_is_ineligible() {
        let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
T(2:15,2:15) = U(1:14,2:15) + U(3:16,2:15) + U(2:15,1:14) + U(2:15,3:16)
"#;
        let n = node(src);
        let diags = plan_superstep(&n, 2).unwrap_err();
        assert!(diags.iter().any(|d| d.code == SS003), "{diags:?}");
    }

    #[test]
    fn short_time_loop_is_ineligible() {
        let n = node(JACOBI_LOOP);
        let diags = plan_superstep(&n, 16).unwrap_err();
        assert!(diags.iter().any(|d| d.code == SS007), "{diags:?}");
    }

    #[test]
    fn read_only_input_keeps_chain_radius() {
        // P depends on U through a radius-1 chain but U is never written:
        // the requirement on U cannot grow with k, so the halo stays at the
        // chain radius and deep fills satisfy every sub-step.
        let src = r#"
PARAM N = 16
REAL U(N,N), P(N,N)
P = CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2)
"#;
        let n = node(src);
        let s = plan_superstep(&n, 8).expect("eligible");
        assert_eq!(s.halo, 1, "requirement on a read-only array is k-independent");
        assert_eq!(s.elided(), 7 * s.body_comms as u64);
        assert!(s
            .expansions
            .iter()
            .all(|subs| subs.iter().all(|e| e.iter().all(|&x| x == (0, 0)))));
    }
}
