//! The plan-level checker: static obligations over the step program,
//! machine-checked before any worker thread runs, each reported as a
//! standard `Diagnostic`. The rules are numbered from PL004: the first
//! three codes belonged to a deleted split-phase engine and are retired,
//! not reused.
//!
//! [Superstep items](crate::plan::PlanItem::Superstep) carry the first
//! obligation:
//!
//! - **PL004 — trapezoid coverage.** For every PE, a forward simulation in
//!   ghost-depth coordinates replays the superstep: the deep-fill
//!   schedules' *compiled* unpack/fill boxes, decoded against each PE's
//!   extents in the geometry they carry, establish each array's valid
//!   ghost boxes, then every sub-step's reads (expansion plus
//!   per-array read radii, re-derived from the unit body — not taken from
//!   the planner) must be covered before its stores reset the written
//!   array's validity to the freshly computed box. An uncovered ghost
//!   point means a sub-step would consume stale or poison halo data. This
//!   independently re-checks the geometry `crate::superstep`'s planner
//!   proved, but against the boxes the engines execute rather than the
//!   plan. A rebind inside the sub-step swaps the two arrays' valid boxes.
//!
//! [Rebind items](crate::plan::PlanItem::Rebind) carry a second:
//!
//! - **PL005 — dead source.** After a rebind, its source holds the
//!   destination's stale storage. Scanning the items that follow — to the
//!   end of the enclosing list, then around the wrap (a step repeats, a
//!   loop iterates, a superstep's deep fills and sub-step repeat) — no
//!   nest, schedule or rebind may read the source before an item fully
//!   defines it; a source still dead when its loop exits must not be read
//!   anywhere outside that loop. Re-derived from the built items,
//!   independently of the storage-rotation pass that placed the rebind.
//!
//! Every compiled schedule carries a third:
//!
//! - **PL006 — schedule geometry.** Every box of every transfer and fill
//!   decodes ([`CompiledComm::section`]) to a section of its PE's subgrid,
//!   and each transfer's two sections have equal extents. The rules above
//!   read schedules only through that decoder, and only where they happen
//!   to look; this one holds every box the engines execute to a region a
//!   plan could have described.
//!
//! Exchanges need no ordering check — a [`PlanItem::Comm`] completes
//! before the next item starts. The checker is wired into
//! [`ExecPlan::build`](crate::ExecPlan::build) together with the bytecode
//! verifier (`hpf_codegen::verify`): debug and checked builds verify every
//! plan; checked builds fail hard on any diagnostic, unchecked builds
//! demote the offending kernel to the interpreter and the offending
//! superstep to a deep-refill loop. A stale binding or a box that is no
//! section has no safe demotion: it fails every build.

use crate::plan::{body_nests, ExecPlan, PlanItem};
use hpf_analysis::superstep::{uncovered_ghost, FillBox, GhostNeed};
use hpf_codegen::{inject_shared, verify_kernels, CompiledNest, Fault};
use hpf_ir::diag::Diagnostic;
use hpf_ir::hash::HashMap;
use hpf_ir::{ArrayId, Section};
use hpf_passes::loopir::{Instr, LoopNest};
use hpf_runtime::{CompiledComm, MoveKind, RtError};

/// A superstep sub-step reads a ghost cell neither the deep fill nor an
/// earlier sub-step's expanded sweep wrote — the trapezoid would consume
/// stale (or poison) halo data.
pub const PL004: &str = "PL004";
/// A rebind's source is read before its next full definition — the reader
/// would see the destination's stale storage.
pub const PL005: &str = "PL005";
/// A compiled box is no section of its PE's subgrid, or a transfer's two
/// boxes cover sections of different extents.
pub const PL006: &str = "PL006";

impl ExecPlan {
    /// Run the plan-level checker over the whole step program, returning
    /// every violated obligation (empty = the plan is proven). Kernel-level
    /// (`BV*`) obligations are covered separately by
    /// `CompiledNest::verify`; [`ExecPlan::verify`] reports both families.
    pub fn verify(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        verify_items(&self.items, &self.scheds, &mut out);
        verify_program_rebinds(&self.items, &self.scheds, &mut out);
        verify_schedules(&self.scheds, &mut out);
        for item in &self.items {
            collect_kernel_diags(item, &mut out);
        }
        out
    }

    /// Insert a rebind in front of the first nest that loads one array and
    /// stores another, making the loaded array the dead source the nest
    /// then reads — the stale-binding fault for the mutation-kill suite
    /// (PL005). Returns `false` when no nest qualifies.
    #[doc(hidden)]
    pub fn corrupt_stale_binding(&mut self) -> bool {
        first_edit(&mut self.items, &mut |items, i| {
            let PlanItem::Nest { nest, .. } = &items[i] else {
                return false;
            };
            let stored = nest.stored();
            let pair = load_radii(nest)
                .into_iter()
                .find_map(|(src, _)| stored.iter().find(|&&d| d != src).map(|&d| (d, src)));
            let Some((dst, src)) = pair else { return false };
            let full = nest.space;
            items.insert(i, PlanItem::Rebind { dst, src, full });
            true
        })
    }

    /// Corrupt the first superstep by widening every sub-step's trapezoid
    /// expansion beyond what the deep fills cover — the stale-ghost fault
    /// for the mutation-kill suite (PL004). Returns `false` when the plan
    /// has no superstep item.
    #[doc(hidden)]
    pub fn corrupt_widen_trapezoid(&mut self) -> bool {
        first_edit(&mut self.items, &mut |items, i| match &mut items[i] {
            PlanItem::Superstep { expansions, .. } => {
                for r in expansions.iter_mut().flatten().flatten() {
                    *r = (r.0 + 8, r.1 + 8);
                }
                true
            }
            _ => false,
        })
    }

    /// Apply `fault` to the first nest's compiled code on every PE that
    /// shares it — a layout miscompiled once, for the mutation-kill suite
    /// (BV*). Returns `false` when the fault does not apply.
    #[doc(hidden)]
    pub fn corrupt_kernel(&mut self, fault: Fault) -> bool {
        first_edit(&mut self.items, &mut |items, i| match &mut items[i] {
            PlanItem::Nest { kernels, .. } => inject_shared(kernels, fault),
            _ => false,
        })
    }

    /// Corrupt the source box of the first transfer the step program runs:
    /// one more than its outermost dimension's stride (`stride`) or count —
    /// the box faults for the mutation-kill suite (PL006). Returns `false`
    /// when the plan runs no transfer.
    #[doc(hidden)]
    pub fn corrupt_box(&mut self, stride: bool) -> bool {
        let scheds = &mut self.scheds;
        first_edit(&mut self.items, &mut |items, i| {
            let slots = match &items[i] {
                PlanItem::Comm(slot) => std::slice::from_ref(slot),
                PlanItem::Superstep { comms, .. } => comms,
                _ => return false,
            };
            let Some(&slot) = slots.iter().find(|&&s| !scheds[s].transfers.is_empty()) else {
                return false;
            };
            scheds[slot].transfers[0].src.corrupt(stride);
            true
        })
    }
}

/// Apply the first edit `f` makes, visiting every item list of the step
/// program depth first: `f(list, i)` may change `list[i]` or insert before
/// it, and says whether it did. The one walk behind the mutation hooks.
fn first_edit(
    items: &mut Vec<PlanItem>,
    f: &mut impl FnMut(&mut Vec<PlanItem>, usize) -> bool,
) -> bool {
    (0..items.len()).any(|i| {
        f(items, i)
            || match &mut items[i] {
                PlanItem::TimeLoop { body, .. } | PlanItem::Superstep { body, .. } => {
                    first_edit(body, &mut *f)
                }
                _ => false,
            }
    })
}

/// Kernel-level (`BV*`) diagnostics of every compiled kernel in the item
/// tree, each shared code's annotated with the PEs that run it.
fn collect_kernel_diags(item: &PlanItem, out: &mut Vec<Diagnostic>) {
    match item {
        PlanItem::Nest { kernels, .. } => {
            for (pes, diags) in verify_kernels(kernels) {
                out.extend(diags.into_iter().map(|d| d.note(format!("kernel of PEs {pes:?}"))));
            }
        }
        PlanItem::TimeLoop { body, .. } | PlanItem::Superstep { body, .. } => {
            for item in body {
                collect_kernel_diags(item, out);
            }
        }
        _ => {}
    }
}

/// Walk the item tree checking every Superstep.
fn verify_items(items: &[PlanItem], scheds: &[CompiledComm], out: &mut Vec<Diagnostic>) {
    for (w, item) in items.iter().enumerate() {
        match item {
            PlanItem::Superstep { k, comms, body, expansions, .. } => {
                verify_superstep(w, *k, comms, body, expansions, scheds, out);
            }
            PlanItem::TimeLoop { body, .. } => verify_items(body, scheds, out),
            _ => {}
        }
    }
}

/// One position of a repeating item list as PL005 scans it: a plan item,
/// or one of a superstep's deep fills (which run before its sub-step).
#[derive(Clone, Copy)]
enum Step<'a> {
    Item(&'a PlanItem),
    Comm(usize),
}

fn steps_of(items: &[PlanItem]) -> Vec<Step<'_>> {
    items.iter().map(Step::Item).collect()
}

/// What a step does to a rebind's dead source `b`.
#[derive(PartialEq)]
enum Next {
    /// Leaves it alone.
    Untouched,
    /// Defines all of it without reading it: it is live again.
    Killed,
    /// Reads it, or defines only part of it (or a loop touches it).
    Blocked,
}

fn next(step: Step<'_>, b: ArrayId, full: &Section, scheds: &[CompiledComm]) -> Next {
    let comm = |slot: usize| {
        let s = &scheds[slot];
        if s.src == b || (s.dst == b && s.kind == MoveKind::Overlap) {
            Next::Blocked
        } else if s.dst == b {
            Next::Killed // a full shift writes every owned element
        } else {
            Next::Untouched
        }
    };
    let nest = |nest: &LoopNest| {
        let loads = load_radii(nest).iter().any(|(a, _)| *a == b);
        match (loads, nest.stored().contains(&b)) {
            (true, _) => Next::Blocked,
            (false, true) if nest.space == *full => Next::Killed,
            (false, true) => Next::Blocked,
            (false, false) => Next::Untouched,
        }
    };
    // A loop entered from outside: its first iteration's first touch.
    let first_pass =
        |steps: Vec<Step<'_>>| first(&steps, b, full, scheds).unwrap_or(Next::Untouched);
    match step {
        Step::Comm(slot) | Step::Item(&PlanItem::Comm(slot)) => comm(slot),
        Step::Item(PlanItem::Nest { nest: n, .. }) => nest(n),
        Step::Item(PlanItem::Rebind { dst, src, .. }) => match (*src == b, *dst == b) {
            (true, _) => Next::Blocked,
            (false, true) => Next::Killed,
            (false, false) => Next::Untouched,
        },
        Step::Item(PlanItem::TimeLoop { iters: 0, .. }) => Next::Untouched,
        Step::Item(PlanItem::TimeLoop { body, .. }) => first_pass(steps_of(body)),
        Step::Item(PlanItem::Superstep { comms, body, .. }) => {
            first_pass(superstep_steps(comms, body))
        }
    }
}

/// The first thing `steps` do to `b`, in order; `None` when they leave it
/// alone.
fn first(steps: &[Step<'_>], b: ArrayId, full: &Section, scheds: &[CompiledComm]) -> Option<Next> {
    steps.iter().map(|&s| next(s, b, full, scheds)).find(|n| *n != Next::Untouched)
}

/// A superstep's scan order: its deep fills, then one sub-step.
fn superstep_steps<'a>(comms: &[usize], body: &'a [PlanItem]) -> Vec<Step<'a>> {
    comms.iter().map(|&c| Step::Comm(c)).chain(body.iter().map(Step::Item)).collect()
}

/// One list on the path from the step program down to a rebind: its steps,
/// the position the path leaves it at, and whether it repeats on its own
/// (a loop body or a superstep's sub-step) rather than with the step.
struct Frame<'a> {
    steps: Vec<Step<'a>>,
    at: usize,
    repeats: bool,
}

/// What first happens to `b` on every path out of the innermost frame's
/// position, worst first: to the end of its list, then around the wrap —
/// for a repeating list both the next iteration and the exit into the
/// enclosing list; for the step program, the next step. A path that meets
/// the rebind itself again meets a read of `b`.
fn after(frames: &[Frame<'_>], b: ArrayId, full: &Section, scheds: &[CompiledComm]) -> Next {
    let Some((frame, outer)) = frames.split_last() else { return Next::Blocked };
    if let Some(n) = first(&frame.steps[frame.at + 1..], b, full, scheds) {
        return n;
    }
    let again = first(&frame.steps[..=frame.at], b, full, scheds).unwrap_or(Next::Blocked);
    if frame.repeats && again == Next::Killed {
        after(outer, b, full, scheds)
    } else {
        again
    }
}

/// PL005 over every rebind below the innermost frame (module docs).
fn verify_rebinds<'a>(
    frames: &mut Vec<Frame<'a>>,
    scheds: &[CompiledComm],
    out: &mut Vec<Diagnostic>,
) {
    let steps = frames.last().expect("the step program's frame").steps.clone();
    for (p, step) in steps.into_iter().enumerate() {
        frames.last_mut().unwrap().at = p;
        let Step::Item(item) = step else { continue };
        let inner = match item {
            PlanItem::Rebind { src, full, .. } => {
                if after(frames, *src, full, scheds) == Next::Blocked {
                    out.push(Diagnostic::error(
                        PL005,
                        format!(
                            "rebind at item {p}: its source {src:?} is read (or only partly \
                             defined) before its next full definition — the reader would see \
                             the destination's stale storage"
                        ),
                    ));
                }
                continue;
            }
            PlanItem::TimeLoop { body, .. } => steps_of(body),
            PlanItem::Superstep { comms, body, .. } => superstep_steps(comms, body),
            _ => continue,
        };
        frames.push(Frame { steps: inner, at: 0, repeats: true });
        verify_rebinds(frames, scheds, out);
        frames.pop();
    }
}

/// [`verify_rebinds`] over a whole step program.
fn verify_program_rebinds(items: &[PlanItem], scheds: &[CompiledComm], out: &mut Vec<Diagnostic>) {
    let mut frames = vec![Frame { steps: steps_of(items), at: 0, repeats: false }];
    verify_rebinds(&mut frames, scheds, out);
}

/// Per-array read radii of the nest's semantic unit body, in first-load
/// order: how far outside the iteration point each array's loads reach,
/// `(below, above)` per dimension. Re-derived from the instruction stream,
/// independently of the superstep planner.
fn load_radii(nest: &LoopNest) -> Vec<(hpf_ir::ArrayId, Vec<(i64, i64)>)> {
    let rank = nest.order.len();
    let mut out: Vec<(hpf_ir::ArrayId, Vec<(i64, i64)>)> = Vec::new();
    for i in nest.unit_body() {
        let Instr::Load { array, offsets, .. } = i else { continue };
        if !out.iter().any(|(a, _)| a == array) {
            out.push((*array, vec![(0, 0); rank]));
        }
        let radii = &mut out.iter_mut().find(|(a, _)| a == array).unwrap().1;
        for (d, &o) in offsets.iter().enumerate() {
            radii[d].0 = radii[d].0.max(-o);
            radii[d].1 = radii[d].1.max(o);
        }
    }
    out
}

/// Map a 1-based local coordinate into ghost-depth coordinates: `0`
/// anywhere inside the owned extent, negative in the below-halo, positive
/// in the above-halo. Collapsing the owned range to one point is what
/// makes the ghost ring exactly "box minus origin" for
/// [`uncovered_ghost`].
fn depth(x: i64, ext: i64) -> i64 {
    if x < 1 {
        x - 1
    } else if x > ext {
        x - ext
    } else {
        0
    }
}

/// A compiled schedule region (1-based local coordinates, halo positions
/// at `<= 0` and `> ext`) as a ghost-depth box. `depth` is monotone and
/// skips no value over a contiguous range, so mapping the two endpoints is
/// exact.
fn depth_box(region: &[(i64, i64)], exts: &[i64]) -> FillBox {
    region.iter().zip(exts).map(|(&(lo, hi), &e)| (depth(lo, e), depth(hi, e))).collect()
}

/// Check one Superstep item's trapezoid-coverage obligation (PL004): for
/// every PE, replay the superstep forward in ghost-depth coordinates. The
/// deep-fill schedules' decoded unpack/fill boxes establish each array's
/// valid ghost boxes; each sub-step's reads (expansion plus read radii)
/// must be covered, and its stores reset the written arrays' validity to
/// exactly the freshly computed box.
fn verify_superstep(
    w: usize,
    k: usize,
    comms: &[usize],
    body: &[PlanItem],
    expansions: &[Vec<Vec<(i64, i64)>>],
    scheds: &[CompiledComm],
    out: &mut Vec<Diagnostic>,
) {
    let nests = body_nests(body).count();
    if expansions.len() != k || expansions.iter().any(|sub| sub.len() != nests) {
        out.push(Diagnostic::error(
            PL004,
            format!(
                "superstep {w}: malformed trapezoid tables ({} sub-steps for depth {k}, \
                 {nests} nests)",
                expansions.len(),
            ),
        ));
        return;
    }
    // Every PE with a block of the deep fills' geometry; with no fills the
    // replay is the same on every PE, so one stands for all.
    let geom = comms.first().map(|&slot| &scheds[slot].geom);
    let pes = (0..geom.map_or(1, |g| g.grid.num_pes()))
        .filter(|&pe| !geom.is_some_and(|g| g.is_empty(pe)));
    for pe in pes {
        // Ghost boxes the deep fills establish on this PE, per array, decoded
        // from the compiled boxes (wrap-around self-transfers included).
        let mut valid: HashMap<hpf_ir::ArrayId, Vec<FillBox>> = HashMap::default();
        for &slot in comms {
            let s = &scheds[slot];
            let exts: Vec<i64> = s.geom.extents(pe).into_iter().map(|e| e as i64).collect();
            let boxes = s.writes(pe).flatten().map(|region| depth_box(&region, &exts));
            valid.entry(s.dst).or_default().extend(boxes);
        }
        for (j, sub) in expansions.iter().enumerate() {
            let mut n = 0;
            for item in body {
                let nest = match item {
                    PlanItem::Nest { nest, .. } => nest,
                    // The swap carries each array's valid boxes along with
                    // its storage.
                    PlanItem::Rebind { dst, src, .. } => {
                        let (d, s) = (valid.remove(dst), valid.remove(src));
                        valid.extend(d.map(|v| (*src, v)).into_iter().chain(s.map(|v| (*dst, v))));
                        continue;
                    }
                    _ => continue,
                };
                let (nest_no, expand) = (n, &sub[n]);
                n += 1;
                for (array, radii) in load_radii(nest) {
                    let need: GhostNeed = expand
                        .iter()
                        .zip(&radii)
                        .map(|(&(elo, ehi), &(rlo, rhi))| (elo + rlo, ehi + rhi))
                        .collect();
                    let none = Vec::new();
                    let fills = valid.get(&array).unwrap_or(&none);
                    if let Some(witness) = uncovered_ghost(&need, fills) {
                        out.push(Diagnostic::error(
                            PL004,
                            format!(
                                "superstep {w}: PE {pe} sub-step {j} nest {nest_no} reads ghost \
                                 cell at depth {witness:?} that neither the deep fill nor an \
                                 earlier sub-step's expanded sweep wrote (need {need:?}) — \
                                 the trapezoid would consume stale halo data"
                            ),
                        ));
                        return;
                    }
                }
                // The expanded sweep freshly computes the written arrays'
                // ghosts out to the expansion box — and nothing beyond it.
                let computed: FillBox = expand.iter().map(|&(lo, hi)| (-lo, hi)).collect();
                for array in nest.stored() {
                    valid.insert(array, vec![computed.clone()]);
                }
            }
        }
    }
}

/// Check every compiled schedule's geometry (PL006): each transfer's two
/// boxes decode to sections of equal extents, each fill's box to a section.
fn verify_schedules(scheds: &[CompiledComm], out: &mut Vec<Diagnostic>) {
    let extents = |r: &[(i64, i64)]| r.iter().map(|&(lo, hi)| hi - lo).collect::<Vec<_>>();
    for (slot, s) in scheds.iter().enumerate() {
        let mut reject = |what: String| {
            out.push(Diagnostic::error(
                PL006,
                format!(
                    "schedule {slot}: {what} — the engines would move cells no shift describes"
                ),
            ))
        };
        for (i, t) in s.transfers.iter().enumerate() {
            match (s.section(t.src_pe, &t.src), s.section(t.dst_pe, &t.dst)) {
                (Some(from), Some(to)) if extents(&from) == extents(&to) => {}
                (from, to) => reject(format!(
                    "transfer {i} (PE {} to PE {}) is no section-to-section move of one shape \
                     ({from:?} to {to:?})",
                    t.src_pe, t.dst_pe
                )),
            }
        }
        for (i, f) in s.fills.iter().enumerate() {
            if s.section(f.pe, &f.region).is_none() {
                reject(format!("fill {i} on PE {} is no section of its subgrid", f.pe));
            }
        }
    }
}

/// Enforcement behind [`ExecPlan::build`](crate::ExecPlan::build): verify
/// every compiled kernel (`BV*`) and every Superstep item (`PL*`). With
/// `checked` set, any diagnostic aborts the build with
/// [`RtError::VerificationFailed`]; otherwise each rejected kernel falls
/// back to the interpreter (`kernels[pe] = None`) and each rejected
/// superstep to a `k`-iteration time loop that re-runs the
/// deep fills before each sub-step's owned-only sweeps — all leaving a
/// plan that verifies clean. A rejected superstep whose body chains
/// through comm-less intermediate arrays has no such demotion (the chain
/// ghosts exist only through the expanded sweeps), so it fails the build
/// even unchecked rather than run a plan known wrong — as do a stale
/// binding (PL005) and a box that is no section (PL006), which no demotion
/// repairs.
pub(crate) fn enforce(
    items: &mut Vec<PlanItem>,
    scheds: &[CompiledComm],
    checked: bool,
) -> Result<(), RtError> {
    let mut report = Vec::new();
    let mut hard = false;
    demote_items(items, scheds, checked, &mut report, &mut hard);
    let stale = report.len();
    verify_program_rebinds(items, scheds, &mut report);
    verify_schedules(scheds, &mut report);
    hard |= report.len() > stale;
    if (checked || hard) && !report.is_empty() {
        let report =
            report.iter().map(|d| format!("{}: {}", d.code, d.message)).collect::<Vec<_>>();
        return Err(RtError::VerificationFailed { report: report.join("\n") });
    }
    Ok(())
}

/// True when the superstep's blocking demotion preserves semantics: every
/// array some nest stores and some nest reads at a nonzero offset must be
/// refilled by a deep-fill schedule. A comm-less chain array (problem-9
/// style shifted temporaries) gets its ghosts only from the expanded
/// sweeps the demotion drops.
fn superstep_demotable(comms: &[usize], body: &[PlanItem], scheds: &[CompiledComm]) -> bool {
    let stored_any: Vec<hpf_ir::ArrayId> = body_nests(body).flat_map(|(n, _)| n.stored()).collect();
    body_nests(body)
        .flat_map(|(nest, _)| load_radii(nest))
        .filter(|(_, radii)| radii.iter().any(|&(lo, hi)| lo > 0 || hi > 0))
        .filter(|(a, _)| stored_any.contains(a))
        .all(|(a, _)| comms.iter().any(|&slot| scheds[slot].dst == a))
}

/// Kernel obligations (`BV*`) of one nest's per-PE kernels, proven once per
/// shared code; unchecked, a rejected code falls back to the interpreter on
/// every PE that shares it.
fn demote_kernels(
    kernels: &mut [Option<CompiledNest>],
    checked: bool,
    report: &mut Vec<Diagnostic>,
) {
    for (pes, diags) in verify_kernels(kernels) {
        if !diags.is_empty() {
            report.extend(diags.into_iter().map(|d| d.note(format!("kernel of PEs {pes:?}"))));
            if !checked {
                pes.into_iter().for_each(|pe| kernels[pe] = None);
            }
        }
    }
}

fn demote_items(
    items: &mut Vec<PlanItem>,
    scheds: &[CompiledComm],
    checked: bool,
    report: &mut Vec<Diagnostic>,
    hard: &mut bool,
) {
    let old = std::mem::take(items);
    for mut item in old {
        // Kernel obligations first: a demoted superstep keeps its kernels,
        // so they must hold either way.
        match &mut item {
            PlanItem::Nest { kernels, .. } => demote_kernels(kernels, checked, report),
            PlanItem::Superstep { body, .. } => {
                for sub in body {
                    if let PlanItem::Nest { kernels, .. } = sub {
                        demote_kernels(kernels, checked, report);
                    }
                }
            }
            _ => {}
        }
        match item {
            PlanItem::Superstep { k, comms, body, expansions, elided } => {
                let mut diags = Vec::new();
                verify_superstep(items.len(), k, &comms, &body, &expansions, scheds, &mut diags);
                if diags.is_empty() {
                    items.push(PlanItem::Superstep { k, comms, body, expansions, elided });
                } else {
                    report.extend(diags);
                    if checked {
                        // The build aborts; no replacement item needed.
                    } else if superstep_demotable(&comms, &body, scheds) {
                        // Blocking demotion: re-run the deep fills before
                        // every sub-step and sweep owned cells only. The
                        // deep fills subsume each sub-step's classic ghost
                        // needs, so this is the classic schedule with
                        // over-deep refills — correct, merely slower.
                        items.push(PlanItem::TimeLoop {
                            iters: k,
                            body: comms.into_iter().map(PlanItem::Comm).chain(body).collect(),
                        });
                    } else {
                        *hard = true;
                    }
                }
            }
            PlanItem::TimeLoop { iters, mut body } => {
                demote_items(&mut body, scheds, checked, report, hard);
                items.push(PlanItem::TimeLoop { iters, body });
            }
            other => items.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::config::{Engine, ExecConfig};
    use hpf_frontend::compile_source;
    use hpf_passes::{compile, CompileOptions, Stage};
    use hpf_runtime::{Machine, MachineConfig};

    const JACOBI16: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
REAL C = 0.25
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
"#;

    /// 9-point stencil (the paper's problem 9): the diagonal neighbors go
    /// through shifted temporaries, so its schedules forward corners.
    const NINE_POINT16: &str = r#"
PARAM N = 16
REAL U(N,N), T(N,N), RIP(N,N), RIN(N,N)
RIP = CSHIFT(U,SHIFT=+1,DIM=1)
RIN = CSHIFT(U,SHIFT=-1,DIM=1)
T = U + RIP + RIN + CSHIFT(U,-1,2) + CSHIFT(U,1,2) + CSHIFT(RIP,-1,2) + CSHIFT(RIP,1,2) + CSHIFT(RIN,-1,2) + CSHIFT(RIN,1,2)
U = T
"#;

    fn threaded_plan(src: &str) -> (Machine, ExecPlan) {
        let checked = compile_source(src).unwrap();
        let compiled = compile(&checked, CompileOptions::upto(Stage::MemOpt));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::with_grid(vec![2, 2]));
        m.alloc(u, checked.symbols.array(u)).unwrap();
        m.fill(u, |p| ((p[0] * 31 + p[1] * 7) as f64).sin());
        let cfg = ExecConfig::new().engine(Engine::Threaded).backend(Backend::Bytecode);
        let plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        (m, plan)
    }

    /// A depth-`k` superstep plan of the flat Jacobi kernel: one
    /// [`PlanItem::Superstep`] item, deep halo of `k` layers.
    fn superstep_plan(k: usize) -> (Machine, ExecPlan) {
        let checked = compile_source(JACOBI16).unwrap();
        let compiled = compile(&checked, CompileOptions::upto(Stage::MemOpt));
        let u = checked.symbols.lookup_array("U").unwrap();
        let mut m = Machine::new(MachineConfig::with_grid(vec![2, 2]).halo(k));
        m.alloc(u, checked.symbols.array(u)).unwrap();
        m.fill(u, |p| ((p[0] * 31 + p[1] * 7) as f64).sin());
        let cfg = ExecConfig::new().backend(Backend::Bytecode).superstep(k);
        let plan = ExecPlan::build(&mut m, &compiled.node, &cfg).unwrap();
        assert_eq!(plan.supersteps_per_step(), 1, "fixture must build a superstep");
        (m, plan)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn compiler_built_plans_verify_clean() {
        for src in [JACOBI16, NINE_POINT16] {
            let (_, plan) = threaded_plan(src);
            assert!(plan.verify().is_empty(), "{:?}", plan.verify());
        }
    }

    #[test]
    fn superstep_plans_verify_clean() {
        for k in [2usize, 4] {
            let (_, plan) = superstep_plan(k);
            assert!(plan.verify().is_empty(), "{:?}", plan.verify());
        }
    }

    #[test]
    fn widened_trapezoid_trips_pl004() {
        let (_, mut plan) = superstep_plan(2);
        assert!(plan.corrupt_widen_trapezoid());
        let d = plan.verify();
        assert!(codes(&d).contains(&PL004), "{d:?}");
    }

    #[test]
    fn corrupted_superstep_demotes_to_deep_refill_loop() {
        // Unchecked enforcement demotes the corrupted superstep to a
        // k-iteration time loop of deep fills + owned-only sweeps, which
        // verifies clean and elides nothing.
        let (_, mut plan) = superstep_plan(2);
        assert!(plan.corrupt_widen_trapezoid());
        assert!(!plan.verify().is_empty());
        let items = &mut plan.items;
        let scheds = &plan.scheds;
        enforce(items, scheds, false).unwrap();
        assert!(plan.verify().is_empty(), "{:?}", plan.verify());

        // Checked enforcement on a corrupted superstep fails hard.
        let (_, mut plan) = superstep_plan(2);
        assert!(plan.corrupt_widen_trapezoid());
        let items = &mut plan.items;
        let scheds = &plan.scheds;
        let err = enforce(items, scheds, true).unwrap_err();
        let RtError::VerificationFailed { report } = err else {
            panic!("expected VerificationFailed")
        };
        assert!(report.contains(PL004), "{report}");
    }

    #[test]
    fn stale_binding_trips_pl005_and_fails_even_unchecked() {
        // Both fixtures rotate their copy-back, and both rebinds verify.
        let (_, mut flat) = threaded_plan(JACOBI16);
        let (_, mut tiled) = superstep_plan(2);
        for plan in [&mut flat, &mut tiled] {
            assert!(plan.verify().is_empty(), "{:?}", plan.verify());
            assert!(plan.corrupt_stale_binding(), "a nest loads U and stores T");
            let d = plan.verify();
            assert!(codes(&d).contains(&PL005), "{d:?}");
            let err = enforce(&mut plan.items, &plan.scheds, false).unwrap_err();
            let RtError::VerificationFailed { report } = err else {
                panic!("expected VerificationFailed")
            };
            assert!(report.contains(PL005), "{report}");
        }
    }
}
