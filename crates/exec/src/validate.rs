//! Pre-execution validation and allocation, run by `ExecPlan::build`
//! before any PE touches a subgrid:
//!
//! * [`check_halo`] — every offset access in the node program must fit
//!   inside the machine's overlap width, or a kernel compiled for a wider
//!   halo would silently read the wrong subgrid cells;
//! * [`allocate`] — that check, then every array the program references,
//!   then that every nest, full shift and rebind pairs only arrays of one
//!   geometry (unlike blocks would index one array with another's strides);
//! * [`prevalidate_comms`] — checked builds only: construct every
//!   overlap-shift plan once so a malformed shift is reported before any
//!   schedule is compiled.

use hpf_passes::loopir::{CommOp, Instr, NodeItem, NodeProgram};
use hpf_runtime::schedule::overlap_shift_plan;
use hpf_runtime::{Machine, RtError};

/// Reject node programs whose offset accesses exceed the machine's overlap
/// width.
fn check_halo(machine: &Machine, node: &NodeProgram) -> Result<(), RtError> {
    let halo = machine.cfg.halo as i64;
    let mut worst: Option<(i64, usize)> = None;
    node.for_each_item(&mut |item| {
        if let NodeItem::Nest(nest) = item {
            for i in nest.unit_body() {
                if let Instr::Load { offsets, .. } = i {
                    for (d, &o) in offsets.iter().enumerate() {
                        if o.abs() > halo && worst.is_none_or(|(w, _)| o.abs() > w) {
                            worst = Some((o, d));
                        }
                    }
                }
            }
        }
    });
    match worst {
        Some((o, d)) => Err(RtError::ShiftTooWide { shift: o, dim: d, limit: machine.cfg.halo }),
        None => Ok(()),
    }
}

/// Allocate every array the node program references (inputs may already be
/// allocated by the caller; those are left untouched), after checking that
/// the machine's overlap width can serve every offset access the program
/// performs; then check that the arrays each item pairs share a geometry.
pub fn allocate(machine: &mut Machine, node: &NodeProgram) -> Result<(), RtError> {
    check_halo(machine, node)?;
    for id in &node.live_arrays {
        if !machine.is_allocated(*id) {
            machine.alloc(*id, node.symbols.array(*id))?;
        }
    }
    check_geometry(machine, node)
}

/// Reject an item over arrays of unlike geometry: a nest runs each PE's
/// points through one subgrid layout, a full shift resolves its two boxes
/// against one, and a rebind swaps whole subgrids.
fn check_geometry(machine: &Machine, node: &NodeProgram) -> Result<(), RtError> {
    let mut result = Ok(());
    node.for_each_item(&mut |item| {
        let (arrays, what): (Vec<_>, _) = match item {
            NodeItem::Nest(n) => (n.body.iter().filter_map(Instr::array).collect(), "a loop nest"),
            NodeItem::Comm(CommOp::FullShift { dst, src, .. }) => (vec![*src, *dst], "a shift"),
            NodeItem::Rebind { dst, src } => (vec![*dst, *src], "storage"),
            _ => return,
        };
        if result.is_ok() {
            let what = format!("cannot share {what}");
            result =
                arrays.iter().try_for_each(|&b| machine.check_same_geometry(arrays[0], b, &what));
        }
    });
    result
}

/// Build every overlap-shift communication plan in the item tree once,
/// surfacing any plan-construction error (shift wider than the halo, bad
/// RSD extent) before any schedule is compiled.
pub(crate) fn prevalidate_comms(machine: &Machine, items: &[NodeItem]) -> Result<(), RtError> {
    for item in items {
        match item {
            NodeItem::Comm(CommOp::Overlap { array, shift, dim, rsd, kind }) => {
                let geom = machine.meta(*array).geom;
                overlap_shift_plan(&geom, *shift, *dim, rsd.as_ref(), *kind, machine.cfg.halo)?;
            }
            NodeItem::TimeLoop { body, .. } => prevalidate_comms(machine, body)?,
            _ => {}
        }
    }
    Ok(())
}
