//! Pre-execution validation and allocation, run by `ExecPlan::build`
//! before any PE touches a subgrid:
//!
//! * [`check_halo`] — every offset access in the node program must fit
//!   inside the machine's overlap width, or a kernel compiled for a wider
//!   halo would silently read the wrong subgrid cells;
//! * [`allocate`] — that check, then every array the program references;
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
            let unit = nest.unroll.as_ref().map_or(&nest.body, |u| &u.unit_body);
            for i in unit {
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
/// performs.
pub fn allocate(machine: &mut Machine, node: &NodeProgram) -> Result<(), RtError> {
    check_halo(machine, node)?;
    for id in &node.live_arrays {
        if !machine.is_allocated(*id) {
            machine.alloc(*id, node.symbols.array(*id))?;
        }
    }
    Ok(())
}

/// Build every overlap-shift communication plan in the item tree once,
/// surfacing any plan-construction error (shift wider than the halo, bad
/// RSD extent) before any schedule is compiled.
pub(crate) fn prevalidate_comms(machine: &Machine, items: &[NodeItem]) -> Result<(), RtError> {
    for item in items {
        match item {
            NodeItem::Comm(CommOp::Overlap { array, shift, dim, rsd, kind }) => {
                let geom = machine.meta(*array).geom.clone();
                overlap_shift_plan(&geom, *shift, *dim, rsd.as_ref(), *kind, machine.cfg.halo)?;
            }
            NodeItem::TimeLoop { body, .. } => prevalidate_comms(machine, body)?,
            _ => {}
        }
    }
    Ok(())
}
