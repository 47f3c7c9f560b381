//! A loop nest's scalars and its superstep boxes on one PE.
//!
//! Each PE's compiled kernel carries the nest's iteration space
//! intersected with the region the PE owns (SPMD bounds reduction, paper
//! §2.2). A superstep sub-step expands that box into the ghost layers; the
//! VM runs it, and the plan counts what each sweep does over it.

use hpf_ir::Dims;
use hpf_passes::loopir::{Instr, LoopNest};
use hpf_runtime::PeState;

/// Resolve a `ScalarId`-indexed value table from the symbol table.
pub fn scalar_values(symbols: &hpf_ir::SymbolTable) -> Vec<f64> {
    symbols.scalar_ids().map(|id| symbols.scalar(id).value).collect()
}

/// This PE's local bounds `lo..=hi` *expanded* into the ghost region:
/// dimension `d` gains `expand[d].0` points below the owned block and
/// `expand[d].1` above, clamped to allocated storage (`1-halo ..=
/// ext+halo`). The superstep engine's trapezoid sweeps run over this box —
/// the expanded points redundantly recompute neighbor-owned cells from
/// deep-halo data, writing the results into this PE's own ghost storage so
/// later sub-steps can read them without communicating. Callers must
/// guarantee (superstep legality + PL004) that every read from the
/// expanded region stays inside allocated storage.
pub fn expand_bounds(
    pe: &PeState,
    nest: &LoopNest,
    lo: &[i64],
    hi: &[i64],
    expand: &[(i64, i64)],
) -> (Dims<i64>, Dims<i64>) {
    let probe = nest.body.iter().find_map(Instr::array).expect("nests access an array");
    let sub = pe.subgrids[probe.0 as usize].as_ref().expect("allocated");
    let halo = sub.halo as i64;
    let lo_x = lo.iter().zip(expand).map(|(&l, &(e, _))| (l - e).max(1 - halo)).collect();
    let hi_x = hi
        .iter()
        .zip(expand)
        .enumerate()
        .map(|(d, (&h, &(_, e)))| (h + e).min(sub.ext[d] as i64 + halo))
        .collect();
    (lo_x, hi_x)
}
