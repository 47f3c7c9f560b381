//! A test-local evaluator of the loop IR: it walks a `LoopNest`'s `Instr`s
//! point by point over one PE's subgrids and shares no code with the
//! bytecode compiler or the VM, so a test that compares the two checks the
//! lowering against the loop IR's own semantics. Those are: the points in
//! the nest's loop order (the last loop fastest); the jammed body once per
//! full group of `factor` indices of the outermost loop and the unit body
//! once per remaining index; each body's instructions in order; one
//! register file that starts at zero and persists across points.
//!
//! Included by `tests/loopir_equivalence.rs` (through `mod common`) and by
//! `crates/codegen/tests/chain_differential.rs` (through `#[path]`).

use hpf_passes::loopir::{Instr, LoopNest};
use hpf_runtime::{PeState, Subgrid};

/// This PE's local iteration bounds for a nest: the intersection of the
/// global iteration space with the owned region, translated to local
/// coordinates (inclusive). `None` when the PE owns nothing of the space.
pub fn nest_local_bounds(pe: &PeState, nest: &LoopNest) -> Option<(Vec<i64>, Vec<i64>)> {
    let probe = nest.body.iter().find_map(Instr::array)?;
    let sub = pe.subgrids.get(probe.0 as usize)?.as_ref()?;
    let mut bounds = (Vec::new(), Vec::new());
    for d in 0..sub.ext.len() {
        let (olo, _) = sub.owned.dim(d);
        let (slo, shi) = nest.space.dim(d);
        let (lo, hi) = ((slo - olo + 1).max(1), (shi - olo + 1).min(sub.ext[d] as i64));
        if hi < lo {
            return None;
        }
        bounds.0.push(lo);
        bounds.1.push(hi);
    }
    Some(bounds)
}

/// Run `nest` over this PE's part of its iteration space. `scalars` is
/// the `ScalarId`-indexed value table.
pub fn exec_nest(pe: &mut PeState, nest: &LoopNest, scalars: &[f64]) {
    if let Some((lo, hi)) = nest_local_bounds(pe, nest) {
        exec_nest_over(pe, nest, scalars, &lo, &hi);
    }
}

/// Run `nest` over the local box `lo..=hi` (inclusive; it may reach into
/// the ghost layers).
pub fn exec_nest_over(pe: &mut PeState, nest: &LoopNest, scalars: &[f64], lo: &[i64], hi: &[i64]) {
    let unroll = nest.unroll.as_ref().filter(|u| u.factor > 1);
    let factor = unroll.map_or(1, |u| u.factor as i64);
    let (outer, inner) = (nest.order[0], &nest.order[1..]);
    let mut regs = vec![0.0f64; nest.regs.max(unroll.map_or(0, |u| u.unit_regs))];
    let mut point = lo.to_vec();
    while point[outer] <= hi[outer] {
        let jammed = point[outer] + factor - 1 <= hi[outer];
        let body = match unroll {
            Some(u) if !jammed => &u.unit_body,
            _ => &nest.body,
        };
        inner.iter().for_each(|&d| point[d] = lo[d]);
        'points: loop {
            exec_body(pe, body, scalars, &point, &mut regs);
            for &d in inner.iter().rev() {
                point[d] += 1;
                if point[d] <= hi[d] {
                    continue 'points;
                }
                point[d] = lo[d];
            }
            break;
        }
        point[outer] += if jammed { factor } else { 1 };
    }
}

/// The flat storage index of local point `point` shifted by `offsets`.
fn flat(sub: &Subgrid, point: &[i64], offsets: &[i64]) -> usize {
    let halo = sub.halo as i64;
    let at = point.iter().zip(offsets).zip(sub.strides());
    at.map(|((&p, &o), &s)| (p + o + halo - 1) * s as i64).sum::<i64>() as usize
}

fn exec_body(pe: &mut PeState, body: &[Instr], scalars: &[f64], point: &[i64], regs: &mut [f64]) {
    for instr in body {
        match instr {
            Instr::Const { dst, value } => regs[*dst as usize] = *value,
            Instr::LoadScalar { dst, id } => regs[*dst as usize] = scalars[id.0 as usize],
            Instr::Load { dst, array, offsets } => {
                let sub = pe.subgrid(*array);
                regs[*dst as usize] = sub.raw()[flat(sub, point, offsets)];
            }
            Instr::Store { array, offsets, src } => {
                let sub = pe.subgrid_mut(*array);
                let at = flat(sub, point, offsets);
                sub.raw_mut()[at] = regs[*src as usize];
            }
            Instr::Bin { op, dst, a, b } => {
                regs[*dst as usize] = op.apply(regs[*a as usize], regs[*b as usize])
            }
            Instr::Neg { dst, src } => regs[*dst as usize] = -regs[*src as usize],
            Instr::Copy { dst, src } => regs[*dst as usize] = regs[*src as usize],
            Instr::Cmp { op, dst, a, b } => {
                regs[*dst as usize] = op.apply(regs[*a as usize], regs[*b as usize])
            }
            Instr::Select { dst, c, t, e } => {
                let v =
                    if regs[*c as usize] != 0.0 { regs[*t as usize] } else { regs[*e as usize] };
                regs[*dst as usize] = v;
            }
        }
    }
}
