//! Subgrid loop-nest execution on one PE.
//!
//! The nest's iteration space is global; each PE intersects it with the
//! region it owns (SPMD bounds reduction, paper §2.2) and runs the
//! register-machine body over the surviving local points. Bodies are
//! "compiled" per PE into flat-index form: every load/store becomes a base
//! index plus a precomputed delta, so the interpreter does no per-access
//! coordinate arithmetic.

use hpf_ir::expr::CmpOp;
use hpf_ir::BinOp;
use hpf_passes::loopir::{Instr, LoopNest, Reg};
use hpf_runtime::PeState;

/// A body instruction with resolved scalar values and flattened access
/// deltas for this PE's subgrid layout.
#[derive(Clone, Debug)]
enum CInstr {
    Const(Reg, f64),
    Load(Reg, u32, i64),
    Store(u32, i64, Reg),
    Bin(BinOp, Reg, Reg, Reg),
    Neg(Reg, Reg),
    Copy(Reg, Reg),
    Cmp(CmpOp, Reg, Reg, Reg),
    Select(Reg, Reg, Reg, Reg),
}

fn compile_body(body: &[Instr], strides: &[usize], scalars: &[f64]) -> Vec<CInstr> {
    body.iter()
        .map(|i| match i {
            Instr::Const { dst, value } => CInstr::Const(*dst, *value),
            Instr::LoadScalar { dst, id } => CInstr::Const(*dst, scalars[id.0 as usize]),
            Instr::Load { dst, array, offsets } => {
                CInstr::Load(*dst, array.0, delta(offsets, strides))
            }
            Instr::Store { array, offsets, src } => {
                CInstr::Store(array.0, delta(offsets, strides), *src)
            }
            Instr::Bin { op, dst, a, b } => CInstr::Bin(*op, *dst, *a, *b),
            Instr::Neg { dst, src } => CInstr::Neg(*dst, *src),
            Instr::Copy { dst, src } => CInstr::Copy(*dst, *src),
            Instr::Cmp { op, dst, a, b } => CInstr::Cmp(*op, *dst, *a, *b),
            Instr::Select { dst, c, t, e } => CInstr::Select(*dst, *c, *t, *e),
        })
        .collect()
}

fn delta(offsets: &[i64], strides: &[usize]) -> i64 {
    offsets.iter().zip(strides).map(|(&o, &s)| o * s as i64).sum()
}

/// Resolve a `ScalarId`-indexed value table from the symbol table.
pub fn scalar_values(symbols: &hpf_ir::SymbolTable) -> Vec<f64> {
    symbols.scalar_ids().map(|id| symbols.scalar(id).value).collect()
}

/// This PE's local iteration bounds for a nest: the intersection of the
/// global iteration space with the owned region, translated to local
/// coordinates (inclusive). `None` when the PE owns nothing of the space.
/// Mirrors the bounds reduction of [`exec_nest`] and of the bytecode
/// compiler.
pub fn nest_local_bounds(pe: &PeState, nest: &LoopNest) -> Option<(Vec<i64>, Vec<i64>)> {
    let probe = nest.body.iter().find_map(Instr::array)?;
    let sub = pe.subgrids.get(probe.0 as usize)?.as_ref()?;
    let (owned, ext) = (&sub.owned, &sub.ext);
    if ext.contains(&0) {
        return None;
    }
    let rank = ext.len();
    let mut lo = vec![0i64; rank];
    let mut hi = vec![0i64; rank];
    for d in 0..rank {
        let (olo, _) = owned.dim(d);
        let (slo, shi) = nest.space.dim(d);
        lo[d] = (slo - olo + 1).max(1);
        hi[d] = (shi - olo + 1).min(ext[d] as i64);
        if hi[d] < lo[d] {
            return None;
        }
    }
    Some((lo, hi))
}

/// Execute one loop nest on one PE. `scalars` is the value table from
/// [`scalar_values`].
pub fn exec_nest(pe: &mut PeState, nest: &LoopNest, scalars: &[f64]) {
    let Some((lo, hi)) = nest_local_bounds(pe, nest) else {
        return; // this PE owns nothing of the space
    };
    exec_nest_over(pe, nest, scalars, &lo, &hi);
}

/// Execute one loop nest over this PE's local iteration space *expanded*
/// into the ghost region: dimension `d` gains `expand[d].0` points below
/// the owned block and `expand[d].1` above, clamped to allocated storage
/// (`1-halo ..= ext+halo`). The superstep engine's trapezoid sweeps run
/// through here — the expanded points redundantly recompute neighbor-owned
/// cells from deep-halo data, writing the results into this PE's own ghost
/// storage so later sub-steps can read them without communicating. Callers
/// must guarantee (superstep legality + PL004) that every read from the
/// expanded region stays inside allocated storage. Returns the number of
/// points beyond the unexpanded bounds that were computed (the redundant
/// work the cost model charges).
pub fn exec_nest_expanded(
    pe: &mut PeState,
    nest: &LoopNest,
    scalars: &[f64],
    expand: &[(i64, i64)],
) -> u64 {
    let Some((lo, hi)) = nest_local_bounds(pe, nest) else {
        return 0;
    };
    let (lo_x, hi_x) = expand_bounds(pe, nest, &lo, &hi, expand);
    let owned: u64 = lo.iter().zip(&hi).map(|(&l, &h)| (h - l + 1) as u64).product();
    let total: u64 = lo_x.iter().zip(&hi_x).map(|(&l, &h)| (h - l + 1) as u64).product();
    exec_nest_over(pe, nest, scalars, &lo_x, &hi_x);
    total - owned
}

/// The storage-clamped expanded bounds [`exec_nest_expanded`] runs over
/// (shared with the bytecode twin so both backends compute the identical
/// region). Local frame: owned cells `1..=ext`, ghosts out to `±halo`.
pub fn expand_bounds(
    pe: &PeState,
    nest: &LoopNest,
    lo: &[i64],
    hi: &[i64],
    expand: &[(i64, i64)],
) -> (Vec<i64>, Vec<i64>) {
    let probe = nest.body.iter().find_map(Instr::array).expect("nests access an array");
    let sub = pe.subgrids[probe.0 as usize].as_ref().expect("allocated");
    let halo = sub.halo as i64;
    let lo_x: Vec<i64> = lo.iter().zip(expand).map(|(&l, &(e, _))| (l - e).max(1 - halo)).collect();
    let hi_x: Vec<i64> = hi
        .iter()
        .zip(expand)
        .enumerate()
        .map(|(d, (&h, &(_, e)))| (h + e).min(sub.ext[d] as i64 + halo))
        .collect();
    (lo_x, hi_x)
}

/// The interpreter body behind [`exec_nest`] / [`exec_nest_expanded`]: run the
/// register machine over the box `lo..=hi` (local, inclusive). Jammed/unit
/// grouping is decided against these bounds.
fn exec_nest_over(pe: &mut PeState, nest: &LoopNest, scalars: &[f64], lo: &[i64], hi: &[i64]) {
    let probe = nest.body.iter().find_map(Instr::array).expect("nests access an array");
    let (strides, halo) = {
        let sub = pe.subgrid(probe);
        (sub.strides().to_vec(), sub.halo)
    };
    let rank = strides.len();

    let jammed = compile_body(&nest.body, &strides, scalars);
    let unit = nest.unroll.as_ref().map(|u| compile_body(&u.unit_body, &strides, scalars));

    // Flat base index of local point `lo` and per-dimension index steps.
    let base_of = |point: &[i64]| -> i64 {
        point.iter().zip(&strides).map(|(&l, &s)| (l + halo as i64 - 1) * s as i64).sum()
    };

    let max_regs = nest.regs.max(nest.unroll.as_ref().map_or(0, |u| u.unit_regs));
    let mut regs = vec![0.0f64; max_regs.max(1)];

    // Counters (bulk-updated at the end).
    let mut jammed_execs = 0u64;
    let mut unit_execs = 0u64;

    // Iterate the loops in `order`, outermost first. The unrolled loop (if
    // any) is order[0] with the given factor; remainder points run the unit
    // body.
    let order = &nest.order;
    debug_assert_eq!(order.len(), rank);
    let (unroll_dim, factor) = match &nest.unroll {
        Some(u) => {
            debug_assert_eq!(u.dim, order[0], "unroll applies to the outermost loop");
            (u.dim, u.factor as i64)
        }
        None => (order[0], 1),
    };

    // Odometer over the non-outermost loops.
    let inner_dims: Vec<usize> = order[1..].to_vec();
    let mut point = lo.to_vec();
    let d0 = unroll_dim;
    let mut i = lo[d0];
    while i <= hi[d0] {
        let use_jammed = i + factor - 1 <= hi[d0];
        let body = if use_jammed { &jammed } else { unit.as_ref().unwrap_or(&jammed) };
        let step = if use_jammed { factor } else { 1 };
        point[d0] = i;
        // Iterate the inner loops for this outer index.
        for d in &inner_dims {
            point[*d] = lo[*d];
        }
        'outer: loop {
            let base = base_of(&point);
            exec_body(pe, body, base, &mut regs);
            if use_jammed {
                jammed_execs += 1;
            } else {
                unit_execs += 1;
            }
            // Advance the inner odometer (last of `order` fastest).
            for idx in (0..inner_dims.len()).rev() {
                let d = inner_dims[idx];
                point[d] += 1;
                if point[d] <= hi[d] {
                    continue 'outer;
                }
                point[d] = lo[d];
            }
            break;
        }
        i += step;
    }

    // Bulk counters.
    let count = |body: &[Instr]| {
        let loads = body.iter().filter(|x| matches!(x, Instr::Load { .. })).count() as u64;
        let stores = body.iter().filter(|x| matches!(x, Instr::Store { .. })).count() as u64;
        let flops =
            body.iter().filter(|x| matches!(x, Instr::Bin { .. } | Instr::Neg { .. })).count()
                as u64;
        (loads, stores, flops)
    };
    let (jl, js, jf) = count(&nest.body);
    let (ul, us, uf) = nest.unroll.as_ref().map(|u| count(&u.unit_body)).unwrap_or((0, 0, 0));
    let s = &mut pe.stats;
    s.loads += jammed_execs * jl + unit_execs * ul;
    s.stores += jammed_execs * js + unit_execs * us;
    s.flops += jammed_execs * jf + unit_execs * uf;
    s.iters += jammed_execs + unit_execs;
    // Stride penalty: the innermost loop should run over the
    // storage-contiguous (last) dimension; otherwise every load walks a
    // large stride (what loop permutation fixes).
    if *order.last().unwrap() != rank - 1 && rank > 1 {
        s.strided_loads += jammed_execs * jl + unit_execs * ul;
    }
}

#[inline]
fn exec_body(pe: &mut PeState, body: &[CInstr], base: i64, regs: &mut [f64]) {
    for instr in body {
        match instr {
            CInstr::Const(d, v) => regs[*d as usize] = *v,
            CInstr::Load(d, arr, delta) => {
                let sub = pe.subgrids[*arr as usize].as_ref().expect("allocated");
                regs[*d as usize] = sub.raw()[(base + delta) as usize];
            }
            CInstr::Store(arr, delta, src) => {
                let v = regs[*src as usize];
                let sub = pe.subgrids[*arr as usize].as_mut().expect("allocated");
                sub.raw_mut()[(base + delta) as usize] = v;
            }
            CInstr::Bin(op, d, a, b) => {
                regs[*d as usize] = op.apply(regs[*a as usize], regs[*b as usize]);
            }
            CInstr::Neg(d, a) => regs[*d as usize] = -regs[*a as usize],
            CInstr::Copy(d, a) => regs[*d as usize] = regs[*a as usize],
            CInstr::Cmp(op, d, a, b) => {
                regs[*d as usize] = op.apply(regs[*a as usize], regs[*b as usize]);
            }
            CInstr::Select(d, c, t, e) => {
                regs[*d as usize] =
                    if regs[*c as usize] != 0.0 { regs[*t as usize] } else { regs[*e as usize] };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::{ArrayDecl, ArrayId, Distribution, Section, Shape};
    use hpf_passes::loopir::Unroll;
    use hpf_runtime::{Machine, MachineConfig};

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.alloc(T, &ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        m
    }

    fn copy_nest(space: Section, offsets: Vec<i64>) -> LoopNest {
        LoopNest {
            space,
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets },
                Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
            ],
            regs: 1,
            unroll: None,
        }
    }

    #[test]
    fn interior_copy_respects_spmd_bounds() {
        let mut m = machine();
        let nest = copy_nest(Section::new([(2, 7), (2, 7)]), vec![0, 0]);
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest, &[]);
        }
        assert_eq!(m.get(T, &[2, 2]), 202.0);
        assert_eq!(m.get(T, &[7, 7]), 707.0);
        assert_eq!(m.get(T, &[1, 1]), 0.0, "outside the space untouched");
        assert_eq!(m.get(T, &[8, 4]), 0.0);
        // Each PE computed a 3x3 chunk: loads counted.
        let agg = m.stats();
        assert_eq!(agg.total().loads, 36);
        assert_eq!(agg.total().stores, 36);
        assert_eq!(agg.total().iters, 36);
    }

    #[test]
    fn offset_load_reads_halo() {
        let mut m = machine();
        m.overlap_shift(U, 1, 0, None, hpf_ir::ShiftKind::Circular).unwrap();
        m.reset_stats();
        let nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![1, 0]);
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest, &[]);
        }
        // T(i,j) = U(i+1,j), circular through the halo.
        assert_eq!(m.get(T, &[4, 2]), 502.0, "cross-PE row via halo");
        assert_eq!(m.get(T, &[8, 3]), 103.0, "global wrap via halo");
    }

    #[test]
    fn scalars_resolved_in_body() {
        let mut m = machine();
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::LoadScalar { dst: 0, id: hpf_ir::ScalarId(0) },
                Instr::Load { dst: 1, array: U, offsets: vec![0, 0] },
                Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 2 },
            ],
            regs: 3,
            unroll: None,
        };
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest, &[2.5]);
        }
        assert_eq!(m.get(T, &[3, 4]), 2.5 * 304.0);
        assert_eq!(m.stats().total().flops, 64);
    }

    #[test]
    fn unrolled_nest_covers_all_points_with_remainder() {
        let mut m = machine();
        // Space of 7 rows: factor 2 leaves a remainder row on some PEs.
        let mut nest = copy_nest(Section::new([(1, 7), (1, 8)]), vec![0, 0]);
        let unit = nest.body.clone();
        // Jam by hand: factor 2.
        let mut jammed = unit.clone();
        let mut second: Vec<Instr> = unit.to_vec();
        for i in &mut second {
            i.remap(&mut |r| r + 1);
            i.shift_dim(0, 1);
        }
        jammed.extend(second);
        nest.body = jammed;
        nest.regs = 2;
        nest.unroll = Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: 1 });
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest, &[]);
        }
        for i in 1..=7i64 {
            for j in 1..=8i64 {
                assert_eq!(m.get(T, &[i, j]), (i * 100 + j) as f64, "at ({i},{j})");
            }
        }
        assert_eq!(m.get(T, &[8, 1]), 0.0);
        // Loads: 7*8 = 56 points, one load each (jammed counts 2).
        assert_eq!(m.stats().total().loads, 56);
    }

    #[test]
    fn strided_order_counts_penalty() {
        let mut m = machine();
        let mut nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        nest.order = vec![1, 0]; // innermost = dim 0: strided for row-major
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest, &[]);
        }
        let s = m.stats().total();
        assert_eq!(s.strided_loads, s.loads);
        // Natural order: no penalty.
        m.reset_stats();
        let nest2 = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        for pe in 0..4 {
            exec_nest(&mut m.pes[pe], &nest2, &[]);
        }
        assert_eq!(m.stats().total().strided_loads, 0);
    }

    #[test]
    fn expanded_nest_computes_ghost_points_and_counts_them() {
        let mut m = machine();
        // Full-space copy expanded by the halo depth on every side: each
        // PE's 4x4 block grows to 6x6 (halo 1), so 20 points per PE are
        // redundant ghost-region recomputation.
        let nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        for pe in 0..4 {
            let redundant = exec_nest_expanded(&mut m.pes[pe], &nest, &[], &[(1, 1), (1, 1)]);
            assert_eq!(redundant, 36 - 16);
        }
        // Owned results match the unexpanded sweep.
        for i in 1..=8i64 {
            for j in 1..=8i64 {
                assert_eq!(m.get(T, &[i, j]), (i * 100 + j) as f64, "at ({i},{j})");
            }
        }
        assert_eq!(m.stats().total().iters, 4 * 36, "expanded points all counted");
        // Zero expansion is exactly exec_nest.
        let mut m2 = machine();
        for pe in 0..4 {
            assert_eq!(exec_nest_expanded(&mut m2.pes[pe], &nest, &[], &[(0, 0), (0, 0)]), 0);
        }
        assert_eq!(m2.stats().total().iters, 64);
    }

    #[test]
    fn empty_intersection_is_noop() {
        let mut m = machine();
        let nest = copy_nest(Section::new([(1, 2), (1, 2)]), vec![0, 0]);
        // PE 3 owns (5:8,5:8): no intersection.
        exec_nest(&mut m.pes[3], &nest, &[]);
        assert_eq!(m.pes[3].stats.loads, 0);
    }
}
