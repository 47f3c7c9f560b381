//! Compiled stencil kernels: bytecode code generation for fused loop nests.
//!
//! The SC'97 pipeline's memory optimizations (scalar replacement,
//! unroll-and-jam, loop permutation) leave each statement as a fused
//! `LoopNest`. This crate compiles and runs every one of them — the
//! "backend" half of a stencil-DSL compilation stack, and the only nest
//! executor the plans in `hpf-exec` have:
//!
//! 1. [`compile_spmd`] lowers a nest once per subgrid layout, into a
//!    [`CompiledNest`] per PE that shares it: a compact register bytecode
//!    ([`Op`]) with offsets flattened to index deltas, coefficients
//!    constant-folded into immediates, single-definition constants hoisted
//!    to per-execution preloads, WHERE masks fused into predicated stores,
//!    and every accumulation lowered to one accumulator fold ([`Op::Chain`])
//!    whose operands are memory taps, registers, immediates or `imm × x`
//!    products (two roundings — never FMA) and whose result goes straight
//!    to a store or a register.
//! 2. [`exec_compiled`] runs the bytecode over `Subgrid` storage row by
//!    row: one hoisted bounds check per row proves every access of the row
//!    in range, and the interior then executes over the flat slice with
//!    unchecked indexing — chunk-safe rows 32 points per op, a fold's taps
//!    read in place from subgrid memory. The jammed body covers interior
//!    (multiple-of-factor) iterations; remainder/boundary iterations run
//!    the unit body.
//! 3. [`CompiledNest::listing`] prints the result (`hpfsc --emit bytecode`).
//!
//! The VM is bitwise identical to the sequential oracle (`hpf-exec`'s `reference`),
//! enforced by differential proptests at the workspace root, and the fold
//! lowering is checked against a test-local evaluator of the loop IR.
//!
//! A nest the compiler cannot lower (mixed subgrid layouts, a loop order
//! of the wrong rank, an unroll dimension that is not the outermost loop,
//! index-range overflow) makes [`compile_nest`] fail with the reason, and
//! the plan that needs it fails to build.
//!
//! Every invariant the unchecked executors rely on is machine-checked by
//! the [`verify`] module's abstract interpreter (`BV001`–`BV004`), once per
//! shared code, in debug/checked builds and by `hpfsc --verify`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod bytecode;
mod listing;
pub mod verify;
mod vm;

pub use bytecode::{reads_before_def, ChainDst, KernelCode, Link, Op, Operand, Reg, Slot};
pub use verify::{inject_shared, verify_kernels, verify_nest, Fault, BV001, BV002, BV003, BV004};
pub use vm::{compile_nest, compile_spmd, exec_compiled, exec_compiled_over, CompiledNest, Tier};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::expr::CmpOp;
    use hpf_ir::{ArrayDecl, ArrayId, BinOp, Distribution, Section, Shape, ShiftKind};
    use hpf_passes::loopir::{Instr, LoopNest, Unroll};
    use hpf_runtime::schedule::overlap_shift_plan;
    use hpf_runtime::{Machine, MachineConfig, MoveKind};

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.alloc(T, &ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        m
    }

    /// Fill every PE's high ghost row of U along dim 0, circularly, through
    /// a compiled schedule.
    fn fill_high_ghosts(m: &mut Machine) {
        let geom = m.meta(U).geom;
        let plan = overlap_shift_plan(&geom, 1, 0, None, ShiftKind::Circular, 1).unwrap();
        let sched = m.compile_comm(U, U, plan, MoveKind::Overlap);
        m.apply_compiled(&sched);
    }

    fn copy_nest(space: Section, offsets: Vec<i64>) -> LoopNest {
        LoopNest {
            space,
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets: offsets.into() },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 0 },
            ],
            regs: 1,
            unroll: None,
        }
    }

    fn run_all(m: &mut Machine, nest: &LoopNest, scalars: &[f64]) {
        for pe in 0..m.num_pes() {
            let cn = compile_nest(nest, &m.pes[pe], scalars).expect("compilable");
            exec_compiled(&mut m.pes[pe], &cn);
        }
    }

    #[test]
    fn interior_copy_respects_spmd_bounds() {
        let mut m = machine();
        let nest = copy_nest(Section::new([(2, 7), (2, 7)]), vec![0, 0]);
        run_all(&mut m, &nest, &[]);
        assert_eq!(m.get(T, &[2, 2]), 202.0);
        assert_eq!(m.get(T, &[7, 7]), 707.0);
        assert_eq!(m.get(T, &[1, 1]), 0.0, "outside the space untouched");
    }

    #[test]
    fn offset_load_reads_halo() {
        let mut m = machine();
        fill_high_ghosts(&mut m);
        m.reset_stats();
        let nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![1, 0]);
        run_all(&mut m, &nest, &[]);
        assert_eq!(m.get(T, &[4, 2]), 502.0, "cross-PE row via halo");
        assert_eq!(m.get(T, &[8, 3]), 103.0, "global wrap via halo");
    }

    #[test]
    fn scalar_coefficient_resolves_and_hoists() {
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::LoadScalar { dst: 0, id: hpf_ir::ScalarId(0) },
                Instr::Load { dst: 1, array: U, offsets: [0, 0].into() },
                Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 2 },
            ],
            regs: 3,
            unroll: None,
        };
        let mut m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[2.5]).unwrap();
        // The coefficient folds into a scaled tap: per-point code is one
        // fold from `2.5 * U` to the store.
        assert_eq!(cn.bodies().0.ops.len(), 1);
        run_all(&mut m, &nest, &[2.5]);
        assert_eq!(m.get(T, &[3, 4]), 2.5 * 304.0);
    }

    #[test]
    fn where_mask_executes_as_predicated_store() {
        // WHERE (U - 450 > 0) T = 2*U (T was zero-filled at alloc).
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets: [0, 0].into() },
                Instr::Const { dst: 1, value: 450.0 },
                Instr::Bin { op: BinOp::Sub, dst: 2, a: 0, b: 1 },
                Instr::Const { dst: 3, value: 0.0 },
                Instr::Cmp { op: CmpOp::Gt, dst: 4, a: 2, b: 3 },
                Instr::Const { dst: 5, value: 2.0 },
                Instr::Bin { op: BinOp::Mul, dst: 6, a: 5, b: 0 },
                Instr::Load { dst: 7, array: T, offsets: [0, 0].into() },
                Instr::Select { dst: 8, c: 4, t: 6, e: 7 },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 8 },
            ],
            regs: 9,
            unroll: None,
        };
        let mut m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert!(cn.bodies().0.ops.iter().any(|o| matches!(o, Op::SelStore { .. })));
        run_all(&mut m, &nest, &[]);
        for i in 1..=8i64 {
            for j in 1..=8i64 {
                let u = (i * 100 + j) as f64;
                let want = if u > 450.0 { 2.0 * u } else { 0.0 };
                assert_eq!(m.get(T, &[i, j]), want, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn unrolled_nest_covers_all_points_with_remainder() {
        let unit = vec![
            Instr::Load { dst: 0, array: U, offsets: [0, 0].into() },
            Instr::Store { array: T, offsets: [0, 0].into(), src: 0 },
        ];
        let mut jammed = unit.clone();
        let mut second = unit.clone();
        for i in &mut second {
            i.remap(&mut |r| r + 1);
            i.shift_dim(0, 1);
        }
        jammed.extend(second);
        let nest = LoopNest {
            space: Section::new([(1, 7), (1, 8)]),
            order: vec![0, 1],
            body: jammed,
            regs: 2,
            unroll: Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: 1 }),
        };
        let mut m = machine();
        run_all(&mut m, &nest, &[]);
        for i in 1..=7i64 {
            for j in 1..=8i64 {
                assert_eq!(m.get(T, &[i, j]), (i * 100 + j) as f64, "at ({i},{j})");
            }
        }
        assert_eq!(m.get(T, &[8, 1]), 0.0);
    }

    #[test]
    fn loop_carried_register_uses_strict_mode() {
        // r0 accumulates across iteration points (read before def). The
        // loop IR's register file persists across points and starts at
        // zero; strict mode must reproduce the same running sums.
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 1, array: U, offsets: [0, 0].into() },
                Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 0 },
            ],
            regs: 2,
            unroll: None,
        };
        let mut m = machine();
        run_all(&mut m, &nest, &[]);
        // PE 0 owns (1:4,1:4); its running sum over row-major local order.
        let mut acc = 0.0;
        for i in 1..=4i64 {
            for j in 1..=4i64 {
                acc += (i * 100 + j) as f64;
                assert_eq!(m.get(T, &[i, j]), acc, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn column_order_copies_every_point() {
        let mut m = machine();
        let mut nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        nest.order = vec![1, 0];
        run_all(&mut m, &nest, &[]);
        assert_eq!(m.get(T, &[5, 6]), 506.0);
    }

    #[test]
    fn expanded_nest_computes_ghost_points() {
        let mut m = machine();
        // Full-space copy expanded by the halo depth on every side: each
        // PE's 4x4 block grows to 6x6 (halo 1), writing T's ghost ring.
        let nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        fill_high_ghosts(&mut m);
        for pe in 0..4 {
            let cn = compile_nest(&nest, &m.pes[pe], &[]).unwrap();
            let (lo, hi) = cn.local_bounds().unwrap();
            let lo: Vec<i64> = lo.iter().map(|l| l - 1).collect();
            let hi: Vec<i64> = hi.iter().map(|h| h + 1).collect();
            exec_compiled_over(&mut m.pes[pe], &cn, &lo, &hi);
        }
        // Owned results match the unexpanded sweep.
        for i in 1..=8i64 {
            for j in 1..=8i64 {
                assert_eq!(m.get(T, &[i, j]), (i * 100 + j) as f64, "at ({i},{j})");
            }
        }
        // PE 0's ghost row below its block holds the neighbour's row 5.
        assert_eq!(m.pes[0].subgrid(T).get(&[5, 2]), 502.0);
    }

    #[test]
    fn empty_intersection_is_noop() {
        let m_probe = machine();
        let nest = copy_nest(Section::new([(1, 2), (1, 2)]), vec![0, 0]);
        // PE 3 owns (5:8,5:8): no intersection.
        let mut m = m_probe;
        let cn = compile_nest(&nest, &m.pes[3], &[]).unwrap();
        assert_eq!(cn.local_bounds(), None);
        exec_compiled(&mut m.pes[3], &cn);
        assert!(m.pes[3].subgrid(T).raw().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn chunked_rows_match_scalar_across_chunk_boundaries() {
        // Local rows of 40 points span two chunks of the vectorized row
        // executor (32 lanes + an 8-point tail); every point must still see
        // the exact scalar result.
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([80, 80]), Distribution::block(2))).unwrap();
        m.alloc(T, &ArrayDecl::user("T", Shape::new([80, 80]), Distribution::block(2))).unwrap();
        m.fill(U, |p| ((p[0] * 37 + p[1] * 11) % 101) as f64);
        let nest = LoopNest {
            space: Section::new([(1, 80), (1, 80)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets: [0, 0].into() },
                Instr::Const { dst: 1, value: 2.0 },
                Instr::Bin { op: BinOp::Mul, dst: 2, a: 1, b: 0 },
                Instr::Bin { op: BinOp::Mul, dst: 3, a: 0, b: 0 },
                Instr::Bin { op: BinOp::Add, dst: 4, a: 2, b: 3 },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 4 },
            ],
            regs: 5,
            unroll: None,
        };
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (true, true), "plain stencil rows must vectorize");
        run_all(&mut m, &nest, &[]);
        for i in 1..=80i64 {
            for j in 1..=80i64 {
                let u = ((i * 37 + j * 11) % 101) as f64;
                assert_eq!(m.get(T, &[i, j]), 2.0 * u + u * u, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn aliasing_and_loop_carried_bodies_stay_on_scalar_rows() {
        // A store one lane ahead of a load on the same array: chunked
        // execution would reorder the two, so the row stays point-at-a-time.
        let m = machine();
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: T, offsets: [0, 1].into() },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 0 },
            ],
            regs: 1,
            unroll: None,
        };
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (false, false));
        // Loop-carried register state (strict mode) likewise stays scalar.
        let carried = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 1, array: U, offsets: [0, 0].into() },
                Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                Instr::Store { array: T, offsets: [0, 0].into(), src: 0 },
            ],
            regs: 2,
            unroll: None,
        };
        let cn = compile_nest(&carried, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (false, false));
    }

    #[test]
    fn folding_shrinks_a_coefficient_stencil() {
        // 0.1*U(i-1,j) + 0.2*U(i,j-1) + 0.4*U + 0.2*U(i+1,j) + 0.1*U(i,j+1):
        // 20 source instructions become one fold over scaled taps.
        let mut body = Vec::new();
        let mut acc = None;
        for (k, (c, off)) in
            [(0.1, [-1i64, 0i64]), (0.2, [0, -1]), (0.4, [0, 0]), (0.2, [1, 0]), (0.1, [0, 1])]
                .into_iter()
                .enumerate()
        {
            let r = 4 * k as u16;
            body.push(Instr::Const { dst: r, value: c });
            body.push(Instr::Load { dst: r + 1, array: U, offsets: off.into() });
            body.push(Instr::Bin { op: BinOp::Mul, dst: r + 2, a: r, b: r + 1 });
            if let Some(prev) = acc {
                body.push(Instr::Bin { op: BinOp::Add, dst: r + 3, a: prev, b: r + 2 });
                acc = Some(r + 3);
            } else {
                acc = Some(r + 2);
            }
        }
        body.push(Instr::Store { array: T, offsets: [0, 0].into(), src: acc.unwrap() });
        let nest = LoopNest {
            space: Section::new([(2, 7), (2, 7)]),
            order: vec![0, 1],
            body,
            regs: 20,
            unroll: None,
        };
        let m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        let code = cn.bodies().0;
        assert_eq!(code.ops.len(), 1, "one statement, one fold: {:?}", code.ops);
        assert_eq!(code.links.len(), 4);
        assert!(code.links.iter().all(|l| matches!(l.x, Operand::ImmTap { .. })), "{code:?}");
        assert_eq!(cn.preload_count(), 0, "every coefficient became an immediate");
    }
}
