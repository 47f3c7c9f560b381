//! Semantic-equivalence property tests for the loop-level memory optimizer:
//! scalar replacement and unroll-and-jam must never change what a loop nest
//! computes, for *any* body — including pathological aliasing patterns
//! (repeated stores to one element, loads between stores, reductions into
//! the loaded array) that the named kernels never produce.

mod common;

use common::interp::exec_nest;
use hpf_stencil::ir::{ArrayDecl, ArrayId, BinOp, Distribution, Rsd, Section, Shape, ShiftKind};
use hpf_stencil::passes::loopir::{Instr, LoopNest};
use hpf_stencil::passes::memopt;
use hpf_stencil::runtime::schedule::overlap_shift_plan;
use hpf_stencil::runtime::{Machine, MachineConfig, MoveKind};
use proptest::prelude::*;

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);
const C: ArrayId = ArrayId(2);

/// Generator for a valid body in SSA-ish form: instruction `i` defines
/// register `i`; operands come from earlier registers; stores pick any
/// defined register and any array/offset.
#[derive(Clone, Debug)]
enum GenInstr {
    Const(f64),
    Load(u8, [i64; 2]),
    Bin(u8, u16, u16),
    Neg(u16),
    Store(u8, [i64; 2], u16),
}

fn instr_strategy(max_reg: u16) -> impl Strategy<Value = GenInstr> {
    let reg = 0..max_reg.max(1);
    let arr = 0u8..3;
    let off = prop::array::uniform2(-1i64..=1);
    // Stores are biased toward offset [0,0] so that a good share of the
    // generated bodies have only iteration-local dependences (the case the
    // optimizer actually transforms); the rest exercise the legality guard.
    let store_off = prop_oneof![3 => Just([0i64, 0]), 1 => off.clone()];
    prop_oneof![
        (-4i32..=4).prop_map(|v| GenInstr::Const(v as f64 * 0.5)),
        (arr.clone(), off.clone()).prop_map(|(a, o)| GenInstr::Load(a, o)),
        (0u8..4, reg.clone(), reg.clone()).prop_map(|(op, a, b)| GenInstr::Bin(op, a, b)),
        reg.clone().prop_map(GenInstr::Neg),
        (arr, store_off, reg).prop_map(|(a, o, r)| GenInstr::Store(a, o, r)),
    ]
}

fn body_strategy() -> impl Strategy<Value = Vec<Instr>> {
    prop::collection::vec(any::<u8>(), 4..24).prop_flat_map(|seed| {
        let n = seed.len() as u16;
        prop::collection::vec(instr_strategy(n), seed.len()..=seed.len()).prop_map(move |gens| {
            let mut out = Vec::new();
            // Registers that have a defining instruction. Reads must come
            // from this set: like real pipeline bodies, a register is never
            // read before it is written (an undefined register's content is
            // whatever the previous body execution left, which legitimately
            // differs between register numberings).
            let mut defined: Vec<u16> = Vec::new();
            for (i, g) in gens.into_iter().enumerate() {
                let dst = i as u16;
                let defined_now = defined.clone();
                let clamp = move |r: u16| {
                    if defined_now.is_empty() {
                        0
                    } else {
                        defined_now[r as usize % defined_now.len()]
                    }
                };
                let instr = match g {
                    GenInstr::Const(v) => Instr::Const { dst, value: v },
                    GenInstr::Load(a, o) => {
                        Instr::Load { dst, array: ArrayId(a as u32), offsets: o.to_vec().into() }
                    }
                    GenInstr::Bin(op, x, y) => {
                        if defined.is_empty() {
                            Instr::Const { dst, value: 1.0 }
                        } else {
                            let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Add];
                            Instr::Bin { op: ops[op as usize % 4], dst, a: clamp(x), b: clamp(y) }
                        }
                    }
                    GenInstr::Neg(x) => {
                        if defined.is_empty() {
                            Instr::Const { dst, value: -1.0 }
                        } else {
                            Instr::Neg { dst, src: clamp(x) }
                        }
                    }
                    GenInstr::Store(a, o, r) => {
                        if defined.is_empty() {
                            Instr::Const { dst, value: 0.0 }
                        } else {
                            out.push(Instr::Store {
                                array: ArrayId(a as u32),
                                offsets: o.to_vec().into(),
                                src: clamp(r),
                            });
                            continue;
                        }
                    }
                };
                defined.push(dst);
                out.push(instr);
            }
            // Make sure there is at least one array access so the nest has a
            // geometry, and one store so the body is observable.
            out.push(Instr::Load { dst: n, array: A, offsets: [0, 0].into() });
            out.push(Instr::Store { array: B, offsets: [0, 0].into(), src: n });
            out
        })
    })
}

/// Run one nest on a fresh machine and gather all three arrays.
fn run_nest(nest: &LoopNest) -> Vec<Vec<f64>> {
    let mut m = Machine::new(MachineConfig::sp2_2x2());
    for (id, name) in [(A, "A"), (B, "B"), (C, "C")] {
        m.alloc(id, &ArrayDecl::user(name, Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(id, |p| ((p[0] * 31 + p[1] * 17 + id.0 as i64 * 7) % 13) as f64 - 6.0);
    }
    // Deterministic halo contents too (offset loads may read ghosts), filled
    // by compiled schedules as a plan step fills them: rows, then columns
    // with the corners riding along.
    let mut rows = Rsd::none(2);
    rows.extend(0, -1);
    rows.extend(0, 1);
    for id in [A, B, C] {
        for (shift, dim, rsd) in
            [(1, 0, None), (-1, 0, None), (1, 1, Some(&rows)), (-1, 1, Some(&rows))]
        {
            let geom = m.meta(id).geom;
            let plan = overlap_shift_plan(&geom, shift, dim, rsd, ShiftKind::Circular, 1).unwrap();
            let sched = m.compile_comm(id, id, plan, MoveKind::Overlap);
            m.apply_compiled(&sched);
        }
    }
    for pe in 0..4 {
        exec_nest(&mut m.pes[pe], nest, &[]);
    }
    [A, B, C].iter().map(|id| m.gather(*id)).collect()
}

fn nest_from(body: Vec<Instr>, order: Vec<usize>) -> LoopNest {
    let regs = body.iter().filter_map(|i| i.dst()).max().map_or(0, |r| r as usize + 1);
    LoopNest {
        // Interior space: offset accesses stay within the halo.
        space: Section::new([(2, 7), (2, 7)]),
        order,
        body,
        regs,
        unroll: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Scalar replacement preserves semantics for arbitrary bodies.
    #[test]
    fn scalar_replacement_preserves_semantics(body in body_strategy()) {
        let nest = nest_from(body, vec![0, 1]);
        let mut optimized = nest.clone();
        memopt::scalar_replace(&mut optimized);
        prop_assert_eq!(run_nest(&nest), run_nest(&optimized));
        // And it never increases memory traffic.
        prop_assert!(optimized.loads_per_point() <= nest.loads_per_point());
        prop_assert!(optimized.stores_per_point() <= nest.stores_per_point());
    }

    /// Unroll-and-jam (with the remainder path) preserves semantics for any
    /// factor, including factors that do not divide the extents.
    #[test]
    fn unroll_and_jam_preserves_semantics(
        body in body_strategy(),
        factor in 2usize..=5,
    ) {
        let nest = nest_from(body, vec![0, 1]);
        let mut unrolled = nest.clone();
        memopt::unroll_and_jam(&mut unrolled, factor);
        prop_assert_eq!(run_nest(&nest), run_nest(&unrolled));
    }

    /// The full memopt pipeline (permute + SR + unroll + SR) preserves
    /// semantics.
    #[test]
    fn combined_memopt_preserves_semantics(
        body in body_strategy(),
        fortran_order in any::<bool>(),
        factor in 1usize..=4,
    ) {
        // NOTE: permutation legality in general requires iteration-local
        // dependences; arbitrary random bodies can carry cross-iteration
        // dependences (store then load at different offsets), so keep the
        // original loop order here and only exercise SR + unroll.
        let order = if fortran_order { vec![1, 0] } else { vec![0, 1] };
        let nest = nest_from(body, order);
        let mut optimized = nest.clone();
        memopt::scalar_replace(&mut optimized);
        if factor > 1 {
            memopt::unroll_and_jam(&mut optimized, factor);
            let (b, r) = memopt::scalar_replace_body(&optimized.body, optimized.regs);
            optimized.body = b;
            optimized.regs = r;
        }
        prop_assert_eq!(run_nest(&nest), run_nest(&optimized));
    }
}
