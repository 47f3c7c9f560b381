//! The accumulator-fold lowering against the tree interpreter, bit for bit.
//!
//! Bodies are generated chain-shaped — sums, differences, products and
//! quotients over taps, constants and earlier results, operands on either
//! side, registers repeated and occasionally redefined, a store in the
//! middle of the body — and run once through `hpf_exec`'s `exec_nest` and
//! once through `compile_nest` + `exec_compiled` on a clone of the same
//! machine. Every array (ghost cells included) must agree. Initial values mix ordinary numbers with `-0.0`, `±inf` and
//! subnormals, so signed zeros, NaN production and gradual underflow all
//! pass through the fold's chunked loops; any NaN equals any NaN (payloads
//! are not part of the contract), everything else compares by bits.
//!
//! Run in `--release` as well: the chunked executor's lane loops only
//! become vector code there.

use hpf_codegen::{compile_nest, exec_compiled, exec_compiled_over, ChainDst, Op};
use hpf_exec::nest::{exec_nest, exec_nest_expanded, expand_bounds, nest_local_bounds};
use hpf_ir::{ArrayDecl, ArrayId, BinOp, Distribution, Section, Shape};
use hpf_passes::loopir::{Instr, LoopNest, Unroll};
use hpf_runtime::{Machine, MachineConfig};
use proptest::prelude::*;

const U: ArrayId = ArrayId(0);
const V: ArrayId = ArrayId(1);
const T: ArrayId = ArrayId(2);

/// splitmix64: the generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> f64 {
        const SPECIAL: [f64; 10] = [
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -1.1e-308,
            1e300,
            -1e-300,
            1.0,
            -0.25,
        ];
        match self.below(3) {
            0 => SPECIAL[self.below(SPECIAL.len())],
            _ => (self.below(2001) as f64 - 1000.0) / 64.0,
        }
    }
}

/// A machine holding `U`, `V`, `T` of `shape`, every cell of every subgrid
/// (ghosts included) filled from `seed`.
fn machine(shape: &[usize], grid: &[usize], halo: usize, seed: u64) -> Machine {
    let mut m = Machine::new(MachineConfig::with_grid(grid.to_vec()).halo(halo));
    let mut rng = Rng(seed ^ 0x5eed);
    for (id, name) in [(U, "U"), (V, "V"), (T, "T")] {
        let decl =
            ArrayDecl::user(name, Shape::new(shape.to_vec()), Distribution::block(shape.len()));
        m.alloc(id, &decl).unwrap();
        for pe in &mut m.pes {
            for cell in pe.subgrid_mut(id).raw_mut() {
                *cell = rng.value();
            }
        }
    }
    m
}

/// A chain-shaped body over `rank` dimensions using registers from `r0`:
/// returns the instructions and the number of registers used.
fn chain_body(rng: &mut Rng, rank: usize) -> (Vec<Instr>, usize) {
    let mut body = Vec::new();
    let mut next: u16 = 0;
    let mut defined: Vec<u16> = Vec::new();
    let offsets = |rng: &mut Rng| (0..rank).map(|_| rng.below(3) as i64 - 1).collect::<Vec<_>>();
    let mut fresh = |defined: &mut Vec<u16>| {
        defined.push(next);
        next += 1;
        next - 1
    };
    for _ in 0..2 + rng.below(5) {
        let array = if rng.below(4) == 0 { V } else { U };
        let dst = fresh(&mut defined);
        body.push(Instr::Load { dst, array, offsets: offsets(rng).into() });
    }
    for _ in 0..rng.below(3) {
        let dst = fresh(&mut defined);
        body.push(Instr::Const { dst, value: rng.value() });
    }
    let stmts = 1 + rng.below(3);
    for s in 0..stmts {
        for _ in 0..1 + rng.below(9) {
            let op = [BinOp::Add, BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.below(5)];
            // Mostly continue the latest result, on either side; sometimes
            // combine two arbitrary registers (the same one twice included).
            let last = *defined.last().unwrap();
            let other = defined[rng.below(defined.len())];
            let (a, b) = match rng.below(5) {
                0 => (other, defined[rng.below(defined.len())]),
                1 | 2 => (other, last),
                _ => (last, other),
            };
            // Occasionally redefine an existing register instead of a new one.
            let dst = if rng.below(8) == 0 { other } else { fresh(&mut defined) };
            body.push(Instr::Bin { op, dst, a, b });
            if rng.below(10) == 0 {
                let dst = fresh(&mut defined);
                body.push(Instr::Neg { dst, src: *defined.last().unwrap() - 1 });
            }
        }
        let src = *defined.last().unwrap();
        if s + 1 < stmts {
            // A store in mid-body, then fresh reads of what it may have hit.
            body.push(Instr::Store { array: V, offsets: vec![0; rank].into(), src });
            let dst = fresh(&mut defined);
            let offs = if rng.below(2) == 0 { vec![0; rank] } else { offsets(rng) };
            body.push(Instr::Load { dst, array: V, offsets: offs.into() });
        } else {
            body.push(Instr::Store { array: T, offsets: vec![0; rank].into(), src });
        }
    }
    (body, next as usize)
}

/// `unit` unrolled twice along dimension 0: the second copy on fresh
/// registers, one iteration further.
fn jam(unit: &[Instr], regs: usize) -> Vec<Instr> {
    let mut second = unit.to_vec();
    for i in &mut second {
        i.remap(&mut |r| r + regs as u16);
        i.shift_dim(0, 1);
    }
    [unit, &second].concat()
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Run `nest` on every PE of a clone of `m` through the interpreter and
/// through the VM; all arrays and counters must agree.
fn assert_vm_matches_interpreter(m: &Machine, nest: &LoopNest, what: &str) {
    let (mut interp, mut vm) = (m.clone(), m.clone());
    for pe in 0..m.num_pes() {
        exec_nest(&mut interp.pes[pe], nest, &[]);
        let cn = compile_nest(nest, &vm.pes[pe], &[]).expect("compilable");
        assert!(cn.verify().is_empty(), "{what}: {:?}", cn.verify());
        exec_compiled(&mut vm.pes[pe], &cn);
    }
    assert_same_state(&interp, &vm, nest, what);
}

fn assert_same_state(interp: &Machine, vm: &Machine, nest: &LoopNest, what: &str) {
    for pe in 0..interp.num_pes() {
        for id in [U, V, T] {
            assert!(
                same_bits(interp.pes[pe].subgrid(id).raw(), vm.pes[pe].subgrid(id).raw()),
                "{what}: array {id:?} differs on PE {pe}\nbody: {:#?}",
                nest.body
            );
        }
    }
}

fn nest_of(shape: &[usize], order: Vec<usize>, body: Vec<Instr>, regs: usize) -> LoopNest {
    // Interior points only: taps reach one cell out and the halo is 1.
    let space = Section::new(shape.iter().map(|&n| (1, n as i64)).collect::<Vec<_>>());
    LoopNest { space, order, body, regs, unroll: None }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Rows of 1, 31, 32, 33 and 64 + 5 points: no chunk, a short chunk, a
    /// full one, a full one plus one point, two full ones plus a tail.
    #[test]
    fn random_chain_bodies_match_bit_for_bit(seed in 0u64..1_000_000, w in 0usize..5) {
        let width = [1, 31, 32, 33, 69][w];
        let shape = [6, width];
        let mut rng = Rng(seed);
        let (body, regs) = chain_body(&mut rng, 2);
        let m = machine(&shape, &[1, 1], 1, seed);
        assert_vm_matches_interpreter(&m, &nest_of(&shape, vec![0, 1], body, regs), "plain");
    }

    /// The same bodies unrolled and jammed, on a 2x2 machine whose 7-row
    /// blocks leave a remainder row for the unit body.
    #[test]
    fn random_jammed_bodies_match_bit_for_bit(seed in 0u64..1_000_000) {
        let shape = [14, 80];
        let mut rng = Rng(seed);
        let (unit, regs) = chain_body(&mut rng, 2);
        let mut nest = nest_of(&shape, vec![0, 1], jam(&unit, regs), 2 * regs);
        nest.unroll = Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: regs });
        let m = machine(&shape, &[2, 2], 2, seed);
        assert_vm_matches_interpreter(&m, &nest, "jammed 2x2");
    }

    /// Inner loop over the non-contiguous dimension: every tap of every
    /// chunk is gathered with the row stride.
    #[test]
    fn random_chain_bodies_match_on_strided_rows(seed in 0u64..1_000_000) {
        let shape = [40, 9];
        let mut rng = Rng(seed);
        let (body, regs) = chain_body(&mut rng, 2);
        let m = machine(&shape, &[1, 1], 1, seed);
        assert_vm_matches_interpreter(&m, &nest_of(&shape, vec![1, 0], body, regs), "strided");
    }

    /// Rank 1: the jammed body's row *is* the unrolled loop, stepping two
    /// points at a time, and the remainder point runs the unit body.
    #[test]
    fn random_rank1_jammed_steps_match_bit_for_bit(seed in 0u64..1_000_000) {
        let shape = [75];
        let mut rng = Rng(seed);
        let (unit, regs) = chain_body(&mut rng, 1);
        let mut nest = nest_of(&shape, vec![0], jam(&unit, regs), 2 * regs);
        nest.unroll = Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: regs });
        let m = machine(&shape, &[1], 2, seed);
        assert_vm_matches_interpreter(&m, &nest, "rank 1 jammed");
    }

    /// Rank 3, rows of 40 along the contiguous dimension.
    #[test]
    fn random_rank3_bodies_match_bit_for_bit(seed in 0u64..1_000_000) {
        let shape = [4, 5, 40];
        let mut rng = Rng(seed);
        let (body, regs) = chain_body(&mut rng, 3);
        let m = machine(&shape, &[2, 1, 1], 1, seed);
        assert_vm_matches_interpreter(&m, &nest_of(&shape, vec![0, 1, 2], body, regs), "rank 3");
    }

    /// Ghost-extended boxes (`exec_compiled_over`): the superstep sweeps
    /// that recompute one ring of neighbor-owned cells from a halo of 2.
    #[test]
    fn random_chain_bodies_match_over_ghost_extended_boxes(seed in 0u64..1_000_000) {
        let shape = [12, 70];
        let mut rng = Rng(seed);
        let (body, regs) = chain_body(&mut rng, 2);
        let nest = nest_of(&shape, vec![0, 1], body, regs);
        let m = machine(&shape, &[2, 2], 2, seed);
        let (mut interp, mut vm) = (m.clone(), m.clone());
        let expand = [(1, 1), (1, 1)];
        for pe in 0..m.num_pes() {
            exec_nest_expanded(&mut interp.pes[pe], &nest, &[], &expand);
            let cn = compile_nest(&nest, &vm.pes[pe], &[]).expect("compilable");
            let (lo, hi) = nest_local_bounds(&vm.pes[pe], &nest).expect("every PE owns a block");
            let (lo, hi) = expand_bounds(&vm.pes[pe], &nest, &lo, &hi, &expand);
            exec_compiled_over(&mut vm.pes[pe], &cn, &lo, &hi);
        }
        assert_same_state(&interp, &vm, &nest, "ghost-extended");
    }
}

/// The shapes the frozen kernels have must come out as single folds — the
/// lowering the proptests above exercise is the one that actually runs.
#[test]
fn a_nine_point_statement_is_one_fold_per_point() {
    let mut body = vec![Instr::Load { dst: 0, array: U, offsets: [0, 0].into() }];
    let mut acc = 0u16;
    let ring = [(1, 0), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 1), (-1, -1), (-1, 1)];
    for (k, (di, dj)) in ring.into_iter().enumerate() {
        let r = 2 * k as u16 + 1;
        body.push(Instr::Load { dst: r, array: U, offsets: [di, dj].into() });
        body.push(Instr::Bin { op: BinOp::Add, dst: r + 1, a: acc, b: r });
        acc = r + 1;
    }
    body.push(Instr::Store { array: T, offsets: [0, 0].into(), src: acc });
    let shape = [8, 40];
    let m = machine(&shape, &[1, 1], 1, 7);
    let nest = nest_of(&shape, vec![0, 1], body, 17);
    let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
    let code = cn.bodies().0;
    assert_eq!(code.ops.len(), 1, "{:?}", code.ops);
    assert!(matches!(code.ops[0], Op::Chain { dst: ChainDst::Store { .. }, .. }));
    assert_eq!(code.links.len(), 8);
    assert_eq!(cn.vectorized(), (true, true));
    assert_vm_matches_interpreter(&m, &nest, "nine-point");
}
