//! Property-based tests: randomly generated stencil kernels, compiled at
//! every optimization level and run on random PE grids, must match the
//! reference interpreter exactly; plus algebraic invariants of the shift
//! machinery.

use hpf_stencil::ir::{ArrayDecl, ArrayId, Distribution, Offsets, Shape, ShiftKind};
use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::runtime::schedule::cshift_plan;
use hpf_stencil::runtime::{Machine, MachineConfig, MoveKind};
use hpf_stencil::{Engine, Kernel};
use proptest::prelude::*;

/// `dst = CSHIFT(src, SHIFT=s, DIM=d)` as a plan runs it: a schedule
/// compiled from the shift's communication plan, then applied.
fn cshift(m: &mut Machine, dst: ArrayId, src: ArrayId, s: i64, d: usize) {
    let plan = cshift_plan(&m.meta(src).geom.clone(), s, d, ShiftKind::Circular);
    let sched = m.compile_comm(dst, src, plan, MoveKind::FullShift);
    m.apply_compiled(&sched);
}

/// One random stencil term: `coeff * CHAIN(src)`, chain of up to two unit
/// shifts.
#[derive(Clone, Debug)]
struct Term {
    coeff: f64,
    src: usize, // index into ["U", "V"]
    shifts: Vec<(i64, usize)>,
    endoff: bool,
}

/// One random statement: a full-space assignment of a sum of terms to T or
/// V, optionally accumulating (`T = T + ...`) and optionally `WHERE`-masked.
#[derive(Clone, Debug)]
struct RandStmt {
    dst: usize, // 1 = T, 2 = V
    accumulate: bool,
    terms: Vec<Term>,
    mask: Option<(u8, usize)>, // (cmp op index, source array index)
}

#[derive(Clone, Debug)]
struct RandKernel {
    n: usize,
    stmts: Vec<RandStmt>,
    in_loop: Option<usize>,
}

const NAMES: [&str; 3] = ["U", "T", "V"];

impl RandKernel {
    fn source(&self) -> String {
        let mut s = format!("PROGRAM rand\nPARAM N = {}\nREAL U(N,N), T(N,N), V(N,N)\n", self.n);
        let mut body = String::new();
        for st in &self.stmts {
            let dst = NAMES[st.dst];
            let mut rhs = if st.accumulate { dst.to_string() } else { String::new() };
            for t in &st.terms {
                let mut operand = NAMES[t.src].to_string();
                for (amt, dim) in &t.shifts {
                    let intr = if t.endoff { "EOSHIFT" } else { "CSHIFT" };
                    operand = format!("{intr}({operand},{amt},{})", dim + 1);
                }
                let term = format!("{} * {operand}", t.coeff);
                if rhs.is_empty() {
                    rhs = term;
                } else {
                    rhs = format!("{rhs} + {term}");
                }
            }
            if rhs.is_empty() {
                rhs = "0".to_string();
            }
            match st.mask {
                None => body.push_str(&format!("{dst} = {rhs}\n")),
                Some((op, src)) => {
                    let ops = [">", "<", ">=", "<=", "==", "/="];
                    body.push_str(&format!(
                        "WHERE ({} {} 0.1) {dst} = {rhs}\n",
                        NAMES[src],
                        ops[op as usize % 6]
                    ));
                }
            }
        }
        if let Some(iters) = self.in_loop {
            s.push_str(&format!("DO {iters} TIMES\n{body}ENDDO\n"));
        } else {
            s.push_str(&body);
        }
        s.push_str("END\n");
        s
    }
}

fn term_strategy() -> impl Strategy<Value = Term> {
    (
        -4i32..=4,
        0usize..2,
        prop::collection::vec((prop_oneof![Just(-1i64), Just(1)], 0usize..2), 0..=2),
        any::<bool>(),
    )
        .prop_map(|(c, src, shifts, endoff)| Term {
            coeff: c as f64 * 0.25,
            src: if src == 0 { 0 } else { 2 },
            shifts,
            endoff,
        })
}

fn stmt_strategy() -> impl Strategy<Value = RandStmt> {
    (
        prop_oneof![Just(1usize), Just(2)],
        any::<bool>(),
        prop::collection::vec(term_strategy(), 1..=4),
        prop_oneof![
            3 => Just(None),
            1 => (0u8..6, 0usize..3).prop_map(Some),
        ],
    )
        .prop_map(|(dst, accumulate, terms, mask)| RandStmt { dst, accumulate, terms, mask })
}

fn kernel_strategy() -> impl Strategy<Value = RandKernel> {
    (
        prop_oneof![Just(6usize), Just(8), Just(9), Just(12)],
        prop::collection::vec(stmt_strategy(), 1..=4),
        prop_oneof![Just(None), Just(Some(2usize)), Just(Some(3))],
    )
        .prop_map(|(n, stmts, in_loop)| RandKernel { n, stmts, in_loop })
}

fn grid_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![1, 1]),
        Just(vec![2, 2]),
        Just(vec![1, 2]),
        Just(vec![2, 1]),
        Just(vec![3, 2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline invariant: any random stencil kernel, compiled at any
    /// stage, on any grid, matches the reference interpreter exactly.
    #[test]
    fn random_kernels_match_reference(
        k in kernel_strategy(),
        grid in grid_strategy(),
        stage_idx in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let src = k.source();
        let stage = Stage::all()[stage_idx];
        let kernel = Kernel::compile(&src, CompileOptions::upto(stage))
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let engine = if threaded { Engine::Threaded } else { Engine::Sequential };
        kernel
            .plan(MachineConfig::with_grid(grid.clone()))
            .init("U", |p| ((p[0] * 7 + p[1] * 3) as f64 * 0.1).sin())
            .init("V", |p| ((p[0] - p[1]) as f64 * 0.05).cos())
            .engine(engine)
            .run_verified(&["T", "V"], 1e-12)
            .unwrap_or_else(|e| panic!("stage {stage:?} grid {grid:?} failed for:\n{src}\n{e}"));
    }

    /// CSHIFT composition: shifting by a then b along one dimension equals
    /// shifting by a+b (the commutativity/composition law unioning relies
    /// on, §3.3).
    #[test]
    fn cshift_composes_additively(
        a in -9i64..9,
        b in -9i64..9,
        dim in 0usize..2,
        n in prop_oneof![Just(6usize), Just(8)],
    ) {
        const U: ArrayId = ArrayId(0);
        const X: ArrayId = ArrayId(1);
        const Y: ArrayId = ArrayId(2);
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        for (id, name) in [(U, "U"), (X, "X"), (Y, "Y")] {
            m.alloc(id, &ArrayDecl::user(name, Shape::new([n, n]), Distribution::block(2))).unwrap();
        }
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        // X = cshift(cshift(U, a), b) ; Y = cshift(U, a + b)
        cshift(&mut m, X, U, a, dim);
        let x2 = m.gather(X);
        m.scatter(Y, &x2);
        cshift(&mut m, X, Y, b, dim);
        cshift(&mut m, Y, U, a + b, dim);
        prop_assert_eq!(m.gather(X), m.gather(Y));
    }

    /// CSHIFT along different dimensions commutes.
    #[test]
    fn cshift_commutes_across_dims(
        a in -3i64..=3,
        b in -3i64..=3,
    ) {
        const U: ArrayId = ArrayId(0);
        const X: ArrayId = ArrayId(1);
        const Y: ArrayId = ArrayId(2);
        let n = 8;
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        for (id, name) in [(U, "U"), (X, "X"), (Y, "Y")] {
            m.alloc(id, &ArrayDecl::user(name, Shape::new([n, n]), Distribution::block(2))).unwrap();
        }
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        cshift(&mut m, X, U, a, 0);
        cshift(&mut m, Y, X, b, 1);
        let dim0_first = m.gather(Y);
        cshift(&mut m, X, U, b, 1);
        cshift(&mut m, Y, X, a, 0);
        prop_assert_eq!(dim0_first, m.gather(Y));
    }

    /// The unioning emission covers any random requirement set (the
    /// coverage invariant of §3.3).
    #[test]
    fn unioning_emission_covers_requirements(
        reqs in prop::collection::vec(
            (-2i64..=2, -2i64..=2).prop_map(|(a, b)| Offsets::new([a, b])),
            1..8,
        )
    ) {
        use hpf_stencil::passes::unioning::{covers, emit_minimal_shifts};
        let shifts = emit_minimal_shifts(ArrayId(0), ShiftKind::Circular, 2, &reqs);
        // At most one shift per direction per dimension.
        prop_assert!(shifts.len() <= 4);
        prop_assert!(covers(&shifts, &reqs), "requirements {reqs:?} not covered by {shifts:?}");
    }
}
