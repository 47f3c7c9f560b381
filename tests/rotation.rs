//! Storage rotation: a whole-array copy whose source dies runs as a per-PE
//! storage swap (`CALL REBIND(A <- B)`), never as a copy sweep.
//!
//! Three properties, from outside the compiler:
//!
//! 1. **Bitwise equality** — a small generator of copy patterns (copy-back,
//!    a wave-style three-array rotation, a copy chain, copies inside
//!    `DO k TIMES`, `EOSHIFT` sources, rank 3), run on every engine, at
//!    superstep depth 1 and 2 where the kernel is eligible, on dividing and
//!    non-dividing grids, gathers every array after 1, 2 and 3 steps
//!    exactly as the oracle has it.
//! 2. **Conservatism** — a copy whose source is read again, partly
//!    rewritten, or shifted before it is redefined, an offset repair copy,
//!    and a copy between differently distributed arrays all keep their
//!    physical copy nest.
//! 3. **Observation** — a dead source reads as the array it stands for; a
//!    write through the plan first ends every alias it would break.

use hpf_stencil::exec::{superstep_diags, superstep_halo};
use hpf_stencil::ir::{
    ArrayDecl, DimDist, Distribution, Expr, OperandRef, Program, Section, Shape, Stmt, SymbolTable,
};
use hpf_stencil::passes::{nodepretty, rotate, CompileOptions, NodeItem};
use hpf_stencil::{Backend, Engine, ExecConfig, Kernel, MachineConfig, Plan, Reference};
use std::collections::HashMap;

/// One copy pattern of the generator.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Pattern {
    /// `T = stencil(U); U = T`.
    CopyBack,
    /// wave2d: `UPREV = U; U = UNEXT`, a three-array rotation.
    ThreeCycle,
    /// `V = stencil(U); W = V; U = W`: a chain of two copies.
    Chain,
    /// The copy-back inside `DO 3 TIMES`.
    Looped,
    /// The copy-back of an `EOSHIFT` stencil (boundary fills each step).
    EndOff,
    /// The copy-back of a rank-3 seven-point stencil.
    Rank3,
}

const PATTERNS: [Pattern; 6] = [
    Pattern::CopyBack,
    Pattern::ThreeCycle,
    Pattern::Chain,
    Pattern::Looped,
    Pattern::EndOff,
    Pattern::Rank3,
];

impl Pattern {
    fn rank(self) -> usize {
        if self == Pattern::Rank3 {
            3
        } else {
            2
        }
    }

    /// Source text at edge `n`; `c` varies the coefficients.
    fn source(self, n: usize, c: f64) -> String {
        let star = |a: &str, shift: &str| {
            (1..=self.rank())
                .flat_map(|d| [format!("{shift}({a},1,{d})"), format!("{shift}({a},-1,{d})")])
                .collect::<Vec<_>>()
                .join(" + ")
        };
        let decl = |names: &[&str]| {
            let dims = vec!["N"; self.rank()].join(",");
            let arrays: Vec<String> = names.iter().map(|a| format!("{a}({dims})")).collect();
            format!("PARAM N = {n}\nREAL {}\n", arrays.join(", "))
        };
        match self {
            Pattern::CopyBack | Pattern::Rank3 => {
                format!(
                    "{}T = {c} * ({}) + 0.25 * U\nU = T\n",
                    decl(&["U", "T"]),
                    star("U", "CSHIFT")
                )
            }
            Pattern::ThreeCycle => format!(
                "{}LAP = {} - 4 * U\nUNEXT = 2 * U - UPREV + {c} * LAP\nUPREV = U\nU = UNEXT\n",
                decl(&["U", "UPREV", "UNEXT", "LAP"]),
                star("U", "CSHIFT")
            ),
            Pattern::Chain => {
                format!(
                    "{}V = {c} * ({}) + 0.5 * U\nW = V\nU = W\n",
                    decl(&["U", "V", "W"]),
                    star("U", "CSHIFT")
                )
            }
            Pattern::Looped => format!(
                "{}DO 3 TIMES\nT = {c} * ({})\nU = T\nENDDO\n",
                decl(&["U", "T"]),
                star("U", "CSHIFT")
            ),
            Pattern::EndOff => {
                format!("{}T = {c} * (U + {})\nU = T\n", decl(&["U", "T"]), star("U", "EOSHIFT"))
            }
        }
    }

    /// Copies the pass must rotate.
    fn rotations(self) -> usize {
        match self {
            Pattern::ThreeCycle | Pattern::Chain => 2,
            _ => 1,
        }
    }
}

/// A deterministic, position-dependent initial value for array `a`.
fn init_for(a: usize) -> impl Fn(&[i64]) -> f64 + Send + Sync + Clone + 'static {
    move |p: &[i64]| {
        let x: i64 = p.iter().enumerate().map(|(d, &i)| i * (7 + 5 * d as i64 + a as i64)).sum();
        (x as f64 * 0.013).sin()
    }
}

/// Every user array of the kernel, by name (array `a` is filled by
/// `init_for(a)`).
fn user_arrays(kernel: &Kernel) -> Vec<String> {
    let symbols = &kernel.checked.symbols;
    symbols
        .array_ids()
        .filter(|&id| !symbols.array(id).temp)
        .map(|id| symbols.array(id).name.clone())
        .collect()
}

fn compile(src: &str) -> Kernel {
    Kernel::compile(src, CompileOptions::full().check_invariants(true)).unwrap()
}

fn grid_of(dims: &[usize], rank: usize) -> MachineConfig {
    let mut g = dims.to_vec();
    g.resize(rank, 1);
    MachineConfig::grid(g)
}

/// The oracle after `steps` program runs, memoized per step count.
fn oracle<'a>(
    kernel: &Kernel,
    memo: &'a mut HashMap<usize, Reference>,
    steps: usize,
) -> &'a Reference {
    memo.entry(steps).or_insert_with(|| {
        let mut runner = kernel.oracle();
        for (a, name) in user_arrays(kernel).iter().enumerate() {
            runner = runner.init(name, init_for(a));
        }
        runner.run_steps(steps)
    })
}

/// Build one configuration, step it three times, and compare every
/// allocated array with the oracle after each step, bit for bit.
fn check_matrix_point(
    kernel: &Kernel,
    memo: &mut HashMap<usize, Reference>,
    grid: &[usize],
    rank: usize,
    engine: Engine,
    k: usize,
) {
    let names = user_arrays(kernel);
    let mut planner = kernel
        .plan(grid_of(grid, rank))
        .config(ExecConfig::new().engine(engine).backend(Backend::Bytecode).superstep(k));
    for (a, name) in names.iter().enumerate() {
        planner = planner.init(name, init_for(a));
    }
    let mut plan: Plan<'_> = planner.build().unwrap();
    let per_step = plan.logical_steps_per_step();
    for step in 1..=3 {
        plan.step();
        let want = oracle(kernel, memo, step * per_step);
        for name in &names {
            let id = kernel.array_id(name).unwrap();
            if !plan.machine.is_allocated(id) {
                continue; // eliminated by the offset-array pass
            }
            let got = plan.gather(name).unwrap();
            let exact = got
                .iter()
                .zip(&want.array_named(name).data)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(exact, "{name} differs after {step} steps: {engine:?}, k={k}, grid {grid:?}");
        }
    }
}

#[test]
fn generated_copy_patterns_match_the_oracle_across_the_matrix() {
    const GRIDS: [&[usize]; 4] = [&[1, 1], &[2, 2], &[4, 1], &[3, 2]];
    const ENGINES: [Engine; 2] = [Engine::Sequential, Engine::Threaded];
    for (seed, pattern) in PATTERNS.into_iter().enumerate() {
        // 13 does not divide over 3 or 4 PEs; rank 3 stays small.
        let n = if pattern.rank() == 3 { 7 } else { 13 };
        let kernel = compile(&pattern.source(n, 0.2 + 0.01 * seed as f64));
        let stats = kernel.stats();
        assert_eq!(stats.rotated, pattern.rotations(), "{pattern:?}:\n{}", kernel.listing());
        assert_eq!(stats.nests, 1, "{pattern:?}: no copy nest is left");
        let eligible = superstep_halo(&kernel.compiled.node, 2).is_some();
        assert_eq!(
            eligible,
            !matches!(pattern, Pattern::EndOff | Pattern::ThreeCycle),
            "{pattern:?}: superstep eligibility"
        );
        let depths: &[usize] = if eligible { &[1, 2] } else { &[1] };
        let mut memo = HashMap::new();
        for grid in GRIDS {
            for engine in ENGINES {
                for &k in depths {
                    check_matrix_point(&kernel, &mut memo, grid, pattern.rank(), engine, k);
                }
            }
        }
    }
}

/// Compile a negative case: the copy must keep its nest.
fn kept(src: &str) -> Kernel {
    let kernel = compile(src);
    assert_eq!(kernel.stats().rotated, 0, "{}", kernel.listing());
    assert!(!kernel.listing().contains("REBIND"), "{}", kernel.listing());
    kernel
}

/// The kernel still matches the oracle over three steps on 2x2.
fn verified(kernel: &Kernel) {
    let mut memo = HashMap::new();
    check_matrix_point(kernel, &mut memo, &[2, 2], 2, Engine::Sequential, 1);
}

const STENCIL: &str = "0.25 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))";

#[test]
fn a_source_read_later_in_the_step_keeps_its_copy() {
    let k = kept(&format!(
        "PARAM N = 12\nREAL U(N,N), T(N,N), S(N,N)\nT = {STENCIL}\nU = T\nS = T + 1\n"
    ));
    verified(&k);
}

#[test]
fn a_source_partly_rewritten_before_its_kill_keeps_its_copy() {
    for tail in ["WHERE (U > 0) T = 0.5 * U", "T(2:N-1,2:N-1) = 0.5 * U(2:N-1,2:N-1)"] {
        let k = kept(&format!("PARAM N = 12\nREAL U(N,N), T(N,N)\nT = {STENCIL}\nU = T\n{tail}\n"));
        verified(&k);
    }
}

#[test]
fn a_source_shifted_after_the_copy_keeps_its_copy() {
    let k = kept(&format!(
        "PARAM N = 12\nREAL U(N,N), T(N,N), S(N,N)\nT = {STENCIL}\nU = T\nS = CSHIFT(T,1,1) + U\n"
    ));
    verified(&k);
}

#[test]
fn an_offset_repair_copy_keeps_its_nest() {
    // The outer shift would need offset 2 on a halo of 1: the inner offset
    // array is materialised by a repair copy with a non-zero offset.
    let k = kept("PARAM N = 12\nREAL A(N,N), B(N,N)\nA = CSHIFT(CSHIFT(B,1,1), 1, 1)\n");
    assert_eq!(k.stats().offset.copies_inserted, 1);
    verified(&k);
}

#[test]
fn a_copy_between_mismatched_arrays_keeps_its_nest() {
    // Normal form never pairs unlike arrays in a compute, so build the IR
    // by hand: `T = 1; U = T` rotates only when U and T could trade
    // subgrids — same shape and same distribution.
    let rotated = |t_shape: [usize; 2], t_dist: Distribution| {
        let mut symbols = SymbolTable::new();
        let u = symbols.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
        let t = symbols.add_array(ArrayDecl::user("T", Shape::new(t_shape), t_dist));
        let mut p = Program::new(symbols);
        let space = Section::full(&Shape::new(t_shape));
        p.body.push(Stmt::Compute { lhs: t, space, rhs: Expr::Const(1.0) });
        p.body.push(Stmt::Copy { dst: u, src: OperandRef::aligned(t, 2) });
        rotate::run(&mut p)
    };
    assert_eq!(rotated([8, 8], Distribution::block(2)), 1, "the control case rotates");
    assert_eq!(rotated([8, 9], Distribution::block(2)), 0, "shapes differ");
    let block_star = Distribution([DimDist::Block, DimDist::Collapsed].into());
    assert_eq!(rotated([8, 8], block_star), 0, "distributions differ");
}

/// A copy-back plan on 2x2 after one step: `T` is dead and stands for `U`.
fn stepped_copy_back() -> (Kernel, Vec<f64>) {
    let kernel = compile(&Pattern::CopyBack.source(12, 0.2));
    let oracle = kernel.oracle().init("U", init_for(0)).init("T", init_for(1)).run_steps(1);
    (kernel, oracle.array_named("U").data.clone())
}

fn plan_of(kernel: &Kernel) -> Plan<'_> {
    kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init_for(0))
        .init("T", init_for(1))
        .build()
        .unwrap()
}

#[test]
fn a_dead_alias_gathers_as_its_live_array() {
    let (kernel, u1) = stepped_copy_back();
    let mut plan = plan_of(&kernel);
    plan.step();
    assert_eq!(plan.gather("U").unwrap(), u1);
    assert_eq!(plan.gather("T").unwrap(), u1, "T reads through its alias");
    let t = kernel.array_id("T").unwrap();
    assert_ne!(plan.machine.gather(t), u1, "T's own storage is stale");
    // So does the plan a verified run returns.
    let verified = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init_for(0))
        .init("T", init_for(1))
        .run_verified(&["U", "T"], 0.0)
        .unwrap();
    assert_eq!(verified.gather("T").unwrap(), u1);
}

#[test]
fn writing_the_live_array_leaves_the_aliased_value_observable() {
    let (kernel, u1) = stepped_copy_back();
    let mut plan = plan_of(&kernel);
    plan.step();
    plan.fill("U", |_| 7.0).unwrap();
    assert_eq!(plan.gather("T").unwrap(), u1, "T keeps U's old value");
    assert!(plan.gather("U").unwrap().iter().all(|&x| x == 7.0));
    // The same through scatter, after a fresh step re-establishes the alias.
    plan.step();
    let u2 = plan.gather("U").unwrap();
    plan.scatter("U", &vec![3.0; u2.len()]).unwrap();
    assert_eq!(plan.gather("T").unwrap(), u2);
    // The program then recomputes T from the new U, as the oracle does.
    plan.step();
    let want = kernel.oracle().init("U", |_| 3.0).init("T", |_| 0.0).run_steps(1);
    for name in ["U", "T"] {
        assert_eq!(plan.gather(name).unwrap(), want.array_named(name).data, "{name}");
    }
}

#[test]
fn writing_the_dead_name_unaliases_it() {
    let (kernel, u1) = stepped_copy_back();
    let mut plan = plan_of(&kernel);
    plan.step();
    let zeros = vec![0.0; u1.len()];
    plan.scatter("T", &zeros).unwrap();
    assert_eq!(plan.gather("T").unwrap(), zeros, "T has a value of its own now");
    assert_eq!(plan.gather("U").unwrap(), u1, "U is untouched");
    plan.step();
    let want = kernel.oracle().init("U", init_for(0)).init("T", init_for(1)).run_steps(2);
    for name in ["U", "T"] {
        assert_eq!(plan.gather(name).unwrap(), want.array_named(name).data, "{name}");
    }
}

/// The benchmark's kernels, as shipped.
fn frozen(name: &str) -> String {
    let path = format!("{}/benchmark/kernels/{name}.f90", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap().replace("PARAM N = 64", "PARAM N = 16")
}

#[test]
fn copy_backs_run_no_copy_sweep() {
    // Kernel executions per step on 2x2 (2x2x1 for heat3d), bytecode: one
    // per nest per PE, times the DO loop. The copy sweeps are gone; the
    // masked kernel's WHERE copy is no whole-array copy and stays.
    for (name, execs, rank) in [
        ("jacobi", 8, 2),
        ("wave2d", 4, 2),
        ("image_blur", 4, 2),
        ("heat3d", 4, 3),
        ("masked", 8, 2),
    ] {
        let kernel = compile(&frozen(name));
        let mut plan =
            kernel.plan(grid_of(&[2, 2], rank)).backend(Backend::Bytecode).build().unwrap();
        plan.step();
        let listing = nodepretty::node_program(&kernel.compiled.node);
        assert_eq!(plan.stats().kernel_execs, execs, "{name}:\n{listing}");
    }
}

#[test]
fn jacobi_loop_body_is_one_nest_and_one_rebind() {
    let kernel = compile(&frozen("jacobi"));
    let [NodeItem::TimeLoop { body, .. }] = &kernel.compiled.node.items[..] else {
        panic!("one DO loop")
    };
    let nests = body.iter().filter(|i| matches!(i, NodeItem::Nest(_))).count();
    let rebinds = body.iter().filter(|i| matches!(i, NodeItem::Rebind { .. })).count();
    assert_eq!((nests, rebinds), (1, 1));
    let listing = nodepretty::node_program(&kernel.compiled.node);
    assert!(listing.contains("CALL REBIND(U <- T)"), "{listing}");
}

#[test]
fn a_rebind_before_a_shift_falls_back_from_the_superstep() {
    // The copy-back rotates (T is redefined before anyone reads it again),
    // but S's overlap shift of U now follows the rebind: the deep fills run
    // before sub-step 0 and could not see U's new storage, so depth 2
    // falls back to the classic schedule with SS009, still exact.
    let kernel = compile(&format!(
        "PARAM N = 12\nREAL U(N,N), T(N,N), S(N,N)\nT = {STENCIL}\nU = T\nS = CSHIFT(U,1,1) + U\n"
    ));
    assert_eq!(kernel.stats().rotated, 1, "{}", kernel.listing());
    let codes: Vec<&str> =
        superstep_diags(&kernel.compiled.node, 2).iter().map(|d| d.code).collect();
    assert_eq!(codes, ["SS009"], "{}", kernel.listing());
    let plan = kernel.plan(MachineConfig::sp2_2x2()).superstep(2).build().unwrap();
    assert_eq!(plan.supersteps_per_step(), 0);
    assert!(plan.superstep_diags().iter().any(|d| d.code == "SS009"));
    let mut memo = HashMap::new();
    for engine in [Engine::Sequential, Engine::Threaded] {
        check_matrix_point(&kernel, &mut memo, &[2, 2], 2, engine, 2);
    }
}

#[test]
fn rotated_kernels_keep_their_supersteps() {
    // heat3d at depth 4 and Jacobi at depth 2: eligible, the same exchanges
    // elided as with the copy sweep (deep fills depend on the comms only),
    // and bitwise equal to the classic schedule on every engine.
    for (name, k, rank, elided) in [("heat3d", 4, 3, 18), ("jacobi", 2, 2, 4)] {
        let kernel = compile(&frozen(name));
        let mut classic =
            kernel.plan(grid_of(&[2, 2], rank)).init("U", init_for(0)).build().unwrap();
        classic.iterate(k);
        for engine in [Engine::Sequential, Engine::Threaded] {
            let mut tiled = kernel
                .plan(grid_of(&[2, 2], rank))
                .init("U", init_for(0))
                .engine(engine)
                .backend(Backend::Bytecode)
                .superstep(k)
                .build()
                .unwrap();
            assert!(tiled.superstep_diags().is_empty(), "{name}: {:?}", tiled.superstep_diags());
            assert_eq!(tiled.exchanges_elided_per_step(), elided, "{name}");
            let steps = k / tiled.logical_steps_per_step();
            tiled.iterate(steps);
            for a in ["U", "T"] {
                assert_eq!(
                    tiled.gather(a).unwrap(),
                    classic.gather(a).unwrap(),
                    "{name} {a} {engine:?}"
                );
            }
        }
    }
}
