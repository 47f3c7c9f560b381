//! Mutation-kill suite for the static verification layer.
//!
//! Two properties, exercised from outside the compiler:
//!
//! 1. **Soundness in practice** — every kernel the compiler emits, for
//!    every preset and for random workloads across the full
//!    engine × backend matrix, verifies clean (`verify_nest` /
//!    `Plan::verify_static` return no diagnostics). A verifier that
//!    rejects correct output is useless as a build-time gate.
//!
//! 2. **Sensitivity** — every deliberate corruption of a compiled kernel
//!    ([`Fault`] injection: reordered ops, perturbed memory deltas,
//!    widened loop bounds, shrunk declared envelopes, retargeted
//!    registers, forced vectorization, and the accumulator fold's own
//!    three: a tap pushed outside the envelope, a link reading a register
//!    nothing wrote, a fold's store aimed at another lane's tap) and of an
//!    execution plan (cleared drain barriers, widened interior sweeps,
//!    duplicated buffer posts, widened superstep trapezoids, stale storage
//!    bindings, a compiled box's stride or count off by one) is rejected
//!    with the matching `BV*` / `PL*` diagnostic. A verifier that misses
//!    the faults it was built to catch is equally useless.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::codegen::{compile_nest, verify_nest, CompiledNest, Fault};
use hpf_stencil::exec::nest::scalar_values;
use hpf_stencil::passes::{CompileOptions, NodeItem};
use hpf_stencil::{presets, Backend, Engine, ExecConfig, Kernel, Machine, MachineConfig, RtError};
use proptest::prelude::*;

/// Compile `src` through the full pipeline and return every bytecode
/// kernel the plan builder would produce: one per (nest, PE) pair that the
/// specializer accepts.
fn kernels_of(src: &str, grid: &[usize]) -> Vec<CompiledNest> {
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    let mut machine = Machine::new(MachineConfig::with_grid(grid.to_vec()));
    hpf_stencil::exec::allocate(&mut machine, &kernel.compiled.node).unwrap();
    let scalars = scalar_values(&kernel.compiled.node.symbols);
    let mut out = Vec::new();
    kernel.compiled.node.for_each_item(&mut |it| {
        if let NodeItem::Nest(nest) = it {
            out.extend(machine.pes.iter().filter_map(|pe| compile_nest(nest, pe, &scalars)));
        }
    });
    out
}

/// Every preset kernel on single-PE and 2×2 grids: the corpus the
/// mutation tests inject faults into.
fn corpus() -> Vec<CompiledNest> {
    let sources = [
        presets::five_point(16),
        presets::nine_point_cshift(16),
        presets::nine_point_array(16),
        presets::problem9(16),
        presets::jacobi(16, 3),
        presets::image_blur(16, 2),
        presets::wave2d(16, 2),
    ];
    let mut all = Vec::new();
    for src in &sources {
        for grid in [&[1usize, 1][..], &[2, 2][..]] {
            all.extend(kernels_of(src, grid));
        }
    }
    assert!(!all.is_empty(), "presets must produce bytecode kernels");
    all
}

/// Does the verifier reject this kernel with one of `codes`?
fn rejected_with(cn: &CompiledNest, codes: &[&str]) -> bool {
    verify_nest(cn).iter().any(|d| codes.contains(&d.code))
}

#[test]
fn compiler_emitted_kernels_verify_clean() {
    for cn in corpus() {
        let diags = verify_nest(&cn);
        assert!(diags.is_empty(), "compiler-emitted kernel rejected: {diags:?}");
    }
}

/// Reordering a definition after its use must trip BV001. Strict-mode
/// kernels legitimately read registers carried across iterations, so only
/// fast-mode kernels make the def-before-use discipline checkable; for
/// each of those, some adjacent swap must be caught.
#[test]
fn swapped_ops_are_killed() {
    let mut eligible = 0usize;
    for cn in corpus().iter().filter(|cn| !cn.strict()) {
        let mut applied = false;
        let mut caught = false;
        for i in 0usize.. {
            let mut m = cn.clone();
            if !m.inject(Fault::SwapOps { unit: false, i, j: i + 1 }) {
                break;
            }
            applied = true;
            if !verify_nest(&m).is_empty() {
                caught = true;
                break;
            }
        }
        if applied {
            eligible += 1;
            assert!(caught, "no adjacent op swap was rejected for a fast-mode kernel");
        }
    }
    assert!(eligible > 0, "corpus must contain swappable fast-mode kernels");
}

/// A memory delta pushed far outside the declared envelope must trip the
/// bounds proof (BV003) on every kernel, at every memory op, in both
/// bodies.
#[test]
fn perturbed_deltas_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        for unit in [false, true] {
            for i in 0usize.. {
                let mut m = cn.clone();
                if !m.inject(Fault::PerturbDelta { unit, i, by: 1_000_000 }) {
                    break;
                }
                applied += 1;
                assert!(
                    rejected_with(&m, &["BV003"]),
                    "perturbed delta survived verification (mem op {i}, unit={unit})"
                );
            }
        }
    }
    assert!(applied > 0, "corpus must contain memory ops to perturb");
}

/// Widened loop bounds walk rows past the subgrid allocation: BV003 on
/// every kernel, in every dimension.
#[test]
fn widened_bounds_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        for dim in 0..4 {
            let mut m = cn.clone();
            if !m.inject(Fault::WidenBounds { dim, by: 1_000_000 }) {
                continue;
            }
            applied += 1;
            assert!(
                rejected_with(&m, &["BV003"]),
                "widened bound survived verification (dim {dim})"
            );
        }
    }
    assert!(applied > 0, "corpus must contain kernels with widenable bounds");
}

/// A shrunk declared envelope makes the hoisted per-row proof cover
/// nothing while the ops still reach into the halo: BV003.
#[test]
fn shrunk_declared_envelopes_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        for unit in [false, true] {
            let mut m = cn.clone();
            if !m.inject(Fault::ShrinkDeclaredDeltas { unit }) {
                continue;
            }
            applied += 1;
            assert!(
                rejected_with(&m, &["BV003"]),
                "shrunk declared envelope survived verification (unit={unit})"
            );
        }
    }
    assert!(applied > 0, "corpus must contain kernels with nonzero deltas");
}

/// A source operand retargeted outside the register file must trip BV001
/// in strict and fast mode alike.
#[test]
fn retargeted_registers_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        for i in 0usize..64 {
            let mut m = cn.clone();
            if !m.inject(Fault::RetargetReg { unit: false, i, reg: u16::MAX }) {
                continue;
            }
            applied += 1;
            assert!(
                rejected_with(&m, &["BV001"]),
                "out-of-range register operand survived verification (op {i})"
            );
        }
    }
    assert!(applied > 0, "corpus must contain retargetable ops");
}

/// Claiming chunk safety the aliasing test does not prove must trip BV004
/// (or BV002 on a strict kernel, where vectorization is banned outright).
/// The verifier re-derives the same criterion the compiler decides with,
/// so a kernel the compiler left scalar is exactly one the claim is wrong
/// for.
#[test]
fn forced_vectorization_is_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        let mut m = cn.clone();
        if !m.inject(Fault::ForceVectorized) {
            continue;
        }
        applied += 1;
        assert!(
            rejected_with(&m, &["BV004", "BV002"]),
            "forced vectorization survived verification"
        );
    }
    assert!(applied > 0, "corpus must contain scalar kernels");
}

/// The 9-point star via shifted temporaries: its overlap windows carry
/// corner-forwarding drain dependencies, so the plan-level faults below
/// all have something to corrupt.
const NINE_POINT16: &str = "\
PARAM N = 16
REAL U(N,N), T(N,N), RIP(N,N), RIN(N,N)
RIP = CSHIFT(U,SHIFT=+1,DIM=1)
RIN = CSHIFT(U,SHIFT=-1,DIM=1)
T = U + RIP + RIN + CSHIFT(U,-1,2) + CSHIFT(U,1,2) + CSHIFT(RIP,-1,2) + CSHIFT(RIP,1,2) + CSHIFT(RIN,-1,2) + CSHIFT(RIN,1,2)
U = T
";

fn overlapped_plan() -> hpf_stencil::exec::ExecPlan {
    let kernel = Kernel::compile(NINE_POINT16, CompileOptions::full()).unwrap();
    let mut machine = Machine::new(MachineConfig::with_grid(vec![2, 2]));
    let cfg = ExecConfig::new().engine(Engine::ThreadedOverlap).backend(Backend::Bytecode);
    let plan =
        hpf_stencil::exec::ExecPlan::build(&mut machine, &kernel.compiled.node, &cfg).unwrap();
    assert!(plan.overlap_windows_per_step() > 0, "fixture must produce overlap windows");
    assert!(plan.verify().is_empty(), "compiler-built plan must verify clean");
    plan
}

/// Every fold of every body, by index, for the three chain faults below.
fn for_each_chain(cn: &CompiledNest, mut f: impl FnMut(bool, usize)) {
    let is_chain =
        |o: &&hpf_stencil::codegen::Op| matches!(o, hpf_stencil::codegen::Op::Chain { .. });
    let (jammed, unit) = cn.bodies();
    for (is_unit, code) in [(false, Some(jammed)), (true, unit)] {
        for chain in 0..code.map_or(0, |c| c.ops.iter().filter(is_chain).count()) {
            f(is_unit, chain);
        }
    }
}

/// The chunked executor reads a fold's taps straight from subgrid memory,
/// a whole chunk at a time, on the strength of the row proof alone: one
/// tap's delta pushed outside the declared envelope must trip BV003 — on
/// every tap of every fold of every kernel.
#[test]
fn perturbed_chain_taps_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        for_each_chain(&cn, |unit, chain| {
            for tap in 0usize.. {
                let mut m = cn.clone();
                if !m.inject(Fault::PerturbChainTap { unit, chain, tap, by: 1_000_000 }) {
                    break;
                }
                applied += 1;
                assert!(
                    rejected_with(&m, &["BV003"]),
                    "perturbed tap survived verification (chain {chain}, tap {tap}, unit={unit})"
                );
            }
        });
    }
    assert!(applied > 50, "the corpus' stencil statements must lower to folds with taps");
}

/// A fold link retargeted to a strip register nothing has written yet
/// reads a stale lane of a previous chunk: BV001, in every fast-mode fold.
#[test]
fn links_reading_unwritten_registers_are_killed() {
    let mut applied = 0usize;
    for cn in corpus().iter().filter(|cn| !cn.strict()) {
        for_each_chain(cn, |unit, chain| {
            let mut m = cn.clone();
            if m.inject(Fault::LinkReadsUnwritten { unit, chain }) {
                applied += 1;
                assert!(
                    rejected_with(&m, &["BV001"]),
                    "link reading an unwritten register survived (chain {chain}, unit={unit})"
                );
            }
        });
    }
    assert!(applied > 0, "corpus must contain fast-mode folds");
}

/// A fold's store aimed one lane past one of its own taps makes lane `i`
/// overwrite what lane `i + 1` is about to read: BV004 in every chunked
/// body (a scalar body runs point by point and may do exactly that).
#[test]
fn chain_stores_aliasing_another_lanes_tap_are_killed() {
    let mut applied = 0usize;
    for cn in corpus() {
        let (jam_vec, unit_vec) = cn.vectorized();
        for_each_chain(&cn, |unit, chain| {
            let mut m = cn.clone();
            let chunked = if unit && cn.bodies().1.is_some() { unit_vec } else { jam_vec };
            if chunked && m.inject(Fault::ChainStoreAliasesTap { unit, chain }) {
                applied += 1;
                assert!(
                    rejected_with(&m, &["BV004"]),
                    "aliasing fold store survived verification (chain {chain}, unit={unit})"
                );
            }
        });
    }
    assert!(applied > 0, "corpus must contain chunked folds with taps");
}

/// Drain-reorder fault: clearing the barriers that order dependent drains
/// must trip the happens-before check (PL002).
#[test]
fn cleared_drain_barriers_are_killed() {
    let mut plan = overlapped_plan();
    assert!(plan.corrupt_clear_barriers(), "fixture must carry drain-order barriers");
    let diags = plan.verify();
    assert!(diags.iter().any(|d| d.code == "PL002"), "expected PL002, got {diags:?}");
}

/// Widening an interior sweep into cells a pending receive writes must
/// trip the race check (PL001).
#[test]
fn widened_interiors_are_killed() {
    let mut plan = overlapped_plan();
    assert!(plan.corrupt_widen_interior(), "fixture must have split PEs");
    let diags = plan.verify();
    assert!(diags.iter().any(|d| d.code == "PL001"), "expected PL001, got {diags:?}");
}

/// Posting the same pooled buffer twice without an intervening drain must
/// trip the aliasing check (PL003).
#[test]
fn duplicated_posts_are_killed() {
    let mut plan = overlapped_plan();
    assert!(plan.corrupt_duplicate_post(), "fixture must have a post to duplicate");
    let diags = plan.verify();
    assert!(diags.iter().any(|d| d.code == "PL003"), "expected PL003, got {diags:?}");
}

/// Widening a superstep trapezoid makes a fused sub-step claim ghost cells
/// the deep exchange never filled: the per-PE forward coverage simulation
/// must trip PL004, at every eligible depth.
#[test]
fn widened_trapezoids_are_killed() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    for k in [2usize, 4] {
        let halo = hpf_stencil::exec::superstep_halo(&kernel.compiled.node, k)
            .expect("Problem 9 is superstep-eligible");
        let mut machine = Machine::new(MachineConfig::with_grid(vec![2, 2]).halo(halo.max(1)));
        let cfg = ExecConfig::new().backend(Backend::Bytecode).superstep(k);
        let mut plan =
            hpf_stencil::exec::ExecPlan::build(&mut machine, &kernel.compiled.node, &cfg).unwrap();
        assert!(plan.supersteps_per_step() > 0, "fixture must build a depth-{k} superstep");
        assert!(plan.verify().is_empty(), "compiler-built superstep plan must verify clean");
        assert!(plan.corrupt_widen_trapezoid(), "fixture must carry a trapezoid to widen");
        let diags = plan.verify();
        assert!(diags.iter().any(|d| d.code == "PL004"), "expected PL004, got {diags:?}");
    }
}

/// A rebind inserted where its source is still read — a stale binding,
/// whose reader would see another array's storage — must trip the
/// dead-source rule (PL005) on the built plan, whatever the engine and
/// superstep depth, before any step runs.
#[test]
fn stale_bindings_are_killed() {
    let kernel = Kernel::compile(&presets::jacobi(16, 4), CompileOptions::full()).unwrap();
    for (engine, k) in
        [(Engine::Sequential, 1), (Engine::ThreadedOverlap, 1), (Engine::Sequential, 2)]
    {
        let mut machine = Machine::new(MachineConfig::with_grid(vec![2, 2]).halo(k));
        let cfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode).superstep(k);
        let mut plan =
            hpf_stencil::exec::ExecPlan::build(&mut machine, &kernel.compiled.node, &cfg).unwrap();
        assert_eq!(plan.supersteps_per_step() > 0, k > 1, "fixture must tile at k={k}");
        assert!(plan.verify().is_empty(), "the rotated copy-back verifies clean");
        assert!(plan.corrupt_stale_binding(), "fixture must have a nest reading U");
        let diags = plan.verify();
        assert!(diags.iter().any(|d| d.code == "PL005"), "{engine:?} k={k}: got {diags:?}");
    }
}

/// A compiled box corrupted in its stride or its count is no longer a
/// section of its PE's subgrid, or no longer the shape of its transfer's
/// other box: a checked `ExecPlan::build` must refuse the plan with PL006 —
/// on a blocking sequential plan, an overlap-window plan and a depth-2
/// superstep of Problem 9 alike, before any step runs.
#[test]
fn corrupted_box_strides_and_counts_are_killed() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let node = &kernel.compiled.node;
    let deep = hpf_stencil::exec::superstep_halo(node, 2).expect("Problem 9 tiles at depth 2");
    for (engine, k) in
        [(Engine::Sequential, 1), (Engine::ThreadedOverlap, 1), (Engine::Sequential, 2)]
    {
        let cfg = ExecConfig::new()
            .engine(engine)
            .backend(Backend::Bytecode)
            .superstep(k)
            .check_invariants(true);
        let machine = || Machine::new(MachineConfig::with_grid(vec![2, 2]).halo(deep));
        let plan = hpf_stencil::exec::ExecPlan::build(&mut machine(), node, &cfg).unwrap();
        let shape = (plan.overlap_windows_per_step() > 0, plan.supersteps_per_step() > 0);
        assert_eq!(shape, (engine == Engine::ThreadedOverlap, k > 1), "{engine:?} k={k}");
        for stride in [true, false] {
            let mut applied = false;
            let built =
                hpf_stencil::exec::ExecPlan::build_with_fault(&mut machine(), node, &cfg, |p| {
                    applied = p.corrupt_box(stride)
                });
            assert!(applied, "{engine:?} k={k}: the plan runs a transfer");
            match built {
                Err(RtError::VerificationFailed { report }) => {
                    assert!(report.contains("PL006"), "{engine:?} k={k} stride={stride}: {report}")
                }
                other => panic!("{engine:?} k={k} stride={stride}: expected PL006, got {other:?}"),
            }
        }
    }
}

const COMBOS: [(Engine, Backend); 6] = [
    (Engine::Sequential, Backend::Interp),
    (Engine::Sequential, Backend::Bytecode),
    (Engine::Threaded, Backend::Interp),
    (Engine::Threaded, Backend::Bytecode),
    (Engine::ThreadedOverlap, Backend::Interp),
    (Engine::ThreadedOverlap, Backend::Bytecode),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random stencil programs, compiled with invariant checking forced
    /// on, must build checked plans (a checked build hard-fails on any
    /// verifier rejection) and re-verify clean, on every engine × backend
    /// combination.
    #[test]
    fn random_kernels_verify_clean_across_matrix(
        seed in 0u64..1_000_000,
        stmts in 1usize..=3,
        time_loop in prop_oneof![Just(None), Just(Some(2usize))],
    ) {
        let spec = WorkloadSpec { n: 10, stmts, time_loop, ..Default::default() };
        let src = generate(&spec, seed);
        let kernel =
            Kernel::compile(&src, CompileOptions::full().check_invariants(true)).unwrap();
        for (engine, backend) in COMBOS {
            let plan = kernel
                .plan(MachineConfig::with_grid(vec![2, 2]))
                .config(ExecConfig::new().engine(engine).backend(backend))
                .build()
                .unwrap_or_else(|e| panic!("{engine:?}/{backend:?}: checked build rejected: {e}"));
            let diags = plan.verify_static();
            prop_assert!(diags.is_empty(), "{engine:?}/{backend:?}: {diags:?}");
        }
    }
}
