//! Differential testing of the VM on both engines: any kernel, at any
//! pipeline stage, on any grid, must produce **bitwise** the oracle's
//! results (the sequential reference interpreter of the source program,
//! `Kernel::oracle`) under both backend spellings, on the sequential and
//! threaded engines. Every combination compiles and runs
//! the same kernels through the same schedules, so the kernel counters and
//! every per-PE operation counter must agree across all four too.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{presets, AggStats, Backend, Engine, Kernel, MachineConfig};
use proptest::prelude::*;

const COMBOS: [(Engine, Backend); 4] = [
    (Engine::Sequential, Backend::Interp),
    (Engine::Sequential, Backend::Bytecode),
    (Engine::Threaded, Backend::Interp),
    (Engine::Threaded, Backend::Bytecode),
];

fn init_u(p: &[i64]) -> f64 {
    ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin()
}

fn init_v(p: &[i64]) -> f64 {
    ((p[0] - 2 * p[1]) as f64 * 0.05).cos()
}

/// Named output arrays, in the order asked for.
type Arrays = Vec<(String, Vec<f64>)>;

/// Run one (engine, backend) combination; return the gathered outputs (only
/// those arrays the program actually allocates) and the counters.
fn run_combo(
    kernel: &Kernel,
    grid: &[usize],
    engine: Engine,
    backend: Backend,
    outputs: &[&str],
) -> (Arrays, AggStats) {
    let mut planner = kernel
        .plan(MachineConfig::with_grid(grid.to_vec()))
        .init("U", init_u)
        .engine(engine)
        .backend(backend);
    if kernel.array_id("V").is_ok() {
        planner = planner.init("V", init_v);
    }
    let run = planner.run().unwrap_or_else(|e| panic!("{engine:?}/{backend:?} failed: {e}"));
    let mut arrays = Vec::new();
    for name in outputs {
        let id = kernel.array_id(name).unwrap();
        if run.machine.is_allocated(id) {
            arrays.push((name.to_string(), run.machine.gather(id)));
        }
    }
    (arrays, run.stats())
}

/// The oracle's values of the arrays `got` names, after `steps` sweeps of
/// the program from `input` (and `V`, where declared) filled as the
/// combinations fill them.
fn oracle(kernel: &Kernel, input: &str, steps: usize, got: &Arrays) -> Arrays {
    let mut runner = kernel.oracle().init(input, init_u);
    if kernel.array_id("V").is_ok() {
        runner = runner.init("V", init_v);
    }
    let reference = runner.run_steps(steps);
    got.iter().map(|(name, _)| (name.clone(), reference.array_named(name).data.clone())).collect()
}

/// The counters every combination must share: kernels compiled, kernel
/// executions, and every PE's operation counts.
fn counters(stats: &AggStats) -> (u64, u64, Vec<hpf_stencil::runtime::PeStats>) {
    (stats.kernels_compiled, stats.kernel_execs, stats.per_pe.clone())
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
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline invariant of the VM: random stencil kernels (shift
    /// chains, EOSHIFT boundaries, WHERE masks, accumulation statements,
    /// time loops) are bitwise-equal to the oracle on all four
    /// engine × backend combinations, with identical counters.
    #[test]
    fn random_kernels_bitwise_equal_across_backends(
        seed in 0u64..1_000_000,
        stmts in 1usize..=4,
        time_loop in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(3))],
        grid in grid_strategy(),
        stage_idx in 0usize..5,
    ) {
        let spec = WorkloadSpec { n: 10, stmts, time_loop, ..Default::default() };
        let src = generate(&spec, seed);
        let stage = Stage::all()[stage_idx];
        let kernel = Kernel::compile(&src, CompileOptions::upto(stage))
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let mut base = None;
        for (engine, backend) in COMBOS {
            let (arrays, stats) = run_combo(&kernel, &grid, engine, backend, &["T", "S"]);
            prop_assert_eq!(
                &oracle(&kernel, "U", 1, &arrays), &arrays,
                "{:?}/{:?} differs from the oracle at stage {:?} grid {:?} for:\n{}",
                engine, backend, stage, &grid, &src
            );
            let base = base.get_or_insert_with(|| counters(&stats));
            prop_assert_eq!(
                &*base, &counters(&stats),
                "{:?}/{:?} counters differ at stage {:?} for:\n{}",
                engine, backend, stage, &src
            );
        }
    }
}

#[test]
fn problem9_bitwise_equal_every_stage_and_combo() {
    for stage in Stage::all() {
        let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::upto(stage)).unwrap();
        let mut base = None;
        for (engine, backend) in COMBOS {
            let (got, stats) = run_combo(&kernel, &[2, 2], engine, backend, &["T"]);
            let at = format!("{engine:?}/{backend:?} at stage {stage:?}");
            assert_eq!(oracle(&kernel, "U", 1, &got), got, "{at} differs from the oracle");
            assert_eq!(*base.get_or_insert_with(|| counters(&stats)), counters(&stats), "{at}");
        }
    }
}

#[test]
fn lint_dirty_kernel_takes_fallback_yet_stays_bitwise_equal() {
    // Deleting an OVERLAP_SHIFT makes the kernel halo-unsafe (HS001). All
    // engines still execute the *same* broken node program — results agree
    // bitwise across every combination (they are wrong relative to the
    // source semantics, but identically so). The oracle describes the
    // source, not this node program, so the combinations are compared with
    // one another.
    let mut kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    assert!(kernel.drop_overlap_shift(0), "Problem 9 has shifts to drop");
    assert!(
        hpf_stencil::analysis::has_errors(&kernel.lint()),
        "dropping a shift must trip the halo-safety lint"
    );
    let base = run_combo(&kernel, &[2, 2], Engine::Sequential, Backend::Interp, &["T"]);
    for (engine, backend) in COMBOS {
        let got = run_combo(&kernel, &[2, 2], engine, backend, &["T"]);
        assert_eq!(base.0, got.0, "{engine:?}/{backend:?} differs on the lint-dirty kernel");
        assert_eq!(counters(&base.1), counters(&got.1), "{engine:?}/{backend:?}");
    }
}

/// What one [`run_superstep`] call observed.
struct SuperstepRun {
    /// The gathered outputs.
    arrays: Arrays,
    /// Supersteps per machine step (0 = fell back to the classic schedule).
    supersteps: u64,
    stats: AggStats,
    modeled_ms: f64,
}

/// Run `kernel` as a persistent plan at superstep depth `k` for exactly
/// `logical_steps` logical steps (depth k fuses `k` of them per machine step
/// on flat kernels).
#[allow(clippy::too_many_arguments)]
fn run_superstep(
    kernel: &Kernel,
    grid: &[usize],
    engine: Engine,
    backend: Backend,
    k: usize,
    logical_steps: usize,
    input: &str,
    outputs: &[&str],
) -> SuperstepRun {
    let cfg = hpf_stencil::ExecConfig::new().engine(engine).backend(backend).superstep(k);
    let mut plan = kernel
        .plan(MachineConfig::with_grid(grid.to_vec()))
        .init(input, init_u)
        .config(cfg)
        .build()
        .unwrap_or_else(|e| panic!("{engine:?}/{backend:?} ss={k} failed to build: {e}"));
    let per = plan.logical_steps_per_step();
    assert_eq!(logical_steps % per, 0, "budget {logical_steps} not divisible at depth {k}");
    plan.iterate(logical_steps / per);
    let mut arrays = Vec::new();
    for name in outputs {
        arrays.push((name.to_string(), plan.gather(name).unwrap()));
    }
    SuperstepRun {
        arrays,
        supersteps: plan.supersteps_per_step(),
        stats: plan.stats(),
        modeled_ms: plan.modeled_ms(),
    }
}

#[test]
fn superstep_depths_bitwise_equal_across_backends() {
    // The deep-halo superstep schedule must be invisible to the results: at
    // the same logical step count, depths 1, 2, 4 and 8 match the oracle
    // bitwise, on every engine x backend combination and on uneven grids.
    // What it must change is the communication: against depth 1 on the
    // same combination, each deeper schedule at least halves messages and
    // schedule executions, elides exchanges, recomputes nothing (Problem
    // 9's chain reads only the exchanged array, so its trapezoids never
    // shrink), and is strictly cheaper on the SP-2 cost model.
    let kernel = Kernel::compile(&presets::problem9(24), CompileOptions::full()).unwrap();
    for grid in [&[2usize, 2][..], &[3, 2]] {
        let mut classic = Vec::new();
        for k in [1usize, 2, 4, 8] {
            for (i, (engine, backend)) in COMBOS.into_iter().enumerate() {
                let got = run_superstep(&kernel, grid, engine, backend, k, 8, "U", &["T"]);
                let at = format!("{engine:?}/{backend:?} ss={k} on grid {grid:?}");
                assert_eq!(oracle(&kernel, "U", 8, &got.arrays), got.arrays, "{at} differs");
                if k == 1 {
                    assert_eq!(got.stats.exchanges_elided, 0, "{at}");
                    classic.push(got);
                    continue;
                }
                let base = &classic[i];
                assert!(got.supersteps >= 1, "{at} silently fell back");
                assert!(
                    base.stats.total_messages() >= 2 * got.stats.total_messages(),
                    "{at} must at least halve messages: {} vs {}",
                    base.stats.total_messages(),
                    got.stats.total_messages()
                );
                assert!(
                    base.stats.schedule_reuses >= 2 * got.stats.schedule_reuses,
                    "{at} must at least halve schedule executions: {} vs {}",
                    base.stats.schedule_reuses,
                    got.stats.schedule_reuses
                );
                assert!(got.stats.exchanges_elided > 0, "{at} elided no exchanges");
                assert_eq!(got.stats.redundant_cells, 0, "{at}");
                assert!(
                    got.modeled_ms < base.modeled_ms,
                    "{at} must improve modeled time: {} vs {}",
                    got.modeled_ms,
                    base.modeled_ms
                );
            }
        }
    }
}

#[test]
fn superstep_time_loop_tiles_in_place_and_stays_bitwise_equal() {
    // Jacobi's TIME loop is the other eligible shape: the superstep tiles
    // the loop body in place (k iterations per exchange), so one machine
    // step still covers the whole loop and iterate counts stay unchanged.
    let kernel = Kernel::compile(&presets::jacobi(16, 4), CompileOptions::full()).unwrap();
    for k in [2usize, 4] {
        for (engine, backend) in COMBOS {
            let got = run_superstep(&kernel, &[2, 2], engine, backend, k, 2, "U", &["U"]);
            assert_eq!(
                oracle(&kernel, "U", 2, &got.arrays),
                got.arrays,
                "{engine:?}/{backend:?} ss={k} differs on the time loop"
            );
            assert!(
                got.supersteps >= 1,
                "{engine:?}/{backend:?} ss={k} fell back on the time loop"
            );
        }
    }
}

#[test]
fn superstep_ineligible_kernel_falls_back_with_diagnostic() {
    // image_blur reads through EOSHIFT (value-dependent boundaries), which
    // the coverage analysis rejects (SS002): a depth-4 request must fall
    // back to the classic schedule, say so in the diagnostics, and still
    // match the oracle bitwise on every combination.
    let kernel = Kernel::compile(&presets::image_blur(12, 4), CompileOptions::full()).unwrap();
    let diags = hpf_stencil::exec::superstep_diags(&kernel.compiled.node, 4);
    assert!(
        diags.iter().any(|d| d.code == "SS002"),
        "EOSHIFT kernel must be rejected with SS002: {diags:?}"
    );
    for (engine, backend) in COMBOS {
        let got = run_superstep(&kernel, &[2, 2], engine, backend, 4, 2, "IMG", &["OUT"]);
        let want = oracle(&kernel, "IMG", 2, &got.arrays);
        assert_eq!(want, got.arrays, "{engine:?}/{backend:?} fallback differs");
        assert_eq!(got.supersteps, 0, "{engine:?}/{backend:?} must fall back to classic");
    }
}

#[test]
fn bytecode_backend_reports_kernel_counters() {
    let kernel = Kernel::compile(&presets::problem9(12), CompileOptions::full()).unwrap();
    // One nest and one layout on the dividing 2x2 grid: compiled once, and
    // one sweep runs it on each of the 4 PEs — under either backend spelling.
    for backend in [Backend::Bytecode, Backend::Interp] {
        let run = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| (p[0] + p[1]) as f64)
            .backend(backend)
            .run()
            .unwrap();
        let st = run.stats();
        assert_eq!(st.kernels_compiled, 1, "{backend:?}: one kernel per nest and layout");
        assert_eq!(st.kernel_execs, 4, "{backend:?}: one execution per nest, PE and step");
    }
}

/// One kernel per nest and layout, not per PE: Problem 9 at N=64 on the
/// non-dividing 3x3 grid has subgrids of 22, 22 and 20 cells per dimension,
/// four layouts, so its one nest compiles four times for nine PEs — and
/// every combination computes the oracle's bits and the same counters.
#[test]
fn non_dividing_grid_compiles_one_kernel_per_layout() {
    let kernel = Kernel::compile(&presets::problem9(64), CompileOptions::full()).unwrap();
    let grid = [3, 3];
    let u = kernel.array_id("U").unwrap();
    let mut base = None;
    for (engine, backend) in COMBOS {
        let run = kernel
            .plan(MachineConfig::with_grid(grid.to_vec()))
            .init("U", init_u)
            .engine(engine)
            .backend(backend)
            .run_verified(&["T"], 0.0)
            .unwrap_or_else(|e| panic!("{engine:?}/{backend:?}: {e}"));
        let mut layouts: Vec<(Vec<usize>, usize)> = (run.machine.pes.iter())
            .map(|pe| (pe.subgrid(u).strides().to_vec(), pe.subgrid(u).raw().len()))
            .collect();
        layouts.sort();
        layouts.dedup();
        assert_eq!(layouts.len(), 4, "22, 22, 20 cells per dimension");
        let st = run.stats();
        assert_eq!(st.kernels_compiled, 4, "{engine:?}/{backend:?}: one kernel per layout");
        assert_eq!(st.kernel_execs, 9, "{engine:?}/{backend:?}: one execution per PE");
        assert_eq!(*base.get_or_insert_with(|| st.per_pe.clone()), st.per_pe, "{engine:?}");
    }
}

#[test]
fn bytecode_plan_compiles_once_and_reuses_across_steps() {
    let kernel = Kernel::compile(&presets::jacobi(16, 1), CompileOptions::full()).unwrap();
    let init = |p: &[i64]| ((p[0] * 5 + p[1] * 3) as f64).sin();
    let want = kernel.oracle().init("U", init).run_steps(5);
    let mut per_pe = Vec::new();
    for backend in [Backend::Bytecode, Backend::Interp] {
        let mut plan =
            kernel.plan(MachineConfig::sp2_2x2()).init("U", init).backend(backend).build().unwrap();
        plan.iterate(5);
        let st = plan.stats();
        // Jacobi's one nest (its copy-back rotates) and one layout:
        // compiled once at build; each of the 5 steps runs it on every one
        // of the 4 PEs.
        assert_eq!(st.kernels_compiled, 1, "{backend:?}");
        assert_eq!(st.kernel_execs, 5 * 4, "{backend:?}");
        // And the stepped state is the oracle's, bitwise.
        assert_eq!(plan.gather("U").unwrap(), want.array_named("U").data, "{backend:?}");
        per_pe.push(st.per_pe);
    }
    assert_eq!(per_pe[0], per_pe[1]);
}
