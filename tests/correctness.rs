//! Whole-pipeline correctness: every preset kernel, compiled at every
//! cumulative stage, run on several PE grids with both engines, must match
//! the reference interpreter exactly.

use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{CoreError, Engine, Kernel, MachineConfig, Plan, RtError};

fn init(p: &[i64]) -> f64 {
    ((p[0] * 17 + p[1] * 29) as f64 * 0.01).sin() + 0.5
}

fn check(
    source: &str,
    inputs: &[&str],
    outputs: &[&str],
    grid: &[usize],
    stage: Stage,
    engine: Engine,
) {
    let kernel = Kernel::compile(source, CompileOptions::upto(stage)).unwrap();
    let mut runner = kernel.runner(MachineConfig::with_grid(grid.to_vec()));
    for name in inputs {
        runner = runner.init(name, init);
    }
    runner
        .engine(engine)
        .run_verified(outputs, 0.0)
        .unwrap_or_else(|e| panic!("{stage:?} on {grid:?} ({engine:?}): {e}"));
}

#[test]
fn five_point_matrix() {
    let src = hpf_stencil::presets::five_point(16);
    for stage in Stage::all() {
        for grid in [&[1usize, 1][..], &[2, 2], &[4, 1]] {
            check(&src, &["SRC"], &["DST"], grid, stage, Engine::Sequential);
        }
    }
    check(&src, &["SRC"], &["DST"], &[2, 2], Stage::MemOpt, Engine::Threaded);
}

#[test]
fn nine_point_cshift_matrix() {
    let src = hpf_stencil::presets::nine_point_cshift(16);
    for stage in Stage::all() {
        check(&src, &["SRC"], &["DST"], &[2, 2], stage, Engine::Sequential);
    }
    check(&src, &["SRC"], &["DST"], &[2, 4], Stage::MemOpt, Engine::Threaded);
}

#[test]
fn nine_point_array_matrix() {
    let src = hpf_stencil::presets::nine_point_array(16);
    for stage in Stage::all() {
        check(&src, &["SRC"], &["DST"], &[2, 2], stage, Engine::Sequential);
    }
}

#[test]
fn problem9_matrix() {
    let src = hpf_stencil::presets::problem9(16);
    for stage in Stage::all() {
        for grid in [&[1usize, 1][..], &[2, 2], &[1, 4], &[4, 1], &[4, 2]] {
            check(&src, &["U"], &["T"], grid, stage, Engine::Sequential);
        }
        check(&src, &["U"], &["T"], &[2, 2], stage, Engine::Threaded);
    }
}

#[test]
fn jacobi_matrix() {
    let src = hpf_stencil::presets::jacobi(12, 6);
    for stage in Stage::all() {
        check(&src, &["U"], &["U", "T"], &[2, 2], stage, Engine::Sequential);
    }
    check(&src, &["U"], &["U"], &[2, 2], Stage::MemOpt, Engine::Threaded);
}

/// One sweep of `kernel` through a plan, `U` filled from [`init`].
fn sweep<'k>(kernel: &'k Kernel, grid: &[usize], engine: Engine) -> Plan<'k> {
    let mut plan = kernel
        .plan(MachineConfig::with_grid(grid.to_vec()))
        .init("U", init)
        .engine(engine)
        .build()
        .unwrap();
    plan.step();
    plan
}

/// The sequential and threaded engines must produce the oracle's
/// result, and — walking the same compiled schedules — the same counters.
fn engines_agree(src: &str, stage: Stage, grid: &[usize], out: &str) {
    let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
    let id = kernel.array_id(out).unwrap();
    let want = kernel.oracle().init("U", init).run().arrays[&id].data.clone();
    let seq = sweep(&kernel, grid, Engine::Sequential);
    assert_eq!(seq.gather(out).unwrap(), want, "seq {stage:?} {grid:?}");
    let par = sweep(&kernel, grid, Engine::Threaded);
    assert_eq!(par.gather(out).unwrap(), want, "threaded {stage:?} {grid:?}");
    assert_eq!(par.stats().total(), seq.stats().total(), "threaded {stage:?} {grid:?}");
}

#[test]
fn threaded_engines_equal_sequential_and_oracle() {
    let p9 = hpf_stencil::presets::problem9(16);
    for stage in Stage::all() {
        engines_agree(&p9, stage, &[2, 2], "T");
    }
    for grid in [&[1usize, 1][..], &[4, 1], &[1, 4], &[2, 4]] {
        engines_agree(&p9, Stage::MemOpt, grid, "T");
    }
    // A `DO` loop runs whole inside one step, on every engine.
    let jacobi = hpf_stencil::presets::jacobi(8, 7);
    engines_agree(&jacobi, Stage::MemOpt, &[2, 2], "U");
    engines_agree(&jacobi, Stage::Original, &[2, 2], "U");
}

#[test]
fn eoshift_boundary_matrix() {
    let src = r#"
PARAM N = 8
REAL U(N,N), T(N,N)
T = EOSHIFT(U, SHIFT=1, DIM=1, BOUNDARY=3.5) + EOSHIFT(U, SHIFT=-1, DIM=2) + U
"#;
    for stage in Stage::all() {
        engines_agree(src, stage, &[2, 2], "T");
    }
}

#[test]
fn shift_wider_than_the_machine_halo_fails_the_build() {
    // Compiled for a 2-deep overlap area, run on a machine with halo 1:
    // the plan build must reject it on every engine, before any step runs.
    let src = "PARAM N = 8\nREAL U(N,N), T(N,N)\nT = CSHIFT(U, SHIFT=2, DIM=1) + U\n";
    let kernel = Kernel::compile(src, CompileOptions::full().halo(2)).unwrap();
    for engine in [Engine::Sequential, Engine::Threaded] {
        let err = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).engine(engine).build();
        assert!(matches!(err, Err(CoreError::Runtime(RtError::ShiftTooWide { .. }))), "{engine:?}");
    }
}

#[test]
fn image_blur_matrix() {
    let src = hpf_stencil::presets::image_blur(12, 3);
    for stage in Stage::all() {
        check(&src, &["IMG"], &["IMG", "OUT"], &[2, 2], stage, Engine::Sequential);
    }
}

#[test]
fn wave2d_matrix() {
    let src = hpf_stencil::presets::wave2d(12, 5);
    for stage in Stage::all() {
        check(&src, &["U", "UPREV"], &["U", "UPREV"], &[2, 2], stage, Engine::Sequential);
    }
    check(&src, &["U", "UPREV"], &["U"], &[2, 2], Stage::MemOpt, Engine::Threaded);
}

#[test]
fn uneven_block_sizes() {
    // N=10 over a 3-PE axis exercises short and empty trailing blocks.
    let src = hpf_stencil::presets::problem9(10);
    for grid in [&[3usize, 1][..], &[1, 3], &[3, 3]] {
        check(&src, &["U"], &["T"], grid, Stage::MemOpt, Engine::Sequential);
        check(&src, &["U"], &["T"], grid, Stage::Original, Engine::Sequential);
    }
}

#[test]
fn wider_halo_and_longer_shifts() {
    let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
T = CSHIFT(U,2,1) + CSHIFT(U,-2,2) + CSHIFT(CSHIFT(U,2,1),1,2) + U
"#;
    let kernel = Kernel::compile(src, CompileOptions::full().halo(2)).unwrap();
    kernel
        .runner(MachineConfig::sp2_2x2().halo(2))
        .init("U", init)
        .run_verified(&["T"], 0.0)
        .unwrap();
    // All three shifts become overlap shifts with the wider halo.
    assert_eq!(kernel.stats().offset.kept, 0);
}

#[test]
fn collapsed_distribution_runs() {
    let src = r#"
PROGRAM rowdist
PARAM N = 16
REAL U(N,N), T(N,N)
!HPF$ DISTRIBUTE U(BLOCK,*)
!HPF$ DISTRIBUTE T(BLOCK,*)
T = CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2)
END
"#;
    // (BLOCK,*) on a (4,1) grid: dim-2 shifts are local wraps.
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    let run = kernel
        .runner(MachineConfig::with_grid([4, 1]))
        .init("U", init)
        .run_verified(&["T"], 0.0)
        .unwrap();
    // Only dim-1 shifts send messages: 2 ops x 4 PEs.
    assert_eq!(run.stats().total_messages(), 8);
    let total = run.stats().total();
    assert!(total.wrap_bytes > 0, "dim-2 shifts wrap locally");
}
