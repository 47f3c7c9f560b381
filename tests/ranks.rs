//! Rank coverage: the paper's examples are 2-D, but nothing in the strategy
//! is rank-specific — these tests run 1-D and 3-D stencils through the full
//! pipeline on matching PE meshes.

use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{Engine, Kernel, MachineConfig};

fn init1(p: &[i64]) -> f64 {
    (p[0] as f64 * 0.37).sin()
}

fn init3(p: &[i64]) -> f64 {
    ((p[0] * 9 + p[1] * 5 + p[2] * 2) as f64 * 0.05).cos()
}

#[test]
fn one_dimensional_three_point() {
    let src = r#"
PROGRAM tridiag
PARAM N = 32
REAL U(N), T(N)
REAL A = 0.25, B = 0.5, C = 0.25
T = A * CSHIFT(U,-1,1) + B * U + C * CSHIFT(U,1,1)
END
"#;
    for stage in Stage::all() {
        for grid in [&[1usize][..], &[2], &[4], &[5]] {
            let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
            kernel
                .plan(MachineConfig::with_grid(grid.to_vec()))
                .init("U", init1)
                .run_verified(&["T"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?} {grid:?}: {e}"));
        }
    }
    // Structure: 2 shifts stay 2 (one per direction), single fused nest.
    let k = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(k.stats().comm_ops, 2);
    assert_eq!(k.stats().nests, 1);
}

#[test]
fn one_dimensional_wide_stencil_with_halo_two() {
    let src = r#"
PARAM N = 24
REAL U(N), T(N)
T = CSHIFT(U,-2,1) + CSHIFT(U,-1,1) + U + CSHIFT(U,1,1) + CSHIFT(U,2,1)
"#;
    let kernel = Kernel::compile(src, CompileOptions::full().halo(2)).unwrap();
    let run = kernel
        .plan(MachineConfig::with_grid([4]).halo(2))
        .init("U", init1)
        .engine(Engine::Threaded)
        .run_verified(&["T"], 0.0)
        .unwrap();
    // Subsumption: the ±2 shifts subsume the ±1 shifts -> 2 messages/PE.
    assert_eq!(kernel.stats().comm_ops, 2);
    assert_eq!(run.stats().total_messages(), 8);
}

#[test]
fn three_dimensional_seven_point() {
    let src = r#"
PROGRAM heat3d
PARAM N = 8
REAL U(N,N,N), T(N,N,N)
REAL C = 0.125
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) &
  + CSHIFT(U,-1,2) + CSHIFT(U,1,3) + CSHIFT(U,-1,3)) + 0.25 * U
"#;
    for stage in Stage::all() {
        for grid in [&[1usize, 1, 1][..], &[2, 2, 2], &[2, 1, 2], &[1, 4, 1]] {
            let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
            kernel
                .plan(MachineConfig::with_grid(grid.to_vec()))
                .init("U", init3)
                .run_verified(&["T"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?} {grid:?}: {e}"));
        }
    }
    let k = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(k.stats().comm_ops, 6, "one per direction per dimension");
    assert_eq!(k.stats().nests, 1);
}

#[test]
fn three_dimensional_corner_stencil() {
    // A 3-D diagonal term exercises cascading RSDs across two lower dims.
    let src = r#"
PARAM N = 8
REAL U(N,N,N), T(N,N,N)
T = U + CSHIFT(CSHIFT(CSHIFT(U,1,1),1,2),1,3) + CSHIFT(U,-1,2)
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    let run = kernel
        .plan(MachineConfig::with_grid([2, 2, 2]))
        .init("U", init3)
        .engine(Engine::Threaded)
        .run_verified(&["T"], 0.0)
        .unwrap();
    // Shifts: +1 along each dim (3 ops) + -1 along dim 2 (1 op).
    assert_eq!(kernel.stats().comm_ops, 4);
    assert!(run.stats().total_messages() > 0);
    // The dim-3 shift's RSD extends both lower dimensions.
    let listing = kernel.listing();
    assert!(
        listing.contains("DIM=3,[1-0:n+1,1-0:n+1,*]"),
        "cascaded corner RSD expected:\n{listing}"
    );
}

#[test]
fn three_dimensional_time_loop() {
    let src = r#"
PARAM N = 6
REAL U(N,N,N), T(N,N,N)
DO 4 TIMES
T = 0.16 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) &
  + CSHIFT(U,-1,2) + CSHIFT(U,1,3) + CSHIFT(U,-1,3))
U = T
ENDDO
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    kernel
        .plan(MachineConfig::with_grid([2, 2, 2]))
        .init("U", init3)
        .engine(Engine::Threaded)
        .run_verified(&["U"], 0.0)
        .unwrap();
}

#[test]
fn rank_mismatch_with_machine_grid_errors() {
    let src = "PARAM N = 8\nREAL U(N,N), T(N,N)\nT = CSHIFT(U,1,1)\n";
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    let err = kernel.plan(MachineConfig::with_grid([4])).init("U", |_| 1.0).run();
    assert!(err.is_err(), "2-D arrays on a 1-D mesh must be rejected");
}

#[test]
fn required_halo_reflects_offsets() {
    use hpf_stencil::CompileOptions;
    let one = Kernel::compile(
        "PARAM N = 16\nREAL U(N,N), T(N,N)\nT = CSHIFT(U,1,1) + U\n",
        CompileOptions::full(),
    )
    .unwrap();
    assert_eq!(one.compiled.required_halo(), 1);
    let two = Kernel::compile(
        "PARAM N = 16\nREAL U(N,N), T(N,N)\nT = CSHIFT(U,2,1) + U\n",
        CompileOptions::full().halo(2),
    )
    .unwrap();
    assert_eq!(two.compiled.required_halo(), 2);
    // Running the halo-2 kernel on a halo-1 machine errors cleanly.
    let err = two.plan(MachineConfig::sp2_2x2()).init("U", init1).run();
    assert!(err.is_err(), "undersized halo must be rejected");
}
