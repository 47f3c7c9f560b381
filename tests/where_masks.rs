//! `WHERE`-masked array assignments end to end: the paper's §7 argues the
//! optimizations "benefit those computations that only slightly resemble
//! stencils" — masked stencils are the canonical example. A `WHERE` lowers
//! to a `MERGE` (select) over an aligned read of the LHS, so the whole
//! pipeline (offset arrays, partitioning, unioning, memory opts) applies
//! unchanged.

use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{Backend, Engine, Kernel, MachineConfig};

fn init(p: &[i64]) -> f64 {
    ((p[0] * 7 + p[1] * 13) as f64 * 0.05).sin()
}

#[test]
fn masked_constant_assignment() {
    let src = r#"
PARAM N = 12
REAL U(N,N), T(N,N)
T = U
WHERE (U > 0) T = 0
"#;
    for stage in Stage::all() {
        let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
        for backend in [Backend::Interp, Backend::Bytecode] {
            let run = kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", init)
                .backend(backend)
                .run_verified(&["T"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?}/{backend:?}: {e}"));
            let t = run.gather("T").unwrap();
            let u_ref: Vec<f64> = {
                let mut v = Vec::new();
                for i in 1..=12i64 {
                    for j in 1..=12i64 {
                        v.push(init(&[i, j]));
                    }
                }
                v
            };
            for (ti, ui) in t.iter().zip(&u_ref) {
                if *ui > 0.0 {
                    assert_eq!(*ti, 0.0);
                } else {
                    assert_eq!(*ti, *ui);
                }
            }
        }
    }
}

#[test]
fn masked_stencil_with_shifted_mask() {
    // The mask itself contains a shift: the overlap machinery must serve it.
    let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
WHERE (CSHIFT(U,1,1) >= U) T = 0.5 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1))
"#;
    for stage in Stage::all() {
        let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
        for backend in [Backend::Interp, Backend::Bytecode] {
            kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", init)
                .engine(Engine::Threaded)
                .backend(backend)
                .run_verified(&["T"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?}/{backend:?}: {e}"));
        }
    }
    // Offset arrays convert the mask's shifts too.
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(kernel.stats().offset.converted, 3, "{}", kernel.listing());
    assert_eq!(kernel.stats().comm_ops, 2);
}

#[test]
fn masked_assignment_on_section() {
    let src = r#"
PARAM N = 12
REAL U(N,N), T(N,N)
WHERE (U(2:N-1,2:N-1) /= 0) T(2:N-1,2:N-1) = 1 / U(2:N-1,2:N-1)
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", |p| if (p[0] + p[1]) % 3 == 0 { 0.0 } else { (p[0] * p[1]) as f64 })
        .run_verified(&["T"], 0.0)
        .unwrap();
}

#[test]
fn where_obstructs_pattern_matcher_but_not_us() {
    use hpf_stencil::baselines::cm2;
    use hpf_stencil::frontend::compile_source;
    let src = r#"
PARAM N = 12
REAL S(N,N), D(N,N)
WHERE (S > 0) D = 0.5 * CSHIFT(S,1,1) + 0.5 * S
"#;
    let checked = compile_source(src).unwrap();
    assert_eq!(cm2::recognize(&checked).unwrap_err(), cm2::RecognizeError::Masked);
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(kernel.stats().comm_ops, 1);
    kernel.plan(MachineConfig::sp2_2x2()).init("S", init).run_verified(&["D"], 0.0).unwrap();
}

#[test]
fn masked_jacobi_converges_only_inside_region() {
    // Relaxation applied only where a mask array marks the domain.
    let src = r#"
PARAM N = 12
REAL U(N,N), T(N,N), M(N,N)
DO 4 TIMES
T = 0.25 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
WHERE (M > 0) U = T
ENDDO
"#;
    for stage in [Stage::Original, Stage::MemOpt] {
        let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
        for backend in [Backend::Interp, Backend::Bytecode] {
            let run = kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", |p| if p[0] == 6 && p[1] == 6 { 64.0 } else { 0.0 })
                .init("M", |p| if p[0] >= 4 && p[0] <= 9 { 1.0 } else { 0.0 })
                .engine(Engine::Threaded)
                .backend(backend)
                .run_verified(&["U", "T"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?}/{backend:?}: {e}"));
            let u = run.gather("U").unwrap();
            // Outside the masked band, U keeps its initial zeros.
            assert_eq!(u[0], 0.0);
            assert_eq!(u[11 * 12], 0.0);
            // Inside, heat has spread.
            assert!(u[(6 - 1) * 12 + (6 - 1)].abs() > 0.0);
        }
    }
}

#[test]
fn mask_conformance_checked() {
    let err = Kernel::compile(
        "PARAM N = 8\nREAL U(N,N), T(N,N)\nWHERE (U(1:3,1:3) > 0) T = U\n",
        CompileOptions::full(),
    );
    assert!(err.is_err(), "non-conformant mask must be rejected");
}
