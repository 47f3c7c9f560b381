//! Variable-coefficient stencils: the paper's Figure 1 notes the
//! coefficients "C1–C5 are either scalars or arrays". Coefficient *arrays*
//! are aligned operands of the compute statement — no extra communication —
//! and must flow through the whole pipeline.

use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{Backend, Engine, Kernel, MachineConfig};

const VARCOEFF_5PT: &str = r#"
PROGRAM varcoeff
PARAM N = 16
REAL SRC(N,N), DST(N,N)
REAL C1(N,N), C2(N,N), C3(N,N), C4(N,N), C5(N,N)
DST(2:N-1,2:N-1) = C1(2:N-1,2:N-1) * SRC(1:N-2,2:N-1) &
                 + C2(2:N-1,2:N-1) * SRC(2:N-1,1:N-2) &
                 + C3(2:N-1,2:N-1) * SRC(2:N-1,2:N-1) &
                 + C4(2:N-1,2:N-1) * SRC(3:N ,2:N-1) &
                 + C5(2:N-1,2:N-1) * SRC(2:N-1,3:N )
END
"#;

fn init_src(p: &[i64]) -> f64 {
    ((p[0] * 3 + p[1]) as f64 * 0.1).sin()
}

#[test]
fn variable_coefficient_five_point_all_stages() {
    for stage in Stage::all() {
        let kernel = Kernel::compile(VARCOEFF_5PT, CompileOptions::upto(stage)).unwrap();
        for backend in [Backend::Interp, Backend::Bytecode] {
            kernel
                .plan(MachineConfig::sp2_2x2())
                .init("SRC", init_src)
                .init("C1", |p| 0.1 + 0.001 * p[0] as f64)
                .init("C2", |p| 0.2 + 0.001 * p[1] as f64)
                .init("C3", |_| 0.4)
                .init("C4", |p| 0.2 - 0.001 * p[0] as f64)
                .init("C5", |p| 0.1 - 0.001 * p[1] as f64)
                .engine(Engine::Threaded)
                .backend(backend)
                .run_verified(&["DST"], 0.0)
                .unwrap_or_else(|e| panic!("{stage:?}/{backend:?}: {e}"));
        }
    }
}

#[test]
fn coefficient_arrays_add_no_communication() {
    let kernel = Kernel::compile(VARCOEFF_5PT, CompileOptions::full()).unwrap();
    // Still exactly 4 overlap shifts: only SRC is shifted; the coefficient
    // arrays are perfectly aligned.
    assert_eq!(kernel.stats().comm_ops, 4);
    assert_eq!(kernel.stats().nests, 1);
    // Per-point loads: 5 coefficients + 5 SRC taps (before unroll sharing).
    assert!(kernel.stats().memopt.loads_before >= 10);
}

#[test]
fn shifted_coefficient_array_communicates() {
    // A coefficient array that is itself shifted needs its own overlap area.
    let src = r#"
PARAM N = 16
REAL SRC(N,N), DST(N,N), W(N,N)
DST = CSHIFT(W,1,1) * CSHIFT(SRC,1,2) + W * SRC
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(kernel.stats().comm_ops, 2, "one shift per array");
    for backend in [Backend::Interp, Backend::Bytecode] {
        kernel
            .plan(MachineConfig::sp2_2x2())
            .init("SRC", init_src)
            .init("W", |p| (p[0] - p[1]) as f64 * 0.01)
            .backend(backend)
            .run_verified(&["DST"], 0.0)
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
    }
}
