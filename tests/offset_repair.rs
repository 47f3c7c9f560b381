//! Execution correctness of the offset-array pass's repair paths (§3.1:
//! "when a criterion has been violated, it may be necessary to insert an
//! array copy statement into the program to maintain its original
//! semantics").

use hpf_stencil::ir::Stmt;
use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{Engine, Kernel, MachineConfig};

fn init(p: &[i64]) -> f64 {
    ((p[0] * 11 + p[1] * 5) as f64 * 0.07).sin()
}

/// Chained shifts whose composition exceeds the overlap width: the inner
/// shift converts, the outer is kept as a full shift, and a repair copy
/// materializes the inner offset array.
#[test]
fn repair_copy_for_over_wide_chain_executes_correctly() {
    let src = "PARAM N = 16\nREAL A(N,N), B(N,N)\nA = CSHIFT(CSHIFT(B,1,1), 1, 1) + B\n";
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert_eq!(kernel.stats().offset.converted, 1);
    assert_eq!(kernel.stats().offset.kept, 1);
    assert_eq!(kernel.stats().offset.copies_inserted, 1);
    let mut copies = 0;
    kernel.compiled.array_ir.for_each_stmt(&mut |s| {
        if matches!(s, Stmt::Copy { .. }) {
            copies += 1;
        }
    });
    assert_eq!(copies, 1);
    for engine in [Engine::Sequential, Engine::Threaded] {
        kernel
            .plan(MachineConfig::sp2_2x2())
            .init("B", init)
            .engine(engine)
            .run_verified(&["A"], 0.0)
            .unwrap();
    }
}

/// A source update between a shift's definition and one of its uses
/// violates the sharing criterion; the pass conservatively keeps the full
/// shift (equivalent to converting optimistically and repairing with a
/// copy, which moves the same data), and execution stays exact.
#[test]
fn source_update_between_def_and_use_keeps_full_shift() {
    let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N), R(N,N), S(N,N)
R = CSHIFT(U,1,1)
S = R + U
U = S
T = CSHIFT(R,1,2)
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    // R's conversion is blocked (U is overwritten before T's use of R);
    // T's shift of the real array R still converts.
    assert!(kernel.stats().offset.kept >= 1);
    assert!(kernel.stats().offset.converted >= 1);
    kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init)
        .run_verified(&["T", "S", "U"], 0.0)
        .unwrap();
}

/// Mixed-kind chains refuse composition and repair instead.
#[test]
fn mixed_kind_chain_repairs_and_executes() {
    let src = r#"
PARAM N = 16
REAL U(N,N), T(N,N)
T = EOSHIFT(CSHIFT(U,1,1), 1, 2, BOUNDARY=2.5) + U
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    // Inner circular shift converts; the end-off shift over the offset
    // array must not compose (kinds differ).
    assert_eq!(kernel.stats().offset.converted, 1);
    assert_eq!(kernel.stats().offset.kept, 1);
    kernel.plan(MachineConfig::sp2_2x2()).init("U", init).run_verified(&["T"], 0.0).unwrap();
}

/// End-off cancellation chains (the truncation-destroys-information case
/// found by the property tests) must execute correctly via the repair path.
#[test]
fn endoff_cancellation_chain_executes_correctly() {
    let src = r#"
PARAM N = 12
REAL U(N,N), T(N,N)
T = EOSHIFT(EOSHIFT(U,-1,1), 1, 1) + 0.5 * U
"#;
    for stage in Stage::all() {
        let kernel = Kernel::compile(src, CompileOptions::upto(stage)).unwrap();
        kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", init)
            .run_verified(&["T"], 0.0)
            .unwrap_or_else(|e| panic!("{stage:?}: {e}"));
    }
}

/// Conflicting shift kinds over the same ghost region: one conversion wins,
/// the other stays a full shift — and execution is still exact.
#[test]
fn conflicting_ghost_kinds_execute_correctly() {
    let src = r#"
PARAM N = 12
REAL U(N,N), T(N,N)
T = CSHIFT(U,1,1) + EOSHIFT(U,1,1) + CSHIFT(U,1,1)
"#;
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    assert!(kernel.stats().offset.kept >= 1);
    kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init)
        .engine(Engine::Threaded)
        .run_verified(&["T"], 0.0)
        .unwrap();
}
