//! §6 robustness: the CM-2-style pattern matcher accepts only the canonical
//! single-statement CSHIFT form; the normalization-based pipeline compiles
//! every variation to the same minimal communication. And robustness of
//! the run itself: a failure on one PE fails the step, it never hangs it.

use hpf_stencil::baselines::cm2::{self, RecognizeError};
use hpf_stencil::frontend::compile_source;
use hpf_stencil::passes::{compile, CompileOptions};
use hpf_stencil::presets;

#[test]
fn cm2_accepts_canonical_form_only() {
    let canonical = compile_source(&presets::nine_point_cshift(32)).unwrap();
    let pattern = cm2::recognize(&canonical).expect("canonical form recognized");
    assert_eq!(pattern.taps.len(), 9);

    for (src, want) in [
        (presets::problem9(32), RecognizeError::MultiStatement),
        (presets::nine_point_array(32), RecognizeError::ArraySyntax),
        (presets::jacobi(32, 2), RecognizeError::UnsupportedShape),
    ] {
        let got = cm2::recognize(&compile_source(&src).unwrap()).unwrap_err();
        assert_eq!(got, want, "for source:\n{src}");
    }
}

#[test]
fn pipeline_compiles_every_variation_identically() {
    // Where the pattern matcher fails, the normalization-based strategy
    // still reaches 4 messages and 1 fused nest for the 9-point stencil.
    for src in
        [presets::nine_point_cshift(32), presets::nine_point_array(32), presets::problem9(32)]
    {
        let checked = compile_source(&src).unwrap();
        let ours = compile(&checked, CompileOptions::full());
        assert_eq!(ours.stats.comm_ops, 4);
        assert_eq!(ours.stats.nests, 1);
    }
}

#[test]
fn pipeline_handles_near_stencils() {
    // "they benefit those computations that only slightly resemble
    // stencils" (§6): mixed operators, nested expressions, EOSHIFT.
    let src = r#"
PARAM N = 16
REAL A(N,N), B(N,N), C(N,N)
REAL W = 0.5
B = W * (CSHIFT(A,1,1) - CSHIFT(A,-1,1)) / 2.0
C = B * B + EOSHIFT(A + B, SHIFT=1, DIM=2, BOUNDARY=1.0)
"#;
    let checked = compile_source(src).unwrap();
    assert!(cm2::recognize(&checked).is_err());
    let ours = compile(&checked, CompileOptions::full());
    assert!(ours.stats.offset.converted >= 2);
    // Runs correctly too.
    use hpf_stencil::{Engine, Kernel, MachineConfig};
    let kernel = Kernel::compile(src, CompileOptions::full()).unwrap();
    kernel
        .runner(MachineConfig::sp2_2x2())
        .init("A", |p| (p[0] + p[1]) as f64 * 0.1)
        .engine(Engine::Threaded)
        .run_verified(&["B", "C"], 1e-12)
        .unwrap();
}

/// A section copy between arrays of different shapes puts both in one
/// loop nest, whose every PE would index one array with the other's strides
/// (wrong values one way, an out-of-bounds panic the other). Building the
/// plan refuses it instead, naming both arrays, on every engine and grid.
/// (The pipeline's own invariant checks, on by default in debug builds,
/// flag the statement as IR002 before any plan exists; they are off here so
/// that the plan builder is what is tested, in every build.)
#[test]
fn a_nest_over_arrays_of_different_shapes_is_refused() {
    use hpf_stencil::{CoreError, Engine, Kernel, MachineConfig, RtError};
    for stmt in ["A(1:8,1:8) = B", "B = A(1:8,1:8)"] {
        let src = format!("REAL A(10,10), B(8,8)\n{stmt}\n");
        let options = CompileOptions::full().check_invariants(false);
        let kernel = Kernel::compile(&src, options).unwrap();
        for grid in [[1, 1], [2, 2]] {
            for engine in [Engine::Sequential, Engine::Threaded] {
                let built = std::panic::catch_unwind(|| {
                    kernel.plan(MachineConfig::grid(grid)).engine(engine).build().err()
                });
                let Ok(Some(CoreError::Runtime(RtError::BadDistribution(why)))) = built else {
                    panic!("{stmt} on {grid:?} {engine:?}: expected a refusal, got {built:?}");
                };
                let named = ["A and B", "B and A"].iter().any(|both| why.starts_with(both));
                assert!(named, "{stmt}: {why}");
            }
        }
    }
}

/// A PE whose step panics must fail `Plan::step` on the calling thread —
/// its peers are blocked waiting for messages it will never send — poison
/// the plan, and still let it drop. Each phase runs on a helper thread
/// against a deadline, so a hang fails the test instead of wedging it.
#[test]
fn panicking_pe_fails_the_step_and_poisons_the_plan() {
    use hpf_stencil::{Engine, Kernel, MachineConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    let message = |e: Box<dyn std::any::Any + Send>| e.downcast_ref::<String>().cloned();
    let engine = Engine::Threaded;
    // PE 3 runs on a worker thread, PE 0 on the calling one.
    for victim in [3usize, 0] {
        let (report, phases) = channel();
        std::thread::spawn(move || {
            let kernel = Kernel::compile(&presets::problem9(32), CompileOptions::full())
                .expect("Problem 9 compiles");
            let mut plan = kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", |p| (p[0] * 3 + p[1]) as f64 * 0.01)
                .engine(engine)
                .build()
                .expect("plan builds");
            plan.step();
            // The victim loses its copy of U: its next exchange panics
            // before it has sent anything.
            let u = kernel.array_id("U").expect("U exists").0 as usize;
            plan.machine.pes[victim].subgrids[u] = None;
            for _ in 0..2 {
                let failed = catch_unwind(AssertUnwindSafe(|| {
                    plan.step();
                }));
                report.send(failed.err().and_then(message)).unwrap();
            }
            drop(plan);
            report.send(None).unwrap();
        });
        let next = |what: &str| {
            phases
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{engine:?}, victim PE {victim}: {what} hung"))
        };
        let first = next("the failing step").expect("the step must panic with a message");
        assert!(first.starts_with(&format!("PE {victim} panicked during a step")), "{first}");
        let second = next("the step after it").expect("a poisoned plan keeps failing");
        assert_eq!(second, first, "same message, at once");
        assert_eq!(next("dropping the plan"), None);
    }
}
