//! Differential testing of the tracing subsystem: recording per-PE event
//! traces must be **observation only**. For every engine × backend
//! combination, a traced run and an untraced run of the same kernel must
//! produce bitwise-identical arrays — the oracle's — and identical per-PE
//! operation counters: the recorder may time the execution but never
//! perturb it.
//! The Chrome `trace_event` export must also be well-formed: it
//! round-trips through the crate's own JSON parser, and within every
//! track the event timestamps are monotonically non-decreasing.

use hpf_stencil::runtime::PeStats;
use hpf_stencil::trace::json::{self, Value};
use hpf_stencil::trace::Trace;
use hpf_stencil::{presets, Backend, CompileOptions, Engine, ExecConfig, Kernel, MachineConfig};

const COMBOS: [(Engine, Backend); 4] = [
    (Engine::Sequential, Backend::Interp),
    (Engine::Sequential, Backend::Bytecode),
    (Engine::Threaded, Backend::Interp),
    (Engine::Threaded, Backend::Bytecode),
];

/// Step Problem 9 `steps` times under `cfg`; return the gathered output,
/// the per-PE counters, and the trace (empty when tracing was off).
fn run_problem9(kernel: &Kernel, cfg: ExecConfig, steps: usize) -> (Vec<f64>, Vec<PeStats>, Trace) {
    let mut plan = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init)
        .config(cfg)
        .build()
        .unwrap_or_else(|e| panic!("{cfg:?} failed to build: {e}"));
    plan.iterate(steps);
    let out = plan.gather("T").unwrap();
    let stats = plan.stats().per_pe;
    let trace = plan.take_trace();
    (out, stats, trace)
}

fn init(p: &[i64]) -> f64 {
    ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin()
}

/// Tracing on vs off is invisible to the computation: the oracle's arrays,
/// bitwise, and identical per-PE counters across the whole engine × backend
/// matrix.
#[test]
fn tracing_never_perturbs_execution() {
    let kernel = Kernel::compile(&presets::problem9(24), CompileOptions::full()).unwrap();
    let want = kernel.oracle().init("U", init).run_steps(3).array_named("T").data.clone();
    for (engine, backend) in COMBOS {
        let base = ExecConfig::new().engine(engine).backend(backend);
        let (out_off, stats_off, trace_off) = run_problem9(&kernel, base, 3);
        let (out_on, stats_on, trace_on) = run_problem9(&kernel, base.trace(true), 3);
        assert_eq!(want, out_off, "untraced run is not the oracle's under {engine:?}/{backend:?}");
        assert_eq!(out_off, out_on, "traced run diverged bitwise under {engine:?}/{backend:?}");
        assert_eq!(
            stats_off, stats_on,
            "traced run changed per-PE counters under {engine:?}/{backend:?}"
        );
        assert_eq!(trace_off.total_events(), 0, "untraced run recorded events");
        assert!(trace_on.total_events() > 0, "traced run recorded nothing");
    }
}

/// The Chrome export is well-formed JSON that round-trips through the
/// crate's own parser, with per-track monotonic timestamps and one track
/// per PE (plus the compile-passes and driver tracks).
#[test]
fn chrome_export_is_well_formed() {
    let kernel = Kernel::compile(&presets::problem9(24), CompileOptions::full()).unwrap();
    for (engine, backend) in COMBOS {
        let cfg = ExecConfig::new().engine(engine).backend(backend).trace(true);
        let (_, _, trace) = run_problem9(&kernel, cfg, 2);
        let names: Vec<&str> = trace.tracks.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"compile-passes"), "{engine:?}/{backend:?}: {names:?}");
        assert!(names.contains(&"driver"), "{engine:?}/{backend:?}: {names:?}");
        for pe in 0..4 {
            let name = format!("PE {pe}");
            assert!(names.iter().any(|n| **n == name), "{engine:?}/{backend:?}: {names:?}");
        }
        for track in &trace.tracks {
            let mut last = 0u64;
            for ev in &track.events {
                assert!(
                    ev.start_ns >= last,
                    "track {} timestamps regress under {engine:?}/{backend:?}",
                    track.name
                );
                last = ev.start_ns;
            }
        }
        let parsed = json::parse(&trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("{engine:?}/{backend:?} export does not parse: {e}"));
        assert!(matches!(parsed, Value::Object(_)), "top level is not an object");
        let Some(Value::Array(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents array")
        };
        let spans =
            events.iter().filter(|e| e.get("ph") == Some(&Value::String("X".into()))).count();
        assert_eq!(spans, trace.total_events(), "span count drifted through the export");
    }
}
