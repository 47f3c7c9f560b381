//! Differential testing of the metrics subsystem: collecting per-PE
//! metrics must be **observation only**. For every engine × backend
//! combination (and randomly drawn kernels, sizes, and step counts), a
//! metered run and an unmetered run of the same kernel must produce
//! bitwise-identical arrays and identical per-PE operation counters —
//! the sampler may read the trace rings but never perturb execution.
//! The drift report must reconcile exactly with its sources: its
//! `modeled_time_ns` equals `CostModel::modeled_time_ns` on the run's
//! aggregate counters. Metrics alone keep no timeline: trace
//! consumers see an untraced run, and the histograms never stop counting
//! however long the run.

use hpf_stencil::runtime::PeStats;
use hpf_stencil::{
    presets, Backend, CompileOptions, Engine, ExecConfig, Kernel, MachineConfig, MetricsSnapshot,
};
use proptest::prelude::*;

const COMBOS: [(Engine, Backend); 4] = [
    (Engine::Sequential, Backend::Interp),
    (Engine::Sequential, Backend::Bytecode),
    (Engine::Threaded, Backend::Interp),
    (Engine::Threaded, Backend::Bytecode),
];

fn init(p: &[i64]) -> f64 {
    ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin()
}

/// Step the kernel `steps` times under `cfg`, initializing `input`;
/// return the gathered `out` array, the per-PE counters, and the metrics
/// snapshot (when on).
fn run_case(
    kernel: &Kernel,
    input: &str,
    out: &str,
    cfg: ExecConfig,
    steps: usize,
) -> (Vec<f64>, Vec<PeStats>, Option<MetricsSnapshot>) {
    let mut plan = kernel
        .plan(MachineConfig::sp2_2x2())
        .init(input, init)
        .config(cfg)
        .build()
        .unwrap_or_else(|e| panic!("{cfg:?} failed to build: {e}"));
    plan.iterate(steps);
    let data = plan.gather(out).unwrap();
    let stats = plan.stats().per_pe;
    let snap = plan.metrics_snapshot();
    (data, stats, snap)
}

/// Metrics on vs off is invisible to the computation: the oracle's arrays,
/// bitwise, and identical per-PE counters across the whole engine × backend
/// matrix.
#[test]
fn metrics_never_perturb_execution() {
    let kernel = Kernel::compile(&presets::problem9(24), CompileOptions::full()).unwrap();
    let want = kernel.oracle().init("U", init).run_steps(3).array_named("T").data.clone();
    for (engine, backend) in COMBOS {
        let base = ExecConfig::new().engine(engine).backend(backend);
        let (out_off, stats_off, snap_off) = run_case(&kernel, "U", "T", base, 3);
        let (out_on, stats_on, snap_on) = run_case(&kernel, "U", "T", base.metrics(true), 3);
        assert_eq!(want, out_off, "unmetered run is not the oracle's under {engine:?}/{backend:?}");
        assert_eq!(out_off, out_on, "metered run diverged bitwise under {engine:?}/{backend:?}");
        assert_eq!(
            stats_off, stats_on,
            "metered run changed per-PE counters under {engine:?}/{backend:?}"
        );
        assert!(snap_off.is_none(), "unmetered run produced a snapshot");
        let snap = snap_on.unwrap_or_else(|| panic!("no snapshot under {engine:?}/{backend:?}"));
        assert_eq!(snap.steps, 3);
        assert_eq!(snap.pes, 4);
        assert_eq!(snap.series.len(), 3);
        let spans: u64 = snap.merged_pe_registry().hists().map(|(_, h)| h.count()).sum();
        assert!(spans > 0, "no spans sampled under {engine:?}/{backend:?}");
    }
}

/// The drift report's totals reconcile exactly — not approximately — with
/// the cost model and the counters, per engine × backend.
#[test]
fn drift_report_reconciles_with_cost_model_and_counters() {
    let kernel = Kernel::compile(&presets::jacobi(16, 3), CompileOptions::full()).unwrap();
    for (engine, backend) in COMBOS {
        let cfg = ExecConfig::new().engine(engine).backend(backend).metrics(true);
        let mut plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| ((p[0] + 2 * p[1]) as f64 * 0.07).cos())
            .config(cfg)
            .build()
            .unwrap();
        plan.iterate(4);
        let drift = plan.drift_report().expect("metrics were configured");
        let agg = plan.stats();
        let cost = &plan.machine.cfg.cost;
        assert_eq!(
            drift.modeled_time_ns,
            cost.modeled_time_ns(&agg),
            "modeled total diverged under {engine:?}/{backend:?}"
        );
        // Every component pairs a finite modeled cost with a finite
        // measured wall; the measured side never exceeds... nothing — it
        // is host time — but it must be non-negative and the report must
        // price the compute component (every engine computes).
        for c in &drift.components {
            assert!(c.modeled_ns >= 0.0 && c.measured_ns >= 0.0, "{engine:?}/{backend:?}");
        }
        let compute = drift.components.iter().find(|c| c.name == "compute").unwrap();
        assert!(compute.modeled_ns > 0.0, "no modeled compute under {engine:?}/{backend:?}");
        assert!(compute.measured_ns > 0.0, "no measured compute under {engine:?}/{backend:?}");
        // The exports are well-formed: JSON round-trips through the shared
        // parser, the Prometheus exposition carries per-PE labels.
        let snap = plan.metrics_snapshot().unwrap();
        let j = snap.to_json();
        let back = hpf_stencil::trace::json::parse(&j.render()).unwrap();
        assert_eq!(back.render(), j.render(), "{engine:?}/{backend:?}");
        let dj = drift.to_json();
        let dback = hpf_stencil::trace::json::parse(&dj.render()).unwrap();
        assert_eq!(dback.render(), dj.render(), "{engine:?}/{backend:?}");
        assert!(snap.to_prometheus().contains("pe=\"3\""), "{engine:?}/{backend:?}");
    }
}

/// Metrics alone surface no trace: no trace on the run, empty
/// `take_trace`, `tracing_enabled` false — while an explicitly traced
/// run keeps its trace alongside the metrics.
#[test]
fn metrics_alone_surface_no_trace() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let init = |p: &[i64]| ((p[0] * 3 - p[1]) as f64 * 0.11).sin();
    let mut metered =
        kernel.plan(MachineConfig::sp2_2x2()).init("U", init).metrics(true).run().unwrap();
    assert!(!metered.tracing_enabled(), "metrics alone surfaced a trace");
    assert!(metered.take_trace().tracks.is_empty());
    assert!(metered.metrics_snapshot().is_some() && metered.drift_report().is_some());
    let mut both = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init)
        .metrics(true)
        .trace(true)
        .run()
        .unwrap();
    assert!(both.tracing_enabled());
    assert!(both.take_trace().total_events() > 0);
    assert!(both.metrics_snapshot().is_some() && both.drift_report().is_some());
    // Both runs computed the same thing.
    assert_eq!(metered.gather("T").unwrap(), both.gather("T").unwrap());
}

/// Metrics never stop counting: a metrics-only run far longer than a
/// timeline ring (36 spans/step × 8 000 steps ≫ 4 × 65 536 events) still
/// counts every span of every step, drops nothing, and keeps no timeline.
#[test]
fn long_metrics_only_run_counts_every_span() {
    const STEPS: u64 = 8_000;
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let per_kind_counts = |steps: u64| {
        let mut plan = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| ((p[0] * 3 - p[1]) as f64 * 0.11).sin())
            .metrics(true)
            .build()
            .unwrap();
        plan.iterate(steps as usize);
        assert!(!plan.tracing_enabled());
        assert_eq!(plan.take_trace().total_events(), 0, "metrics alone surfaced a timeline");
        assert!(plan
            .machine
            .pes
            .iter()
            .all(|p| !p.tracer.has_timeline() && p.tracer.dropped() == 0));
        let snap = plan.metrics_snapshot().unwrap();
        assert_eq!(snap.steps, steps);
        let merged = snap.merged_pe_registry();
        merged.hists().map(|(kind, h)| (kind, h.count())).collect::<Vec<_>>()
    };
    let one = per_kind_counts(1);
    assert_eq!(one.iter().map(|&(_, c)| c).sum::<u64>(), 36, "{one:?}");
    let scaled: Vec<_> = one.iter().map(|&(kind, c)| (kind, c * STEPS)).collect();
    assert_eq!(per_kind_counts(STEPS), scaled);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized observation-only check: random preset kernel, problem
    /// size, step count, engine, and backend — metrics on vs off stays
    /// bitwise identical, and the superstep schedule keeps the invariant
    /// too.
    #[test]
    fn random_runs_are_bitwise_identical_with_metrics(
        which in 0usize..3,
        n_idx in 0usize..3,
        steps in 1usize..4,
        combo in 0usize..COMBOS.len(),
        superstep in prop_oneof![Just(1usize), Just(2)],
    ) {
        let n = [12, 16, 24][n_idx];
        let (src, input, out) = match which {
            0 => (presets::problem9(n), "U", "T"),
            1 => (presets::jacobi(n, 3), "U", "U"),
            _ => (presets::five_point(n), "SRC", "DST"),
        };
        let kernel = Kernel::compile(&src, CompileOptions::full()).unwrap();
        let (engine, backend) = COMBOS[combo];
        let base = ExecConfig::new().engine(engine).backend(backend).superstep(superstep);
        let (out_off, stats_off, _) = run_case(&kernel, input, out, base, steps);
        let (out_on, stats_on, snap) = run_case(&kernel, input, out, base.metrics(true), steps);
        prop_assert_eq!(out_off, out_on);
        prop_assert_eq!(stats_off, stats_on);
        prop_assert_eq!(snap.unwrap().steps, steps as u64);
    }
}
