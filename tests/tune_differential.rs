//! Differential testing of the auto-tuner: whatever configuration the tuner
//! picks must be **behavior-preserving** — bitwise-identical arrays, and
//! bitwise-identical per-PE counters once the grid is fixed — and every
//! candidate it emits must build into a plan that passes static
//! verification. The on-disk cache must be deterministic (stable
//! fingerprints), effective (a warm hit builds and prices nothing), and
//! safe (a corrupted file degrades to a fresh search, never an error).

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::exec::{superstep_halo, ExecPlan};
use hpf_stencil::passes::loopir::{NodeItem, Unroll};
use hpf_stencil::runtime::PeStats;
use hpf_stencil::tune::Candidate;
use hpf_stencil::{
    presets, CompileOptions, ExecConfig, Kernel, Machine, MachineConfig, TuneOutcome, Tuner,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// A searching tuner (no disk) over a 2x2 base machine.
fn test_tuner() -> Tuner {
    Tuner::new(base_config()).no_cache()
}

fn base_config() -> MachineConfig {
    MachineConfig::with_grid(vec![2, 2])
}

/// Unique temp-file path for cache tests (tests run concurrently).
fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpf-tune-diff-{tag}-{}.json", std::process::id()))
}

/// Run `kernel` under an explicit (machine, exec) configuration for
/// `steps` machine steps, gathering the given output arrays (skipping ones
/// the program never allocates), the per-PE counters, and the number of
/// *logical* time steps covered (a driver-stepped superstep plan covers
/// its depth per machine step).
#[allow(clippy::type_complexity)]
fn run_config(
    kernel: &Kernel,
    mcfg: MachineConfig,
    ecfg: ExecConfig,
    outputs: &[&str],
    steps: usize,
) -> (Vec<(String, Vec<f64>)>, Vec<PeStats>, usize) {
    let mut planner =
        kernel.plan(mcfg).config(ecfg).init("U", |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin());
    if kernel.array_id("V").is_ok() {
        planner = planner.init("V", |p| ((p[0] - 2 * p[1]) as f64 * 0.05).cos());
    }
    let mut plan = planner.build().unwrap_or_else(|e| panic!("build failed: {e}"));
    plan.iterate(steps);
    let logical = plan.logical_steps_per_step() * steps;
    let mut arrays = Vec::new();
    for name in outputs {
        let Ok(id) = kernel.array_id(name) else { continue };
        if plan.machine.is_allocated(id) {
            arrays.push((name.to_string(), plan.machine.gather(id)));
        }
    }
    (arrays, plan.stats().per_pe, logical)
}

/// Tune `kernel` and check the winner against the defaults over the same
/// *logical* work: arrays must be bitwise-identical to the default
/// configuration on the default grid, and to the default engine/backend
/// *on the tuned grid*. For a depth-1 winner the per-PE counters must also
/// be bitwise-identical on the tuned grid; a superstep winner changes the
/// counters by construction — it must avoid communication (no more
/// messages than the classic schedule over the same logical steps) without
/// skipping compute (at least as many iterations).
fn assert_tuned_matches_default(kernel: &Kernel) -> TuneOutcome {
    let outcome = kernel.tune(&test_tuner()).unwrap();
    let best = &outcome.best;
    let outputs = ["T", "S"];

    // One machine step of the winner, then the same logical coverage from
    // the classic configurations (classic plans cover 1 logical step per
    // machine step).
    let (tuned_arrays, tuned_stats, logical) =
        run_config(kernel, best.machine_config(&base_config()), best.exec_config(), &outputs, 1);
    let (default_arrays, _, _) =
        run_config(kernel, base_config(), ExecConfig::new(), &outputs, logical);
    let (ref_arrays, ref_stats, _) = run_config(
        kernel,
        best.machine_config(&base_config()),
        ExecConfig::new(),
        &outputs,
        logical,
    );

    assert_eq!(default_arrays, tuned_arrays, "tuned config changed results: {}", best.label());
    assert_eq!(ref_arrays, tuned_arrays, "grid-matched results differ: {}", best.label());
    if best.superstep <= 1 {
        assert_eq!(ref_stats, tuned_stats, "per-PE counters differ on {}", best.label());
    } else {
        let msgs = |st: &[PeStats]| st.iter().map(|s| s.msgs_sent).sum::<u64>();
        let iters = |st: &[PeStats]| st.iter().map(|s| s.iters).sum::<u64>();
        assert!(
            msgs(&tuned_stats) <= msgs(&ref_stats),
            "superstep winner {} sent more messages than classic",
            best.label()
        );
        assert!(
            iters(&tuned_stats) >= iters(&ref_stats),
            "superstep winner {} skipped compute",
            best.label()
        );
    }
    outcome
}

/// Every candidate that built (finite modeled time) must produce a plan
/// that passes static verification — the tuner may only pick
/// machine-checked-safe configurations.
fn assert_candidates_verify(kernel: &Kernel, candidates: &[Candidate]) {
    for c in candidates.iter().filter(|c| c.modeled_ms.is_finite()) {
        let plan = kernel
            .plan(c.machine_config(&base_config()))
            .config(c.exec_config())
            .build()
            .unwrap_or_else(|e| panic!("candidate {} no longer builds: {e}", c.label()));
        let diags = plan.verify_static();
        assert!(diags.is_empty(), "candidate {} fails verification: {diags:?}", c.label());
    }
}

/// The class-sharing rule, checked instead of trusted: every candidate's
/// modeled time must be bit-equal to what *its own* plan (its engine, its
/// depth, bytecode) reads when built, stats-reset and stepped once — so
/// `seq` standing in for `threaded` is exact.
fn assert_modeled_matches_own_plan(kernel: &Kernel, candidates: &[Candidate]) {
    let node = &kernel.compiled.node;
    for c in candidates {
        let mut mcfg = c.machine_config(&base_config());
        if let Some(h) = superstep_halo(node, c.superstep).filter(|_| c.superstep > 1) {
            mcfg.halo = mcfg.halo.max(h);
        }
        let mut machine = Machine::new(mcfg);
        let Ok(mut plan) = ExecPlan::build(&mut machine, node, &c.exec_config()) else {
            assert!(c.modeled_ms.is_infinite(), "{} does not build but was priced", c.label());
            continue;
        };
        machine.reset_stats();
        plan.step(&mut machine);
        let own = machine.modeled_time_ms() / plan.logical_steps_per_step() as f64;
        assert_eq!(
            c.modeled_ms.to_bits(),
            own.to_bits(),
            "{}: shared probe {} != own plan {own}",
            c.label(),
            c.modeled_ms
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The headline invariant: for random stencil kernels (shift chains,
    /// EOSHIFT boundaries, WHERE masks, time loops), auto-tuning never
    /// changes what is computed — only how fast.
    #[test]
    fn tuned_config_is_behavior_preserving(
        seed in 0u64..1_000_000,
        stmts in 1usize..=3,
        time_loop in prop_oneof![Just(None), Just(Some(2usize))],
    ) {
        let spec = WorkloadSpec { n: 10, stmts, time_loop, ..Default::default() };
        let src = generate(&spec, seed);
        let kernel = Kernel::compile(&src, CompileOptions::full())
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        assert_tuned_matches_default(&kernel);
    }
}

#[test]
fn problem9_tuned_matches_default_and_all_candidates_verify() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let outcome = assert_tuned_matches_default(&kernel);
    // 4 PEs in rank-2 meshes: 3 factorizations x 2 engines x 4 superstep
    // depths (the flat shift chain is eligible at every searched depth),
    // all bytecode.
    assert_eq!(outcome.candidates.len(), 24);
    assert_candidates_verify(&kernel, &outcome.candidates);
}

#[test]
fn shared_probes_price_every_candidate_exactly() {
    let p9 = Kernel::compile(&presets::problem9(32), CompileOptions::full()).unwrap();
    let out = p9.tune(&test_tuner()).unwrap();
    assert_eq!(out.candidates.len(), 24);
    assert_modeled_matches_own_plan(&p9, &out.candidates);
    // One probe per (grid, depth) class, and the count is pinned — 24
    // candidates never cost 24 probes.
    assert_eq!(out.probes, 12);

    let spec = WorkloadSpec { n: 12, stmts: 2, time_loop: Some(2), ..Default::default() };
    let gen = Kernel::compile(&generate(&spec, 7), CompileOptions::full()).unwrap();
    let out = gen.tune(&test_tuner()).unwrap();
    let classes = out.candidates.len() / 2;
    assert_modeled_matches_own_plan(&gen, &out.candidates);
    assert_eq!(out.probes, classes);
}

#[test]
fn a_factor_1_unroll_compiles_as_the_plain_nest_and_tunes() {
    // A factor-1 unroll annotation jams nothing: codegen compiles the nest
    // as the plain one, so the bytecode-only space covers it like any
    // other kernel, and the tuned run is the oracle's, bitwise.
    let mut kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let mut annotated = 0;
    for item in &mut kernel.compiled.node.items {
        if let NodeItem::Nest(nest) = item {
            let (unit_body, unit_regs) = match nest.unroll.take() {
                Some(u) => (u.unit_body, u.unit_regs),
                None => (nest.body.clone(), nest.regs),
            };
            nest.body = unit_body.clone();
            nest.regs = unit_regs;
            nest.unroll = Some(Unroll { dim: nest.order[0], factor: 1, unit_body, unit_regs });
            annotated += 1;
        }
    }
    assert_eq!(annotated, 1, "Problem 9 is one nest");
    let outcome = assert_tuned_matches_default(&kernel);
    assert!(outcome.best.host_ms.is_finite(), "the winner carries a finite host price");

    let path = tmp("factor1");
    let _ = std::fs::remove_file(&path);
    let run = kernel
        .plan(base_config())
        .init("U", |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin())
        .config(ExecConfig::auto())
        .tuner(test_tuner().cache_path(&path))
        .run_verified(&["T"], 0.0)
        .unwrap_or_else(|e| panic!("factor-1 kernel failed under auto: {e}"));
    let st = run.stats();
    assert_eq!(st.tune_cache_misses, 1);
    assert_eq!(st.kernels_compiled, 1, "one nest, one layout on every 4-PE grid");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn generated_workload_candidates_verify() {
    let spec = WorkloadSpec { n: 12, stmts: 2, time_loop: Some(2), ..Default::default() };
    let kernel = Kernel::compile(&generate(&spec, 7), CompileOptions::full()).unwrap();
    let outcome = kernel.tune(&test_tuner()).unwrap();
    assert_candidates_verify(&kernel, &outcome.candidates);
}

#[test]
fn fingerprints_are_stable_across_runs() {
    // Two compiles of the same source agree on the tuning seed and on the
    // resulting fingerprint; a different problem size re-keys both.
    let a = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let b = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    assert_eq!(a.tune_seed(), b.tune_seed());
    let oa = a.tune(&test_tuner()).unwrap();
    let ob = b.tune(&test_tuner()).unwrap();
    assert_eq!(oa.fingerprint, ob.fingerprint);

    let c = Kernel::compile(&presets::problem9(32), CompileOptions::full()).unwrap();
    assert_ne!(a.tune_seed(), c.tune_seed(), "problem size must re-key the cache");
    assert_ne!(oa.fingerprint, c.tune(&test_tuner()).unwrap().fingerprint);
}

#[test]
fn warm_cache_hit_skips_the_search() {
    let kernel = Kernel::compile(&presets::problem9(12), CompileOptions::full()).unwrap();
    let path = tmp("warm");
    let _ = std::fs::remove_file(&path);
    let tuner = test_tuner().cache_path(&path);

    let cold = kernel.tune(&tuner).unwrap();
    assert!(!cold.cache_hit);
    assert!(cold.probes > 0 && cold.candidates.len() == 24, "a real search ran");

    let warm = kernel.tune(&tuner).unwrap();
    assert!(warm.cache_hit, "second search must hit the cache");
    assert_eq!((warm.timed, warm.probes), (0, 0), "a cache hit builds nothing");
    assert!(warm.candidates.is_empty(), "a cache hit enumerates nothing");
    assert_eq!(warm.best.grid, cold.best.grid);
    assert_eq!(warm.best.exec_config(), cold.best.exec_config());

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupted_cache_falls_back_to_fresh_search() {
    let kernel = Kernel::compile(&presets::problem9(12), CompileOptions::full()).unwrap();
    // The last two are well-formed caches of earlier formats (v2, whose
    // entries carried a spawn threshold; v3, whose entries carried a
    // measured time): stale, never misread.
    for garbage in [
        "not json at all",
        "{\"version\":99,\"entries\":[]}",
        "{\"version\":1,\"ent",
        "{\"version\":2,\"entries\":[]}",
        "{\"version\":3,\"entries\":[]}",
    ] {
        let path = tmp("corrupt");
        std::fs::write(&path, garbage).unwrap();
        let out = kernel.tune(&test_tuner().cache_path(&path)).unwrap();
        assert!(!out.cache_hit, "corrupt cache ({garbage:?}) must not hit");
        assert!(
            out.probes > 0 && out.candidates.len() == 24,
            "corrupt cache must trigger a real search"
        );
        // The fresh result replaced the garbage with a loadable cache.
        let warm = kernel.tune(&test_tuner().cache_path(&path)).unwrap();
        assert!(warm.cache_hit, "rewritten cache must hit");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn auto_config_resolves_through_the_planner_and_counts_in_stats() {
    let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    let path = tmp("auto");
    let _ = std::fs::remove_file(&path);
    let init = |p: &[i64]| ((p[0] * 3 + p[1]) as f64 * 0.02).cos();

    // Default run for reference.
    let mut reference = kernel.plan(base_config()).init("U", init).build().unwrap();
    reference.iterate(3);

    // Cold auto run: the planner resolves ExecConfig::auto through the
    // tuner; the miss and search time land in the aggregate stats.
    let mut cold = kernel
        .plan(base_config())
        .init("U", init)
        .config(ExecConfig::auto())
        .tuner(test_tuner().cache_path(&path))
        .build()
        .unwrap();
    cold.iterate(3);
    let st = cold.stats();
    assert_eq!((st.tune_cache_hits, st.tune_cache_misses), (0, 1));
    assert!(st.tune_search_ns > 0);
    assert!(format!("{st}").contains("tune: 0 hits, 1 misses"));
    assert_eq!(reference.gather("T").unwrap(), cold.gather("T").unwrap());

    // Warm auto run: pure cache hit, same results.
    let mut warm = kernel
        .plan(base_config())
        .init("U", init)
        .config(ExecConfig::auto())
        .tuner(test_tuner().cache_path(&path))
        .build()
        .unwrap();
    warm.iterate(3);
    let st = warm.stats();
    assert_eq!((st.tune_cache_hits, st.tune_cache_misses), (1, 0));
    assert_eq!(reference.gather("T").unwrap(), warm.gather("T").unwrap());

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_lint_dirty_kernel_tunes_without_a_lint_gate() {
    // Tuning runs no lint: a halo-unsafe kernel, no longer eligible for a
    // superstep, searches every grid on both engines at depth 1, each
    // candidate priced by its own plan.
    let mut kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    assert!(kernel.drop_overlap_shift(0), "Problem 9 has shifts to drop");
    assert!(hpf_stencil::analysis::has_errors(&kernel.lint()));
    let outcome = kernel.tune(&test_tuner()).unwrap();
    assert_eq!(outcome.candidates.len(), 3 * 2);
    assert!(outcome.candidates.iter().all(|c| c.superstep == 1));
    assert_modeled_matches_own_plan(&kernel, &outcome.candidates);
}
