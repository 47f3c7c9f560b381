//! Figure 11's memory behaviour: the naive single-statement translation
//! exhausts the per-PE budget through its twelve CSHIFT temporaries while
//! the multi-statement form (and, a fortiori, the optimized translation)
//! fits.

use hpf_stencil::baselines::naive;
use hpf_stencil::passes::{CompileOptions, Stage, TempPolicy};
use hpf_stencil::{CoreError, Engine, Kernel, MachineConfig, RtError};

fn budget_for(n: usize, arrays: usize) -> usize {
    let e = n / 2 + 2;
    arrays * e * e * 8
}

#[test]
fn single_statement_exhausts_budget_where_multi_fits() {
    let n = 64;
    // Budget for 6 arrays/PE: multi-statement needs 5, single needs 14.
    let budget = budget_for(n, 6);

    let single =
        Kernel::compile(&hpf_stencil::presets::nine_point_cshift(n), naive::naive_options())
            .unwrap();
    let mut cfg = MachineConfig::sp2_2x2();
    cfg.mem_budget = Some(budget);
    let err = match single.runner(cfg.clone()).init("SRC", |_| 1.0).run() {
        Err(e) => e,
        Ok(_) => panic!("expected memory exhaustion"),
    };
    assert!(matches!(err, CoreError::Runtime(RtError::MemoryExhausted { .. })));

    let mut multi_opts = naive::naive_options();
    multi_opts.temp_policy = TempPolicy::Reuse;
    let multi = Kernel::compile(&hpf_stencil::presets::problem9(n), multi_opts).unwrap();
    multi
        .runner(cfg.clone())
        .init("U", |_| 1.0)
        .run()
        .expect("multi-statement form fits the budget");

    // The optimized translation fits in an even smaller budget (U and T).
    let ours = Kernel::compile(&hpf_stencil::presets::problem9(n), CompileOptions::full()).unwrap();
    let mut tight = MachineConfig::sp2_2x2();
    tight.mem_budget = Some(budget_for(n, 3));
    ours.runner(tight)
        .init("U", |_| 1.0)
        .engine(Engine::Threaded)
        .run()
        .expect("offset arrays eliminate the temporaries");
}

#[test]
fn fresh_temporaries_exhaust_a_budget_the_optimized_kernel_fits() {
    let src = hpf_stencil::presets::problem9(8);
    // FreshPerShift at the original stage: 6 temps + 4 user arrays = 10
    // arrays of 8x8. Over 2x2 with halo 1 each is 36 elems = 288 B per PE.
    let mut opts = CompileOptions::upto(Stage::Original);
    opts.temp_policy = TempPolicy::FreshPerShift;
    let fresh = Kernel::compile(&src, opts).unwrap();
    let cfg = MachineConfig::sp2_2x2().budget(5 * 288);
    let err = fresh.plan(cfg.clone()).init("U", |_| 1.0).build().err();
    assert!(matches!(err, Some(CoreError::Runtime(RtError::MemoryExhausted { .. }))), "{err:?}");
    // The optimized version allocates only U and T: fits, and steps.
    let ours = Kernel::compile(&src, CompileOptions::full()).unwrap();
    ours.plan(cfg).init("U", |_| 1.0).build().expect("two arrays fit").step();
}

#[test]
fn peak_memory_ordering_across_translations() {
    let n = 32;
    let run = |kernel: &Kernel, input: &str| {
        kernel
            .runner(MachineConfig::sp2_2x2())
            .init(input, |_| 1.0)
            .run()
            .unwrap()
            .stats()
            .max_peak_bytes()
    };
    let single =
        Kernel::compile(&hpf_stencil::presets::nine_point_cshift(n), naive::naive_options())
            .unwrap();
    let mut multi_opts = naive::naive_options();
    multi_opts.temp_policy = TempPolicy::Reuse;
    let multi = Kernel::compile(&hpf_stencil::presets::problem9(n), multi_opts).unwrap();
    let ours = Kernel::compile(&hpf_stencil::presets::problem9(n), CompileOptions::full()).unwrap();

    let p_single = run(&single, "SRC");
    let p_multi = run(&multi, "U");
    let p_ours = run(&ours, "U");
    assert!(p_single > p_multi, "{p_single} vs {p_multi}");
    assert!(p_multi > p_ours, "{p_multi} vs {p_ours}");
    // Ratios roughly 14 : 5 : 2 arrays.
    assert!(p_single as f64 / p_ours as f64 > 5.0);
}

#[test]
fn allocation_failure_is_all_or_nothing() {
    let n = 64;
    let kernel =
        Kernel::compile(&hpf_stencil::presets::nine_point_cshift(n), naive::naive_options())
            .unwrap();
    let mut cfg = MachineConfig::sp2_2x2();
    cfg.mem_budget = Some(budget_for(n, 6));
    let mut machine = hpf_stencil::Machine::new(cfg);
    let src = kernel.array_id("SRC").unwrap();
    machine.alloc(src, kernel.checked.symbols.array(src)).unwrap();
    let before = machine.pes[0].cur_bytes;
    let err = hpf_stencil::exec::allocate(&mut machine, &kernel.compiled.node).unwrap_err();
    assert!(matches!(err, RtError::MemoryExhausted { .. }));
    // Whatever was allocated stayed consistent: no PE over budget.
    for pe in &machine.pes {
        assert!(pe.cur_bytes <= budget_for(n, 6));
    }
    assert!(machine.pes[0].cur_bytes >= before);
}
