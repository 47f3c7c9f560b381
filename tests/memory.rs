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

/// The paper's Figure 11 case again, for what `mem_budget` does not see: the
/// schedules of its twelve full shifts. Each used to hold an index list per
/// side and a buffer — three times the bytes of the temporary it fills;
/// compiled to boxes, all twelve together take a fraction of one array.
#[test]
fn full_shift_schedules_are_small_beside_the_arrays() {
    let kernel =
        Kernel::compile(&hpf_stencil::presets::nine_point_cshift(64), naive::naive_options())
            .unwrap();
    let plan = kernel.plan(MachineConfig::sp2_2x2()).init("SRC", |_| 1.0).build().unwrap();
    assert_eq!(plan.comm_count(), 12, "twelve full shifts");
    let arrays: usize = plan.stats().peak_bytes.iter().sum();
    let schedules = plan.schedule_bytes();
    assert!(schedules * 8 < arrays, "{schedules} bytes of schedule beside {arrays} of arrays");
    // One staged message at a time: a 32-element row or column.
    assert_eq!(plan.pooled_bytes(), 32 * 8);
    assert!(schedules > plan.pooled_bytes());
}

/// Problem 9 at N = 256, three steps: what the arrays occupy and
/// everything the machine counts, as the index-list schedules counted it —
/// on the paper's 2x2 grid (messages only) and on 4x1 (half the exchanges
/// are wraps within a PE).
#[test]
fn problem9_counters_are_those_of_the_index_list_schedules() {
    use hpf_stencil::runtime::PeStats;
    let kernel =
        Kernel::compile(&hpf_stencil::presets::problem9(256), CompileOptions::full()).unwrap();
    let base = PeStats {
        loads: 1179648,
        stores: 196608,
        flops: 1572864,
        iters: 98304,
        allocs: 4,
        ..PeStats::default()
    };
    let cases = [
        (
            [2, 2],
            270400,
            PeStats { msgs_sent: 48, msgs_recv: 48, bytes_sent: 49536, bytes_recv: 49536, ..base },
        ),
        (
            [4, 1],
            272448,
            PeStats {
                msgs_sent: 24,
                msgs_recv: 24,
                bytes_sent: 49152,
                bytes_recv: 49152,
                wrap_bytes: 12672,
                ..base
            },
        ),
    ];
    for (grid, peak, total) in cases {
        for engine in [Engine::Sequential, Engine::Threaded] {
            let mut plan = kernel
                .plan(MachineConfig::grid(grid))
                .init("U", |p| (p[0] * 3 + p[1]) as f64 * 0.01)
                .engine(engine)
                .backend(hpf_stencil::Backend::Bytecode)
                .build()
                .unwrap();
            plan.iterate(3);
            let st = plan.stats();
            assert_eq!(st.peak_bytes, [peak; 4], "{grid:?} {engine:?}");
            assert_eq!(st.total(), total, "{grid:?} {engine:?}");
            // One nest, one layout per dividing grid: compiled once, run by
            // 4 PEs in each of 3 steps.
            assert_eq!(
                (st.schedules_built, st.schedule_reuses, st.kernels_compiled, st.kernel_execs),
                (4, 12, 1, 12)
            );
        }
    }
}

/// A machine dropped on a thread leaves its large arrays to the next one
/// built there (`runtime::machine`'s spare list, whose unit test holds the
/// blocks to all zeros): a plan rebuilt on storage that other values and
/// another layout have been through computes what it did on fresh storage,
/// and accounts the same memory.
#[test]
fn a_rebuilt_plan_takes_the_dropped_arrays_back_zeroed() {
    // N = 768 over four PEs: subgrids of 1.1 MiB, large enough to be kept.
    let kernel =
        Kernel::compile(&hpf_stencil::presets::problem9(768), CompileOptions::full()).unwrap();
    let run = |grid: [usize; 2], scale: f64| {
        let mut plan = kernel
            .plan(MachineConfig::grid(grid))
            .init("U", move |p| (p[0] * 3 + p[1]) as f64 * scale)
            .backend(hpf_stencil::Backend::Bytecode)
            .build()
            .unwrap();
        plan.step();
        (plan.gather("T").unwrap(), plan.stats().peak_bytes)
    };
    let first = run([2, 2], 0.01);
    // Other values, another layout of the same storage, then the first again.
    run([2, 2], -7.5);
    run([4, 1], 1e300);
    let again = run([2, 2], 0.01);
    assert_eq!(first.1, again.1, "memory accounting does not see the hand-over");
    // The first run had the thread's list empty: fresh storage, the reference.
    assert!(first.0.iter().zip(&again.0).all(|(a, b)| a.to_bits() == b.to_bits()));
}
