//! Persistent communication schedules vs per-step re-setup: a time-stepped
//! Jacobi sweep run as (a) one `Plan` built once and stepped N times —
//! schedules compiled once, every step a pack/send/unpack through pooled
//! buffers — and (b) N chained single-step `Planner::run()` calls, each
//! rebuilding the machine and recompiling the schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpf_bench::{input, plan_sweep, resetup_sweep};
use hpf_core::passes::CompileOptions;
use hpf_core::{presets, Engine, Kernel, MachineConfig};

const N: usize = 256;
const STEPS: usize = 10;

fn bench_persistent_vs_resetup(c: &mut Criterion) {
    let kernel = Kernel::compile(&presets::jacobi(N, 1), CompileOptions::full()).unwrap();
    let mut group = c.benchmark_group("persistent_jacobi_n256_10steps");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (name, engine) in [("sequential", Engine::Sequential), ("threaded", Engine::Threaded)] {
        group.bench_function(BenchmarkId::new("plan_iterate", name), |b| {
            b.iter(|| plan_sweep(&kernel, &["U"], STEPS, &[2, 2], engine));
        });
        group.bench_function(BenchmarkId::new("per_step_resetup", name), |b| {
            b.iter(|| resetup_sweep(&kernel, &["U"], STEPS, &[2, 2], engine));
        });
    }
    group.finish();
}

fn bench_step_only(c: &mut Criterion) {
    // Marginal cost of one warm step: the plan is built outside the timed
    // region, so this isolates the pack/send/unpack path the persistent
    // schedules reduce each sweep to.
    let kernel = Kernel::compile(&presets::jacobi(N, 1), CompileOptions::full()).unwrap();
    let mut group = c.benchmark_group("warm_step_jacobi_n256");
    group.sample_size(20);
    for (name, engine) in [("sequential", Engine::Sequential), ("threaded", Engine::Threaded)] {
        let mut plan = kernel
            .plan(MachineConfig::grid([2, 2]))
            .init("U", input)
            .engine(engine)
            .build()
            .unwrap();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                plan.step();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_persistent_vs_resetup, bench_step_only);
criterion_main!(benches);
