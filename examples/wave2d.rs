//! A second-order wave equation on a periodic 2-D domain: a
//! multi-statement, multi-array kernel (two time levels plus a Laplacian
//! temporary) that stresses context partitioning — the Laplacian stencil,
//! the leapfrog update, and the time-level rotation all fuse into tight
//! subgrid loops with four overlap shifts per step.
//!
//! The time loop is driven through the persistent-schedule Plan API: one
//! leapfrog step is compiled, its communication schedules are built once,
//! and `iterate(steps)` replays them with pooled buffers — warm state stays
//! resident on the machine between steps.
//!
//! ```text
//! cargo run --release --example wave2d
//! ```

use hpf_stencil::passes::Stage;
use hpf_stencil::{max_abs_diff, CompileOptions, Engine, Kernel, MachineConfig};

fn main() {
    let n = 128;
    let steps = 60;
    // A single leapfrog step; the Plan supplies the time loop.
    let source = hpf_stencil::presets::wave2d(n, 1);
    let kernel = Kernel::compile(&source, CompileOptions::full()).expect("compiles");

    println!("2-D wave equation, {n}x{n} periodic domain, {steps} leapfrog steps");
    println!(
        "per step: {} comm ops, {} fused loop nests",
        kernel.stats().comm_ops,
        kernel.stats().nests
    );

    // Gaussian pulse in the centre; both time levels start identical
    // (zero initial velocity).
    let pulse = move |p: &[i64]| {
        let mid = n as f64 / 2.0;
        let dx = p[0] as f64 - mid;
        let dy = p[1] as f64 - mid;
        (-(dx * dx + dy * dy) / 40.0).exp()
    };

    let mut plan = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", pulse)
        .init("UPREV", pulse)
        .engine(Engine::Threaded)
        .build()
        .expect("schedules compile");
    println!(
        "schedules: {} compiled at build, {} bytes ({} of them message staging)",
        plan.comm_count(),
        plan.schedule_bytes(),
        plan.pooled_bytes()
    );

    plan.iterate(steps);

    let u = plan.gather("U").expect("U is allocated");
    let stats = plan.stats();
    let peak = u.iter().cloned().fold(f64::MIN, f64::max);
    let trough = u.iter().cloned().fold(f64::MAX, f64::min);
    let mid = n / 2;
    println!("after {} steps:", plan.steps());
    println!("  centre displacement : {:+.5}", u[(mid - 1) * n + (mid - 1)]);
    println!("  field range         : [{trough:+.5}, {peak:+.5}]");
    println!("  messages            : {}", stats.total_messages());
    println!(
        "  schedule reuse      : built {} — reused {} times",
        stats.schedules_built, stats.schedule_reuses
    );
    println!("  modeled SP-2 time   : {:.2} ms", plan.modeled_ms());
    println!("  wall clock          : {:.2} ms", plan.wall().as_secs_f64() * 1e3);

    // Cross-check against the reference interpreter running the whole time
    // loop in one program.
    let full = Kernel::compile(&hpf_stencil::presets::wave2d(n, steps), CompileOptions::full())
        .expect("compiles");
    let oracle = full.oracle().init("U", pulse).init("UPREV", pulse).run();
    let want = &oracle.arrays[&full.array_id("U").unwrap()].data;
    assert_eq!(max_abs_diff(&u, want), 0.0, "plan must match the reference bit for bit");
    println!("  verified            : bitwise equal to the reference interpreter");

    // How much the staged pipeline matters for this kernel (one-sweep runs).
    println!("\nstage comparison (modeled ms, {steps}-step source):");
    let full_src = hpf_stencil::presets::wave2d(n, steps);
    for stage in Stage::all() {
        let k = Kernel::compile(&full_src, CompileOptions::upto(stage)).unwrap();
        let r = k
            .plan(MachineConfig::sp2_2x2())
            .init("U", pulse)
            .init("UPREV", pulse)
            .engine(Engine::Sequential)
            .run()
            .unwrap();
        println!("  {:<24} {:>10.2}", stage.label(), r.modeled_ms());
    }
}
