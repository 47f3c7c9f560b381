//! Heat diffusion: an iterated Jacobi relaxation — the PDE workload the
//! paper's introduction motivates. A hot square diffuses over a plate.
//!
//! This example drives the time loop through the *persistent-schedule* Plan
//! API: the kernel is compiled as a single sweep, the communication
//! schedules are compiled once at `build()`, and every call to `step()` is
//! just box-to-box copies and staged messages plus the fused subgrid
//! loops — no per-step machine setup, allocation, or subgrid math.
//!
//! ```text
//! cargo run --release --example heat_equation
//! ```

use hpf_stencil::{max_abs_diff, CompileOptions, Engine, Kernel, MachineConfig};

fn main() {
    let n = 128;
    let steps = 50;
    // One Jacobi sweep; the time loop lives in the Plan, not the source.
    let source = hpf_stencil::presets::jacobi(n, 1);
    let kernel = Kernel::compile(&source, CompileOptions::full()).expect("compiles");

    println!("Jacobi heat diffusion, {n}x{n} plate, {steps} sweeps, 2x2 PEs");
    println!("communication per sweep: {} overlap shifts", kernel.stats().comm_ops);

    // Hot square in the middle of the plate.
    let hot = move |p: &[i64]| {
        let mid = n as i64 / 2;
        if (p[0] - mid).abs() < n as i64 / 8 && (p[1] - mid).abs() < n as i64 / 8 {
            100.0
        } else {
            0.0
        }
    };

    let mut plan = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", hot)
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
    let total: f64 = u.iter().sum();
    let peak = u.iter().cloned().fold(f64::MIN, f64::max);
    let mid = n / 2;
    println!("after {} sweeps:", plan.steps());
    println!("  centre temperature : {:.4}", u[(mid - 1) * n + (mid - 1)]);
    println!("  peak temperature   : {peak:.4}");
    println!("  total heat         : {total:.2} (conserved by the circular boundary)");
    println!("  messages           : {}", stats.total_messages());
    println!(
        "  schedule reuse     : built {} — reused {} times",
        stats.schedules_built, stats.schedule_reuses
    );
    println!("  modeled SP-2 time  : {:.2} ms", plan.modeled_ms());
    println!("  wall clock         : {:.2} ms", plan.wall().as_secs_f64() * 1e3);

    // Cross-check the stepped plan against the reference interpreter
    // running the whole time loop in one program.
    let full = Kernel::compile(&hpf_stencil::presets::jacobi(n, steps), CompileOptions::full())
        .expect("compiles");
    let oracle = full.oracle().init("U", hot).run();
    let want = &oracle.arrays[&full.array_id("U").unwrap()].data;
    let diff = max_abs_diff(&u, want);
    assert_eq!(diff, 0.0, "plan must match the reference bit for bit");
    println!("  verified           : bitwise equal to the reference interpreter");

    // A coarse ASCII rendering of the temperature field.
    println!("\ntemperature field (16x16 downsample):");
    let shades = [' ', '.', ':', '+', '*', '#'];
    for bi in 0..16 {
        let mut line = String::new();
        for bj in 0..16 {
            let i = bi * n / 16 + n / 32;
            let j = bj * n / 16 + n / 32;
            let v = u[i * n + j];
            let shade = ((v / peak) * (shades.len() - 1) as f64).round() as usize;
            line.push(shades[shade.min(shades.len() - 1)]);
            line.push(shades[shade.min(shades.len() - 1)]);
        }
        println!("  {line}");
    }
}
