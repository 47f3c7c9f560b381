//! Quickstart: compile a 5-point stencil, run it on the simulated
//! 4-processor machine, and look at what the compiler did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hpf_stencil::{CompileOptions, Engine, ExecConfig, Kernel, MachineConfig};

fn main() {
    // The paper's Figure 1: a 5-point stencil in Fortran90 array syntax.
    let n = 64;
    let source = hpf_stencil::presets::five_point(n);
    println!("--- source ---------------------------------------------------");
    println!("{}", source.trim());

    // Compile with the full SC'97 strategy: offset arrays, context
    // partitioning, communication unioning, memory optimizations.
    let kernel = Kernel::compile(&source, CompileOptions::full()).expect("compiles");

    println!("\n--- optimized array-level IR (paper notation) ------------------");
    print!("{}", kernel.listing());

    let s = kernel.stats();
    println!("--- pipeline statistics ----------------------------------------");
    println!("shift intrinsics normalized : {}", s.normalize.shifts);
    println!("shifts -> overlap shifts    : {}", s.offset.converted);
    println!("communication operations    : {}", s.comm_ops);
    println!("fused subgrid loop nests    : {}", s.nests);
    println!("arrays allocated            : {}", s.arrays_allocated);

    // Run on a 2x2 PE grid (the paper's 4-processor SP-2), verified against
    // the sequential reference interpreter, with per-PE event tracing on.
    let cfg = ExecConfig::new().engine(Engine::Threaded).trace(true);
    let mut run = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("SRC", |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.01).sin())
        .config(cfg)
        .run_verified(&["DST"], 0.0)
        .expect("runs and matches the reference interpreter");

    let dst = run.gather("DST").unwrap();
    println!("\n--- execution ---------------------------------------------------");
    println!("DST(2,2)            = {:.6}", dst[n + (2 - 1)]);
    println!("messages            = {}", run.stats().total_messages());
    println!("intraprocessor bytes= {}", run.stats().total_intra_bytes());
    println!("modeled SP-2 time   = {:.3} ms", run.modeled_ms());
    println!("wall clock          = {:.3} ms", run.wall().as_secs_f64() * 1e3);

    // The trace records every pass, schedule build, pack, send, and drain;
    // `hpfsc --trace=FILE` exports the same data as Chrome trace JSON.
    println!("\n--- per-PE span summary (from the event trace) -----------------");
    print!("{}", run.take_trace().summary().render_table(1));
    println!("\nverified bit-for-bit against the reference interpreter ✓");
}
