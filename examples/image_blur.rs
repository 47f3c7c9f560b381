//! Image smoothing: a 9-point box blur written with `EOSHIFT` (zero
//! boundary — pixels outside the image contribute nothing), the
//! image-processing workload of the paper's introduction. Demonstrates that
//! the whole pipeline (offset arrays through unioning with RSD corners)
//! applies to end-off shifts as well as circular ones.
//!
//! ```text
//! cargo run --release --example image_blur
//! ```

use hpf_stencil::{CompileOptions, Engine, Kernel, MachineConfig};

fn main() {
    let n = 96;
    let passes = 8;
    let source = hpf_stencil::presets::image_blur(n, passes);
    let kernel = Kernel::compile(&source, CompileOptions::full()).expect("compiles");

    println!("9-point EOSHIFT box blur, {n}x{n} image, {passes} passes");
    println!(
        "communication per pass: {} overlap shifts ({} with RSD corners)",
        kernel.stats().comm_ops,
        kernel.stats().unioning.with_rsd
    );

    // Synthetic image: two bright diagonal stripes on a dark background.
    let stripes = |p: &[i64]| {
        let d = (p[0] + p[1]) % 24;
        if d < 4 {
            255.0
        } else if (p[0] - p[1]).rem_euclid(32) < 3 {
            180.0
        } else {
            16.0
        }
    };

    let run = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("IMG", stripes)
        .engine(Engine::Threaded)
        .run_verified(&["IMG"], 0.0)
        .expect("verified against the reference interpreter");

    let img = run.gather("IMG").unwrap();
    let mean = img.iter().sum::<f64>() / img.len() as f64;
    let max = img.iter().cloned().fold(f64::MIN, f64::max);
    let min = img.iter().cloned().fold(f64::MAX, f64::min);
    println!("after blurring: min {min:.1}, mean {mean:.1}, max {max:.1}");
    println!(
        "edges darken (zero boundary): corner {:.2} vs centre {:.2}",
        img[0],
        img[(n / 2) * n + n / 2]
    );
    println!("messages          : {}", run.stats().total_messages());
    println!("modeled SP-2 time : {:.2} ms", run.modeled_ms());
    println!("wall clock        : {:.2} ms", run.wall().as_secs_f64() * 1e3);
}
