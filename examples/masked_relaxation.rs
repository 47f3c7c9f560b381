//! Masked relaxation: solve a heat problem on an irregular domain using
//! `WHERE` — Fortran90's masked array assignment. The paper's §7 argues its
//! optimizations "benefit those computations that only slightly resemble
//! stencils"; a masked stencil is exactly that: the CM-2-style pattern
//! matcher rejects it, while this pipeline still reaches minimal
//! communication (the mask lowers to a `MERGE` select in the fused subgrid
//! loop).
//!
//! ```text
//! cargo run --release --example masked_relaxation
//! ```

use hpf_stencil::baselines::cm2;
use hpf_stencil::{CompileOptions, Engine, Kernel, MachineConfig};

fn main() {
    let n = 64;
    let sweeps = 40;
    // M marks the fluid region (an annulus); U relaxes only inside it.
    let source = format!(
        r#"
PROGRAM masked
PARAM N = {n}
REAL U(N,N), T(N,N), M(N,N)
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ DISTRIBUTE M(BLOCK,BLOCK)
DO {sweeps} TIMES
T = 0.25 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
WHERE (M > 0) U = T
ENDDO
END
"#
    );

    // The CM-2-style recognizer cannot touch this kernel…
    let checked = hpf_stencil::frontend::compile_source(&source).unwrap();
    println!(
        "CM-2-style pattern matcher: {}",
        match cm2::recognize(&checked) {
            Ok(_) => "recognized".to_string(),
            Err(e) => format!("FAILS ({e})"),
        }
    );

    // …while the normalization-based pipeline compiles it fully.
    let kernel = Kernel::compile(&source, CompileOptions::full()).expect("compiles");
    println!(
        "this pipeline: {} comm ops/sweep, {} fused nests/sweep\n",
        kernel.stats().comm_ops,
        kernel.stats().nests
    );

    let mid = n as i64 / 2;
    let annulus = move |p: &[i64]| {
        let dx = (p[0] - mid) as f64;
        let dy = (p[1] - mid) as f64;
        let r = (dx * dx + dy * dy).sqrt();
        if r > 8.0 && r < 26.0 {
            1.0
        } else {
            0.0
        }
    };
    let hot_ring = move |p: &[i64]| {
        let dx = (p[0] - mid) as f64;
        let dy = (p[1] - mid) as f64;
        let r = (dx * dx + dy * dy).sqrt();
        if (r - 17.0).abs() < 2.0 {
            100.0
        } else {
            0.0
        }
    };

    let run = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", hot_ring)
        .init("M", annulus)
        .engine(Engine::Threaded)
        .run_verified(&["U"], 0.0)
        .expect("verified against the reference interpreter");

    let u = run.gather("U").unwrap();
    let peak = u.iter().cloned().fold(f64::MIN, f64::max);
    println!("after {sweeps} sweeps: peak {peak:.2}");
    println!("outside the domain stays frozen: corner = {}", u[0]);
    println!("messages: {}", run.stats().total_messages());
    println!("modeled SP-2 time: {:.2} ms", run.modeled_ms());

    // ASCII view of the annulus temperature.
    println!("\ntemperature (16x16 downsample, '#' hot, '.' domain, ' ' wall):");
    let shades = ['.', ':', '+', '*', '#'];
    for bi in 0..16 {
        let mut line = String::new();
        for bj in 0..16 {
            let i = bi * n / 16 + n / 32;
            let j = bj * n / 16 + n / 32;
            let inside = annulus(&[(i + 1) as i64, (j + 1) as i64]) > 0.0;
            let v = u[i * n + j];
            let ch = if !inside {
                ' '
            } else {
                let s = ((v / peak.max(1e-9)) * (shades.len() - 1) as f64).round() as usize;
                shades[s.min(shades.len() - 1)]
            };
            line.push(ch);
            line.push(ch);
        }
        println!("  {line}");
    }
}
