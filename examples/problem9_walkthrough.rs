//! The paper's extended example (§4): Problem 9 of the Purdue Set, traced
//! through every stage of the compilation strategy — reproducing the IR of
//! Figures 12 through 15 and the staged measurements of Figure 17.
//!
//! ```text
//! cargo run --release --example problem9_walkthrough
//! ```

use hpf_stencil::passes::{CompileOptions, Stage};
use hpf_stencil::{Engine, Kernel, MachineConfig};

fn main() {
    let n = 256;
    let source = hpf_stencil::presets::problem9(n);
    println!("=== Problem 9 (paper Figure 3), N = {n} ===\n{}", source.trim());

    // Show the array-level IR after each cumulative stage — these listings
    // correspond to the paper's Figures 12 (normal form), 13 (offset
    // arrays), 14 (context partitioning) and 15 (communication unioning).
    let figures = [
        (Stage::Original, "Figure 12 — normalized intermediate form"),
        (Stage::OffsetArrays, "Figure 13 — after offset array optimization"),
        (Stage::Partition, "Figure 14 — after context partitioning"),
        (Stage::Unioning, "Figure 15 — after communication unioning"),
    ];
    for (stage, caption) in figures {
        let kernel = Kernel::compile(&source, CompileOptions::upto(stage)).unwrap();
        println!("\n=== {caption} ===");
        print!("{}", kernel.listing());
    }

    // Figure 16: the scalarized node program (communication + the single
    // fused subgrid loop nest).
    let full = Kernel::compile(&source, CompileOptions::upto(Stage::Unioning)).unwrap();
    println!("\n=== Figure 16 — after scalarization (node program) ===");
    print!("{}", hpf_stencil::passes::nodepretty::node_program(&full.compiled.node));

    // Staged execution: Figure 17.
    println!("\n=== Figure 17 — step-wise execution (2x2 PEs) ===");
    println!(
        "{:<24} {:>12} {:>10} {:>9} {:>6}",
        "stage", "modeled[ms]", "wall[ms]", "speedup", "msgs"
    );
    let mut base = None;
    for stage in Stage::all() {
        let kernel = Kernel::compile(&source, CompileOptions::upto(stage)).unwrap();
        let run = kernel
            .plan(MachineConfig::sp2_2x2())
            .init("U", |p| ((p[0] + 3 * p[1]) as f64 * 0.01).cos())
            .engine(Engine::Sequential)
            .run_verified(&["T"], 0.0)
            .expect("every stage matches the reference");
        let modeled = run.modeled_ms();
        let b = *base.get_or_insert(modeled);
        println!(
            "{:<24} {:>12.3} {:>10.3} {:>8.2}x {:>6}",
            stage.label(),
            modeled,
            run.wall().as_secs_f64() * 1e3,
            b / modeled,
            run.stats().total_messages()
        );
    }
    println!("\nevery stage verified against the reference interpreter ✓");
}
