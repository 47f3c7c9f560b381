//! The paper's experiments, each regenerating one table or figure.

use crate::table::{ms, Table};
use hpf_core::baselines::{cm2, hand_mpi, naive};
use hpf_core::frontend::compile_source;
use hpf_core::passes::{compile, CompileOptions, Stage, TempPolicy};
use hpf_core::{presets, CoreError, Engine, Kernel, MachineConfig};

/// Deterministic input field used by every experiment.
pub fn input(p: &[i64]) -> f64 {
    let x = p[0] as f64;
    let y = p.get(1).copied().unwrap_or(1) as f64;
    (0.013 * x + 0.007 * y).sin() + 0.25 * (0.003 * x * y).cos()
}

/// Measurements of one run.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Modeled SP-2 time (cost model), milliseconds.
    pub modeled_ms: f64,
    /// Wall-clock of the simulated execution, milliseconds.
    pub wall_ms: f64,
    /// Total messages.
    pub msgs: u64,
    /// Intraprocessor copy bytes (what offset arrays eliminate).
    pub intra_bytes: u64,
    /// Subgrid-loop loads.
    pub loads: u64,
    /// Peak memory per PE, bytes.
    pub peak_bytes: usize,
}

/// Compile `src` with `opts` and run it, returning measurements.
pub fn measure(
    src: &str,
    opts: CompileOptions,
    grid: &[usize],
    budget: Option<usize>,
    engine: Engine,
) -> Result<Measured, CoreError> {
    let kernel = Kernel::compile(src, opts)?;
    let mut cfg = MachineConfig::with_grid(grid.to_vec()).halo(opts.halo);
    cfg.mem_budget = budget;
    let input_name = ["U", "SRC", "IMG"]
        .iter()
        .find(|n| kernel.checked.symbols.lookup_array(n).is_some())
        .expect("preset has a known input array");
    let run = kernel.plan(cfg).init(input_name, input).engine(engine).run()?;
    let stats = run.stats();
    let total = stats.total();
    Ok(Measured {
        modeled_ms: run.modeled_ms(),
        wall_ms: run.wall().as_secs_f64() * 1e3,
        msgs: stats.total_messages(),
        intra_bytes: stats.total_intra_bytes(),
        loads: total.loads,
        peak_bytes: stats.max_peak_bytes(),
    })
}

/// Per-PE subgrid bytes of one N×N array on a 2×2 grid with halo 1.
pub fn subgrid_bytes(n: usize) -> usize {
    let e = n.div_ceil(2) + 2;
    e * e * 8
}

/// **Figure 11**: execution time of the single-statement CSHIFT 9-point
/// stencil vs the multi-statement Problem 9 form under the naive
/// (xlhpf-class) translation, across problem sizes, with a per-PE memory
/// budget standing in for the SP-2's 256 MB/PE. The single-statement form's
/// twelve shift temporaries exhaust memory at the large sizes.
pub fn fig11(sizes: &[usize], engine: Engine) -> Table {
    let max = *sizes.iter().max().unwrap();
    // Budget: comfortably fits the multi-statement form (5 arrays) at the
    // largest size but not the single-statement form (14 arrays).
    let budget = 6 * subgrid_bytes(max);
    let mut t = Table::new(
        "Figure 11 — naive (xlhpf-class) compilation of two 9-point specifications",
        &[
            "N",
            "single-stmt CSHIFT [ms]",
            "multi-stmt Problem 9 [ms]",
            "single peak MB/PE",
            "multi peak MB/PE",
        ],
    );
    t.note(format!(
        "per-PE memory budget {:.1} MB (stands in for the SP-2's 256 MB/PE)",
        budget as f64 / 1e6
    ));
    for &n in sizes {
        let single = measure(
            &presets::nine_point_cshift(n),
            naive::naive_options(),
            &[2, 2],
            Some(budget),
            engine,
        );
        let multi = {
            let mut o = naive::naive_options();
            o.temp_policy = TempPolicy::Reuse; // statement-scoped temp reuse
            measure(&presets::problem9(n), o, &[2, 2], Some(budget), engine)
        };
        let cell = |m: &Result<Measured, CoreError>, f: fn(&Measured) -> String| match m {
            Ok(m) => f(m),
            Err(CoreError::Runtime(hpf_core::RtError::MemoryExhausted { .. })) => "OOM".to_string(),
            Err(e) => format!("err: {e}"),
        };
        t.row(vec![
            n.to_string(),
            cell(&single, |m| ms(m.modeled_ms)),
            cell(&multi, |m| ms(m.modeled_ms)),
            cell(&single, |m| format!("{:.2}", m.peak_bytes as f64 / 1e6)),
            cell(&multi, |m| format!("{:.2}", m.peak_bytes as f64 / 1e6)),
        ]);
    }
    t
}

/// **Figure 17**: step-wise results of the compilation strategy on
/// Problem 9 — original Fortran77+MPI translation, then cumulatively offset
/// arrays, context partitioning, communication unioning, memory
/// optimizations. Also the headline comparison against the naive HPF
/// translation (the paper's 52×).
pub fn fig17(n: usize, engine: Engine) -> Table {
    let src = presets::problem9(n);
    let mut t = Table::new(
        format!("Figure 17 — step-wise optimization of Problem 9 (N={n}, 2x2 PEs)"),
        &["stage", "modeled [ms]", "wall [ms]", "speedup", "msgs", "intra MB", "loads/pt"],
    );
    let mut first_modeled = None;
    let mut last_modeled = 0.0;
    let points = (n * n) as f64;
    for stage in Stage::all() {
        let m = measure(&src, CompileOptions::upto(stage), &[2, 2], None, engine).unwrap();
        let base = *first_modeled.get_or_insert(m.modeled_ms);
        last_modeled = m.modeled_ms;
        t.row(vec![
            stage.label().to_string(),
            ms(m.modeled_ms),
            ms(m.wall_ms),
            format!("{:.2}x", base / m.modeled_ms),
            m.msgs.to_string(),
            format!("{:.2}", m.intra_bytes as f64 / 1e6),
            format!("{:.1}", m.loads as f64 / points),
        ]);
    }
    // The 52x-style comparison: naive HPF translation of the
    // single-statement stencil vs our fully optimized Problem 9.
    let naive_hpf =
        measure(&presets::nine_point_cshift(n), naive::naive_options(), &[2, 2], None, engine)
            .unwrap();
    t.note(format!(
        "naive HPF (xlhpf-class) single-statement stencil: {} ms modeled -> {:.1}x slower than the full strategy (paper reports 52x)",
        ms(naive_hpf.modeled_ms),
        naive_hpf.modeled_ms / last_modeled
    ));
    t
}

/// **Figure 18**: the three specifications of the 9-point stencil under an
/// xlhpf-class compiler, against the paper's strategy. Array syntax is
/// modeled as xlhpf's scalarization-based path (no CSHIFT temporaries, no
/// unioning or memory optimization), which the paper observed tracked their
/// best code within ~10%.
pub fn fig18(sizes: &[usize], engine: Engine) -> Table {
    let mut t = Table::new(
        "Figure 18 — three 9-point specifications (modeled ms)",
        &[
            "N",
            "xlhpf cshift-1stmt",
            "xlhpf multi-stmt",
            "xlhpf array-syntax",
            "this paper (any spec)",
        ],
    );
    for &n in sizes {
        let single =
            measure(&presets::nine_point_cshift(n), naive::naive_options(), &[2, 2], None, engine)
                .unwrap();
        let multi = {
            let mut o = naive::naive_options();
            o.temp_policy = TempPolicy::Reuse;
            measure(&presets::problem9(n), o, &[2, 2], None, engine).unwrap()
        };
        let arr = measure(
            &presets::nine_point_array(n),
            CompileOptions::upto(Stage::Unioning),
            &[2, 2],
            None,
            engine,
        )
        .unwrap();
        let ours =
            measure(&presets::problem9(n), CompileOptions::full(), &[2, 2], None, engine).unwrap();
        t.row(vec![
            n.to_string(),
            ms(single.modeled_ms),
            ms(multi.modeled_ms),
            ms(arr.modeled_ms),
            ms(ours.modeled_ms),
        ]);
    }
    t.note("array-syntax under xlhpf modeled as direct scalarization with minimal overlap communication but no loop-level memory optimization (paper §6, MasPar-style); the remaining gap to 'this paper' is the memory-optimization stage, ~10% at the largest size in the paper");
    t
}

/// **Figures 6/15 (in-text)**: communication operations before and after
/// the pipeline for the three 9-point specifications — 12 CSHIFTs reduce to
/// 4 OVERLAP_SHIFTs regardless of specification.
pub fn comm_count() -> Table {
    let mut t = Table::new(
        "Communication counts — 9-point stencil, all three specifications",
        &["specification", "shift intrinsics", "after unioning", "with RSD"],
    );
    let specs: [(&str, String); 3] = [
        ("single-statement CSHIFT", presets::nine_point_cshift(64)),
        ("array syntax", presets::nine_point_array(64)),
        ("multi-statement Problem 9", presets::problem9(64)),
    ];
    for (name, src) in specs {
        let c = compile(&compile_source(&src).unwrap(), CompileOptions::full());
        t.row(vec![
            name.to_string(),
            c.stats.normalize.shifts.to_string(),
            c.stats.comm_ops.to_string(),
            c.stats.unioning.with_rsd.to_string(),
        ]);
    }
    t.note("paper: 12 CSHIFTs -> 4 OVERLAP_SHIFTs, 2 carrying RSDs (Figure 6/15)");
    t
}

/// **§4 (in-text)**: temporary-array storage across translations — 12
/// temporaries for the naive single-statement stencil, 3 for Problem 9, 0
/// after the offset-array optimization.
pub fn temp_storage() -> Table {
    let mut t = Table::new(
        "Temporary-array storage (9-point stencil, N arbitrary)",
        &["translation", "temp arrays", "arrays allocated"],
    );
    let single =
        compile(&compile_source(&presets::nine_point_cshift(64)).unwrap(), naive::naive_options());
    t.row(vec![
        "naive, single-statement CSHIFT".into(),
        single.stats.normalize.temps.to_string(),
        single.stats.arrays_allocated.to_string(),
    ]);
    let multi =
        compile(&compile_source(&presets::problem9(64)).unwrap(), hand_mpi::hand_mpi_options());
    // Problem 9's RIP and RIN are user temporaries: count them in.
    t.row(vec![
        "Problem 9 (RIP, RIN + shared TMP)".into(),
        (multi.stats.normalize.temps + 2).to_string(),
        multi.stats.arrays_allocated.to_string(),
    ]);
    let ours = compile(&compile_source(&presets::problem9(64)).unwrap(), CompileOptions::full());
    t.row(vec![
        "this paper (offset arrays)".into(),
        (ours.stats.arrays_allocated.saturating_sub(2)).to_string(),
        ours.stats.arrays_allocated.to_string(),
    ]);
    t.note("paper §4: 12 -> 3 -> 0 temporary arrays; only U and T remain allocated");
    t
}

/// **§6 robustness**: what the CM-2-style pattern matcher accepts vs what
/// the normalization-based strategy compiles, across stencil variations.
pub fn robustness() -> Table {
    let mut t = Table::new(
        "Robustness — pattern matching (CM-2 style) vs normalization (this paper)",
        &["kernel", "CM-2 recognizer", "this paper: msgs", "nests"],
    );
    let perturbed = r#"
PARAM N = 64
REAL S(N,N), D(N,N)
REAL C1 = 0.3
D = (C1 + 0.1) * CSHIFT(S,1,1) + S - CSHIFT(S,-1,2)
"#;
    let kernels: [(&str, String); 5] = [
        ("9-pt single-stmt CSHIFT", presets::nine_point_cshift(64)),
        ("9-pt array syntax", presets::nine_point_array(64)),
        ("Problem 9 (multi-stmt)", presets::problem9(64)),
        ("perturbed sum-of-products", perturbed.to_string()),
        ("Jacobi time loop", presets::jacobi(64, 4)),
    ];
    for (name, src) in kernels {
        let checked = compile_source(&src).unwrap();
        let rec = match cm2::recognize(&checked) {
            Ok(p) => format!("ok ({} taps)", p.taps.len()),
            Err(e) => format!("FAILS: {e}"),
        };
        let ours = compile(&checked, CompileOptions::full());
        t.row(vec![
            name.to_string(),
            rec,
            ours.stats.comm_ops.to_string(),
            ours.stats.nests.to_string(),
        ]);
    }
    t
}

/// Ablation of the memory optimizations (§3.4) and of communication
/// unioning, on Problem 9.
pub fn ablation(n: usize, engine: Engine) -> Table {
    let src = presets::problem9(n);
    let mut t = Table::new(
        format!("Ablation — individual optimizations on Problem 9 (N={n})"),
        &["variant", "modeled [ms]", "wall [ms]", "msgs", "loads/pt"],
    );
    let points = (n * n) as f64;
    let mut add = |name: &str, opts: CompileOptions| {
        let m = measure(&src, opts, &[2, 2], None, engine).unwrap();
        t.row(vec![
            name.to_string(),
            ms(m.modeled_ms),
            ms(m.wall_ms),
            m.msgs.to_string(),
            format!("{:.1}", m.loads as f64 / points),
        ]);
    };
    let base = CompileOptions::upto(Stage::Unioning);
    add("no memory opts", base);
    add("+ scalar replacement", CompileOptions { scalar_replacement: true, ..base });
    add(
        "+ unroll-and-jam x2",
        CompileOptions { scalar_replacement: true, unroll_factor: 2, ..base },
    );
    add(
        "+ unroll-and-jam x4",
        CompileOptions { scalar_replacement: true, unroll_factor: 4, ..base },
    );
    add(
        "naive Fortran loop order (no permutation)",
        CompileOptions { fortran_order: true, permute: false, scalar_replacement: true, ..base },
    );
    add(
        "naive order + permutation",
        CompileOptions { fortran_order: true, permute: true, scalar_replacement: true, ..base },
    );
    add("full, but unioning off", CompileOptions { unioning: false, ..CompileOptions::full() });
    add("full", CompileOptions::full());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_single_statement_ooms_at_large_sizes() {
        let t = fig11(&[32, 256], Engine::Sequential);
        assert_eq!(t.rows.len(), 2);
        // Small size: both run.
        assert_ne!(t.rows[0][1], "OOM");
        assert_ne!(t.rows[0][2], "OOM");
        // Large size: single-statement OOMs, multi survives.
        assert_eq!(t.rows[1][1], "OOM");
        assert_ne!(t.rows[1][2], "OOM");
    }

    #[test]
    fn fig17_every_stage_improves() {
        let t = fig17(64, Engine::Sequential);
        let modeled: Vec<f64> = t.rows.iter().map(|r| r[1].parse::<f64>().unwrap()).collect();
        assert_eq!(modeled.len(), 5);
        for w in modeled.windows(2) {
            assert!(w[1] < w[0], "each stage must reduce modeled time: {modeled:?}");
        }
        // Headline factor: the naive translation is much slower.
        assert!(t.notes[0].contains("x slower"));
    }

    #[test]
    fn fig18_shape_matches_paper() {
        let t = fig18(&[128], Engine::Sequential);
        let row = &t.rows[0];
        let single: f64 = row[1].parse().unwrap();
        let multi: f64 = row[2].parse().unwrap();
        let arr: f64 = row[3].parse().unwrap();
        let ours: f64 = row[4].parse().unwrap();
        // CSHIFT forms are far slower than array syntax; array syntax is
        // within ~25% of our best (paper: ~10% at the largest size).
        assert!(single > 2.0 * arr, "single {single} vs arr {arr}");
        assert!(multi > 1.5 * arr, "multi {multi} vs arr {arr}");
        assert!(arr >= ours, "arr {arr} vs ours {ours}");
        assert!(arr <= 1.6 * ours, "arr {arr} vs ours {ours}");
    }

    #[test]
    fn comm_count_matches_figure_15() {
        let t = comm_count();
        for row in &t.rows {
            assert_eq!(row[2], "4", "{row:?}");
            assert_eq!(row[3], "2", "{row:?}");
        }
        // Shift intrinsic counts differ per specification (12 / 8 / 8).
        assert_eq!(t.rows[0][1], "12");
    }

    #[test]
    fn temp_storage_matches_section_4() {
        let t = temp_storage();
        assert_eq!(t.rows[0][1], "12");
        assert_eq!(t.rows[1][1], "3");
        assert_eq!(t.rows[2][1], "0");
    }

    #[test]
    fn robustness_cm2_fails_except_canonical() {
        let t = robustness();
        assert!(t.rows[0][1].starts_with("ok"));
        for row in &t.rows[1..] {
            assert!(row[1].starts_with("FAILS"), "{row:?}");
        }
        // Our pipeline compiles them all to minimal messages.
        assert_eq!(t.rows[0][2], "4");
        assert_eq!(t.rows[2][2], "4");
    }

    #[test]
    fn ablation_unioning_and_memopts_help() {
        let t = ablation(64, Engine::Sequential);
        let get = |i: usize| t.rows[i][1].parse::<f64>().unwrap();
        let no_memopt = get(0);
        let sr = get(1);
        let uaj2 = get(2);
        let full = get(t.rows.len() - 1);
        assert!(sr < no_memopt);
        assert!(uaj2 <= sr);
        assert!(full <= uaj2 * 1.01);
        // Permutation: naive order is worse than permuted.
        let naive_order = t.rows[4][1].parse::<f64>().unwrap();
        let permuted = t.rows[5][1].parse::<f64>().unwrap();
        assert!(naive_order > permuted);
        // Unioning halves the message count (8 vs 4 ops x 4 PEs).
        let no_union: u64 = t.rows[6][3].parse().unwrap();
        let with_union: u64 = t.rows[7][3].parse().unwrap();
        assert_eq!(no_union, 32);
        assert_eq!(with_union, 16);
    }

    #[test]
    fn threaded_engine_measures_too() {
        let m = measure(
            &presets::problem9(32),
            CompileOptions::full(),
            &[2, 2],
            None,
            Engine::Threaded,
        )
        .unwrap();
        assert_eq!(m.msgs, 16);
    }
}
