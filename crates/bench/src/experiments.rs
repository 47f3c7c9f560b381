//! The paper's experiments, each regenerating one table or figure.

use crate::table::{ms, Table};
use hpf_core::baselines::{cm2, hand_mpi, naive};
use hpf_core::frontend::compile_source;
use hpf_core::passes::{compile, CompileOptions, Stage, TempPolicy};
use hpf_core::{presets, Backend, CoreError, Engine, Kernel, MachineConfig};

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
    /// Interprocessor bytes.
    pub comm_bytes: u64,
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
    let run = kernel.runner(cfg).init(input_name, input).engine(engine).run()?;
    let stats = run.stats();
    let total = stats.total();
    Ok(Measured {
        modeled_ms: run.modeled_ms(),
        wall_ms: run.wall.as_secs_f64() * 1e3,
        msgs: stats.total_messages(),
        comm_bytes: stats.total_comm_bytes(),
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

/// Wall-clock and modeled time of `steps` chained single-step
/// [`Planner::run`] calls: every sweep rebuilds the machine, re-allocates temporaries, recompiles
/// the communication schedules, and carries the state arrays forward by
/// gather + re-init. This is the per-step re-setup baseline the persistent
/// [`Plan`] API eliminates.
///
/// [`Planner::run`]: hpf_core::Planner::run
/// [`Plan`]: hpf_core::Plan
pub fn resetup_sweep(
    kernel: &Kernel,
    state: &[&str],
    steps: usize,
    grid: &[usize],
    engine: Engine,
) -> (f64, f64) {
    let n = extent(kernel, state[0]);
    let mut fields: Vec<Vec<f64>> = state
        .iter()
        .map(|_| {
            let mut v = vec![0.0; n * n];
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = input(&[(i / n + 1) as i64, (i % n + 1) as i64]);
            }
            v
        })
        .collect();
    let t0 = std::time::Instant::now();
    let mut modeled = 0.0;
    for _ in 0..steps {
        let mut r = kernel.runner(MachineConfig::grid(grid.to_vec()));
        for (name, field) in state.iter().zip(&fields) {
            let f = field.clone();
            r = r.init(name, move |p| f[(p[0] - 1) as usize * n + (p[1] - 1) as usize]);
        }
        let run = r.engine(engine).run().unwrap();
        modeled += run.modeled_ms();
        for (name, field) in state.iter().zip(fields.iter_mut()) {
            *field = run.gather(kernel, name);
        }
    }
    (t0.elapsed().as_secs_f64() * 1e3, modeled)
}

/// Wall-clock, modeled time, and schedule counters of one [`Plan`] built
/// once and stepped `steps` times — the persistent-schedule path.
///
/// [`Plan`]: hpf_core::Plan
pub fn plan_sweep(
    kernel: &Kernel,
    state: &[&str],
    steps: usize,
    grid: &[usize],
    engine: Engine,
) -> (f64, f64, u64, u64) {
    let t0 = std::time::Instant::now();
    let mut planner = kernel.plan(MachineConfig::grid(grid.to_vec()));
    for name in state {
        planner = planner.init(name, input);
    }
    let mut plan = planner.engine(engine).build().unwrap();
    plan.iterate(steps);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let st = plan.stats();
    (wall, plan.modeled_ms(), st.schedules_built, st.schedule_reuses)
}

fn extent(kernel: &Kernel, name: &str) -> usize {
    let id = kernel.array_id(name).unwrap();
    kernel.checked.symbols.array(id).shape.extent(0)
}

/// **Persistent schedules**: time-stepped sweeps under per-step re-setup
/// (chained single-step `Planner::run` calls) vs a persistent `Plan` whose
/// communication schedules are compiled once and reused every step, across
/// PE grids, on heat-equation (Jacobi) and wave-equation kernels.
pub fn persistent(n: usize, steps: usize, engine: Engine) -> Table {
    let mut t = Table::new(
        format!("Persistent schedules — per-step re-setup vs Plan::iterate (N={n}, {steps} steps)"),
        &[
            "kernel",
            "grid",
            "re-setup wall [ms]",
            "plan wall [ms]",
            "re-setup modeled [ms]",
            "plan modeled [ms]",
            "built",
            "reused",
        ],
    );
    let jacobi = Kernel::compile(&presets::jacobi(n, 1), CompileOptions::full()).unwrap();
    let wave = Kernel::compile(&presets::wave2d(n, 1), CompileOptions::full()).unwrap();
    let cases: [(&str, &Kernel, &[&str]); 2] =
        [("jacobi (heat)", &jacobi, &["U"]), ("wave2d", &wave, &["U", "UPREV"])];
    for (name, kernel, state) in cases {
        for grid in [&[1usize, 1][..], &[2, 2], &[2, 4]] {
            let (rw, rm) = resetup_sweep(kernel, state, steps, grid, engine);
            let (pw, pm, built, reuses) = plan_sweep(kernel, state, steps, grid, engine);
            t.row(vec![
                name.to_string(),
                format!("{}x{}", grid[0], grid[1]),
                ms(rw),
                ms(pw),
                ms(rm),
                ms(pm),
                built.to_string(),
                reuses.to_string(),
            ]);
        }
    }
    t.note("plan: schedules compiled once at build, then every step is pack/send/unpack through pooled buffers (reused = steps x built); re-setup: every sweep rebuilds the machine, recompiles the schedules, and carries state by gather + re-init");
    t
}

/// Wall-clock, final state, and kernel counters of one plan built with the
/// given nest backend and stepped `steps` times (build time included — the
/// bytecode backend pays its one-time nest compilation inside the measured
/// window).
pub fn backend_sweep(
    kernel: &Kernel,
    out: &str,
    steps: usize,
    grid: &[usize],
    engine: Engine,
    backend: Backend,
) -> (f64, Vec<f64>, u64, u64) {
    let t0 = std::time::Instant::now();
    let mut plan = kernel
        .plan(MachineConfig::grid(grid.to_vec()))
        .init("U", input)
        .engine(engine)
        .backend(backend)
        .build()
        .unwrap();
    plan.iterate(steps);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let st = plan.stats();
    (wall, plan.gather(out).unwrap(), st.kernels_compiled, st.kernel_execs)
}

/// **Compiled kernels**: the tree interpreter vs the bytecode codegen
/// backend on Problem 9 (time-stepped via a plan so nest compilation is
/// paid once), on both engines, across problem sizes. Every comparison also
/// checks the two backends' final states bitwise.
pub fn codegen(sizes: &[usize], steps: usize) -> Table {
    let mut t = Table::new(
        format!("Compiled kernels — interpreter vs bytecode backend, Problem 9 ({steps} steps, 2x2 PEs)"),
        &["N", "engine", "interp wall [ms]", "bytecode wall [ms]", "speedup", "kernels", "execs"],
    );
    let grid = [2usize, 2];
    for &n in sizes {
        let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
        for engine in [Engine::Sequential, Engine::Threaded] {
            let (iw, iu, _, _) = backend_sweep(&kernel, "T", steps, &grid, engine, Backend::Interp);
            let (bw, bu, kernels, execs) =
                backend_sweep(&kernel, "T", steps, &grid, engine, Backend::Bytecode);
            assert_eq!(iu, bu, "backends diverged at N={n} on {engine:?}");
            t.row(vec![
                n.to_string(),
                engine.label().to_string(),
                ms(iw),
                ms(bw),
                format!("{:.2}x", iw / bw),
                kernels.to_string(),
                execs.to_string(),
            ]);
        }
    }
    t.note("bytecode: offsets/coefficients folded at nest-compile time, interior rows run branch-free with a hoisted bounds proof; both backends verified bitwise-identical per row above");
    t
}

/// Stepping wall-clock, final state, overlap counters, and modeled time of
/// one plan built with the bytecode backend and stepped `steps` times under
/// the given engine. The wall clock covers only `iterate(steps)`, the first
/// of which starts the plan's worker threads — plan compilation is
/// identical for both engines and excluded.
pub fn overlap_sweep(
    kernel: &Kernel,
    out: &str,
    steps: usize,
    grid: &[usize],
    engine: Engine,
) -> (f64, Vec<f64>, hpf_core::AggStats, f64) {
    let mut plan = kernel
        .plan(MachineConfig::grid(grid.to_vec()))
        .init("U", input)
        .engine(engine)
        .backend(Backend::Bytecode)
        .build()
        .unwrap();
    let t0 = std::time::Instant::now();
    plan.iterate(steps);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    let stats = plan.stats();
    let modeled = plan.modeled_ms();
    (wall, plan.gather(out).unwrap(), stats, modeled)
}

/// **Split-phase overlap**: blocking threaded execution vs the
/// threaded-overlap engine on Problem 9 (bytecode backend, time-stepped via
/// a plan), across problem sizes. The overlap engine posts all sends,
/// computes the interior sub-rectangle while messages are in flight, then
/// drains the receives and finishes the boundary strips. Both engines do
/// identical computation and communication (counters are bitwise equal);
/// what split-phase buys is the receive latency hidden behind the interior
/// sweep, which the modeled columns expose via the per-window
/// `min(recv_ns, interior_ns)` credit (`AggStats::hidden_comm_ns`) and the
/// wall columns can only show when PEs run on real parallel hardware. Wall
/// times are the best of `OVERLAP_REPS` alternating runs per engine (the
/// simulator timeslices its PE threads, so single runs are noisy). Every
/// row also checks the two engines' final states bitwise.
pub fn overlap(sizes: &[usize], steps: usize) -> Table {
    const OVERLAP_REPS: usize = 5;
    let mut t = Table::new(
        format!(
            "Split-phase overlap — blocking threaded vs threaded-overlap, Problem 9 ({steps} steps, 2x2 PEs)"
        ),
        &[
            "N",
            "blocking wall [ms]",
            "overlap wall [ms]",
            "wall speedup",
            "blocking modeled [ms]",
            "overlap modeled [ms]",
            "modeled speedup",
            "ovl steps",
            "interior cells",
            "boundary cells",
        ],
    );
    let grid = [2usize, 2];
    for &n in sizes {
        let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
        let (mut bw, mut ow) = (f64::INFINITY, f64::INFINITY);
        let (mut bm, mut om) = (0.0, 0.0);
        let mut st = hpf_core::AggStats::default();
        for _ in 0..OVERLAP_REPS {
            let (w, bu, _, m) = overlap_sweep(&kernel, "T", steps, &grid, Engine::Threaded);
            bw = bw.min(w);
            bm = m;
            let (w, ou, s, m) = overlap_sweep(&kernel, "T", steps, &grid, Engine::ThreadedOverlap);
            ow = ow.min(w);
            om = m;
            st = s;
            assert_eq!(bu, ou, "engines diverged at N={n}");
        }
        t.row(vec![
            n.to_string(),
            ms(bw),
            ms(ow),
            format!("{:.2}x", bw / ow),
            ms(bm),
            ms(om),
            format!("{:.3}x", bm / om),
            st.overlapped_steps.to_string(),
            st.interior_cells.to_string(),
            st.boundary_cells.to_string(),
        ]);
    }
    t.note("the overlap engine hides receive latency behind the interior computation — the modeled speedup counts exactly the hidden receive time under the SP-2 cost model, while wall speedup additionally depends on the host exposing real thread parallelism; final states verified bitwise per row and rep");
    t
}

/// **Trace attribution** — run Problem 9 traced under every engine
/// (bytecode backend) and attribute per-PE step time to
/// compute/pack/send/drain/boundary from the recorded spans. Doubles as a
/// self-check of the tracing subsystem: the Chrome export must round-trip
/// through the crate's own JSON parser, and the trace-derived
/// hidden-communication credit must agree with the counter-derived
/// [`hpf_core::AggStats::hidden_comm_ns`] within 5% (the drain spans carry
/// the same per-window credit, so they are in fact exactly equal).
pub fn trace_attribution(n: usize, steps: usize) -> Table {
    use hpf_core::trace::SpanKind;
    use hpf_core::ExecConfig;
    let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
    let mut t = Table::new(
        format!("Trace attribution — Problem 9 (N={n}, {steps} steps, 2x2 PEs, bytecode backend)"),
        &[
            "engine",
            "compute [ms]",
            "pack+unpack [ms]",
            "send [ms]",
            "drain [ms]",
            "boundary [ms]",
            "hidden [ms]",
            "step wall [ms]",
        ],
    );
    for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
        let cfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode).trace(true);
        let mut plan = kernel
            .plan(MachineConfig::grid(vec![2, 2]))
            .init("U", input)
            .config(cfg)
            .build()
            .unwrap();
        plan.iterate(steps);
        let stats = plan.stats();
        let trace = plan.take_trace();
        hpf_core::trace::json::parse(&trace.to_chrome_json())
            .expect("chrome trace JSON round-trips through the parser");
        let s = trace.summary();
        let hidden_trace: f64 = s.hidden_comm_ns().iter().sum();
        let hidden_stats: f64 = stats.hidden_comm_ns.iter().sum();
        assert!(
            (hidden_trace - hidden_stats).abs() <= hidden_stats.abs() * 0.05 + 1.0,
            "trace-derived hidden credit {hidden_trace} ns diverges from counters {hidden_stats} ns under {engine:?}"
        );
        let wall = |k: SpanKind| s.total_wall_ns(k) as f64 / 1e6;
        let step_ms =
            s.track("driver").map(|d| d.wall_ns(SpanKind::Step)).unwrap_or(0) as f64 / 1e6;
        t.row(vec![
            engine.label().to_string(),
            ms(wall(SpanKind::Compute) + wall(SpanKind::KernelExec) + wall(SpanKind::Interior)),
            ms(wall(SpanKind::Pack) + wall(SpanKind::Unpack)),
            ms(wall(SpanKind::CommPost)),
            ms(wall(SpanKind::CommDrain)),
            ms(wall(SpanKind::Boundary)),
            ms(hidden_trace / 1e6),
            ms(step_ms),
        ]);
    }
    t.note("per-span wall time summed over PEs and steps; the sequential engine packs/unpacks through persistent schedules (pack+unpack columns), the threaded engines fold packing into send/drain; hidden = modeled receive latency overlapped with interior compute, cross-checked against AggStats::hidden_comm_ns per engine; chrome JSON validated by round-tripping through hpf_trace::json");
    t
}

/// **Metrics**: per-engine metrics collection on Problem 9. Each engine
/// runs twice — metrics on and off — and the experiment asserts the
/// observation-only contract (bitwise-identical arrays and per-PE
/// counters) plus exact drift-report reconciliation with
/// `CostModel::modeled_time_ns` and `AggStats::hidden_comm_ns`, then
/// reports utilization, imbalance, and flagged drift components.
pub fn metrics(n: usize, steps: usize) -> Table {
    use hpf_core::ExecConfig;
    let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
    let mut t = Table::new(
        format!("Metrics — Problem 9 (N={n}, {steps} steps, 2x2 PEs, bytecode backend)"),
        &[
            "engine",
            "spans",
            "busy [%]",
            "imbalance",
            "bytes/step",
            "drift-flagged",
            "modeled [ms]",
            "wall [ms]",
        ],
    );
    for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
        let mcfg = MachineConfig::grid(vec![2, 2]);
        let base = ExecConfig::new().engine(engine).backend(Backend::Bytecode);
        let mut plan =
            kernel.plan(mcfg.clone()).init("U", input).config(base.metrics(true)).build().unwrap();
        plan.iterate(steps);
        let mut plain = kernel.plan(mcfg).init("U", input).config(base).build().unwrap();
        plain.iterate(steps);
        // Observation-only: metrics change nothing the run can see.
        assert_eq!(
            plan.gather("T").unwrap(),
            plain.gather("T").unwrap(),
            "metrics perturbed results under {engine:?}"
        );
        assert_eq!(
            plan.stats().per_pe,
            plain.stats().per_pe,
            "metrics perturbed counters under {engine:?}"
        );
        assert!(plain.metrics_snapshot().is_none() && plain.drift_report().is_none());
        let snap = plan.metrics_snapshot().expect("metrics were configured");
        let drift = plan.drift_report().expect("metrics were configured");
        // The drift report's totals reconcile exactly with their sources.
        let agg = plan.stats();
        assert_eq!(drift.modeled_time_ns, plan.machine.cfg.cost.modeled_time_ns(&agg));
        assert_eq!(drift.hidden_comm_ns, agg.hidden_comm_ns.iter().sum::<f64>());
        assert_eq!(snap.steps, steps as u64);
        // The series retains a bounded prefix; the folds never drop.
        assert_eq!(snap.series.len() as u64 + snap.series.dropped(), steps as u64);
        let spans: u64 = snap.merged_pe_registry().hists().map(|(_, h)| h.count()).sum();
        assert!(spans > 0, "no spans sampled under {engine:?}");
        let busy = snap.series.mean_busy();
        let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let flagged: Vec<&str> = drift.flagged().iter().map(|c| c.name).collect();
        t.row(vec![
            engine.label().to_string(),
            spans.to_string(),
            format!("{:.1}", mean_busy * 100.0),
            format!("{:.2}", snap.series.mean_imbalance()),
            (snap.bytes_moved / steps as u64).to_string(),
            if flagged.is_empty() { "-".to_string() } else { flagged.join(",") },
            ms(plan.modeled_ms()),
            ms(plan.wall().as_secs_f64() * 1e3),
        ]);
    }
    t.note(
        "metrics are observation-only: each engine's metered run is asserted bitwise \
         identical (arrays and per-PE counters) to a metrics-off twin, and the drift \
         report's modeled total and hidden credit reconcile exactly with \
         CostModel::modeled_time_ns and AggStats::hidden_comm_ns; busy = mean per-PE \
         busy fraction across sampled steps, imbalance = max/mean busy",
    );
    t
}

/// PE-grid scaling of the fully optimized Problem 9.
pub fn scaling(n: usize, engine: Engine) -> Table {
    let src = presets::problem9(n);
    let mut t = Table::new(
        format!("Scaling — fully optimized Problem 9 (N={n})"),
        &["grid", "PEs", "modeled [ms]", "wall [ms]", "msgs"],
    );
    for grid in [vec![1, 1], vec![2, 1], vec![2, 2], vec![4, 2], vec![4, 4]] {
        let m = measure(&src, CompileOptions::full(), &grid, None, engine).unwrap();
        t.row(vec![
            format!("{}x{}", grid[0], grid[1]),
            (grid[0] * grid[1]).to_string(),
            ms(m.modeled_ms),
            ms(m.wall_ms),
            m.msgs.to_string(),
        ]);
    }
    t
}

/// Run one tuner candidate as a persistent plan for `steps` machine steps,
/// returning (wall ms, gathered output) — the measurement loop of [`tune`].
/// Superstep winners fuse `k` logical steps into every machine step, so the
/// wall clock is normalized by [`hpf_core::Plan::logical_steps_per_step`] to
/// keep configurations of different depths comparable per logical sweep
/// (Problem 9 is idempotent in its state array, so the gathered output is
/// depth-independent and the bitwise cross-check still applies).
fn tune_run(
    kernel: &Kernel,
    steps: usize,
    cfg: MachineConfig,
    exec: hpf_core::ExecConfig,
) -> (f64, Vec<f64>) {
    let mut plan = kernel.plan(cfg).init("U", input).config(exec).build().unwrap();
    let t0 = std::time::Instant::now();
    plan.iterate(steps);
    let wall = t0.elapsed().as_secs_f64() * 1e3 / plan.logical_steps_per_step() as f64;
    (wall, plan.gather("T").unwrap())
}

/// **Auto-tuning** — the cost-guided search vs the default configuration on
/// Problem 9, across problem sizes. For each N the tuner (cache disabled, so
/// every row is a fresh search) picks a configuration by pruning the full
/// grid × engine × backend × superstep-depth space with the SP-2 cost model and
/// timing the top-8 survivors; an exhaustive search times *every* buildable
/// candidate as the reference optimum. Default (`2x2 seq-interp`), tuned,
/// and exhaustive-best configurations are then re-measured in the same
/// alternating best-of-reps loop, and the tuned/exhaustive ratio shows how
/// much the model's pruning gives up (1.000 when both searches agree on the
/// winner, which is the common case). Final states are verified bitwise
/// across all three configurations every row.
pub fn tune(sizes: &[usize], steps: usize) -> Table {
    const TUNE_REPS: usize = 5;
    let mut t = Table::new(
        format!("Auto-tuning — tuned vs default config, Problem 9 ({steps} steps, 4 PEs)"),
        &[
            "N",
            "candidates",
            "timed",
            "search [ms]",
            "default wall [ms]",
            "tuned wall [ms]",
            "speedup",
            "exhaustive wall [ms]",
            "tuned/exhaustive",
            "tuned config",
        ],
    );
    for &n in sizes {
        let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
        let base = MachineConfig::with_grid(vec![2, 2]);
        let tuned = kernel.tune(&hpf_core::Tuner::new(base.clone()).no_cache()).unwrap();
        let exhaustive =
            kernel.tune(&hpf_core::Tuner::new(base.clone()).no_cache().exhaustive()).unwrap();
        let same_winner = tuned.best.grid == exhaustive.best.grid
            && tuned.best.exec_config() == exhaustive.best.exec_config();

        let default_exec = hpf_core::ExecConfig::new();
        let (mut dw, mut tw, mut ew) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut out: Option<Vec<f64>> = None;
        for _ in 0..TUNE_REPS {
            let (w, u) = tune_run(&kernel, steps, base.clone(), default_exec);
            dw = dw.min(w);
            let prev = out.replace(u);
            if let (Some(a), Some(b)) = (prev.as_ref(), out.as_ref()) {
                assert_eq!(a, b, "configs diverged at N={n}");
            }
            let (w, u) = tune_run(
                &kernel,
                steps,
                tuned.best.machine_config(&base),
                tuned.best.exec_config(),
            );
            tw = tw.min(w);
            assert_eq!(out.as_ref().unwrap(), &u, "tuned config diverged at N={n}");
            if !same_winner {
                let (w, u) = tune_run(
                    &kernel,
                    steps,
                    exhaustive.best.machine_config(&base),
                    exhaustive.best.exec_config(),
                );
                ew = ew.min(w);
                assert_eq!(out.as_ref().unwrap(), &u, "exhaustive config diverged at N={n}");
            }
        }
        if same_winner {
            ew = tw;
        }
        t.row(vec![
            n.to_string(),
            exhaustive.candidates.len().to_string(),
            tuned.timed.to_string(),
            ms(tuned.search_ns as f64 / 1e6),
            ms(dw),
            ms(tw),
            format!("{:.2}x", dw / tw),
            ms(ew),
            format!("{:.3}", tw / ew),
            tuned.best.label(),
        ]);
    }
    t.note(
        "tuner: model-probe pruning (one plan build + one step per distinct modeled \
         configuration) then best-of-3 step timings for the top-8; exhaustive: every \
         buildable candidate timed; all three configurations re-measured in the same \
         alternating best-of-5 loop and verified bitwise per row; search time is the \
         cold tuner wall clock including all probes and timings",
    );
    t
}

/// Run Problem 9 at communication-avoiding superstep depth `k` for a fixed
/// budget of `steps` logical steps — depth `k` fuses `k` logical steps into
/// every machine step, so it takes `steps / k` machine steps and exchanges
/// halos once per machine step instead of once per logical step. Returns
/// (wall ms of the iterate loop, gathered output, counters, supersteps
/// executed per machine step). The wall clock covers only `iterate` — plan
/// compilation (including the one-time deep-fill schedule set) is excluded,
/// exactly like [`overlap_sweep`].
fn superstep_sweep(
    kernel: &Kernel,
    steps: usize,
    k: usize,
    engine: Engine,
) -> (f64, f64, Vec<f64>, hpf_core::AggStats, u64) {
    let exec = hpf_core::ExecConfig::new().engine(engine).backend(Backend::Bytecode).superstep(k);
    let mut plan =
        kernel.plan(MachineConfig::grid(vec![2, 2])).init("U", input).config(exec).build().unwrap();
    let logical = plan.logical_steps_per_step();
    assert!(
        steps.is_multiple_of(logical),
        "step budget {steps} must divide evenly into depth-{k} machine steps"
    );
    let t0 = std::time::Instant::now();
    plan.iterate(steps / logical);
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    (wall, plan.modeled_ms(), plan.gather("T").unwrap(), plan.stats(), plan.supersteps_per_step())
}

/// **Communication-avoiding supersteps** — Problem 9 at superstep depths
/// {1, 2, 4, 8} across problem sizes, every depth doing the same `steps`
/// logical steps (rounded up to a multiple of 8 so every depth divides it).
/// Each depth is timed under all three engines and the fastest is reported;
/// `vs best k=1` is the speedup over the best classic (depth-1) engine.
/// Problem 9's stencil chain reads only the exchanged state array, so its
/// trapezoids never shrink (zero redundant boundary recomputation) and the
/// deep schedules elide `(k-1)/k` of the exchanges outright — the experiment
/// asserts the ≥2x message and schedule-execution reduction at every depth
/// k>1, bitwise-identical results across all depths and engines, a strictly
/// better modeled (SP-2 cost model) time at every depth k>1, and a
/// wall-clock win over the best classic engine at N≥256 (at N=128 the
/// exchanged volume is small enough that host timer noise swamps the win,
/// so only non-regression is asserted there).
pub fn superstep(sizes: &[usize], steps: usize) -> Table {
    const SS_REPS: usize = 5;
    const DEPTHS: [usize; 4] = [1, 2, 4, 8];
    let steps = steps.max(1).next_multiple_of(8);
    let mut t = Table::new(
        format!(
            "Communication-avoiding supersteps — Problem 9 ({steps} logical steps, 2x2 PEs, bytecode backend)"
        ),
        &[
            "N",
            "k",
            "engine",
            "wall [ms]",
            "vs best k=1",
            "modeled [ms]",
            "msgs",
            "sched execs",
            "elided",
            "redundant cells",
        ],
    );
    for &n in sizes {
        let kernel = Kernel::compile(&presets::problem9(n), CompileOptions::full()).unwrap();
        let mut reference: Option<Vec<f64>> = None;
        let mut best_k1 = f64::INFINITY;
        let mut best_deep = f64::INFINITY;
        let mut base_stats: Option<hpf_core::AggStats> = None;
        let mut base_modeled = f64::INFINITY;
        for k in DEPTHS {
            let mut best: Option<(f64, f64, Engine, hpf_core::AggStats)> = None;
            for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
                for _ in 0..SS_REPS {
                    let (w, m, u, st, ss) = superstep_sweep(&kernel, steps, k, engine);
                    if k > 1 {
                        assert!(ss >= 1, "depth {k} silently fell back to classic at N={n}");
                    }
                    match &reference {
                        Some(r) => assert_eq!(r, &u, "depth {k} {engine:?} diverged at N={n}"),
                        None => reference = Some(u),
                    }
                    if best.as_ref().is_none_or(|b| w < b.0) {
                        best = Some((w, m, engine, st));
                    }
                }
            }
            let (wall, modeled, engine, st) = best.expect("at least one engine timed");
            if k == 1 {
                best_k1 = wall;
                base_stats = Some(st.clone());
                base_modeled = modeled;
            } else {
                best_deep = best_deep.min(wall);
                let base = base_stats.as_ref().expect("depth 1 runs first");
                assert!(
                    base.total_messages() >= 2 * st.total_messages(),
                    "depth {k} must at least halve messages at N={n}: {} vs {}",
                    base.total_messages(),
                    st.total_messages()
                );
                assert!(
                    base.schedule_reuses >= 2 * st.schedule_reuses,
                    "depth {k} must at least halve schedule executions at N={n}: {} vs {}",
                    base.schedule_reuses,
                    st.schedule_reuses
                );
                assert!(st.exchanges_elided > 0, "depth {k} elided no exchanges at N={n}");
                // Deterministic counterpart of the wall-clock win: on the
                // SP-2 cost model the elided exchange latency is a strict
                // improvement for a kernel with zero redundant recompute.
                assert!(
                    modeled < base_modeled,
                    "depth {k} must improve modeled time at N={n}: {modeled} vs {base_modeled}"
                );
            }
            t.row(vec![
                n.to_string(),
                k.to_string(),
                engine.label().to_string(),
                ms(wall),
                format!("{:.2}x", best_k1 / wall),
                ms(modeled),
                st.total_messages().to_string(),
                st.schedule_reuses.to_string(),
                st.exchanges_elided.to_string(),
                st.redundant_cells.to_string(),
            ]);
        }
        // Wall-clock: the deep schedules strictly reduce host work (fewer
        // pack/send/unpack memcpys, same compute for a zero-redundancy
        // kernel), but the simulator's messages are cheap memcpys, so the
        // win only clears timer noise once the exchanged volume is large.
        // At N>=256 the best deep depth must beat the best classic engine
        // outright; at the smaller release size (N=128) it must at least
        // stay within noise of it — there the deterministic modeled
        // assertion above carries the communication-avoidance claim.
        if n >= 256 {
            assert!(
                best_deep < best_k1,
                "superstep must beat the best classic engine at N={n}: {best_deep} vs {best_k1}"
            );
        } else if n >= 128 {
            assert!(
                best_deep <= best_k1 * 1.05,
                "superstep must not lose wall-clock at N={n}: {best_deep} vs {best_k1}"
            );
        }
    }
    t.note(
        "every depth runs the same logical-step budget (depth k takes steps/k machine \
         steps); wall is the best of 5 reps x 3 engines per depth, iterate loop only; \
         messages and schedule executions shrink ~kx because the deep-fill exchange \
         runs once per machine step, and modeled time (SP-2 cost model, per-message \
         latency dominant) shrinks with them — the paper's regime, where the wall \
         column is bounded by the host's memcpy-cheap simulated messages; Problem 9's \
         chain reads only the exchanged state array, so trapezoids never shrink and \
         redundant cells stay 0; final states verified bitwise across all depths, \
         engines, and reps",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_experiment_beats_or_matches_the_default() {
        let t = tune(&[24], 2);
        assert_eq!(t.rows.len(), 1);
        // 3 grid factorizations of 4 PEs x 3 engines x 2 backends x 4
        // superstep depths (Problem 9 is eligible for deep halos).
        assert_eq!(t.rows[0][1], "72");
        let timed: usize = t.rows[0][2].parse().unwrap();
        assert!(timed > 0 && timed <= 8);
        let ratio: f64 = t.rows[0][8].parse().unwrap();
        assert!(ratio.is_finite() && ratio > 0.0);
    }

    #[test]
    fn superstep_experiment_elides_communication_and_stays_bitwise() {
        // Small size in debug mode: superstep() itself asserts the >=2x
        // message/schedule reduction, the bitwise identity across depths and
        // engines, and (only at release-bench sizes N>=128) the wall-clock
        // win; here check the table shape and the k-fold message scaling.
        let t = superstep(&[24], 8);
        assert_eq!(t.rows.len(), 4, "one row per depth");
        let msgs = |r: usize| t.rows[r][6].parse::<u64>().unwrap();
        let elided = |r: usize| t.rows[r][8].parse::<u64>().unwrap();
        assert_eq!(t.rows[0][1], "1");
        assert_eq!(elided(0), 0, "classic depth elides nothing: {:?}", t.rows[0]);
        for r in 1..4 {
            // Each doubling of k halves the exchange count again.
            assert!(msgs(r - 1) >= 2 * msgs(r), "{:?} vs {:?}", t.rows[r - 1], t.rows[r]);
            assert!(elided(r) > elided(r - 1), "{:?}", t.rows[r]);
            assert_eq!(t.rows[r][9], "0", "Problem 9 recomputes nothing: {:?}", t.rows[r]);
        }
    }

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
    fn scaling_reduces_per_pe_work() {
        let t = scaling(64, Engine::Sequential);
        let one: f64 = t.rows[0][2].parse().unwrap();
        let four: f64 = t.rows[2][2].parse().unwrap();
        // 4 PEs beat 1 PE on compute-dominated sizes… at N=64 messages may
        // dominate; just require both produced sane numbers.
        assert!(one > 0.0 && four > 0.0);
    }

    #[test]
    fn persistent_plan_beats_per_step_resetup() {
        // The headline acceptance criterion: a >=10-step Jacobi sweep at
        // N=512 on a 2x2 grid — a Plan built once and stepped must beat 10
        // chained single-step Planner::run() calls on both wall-clock and
        // modeled cost, with the schedule compiled once and reused on every
        // step.
        let kernel = Kernel::compile(&presets::jacobi(512, 1), CompileOptions::full()).unwrap();
        let steps = 10;
        let grid = [2, 2];
        let (resetup_wall, resetup_modeled) =
            resetup_sweep(&kernel, &["U"], steps, &grid, Engine::Sequential);
        let (plan_wall, plan_modeled, built, reuses) =
            plan_sweep(&kernel, &["U"], steps, &grid, Engine::Sequential);
        assert!(built > 0);
        assert_eq!(reuses, steps as u64 * built, "schedule reused on every step");
        assert!(
            plan_modeled < resetup_modeled,
            "modeled: plan {plan_modeled} vs re-setup {resetup_modeled}"
        );
        assert!(plan_wall < resetup_wall, "wall: plan {plan_wall} vs re-setup {resetup_wall}");
    }

    #[test]
    fn persistent_table_shape() {
        let t = persistent(32, 4, Engine::Sequential);
        assert_eq!(t.rows.len(), 6); // 2 kernels x 3 grids
        for row in &t.rows {
            let built: u64 = row[6].parse().unwrap();
            let reused: u64 = row[7].parse().unwrap();
            assert!(built > 0);
            assert_eq!(reused, 4 * built, "{row:?}");
        }
    }

    #[test]
    fn codegen_table_shape_and_counters() {
        // Small size in debug mode: don't assert on the speedup here (the
        // release-mode bench does), just shape, counters, and the built-in
        // bitwise cross-check (codegen() asserts it internally).
        let t = codegen(&[24], 3);
        assert_eq!(t.rows.len(), 2, "seq + threaded");
        for row in &t.rows {
            let kernels: u64 = row[5].parse().unwrap();
            let execs: u64 = row[6].parse().unwrap();
            assert!(kernels > 0, "{row:?}");
            assert_eq!(execs, 3 * kernels, "compiled once, reused each step: {row:?}");
        }
    }

    #[test]
    fn overlap_table_splits_at_every_size() {
        // The overlap engine must fuse split-phase windows with non-trivial
        // interior and boundary regions at a small size as at a larger
        // one: nothing degrades to the sequential step any more.
        // overlap() asserts bitwise identity internally.
        let t = overlap(&[32, 160], 2);
        assert_eq!(t.rows.len(), 2);
        let get = |r: usize, c: usize| t.rows[r][c].parse::<u64>().unwrap();
        let speedup = |r: usize| t.rows[r][6].trim_end_matches('x').parse::<f64>().unwrap();
        for r in 0..2 {
            assert!(get(r, 7) > 0, "steps overlap: {:?}", t.rows[r]);
            // The interior dominates the boundary strips — that is what
            // makes overlapping it with communication worthwhile.
            assert!(get(r, 8) > get(r, 9) && get(r, 9) > 0, "{:?}", t.rows[r]);
            // Split-phase windows hid receive time behind the interior.
            assert!(speedup(r) > 1.0, "overlap must win on modeled time: {:?}", t.rows[r]);
        }
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
