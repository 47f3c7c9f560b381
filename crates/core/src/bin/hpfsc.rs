//! `hpfsc` — the stencil compiler driver.
//!
//! Compiles a mini-HPF source file through the SC'97 pipeline, shows the
//! optimized IR at any stage, lints it with the static analyzer, and
//! optionally runs it on the simulated machine (verified against the
//! reference interpreter).
//!
//! ```text
//! hpfsc [FILE] [--stage original|offset|partition|unioning|full]
//!              [--emit ir|node|bytecode|stats|diag-json] [--lint] [--deny-warnings]
//!              [--verify] [--run] [--grid RxC] [--halo W] [--superstep K]
//!              [--engine seq|threaded|interp|bytecode|auto|...]
//!              [--trace[=FILE]] [--metrics[=FILE]] [--report] [--tune[=FILE]]
//!              [--print-input NAME[:N]] [--naive] [--drop-shift K] [--help]
//! ```
//!
//! `--tune` searches grid x engine x superstep depth (bytecode backend
//! throughout) and caches the winner; `--engine auto` runs it.
//!
//! Exit codes: 0 success; 1 compile, run, or I/O failure; 2 usage error;
//! 3 lint warnings under `--deny-warnings`; 4 lint errors; 5 static
//! verification failure under `--verify`.

use hpf_core::analysis;
use hpf_core::baselines::naive;
use hpf_core::passes::nodepretty;
use hpf_core::passes::PASS_NAMES;
use hpf_core::{presets, Backend, CompileOptions, ExecConfig, Kernel, MachineConfig, Stage};
use std::process::exit;

const USAGE: &str = "\
usage: hpfsc [FILE] [options]

options:
  --stage original|offset|partition|unioning|full
                        stop the pipeline after this stage (default: full)
  --emit ir|node|bytecode|stats|diag-json
                        what to print, comma-separated (default: ir, or
                        nothing under --lint; diag-json implies linting);
                        stats ends with what the communication schedules
                        of a plan on the --grid machine hold;
                        bytecode lists the VM code of every nest on PE 0
                        of the --grid machine: bodies op by op, each fold
                        with its links and operand kinds, ops per point,
                        strip registers, preloads, chunked/scalar/strict
  --lint                run the static analyzer (HS/CU/DF/FP lints) and
                        report diagnostics with source spans
  --deny-warnings       exit 3 when linting reports any warning
  --verify              machine-check the compiled program: build a
                        threaded-bytecode plan on the --grid machine, run
                        the bytecode verifier (BV001-BV004) over every
                        compiled kernel and the plan checker
                        (PL004-PL006) over every superstep, rebind and
                        compiled schedule; print any diagnostics, exit 5
                        on failure
  --run                 execute on the simulated machine, verified against
                        the reference interpreter
  --grid RxC            PE grid for --run, every extent at least 1
                        (default: 2x2)
  --halo W              overlap-area width (default: 1)
  --superstep K         communication-avoiding superstep depth for --run
                        and --verify: exchange deep halos once per K time
                        steps and redundantly recompute trapezoid boundary
                        cells in between; bitwise identical to K=1. An
                        ineligible kernel falls back to K=1 with an SS###
                        diagnostic (default: 1)
  --engine SPEC         executor and nest backend for --run: an engine
                        (seq, threaded), a backend (bytecode, or its
                        deprecated alias interp), or both joined with
                        '-' (e.g. threaded-bytecode);
                        'auto' picks grid, engine, and superstep depth
                        with the auto-tuner (see --tune); an engine
                        named alone runs on bytecode;
                        default: seq-bytecode
  --tune[=FILE]         auto-tune this kernel on the --grid machine: search
                        grid x engine x superstep depth (every PE-grid
                        factorization, always on the bytecode backend),
                        price every candidate on this host (a calibrated
                        cost profile; no plan is stepped), print the
                        decision log, and persist
                        the winner in FILE (default .hpf-tune.json); a
                        warm cache skips the search entirely. With --run,
                        also executes the tuned configuration (same as
                        --engine auto)
  --trace[=FILE]        record per-PE event spans during --run and print
                        the per-step summary tables (compile passes,
                        per-PE span times, counters); with =FILE also
                        write Chrome trace_event JSON there (load in
                        chrome://tracing or ui.perfetto.dev)
  --metrics[=FILE]      collect per-PE metrics during --run (latency
                        histograms, step time series, load imbalance) and
                        print the JSON snapshot; with =FILE write it there
                        instead (a .prom suffix selects Prometheus text
                        exposition). Observation-only: results and
                        counters are bitwise identical with metrics off
  --report              print a one-page run report after --run: config,
                        per-PE utilization, histogram summaries, and the
                        cost-model drift table (modeled vs measured per
                        component, DRIFT markers outside the band)
  --print-input NAME[:N]
                        print a preset kernel source (five-point,
                        nine-point-cshift, nine-point-array, problem9,
                        jacobi, image-blur, wave2d) at problem size N
                        (default 16); FILE may be omitted
  --naive               compile like an xlhpf-class compiler instead
  --drop-shift K        fault injection: delete the K-th OVERLAP_SHIFT from
                        the compiled kernel before linting or running (the
                        static analyzer should report HS001; a verified run
                        should fail)
  --help, -h            show this help

exit codes: 0 success, 1 compile/run/IO failure, 2 usage error,
            3 lint warnings under --deny-warnings, 4 lint errors,
            5 static verification failure under --verify";

/// Stdout vanished mid-print. A closed pipe (`hpfsc ... | head`) means the
/// downstream consumer got everything it wanted — that is success, not an
/// error; anything else (disk full on a redirect) is a real I/O failure.
fn stdout_gone(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        exit(0)
    }
    eprintln!("hpfsc: cannot write to stdout: {e}");
    exit(1)
}

/// `println!` to stdout without the panic-on-broken-pipe behavior.
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write;
        if let Err(e) = writeln!(std::io::stdout(), $($t)*) {
            stdout_gone(e)
        }
    }};
}

/// `print!` to stdout without the panic-on-broken-pipe behavior.
macro_rules! out_raw {
    ($($t:tt)*) => {{
        use std::io::Write;
        if let Err(e) = write!(std::io::stdout(), $($t)*) {
            stdout_gone(e)
        }
    }};
}

fn usage_error(msg: &str) -> ! {
    eprintln!("hpfsc: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

/// Resolve a `--print-input` argument (`NAME` or `NAME:N`) to preset source.
fn preset_source(spec: &str) -> Option<String> {
    let (name, n) = match spec.split_once(':') {
        Some((name, n)) => (name, n.parse().ok()?),
        None => (spec, 16),
    };
    Some(match name {
        "five-point" => presets::five_point(n),
        "nine-point-cshift" => presets::nine_point_cshift(n),
        "nine-point-array" => presets::nine_point_array(n),
        "problem9" => presets::problem9(n),
        "jacobi" => presets::jacobi(n, 4),
        "image-blur" => presets::image_blur(n, 4),
        "wave2d" => presets::wave2d(n, 4),
        _ => return None,
    })
}

fn main() {
    let mut file = None;
    let mut stage = Stage::MemOpt;
    let mut emit: Option<Vec<String>> = None;
    let mut lint = false;
    let mut deny_warnings = false;
    let mut verify = false;
    let mut run = false;
    let mut grid: Vec<usize> = vec![2, 2];
    let mut halo = 1usize;
    let mut superstep = 1usize;
    let mut exec_cfg = ExecConfig::new().backend(Backend::Bytecode);
    let mut trace_on = false;
    let mut trace_file: Option<String> = None;
    let mut metrics_on = false;
    let mut metrics_file: Option<String> = None;
    let mut report_on = false;
    let mut tune_on = false;
    let mut tune_file: Option<String> = None;
    let mut naive_mode = false;
    let mut print_input: Option<String> = None;
    let mut drop_shift: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stage" => {
                stage = match args.next().as_deref() {
                    Some("original") => Stage::Original,
                    Some("offset") => Stage::OffsetArrays,
                    Some("partition") => Stage::Partition,
                    Some("unioning") => Stage::Unioning,
                    Some("full") | Some("memopt") => Stage::MemOpt,
                    other => usage_error(&format!("bad --stage {other:?}")),
                };
            }
            "--emit" => {
                emit = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--emit needs an argument"))
                        .split(',')
                        .map(|s| s.to_string())
                        .collect(),
                );
            }
            "--lint" => lint = true,
            "--deny-warnings" => deny_warnings = true,
            "--verify" => verify = true,
            "--run" => run = true,
            "--grid" => {
                let g = args.next().unwrap_or_else(|| usage_error("--grid needs an argument"));
                let bad =
                    || usage_error(&format!("bad --grid {g}: every extent must be at least 1"));
                grid = g
                    .split(['x', ','])
                    .map(|s| s.parse().ok().filter(|&n: &usize| n >= 1).unwrap_or_else(bad))
                    .collect();
                if grid.len() > hpf_core::ir::MAX_RANK {
                    usage_error(&format!(
                        "bad --grid {g}: at most {} axes, one per array dimension",
                        hpf_core::ir::MAX_RANK
                    ));
                }
            }
            "--halo" => {
                halo = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--halo needs a non-negative integer"))
            }
            "--superstep" => {
                superstep = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage_error("--superstep needs a positive integer"))
            }
            "--engine" => {
                let v = args.next().unwrap_or_else(|| usage_error("--engine needs an argument"));
                // One parser for every driver: hpfsc and the bench binary
                // accept exactly the same spellings.
                match ExecConfig::from_cli_str(&v) {
                    Ok(parsed) => {
                        exec_cfg.engine = parsed.engine;
                        exec_cfg.auto = parsed.auto;
                        // An engine named alone keeps the bytecode default.
                        if v.ends_with("interp") || v.ends_with("bytecode") {
                            exec_cfg.backend = parsed.backend;
                        }
                    }
                    Err(e) => usage_error(&format!("--engine: {e}")),
                }
            }
            "--naive" => naive_mode = true,
            "--drop-shift" => {
                drop_shift = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage_error("--drop-shift needs an index")),
                );
            }
            "--print-input" => {
                print_input =
                    Some(args.next().unwrap_or_else(|| usage_error("--print-input needs a name")));
            }
            "--help" | "-h" => {
                out!("{USAGE}");
                exit(0)
            }
            other if other == "--tune" || other.starts_with("--tune=") => {
                tune_on = true;
                if let Some(f) = other.strip_prefix("--tune=") {
                    if f.is_empty() {
                        usage_error("--tune= needs a file name");
                    }
                    tune_file = Some(f.to_string());
                }
            }
            other if other.starts_with("--superstep=") => {
                superstep = other
                    .strip_prefix("--superstep=")
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage_error("--superstep needs a positive integer"));
            }
            other if other == "--trace" || other.starts_with("--trace=") => {
                trace_on = true;
                if let Some(f) = other.strip_prefix("--trace=") {
                    if f.is_empty() {
                        usage_error("--trace= needs a file name");
                    }
                    trace_file = Some(f.to_string());
                }
            }
            other if other == "--metrics" || other.starts_with("--metrics=") => {
                metrics_on = true;
                if let Some(f) = other.strip_prefix("--metrics=") {
                    if f.is_empty() {
                        usage_error("--metrics= needs a file name");
                    }
                    metrics_file = Some(f.to_string());
                }
            }
            "--report" => report_on = true,
            other if other.starts_with('-') => {
                usage_error(&format!("unrecognized option '{other}'"))
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument '{other}'")),
        }
    }

    if let Some(spec) = &print_input {
        match preset_source(spec) {
            Some(src) => out_raw!("{src}"),
            None => usage_error(&format!("unknown preset '{spec}'")),
        }
        if file.is_none() {
            exit(0)
        }
    }

    let file = file.unwrap_or_else(|| usage_error("no input file"));
    let source = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("hpfsc: cannot read {file}: {e}");
        exit(1)
    });

    let options =
        if naive_mode { naive::naive_options() } else { CompileOptions::upto(stage).halo(halo) };
    let mut kernel = match Kernel::compile(&source, options) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("hpfsc: {file}: {e}");
            exit(1)
        }
    };
    if let Some(k) = drop_shift {
        if !kernel.drop_overlap_shift(k) {
            eprintln!("hpfsc: --drop-shift {k}: the kernel has no such OVERLAP_SHIFT");
            exit(1)
        }
    }

    // diag-json is a view of the lint results, so asking for it lints.
    let emit = emit.unwrap_or_else(|| if lint { Vec::new() } else { vec!["ir".to_string()] });
    let want_diag_json = emit.iter().any(|e| e == "diag-json");
    let diags = if lint || want_diag_json { kernel.lint() } else { Vec::new() };

    for what in &emit {
        match what.as_str() {
            "ir" => {
                out!("! optimized array-level IR ({})", stage.label());
                out_raw!("{}", kernel.listing());
            }
            "node" => {
                out!("! node program (per-PE SPMD code)");
                out_raw!("{}", nodepretty::node_program(&kernel.compiled.node));
            }
            "bytecode" => {
                let mcfg = MachineConfig::with_grid(grid.clone()).halo(halo);
                match kernel.bytecode_listing(mcfg) {
                    Ok(text) => {
                        out!("! bytecode ({grid:?} grid, halo {halo})");
                        out!("! vm tier: {}", hpf_core::codegen::Tier::active().name());
                        out_raw!("{text}");
                    }
                    Err(e) => {
                        eprintln!("hpfsc: --emit bytecode: {e}");
                        exit(1)
                    }
                }
            }
            "stats" => {
                let s = kernel.stats();
                out!("shift intrinsics     : {}", s.normalize.shifts);
                out!("temporaries created  : {}", s.normalize.temps);
                out!("shifts -> overlap    : {}", s.offset.converted);
                out!("repair copies        : {}", s.offset.copies_inserted);
                out!("copies rotated       : {}", s.rotated);
                out!("comm ops (final)     : {}", s.comm_ops);
                out!("loop nests (final)   : {}", s.nests);
                out!("arrays allocated     : {}", s.arrays_allocated);
                out!("arrays written per step : {}", s.arrays_written);
                out!(
                    "loads per point      : {} -> {}",
                    s.memopt.loads_before,
                    s.memopt.loads_after
                );
                // What the schedules of a plan on the --grid machine hold.
                match kernel.plan(MachineConfig::with_grid(grid.clone()).halo(halo)).build() {
                    Ok(plan) => out!(
                        "schedule mem         : {} bytes ({} of them message staging)",
                        plan.schedule_bytes(),
                        plan.pooled_bytes()
                    ),
                    Err(e) => out!("schedule mem         : - ({e})"),
                }
            }
            "diag-json" => out!("{}", analysis::render_json(&diags)),
            other => {
                eprintln!("hpfsc: unknown --emit kind '{other}'");
                exit(2)
            }
        }
    }

    if lint && !want_diag_json && !diags.is_empty() {
        eprint!("{}", analysis::render_text(&diags));
    }

    if verify {
        // Verify one configuration regardless of --engine: compiled
        // bytecode kernels give the bytecode verifier (BV001-BV004)
        // something to prove, and the plan checker (PL004-PL006) proves
        // the supersteps, rebinds and schedules. An unchecked build cannot
        // be rejected at build time, so every diagnostic reaches the report.
        let vcfg = ExecConfig::new()
            .engine(hpf_core::Engine::Threaded)
            .backend(Backend::Bytecode)
            .superstep(superstep)
            .check_invariants(false);
        let mcfg = MachineConfig::with_grid(grid.clone()).halo(halo);
        match kernel.plan(mcfg).config(vcfg).build() {
            Ok(plan) => {
                let vdiags = plan.verify_static();
                if vdiags.is_empty() {
                    out!(
                        "! verified: kernels compiled: {}, {grid:?} grid",
                        plan.stats().kernels_compiled
                    );
                    if plan.supersteps_per_step() > 0 {
                        out!(
                            "! verified: superstep trapezoid coverage (PL004), \
                             {} supersteps per step at depth {superstep}",
                            plan.supersteps_per_step()
                        );
                    }
                } else {
                    eprint!("{}", analysis::render_text(&vdiags));
                    exit(5)
                }
            }
            // A checked build (debug default) rejects an unverifiable plan
            // inside `build` instead of returning it; that is still a
            // verification failure, not an I/O or machine error.
            Err(hpf_core::CoreError::Runtime(hpf_core::RtError::VerificationFailed { report })) => {
                eprintln!("{report}");
                exit(5)
            }
            Err(e) => {
                eprintln!("hpfsc: --verify: cannot build plan: {e}");
                exit(1)
            }
        }
    }

    if tune_on {
        let base = MachineConfig::with_grid(grid.clone()).halo(halo);
        let mut tuner = hpf_core::Tuner::new(base);
        if let Some(f) = &tune_file {
            tuner = tuner.cache_path(f);
        }
        match kernel.tune(&tuner) {
            Ok(out) => {
                let cache_name = tune_file.as_deref().unwrap_or(hpf_core::tune::DEFAULT_CACHE_FILE);
                if out.cache_hit {
                    out!(
                        "! tune: cache hit in {cache_name} (key {}) — zero candidates searched",
                        out.fingerprint
                    );
                } else {
                    let host = out.host.expect("a cold search prices on the host");
                    out!(
                        "! tune: searched {} candidates, {} probes, priced on host (cores {}, \
                         vm tier {}, message {:.1} us spinning, {:.1} us parked), {:.1} ms \
                         (key {}, cached in {cache_name})",
                        out.candidates.len(),
                        out.probes,
                        host.cores,
                        hpf_core::codegen::Tier::active().name(),
                        host.msg_spin_ns / 1e3,
                        host.msg_park_ns / 1e3,
                        out.search_ns as f64 / 1e6,
                        out.fingerprint
                    );
                    out_raw!("{}", out.render_table());
                }
                out!("! best: {} ({:.4} ms on host)", out.best.label(), out.best.host_ms);
            }
            Err(e) => {
                eprintln!("hpfsc: --tune failed: {e}");
                exit(1)
            }
        }
        if run {
            // --tune --run executes the tuned configuration.
            exec_cfg.auto = true;
        }
    }

    if run {
        let cfg = MachineConfig::with_grid(grid.clone()).halo(halo);
        let mut planner = kernel
            .plan(cfg.clone())
            .config(exec_cfg.superstep(superstep).trace(trace_on).metrics(metrics_on || report_on));
        if exec_cfg.auto {
            // Route the resolution through the same cache file --tune uses.
            let mut tuner = hpf_core::Tuner::new(cfg);
            if let Some(f) = &tune_file {
                tuner = tuner.cache_path(f);
            }
            planner = planner.tuner(tuner);
        }
        // Default deterministic initialization for every *user* array the
        // node program touches. Compiler temporaries are always written
        // before they are read; arrays the optimizer eliminated (Problem 9's
        // RIP/RIN after offset arrays) are neither allocated nor verified.
        let node_symbols = &kernel.compiled.node.symbols;
        let user_live: Vec<String> = kernel
            .compiled
            .node
            .live_arrays
            .iter()
            .map(|id| node_symbols.array(*id))
            .filter(|decl| !decl.temp)
            .map(|decl| decl.name.clone())
            .collect();
        for name in &user_live {
            planner = planner.init(name, move |p: &[i64]| {
                p.iter()
                    .enumerate()
                    .map(|(d, &i)| (i * (7 + 3 * d as i64)) as f64 * 0.01)
                    .sum::<f64>()
                    .sin()
            });
        }
        // Verify every live user array against the oracle.
        let outputs: Vec<String> = user_live;
        let output_refs: Vec<&str> = outputs.iter().map(|s| s.as_str()).collect();
        match planner.run_verified(&output_refs, 0.0) {
            Ok(mut r) => {
                let stats = r.stats();
                // Under --engine auto the machine's grid is the tuner's
                // choice, not the --grid argument; report what actually ran.
                let ran = &r.machine.cfg.grid.dims;
                out!(
                    "\n! run on {} PEs ({ran:?} grid), verified against the oracle",
                    ran.iter().product::<usize>(),
                );
                if exec_cfg.auto {
                    out!(
                        "config          : auto-tuned ({} cache hits, {} misses, {:.1} ms search)",
                        stats.tune_cache_hits,
                        stats.tune_cache_misses,
                        stats.tune_search_ns as f64 / 1e6
                    );
                }
                // The plan's depth, not --superstep's: under --engine auto
                // the tuner picks it.
                let depth = r.superstep_depth();
                if depth > 1 {
                    // Fallback diagnostics (SS001-SS009) explain why an
                    // ineligible kernel ran at the classic depth instead.
                    let diags = r.superstep_diags();
                    if !diags.is_empty() {
                        eprint!("{}", analysis::render_text(&diags));
                    }
                    out!(
                        "superstep       : depth {depth}, {} logical steps per sweep, \
                         {} exchanges elided, {} trapezoid cells recomputed",
                        r.logical_steps_per_step(),
                        stats.exchanges_elided,
                        stats.redundant_cells
                    );
                }
                out!("messages        : {}", stats.total_messages());
                out!("comm bytes      : {}", stats.total_comm_bytes());
                out!("intra bytes     : {}", stats.total_intra_bytes());
                out!("peak mem per PE : {} bytes", stats.max_peak_bytes());
                out!(
                    "schedule mem    : {} bytes ({} of them message staging)",
                    r.schedule_bytes(),
                    r.pooled_bytes()
                );
                out!("kernels compiled: {}", stats.kernels_compiled);
                out!("kernel execs    : {}", stats.kernel_execs);
                out!("modeled time    : {:.3} ms", r.modeled_ms());
                out!("wall clock      : {:.3} ms", r.wall().as_secs_f64() * 1e3);
                if trace_on {
                    let trace = r.take_trace();
                    out!("\n! compile passes");
                    for (name, pt) in PASS_NAMES.iter().zip(kernel.stats().pass_timings.iter()) {
                        if pt.wall_ns == 0 && pt.checks == 0 {
                            continue; // pass disabled at this stage
                        }
                        out!(
                            "{:<22} {:>9.1} us   {} checks, {} diagnostics",
                            name,
                            pt.wall_ns as f64 / 1e3,
                            pt.checks,
                            pt.diagnostics
                        );
                    }
                    out!("\n! per-PE span summary (1 step)");
                    out_raw!("{}", trace.summary().render_table(1));
                    out!("\n! per-PE counters");
                    out!("{stats}");
                    if let Some(path) = &trace_file {
                        match std::fs::write(path, trace.to_chrome_json()) {
                            Ok(()) => out!(
                                "\ntrace written to {path} (open in chrome://tracing \
                                 or ui.perfetto.dev)"
                            ),
                            Err(e) => {
                                eprintln!("hpfsc: cannot write {path}: {e}");
                                exit(1)
                            }
                        }
                    }
                }
                if report_on || metrics_on {
                    let snap = r.metrics_snapshot().expect("metrics were configured");
                    let drift = r.drift_report().expect("metrics were configured");
                    if report_on {
                        out!(
                            "\n! run report: {} on {} PEs, {} steps, vm tier {}",
                            snap.config,
                            snap.pes,
                            snap.steps,
                            hpf_core::codegen::Tier::active().name()
                        );
                        out!("\n! per-PE utilization");
                        out_raw!("{}", snap.render_utilization());
                        out!("\n! span latency histograms (all PEs merged)");
                        out_raw!("{}", snap.render_histograms());
                        out!("\n! cost-model drift");
                        out_raw!("{}", drift.render_table());
                    }
                    if metrics_on {
                        match &metrics_file {
                            Some(path) if path.ends_with(".prom") => {
                                if let Err(e) = std::fs::write(path, snap.to_prometheus()) {
                                    eprintln!("hpfsc: cannot write {path}: {e}");
                                    exit(1)
                                }
                                out!("\nmetrics written to {path} (Prometheus text exposition)");
                            }
                            Some(path) => {
                                let doc = hpf_core::trace::json::Value::Object(vec![
                                    ("metrics".into(), snap.to_json()),
                                    ("drift".into(), drift.to_json()),
                                ]);
                                if let Err(e) = std::fs::write(path, doc.render()) {
                                    eprintln!("hpfsc: cannot write {path}: {e}");
                                    exit(1)
                                }
                                out!("\nmetrics written to {path}");
                            }
                            None => {
                                let doc = hpf_core::trace::json::Value::Object(vec![
                                    ("metrics".into(), snap.to_json()),
                                    ("drift".into(), drift.to_json()),
                                ]);
                                out!("{}", doc.render());
                            }
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("hpfsc: run failed: {e}");
                exit(1)
            }
        }
    }

    if analysis::has_errors(&diags) {
        exit(4)
    }
    if deny_warnings && !diags.is_empty() {
        exit(3)
    }
}
