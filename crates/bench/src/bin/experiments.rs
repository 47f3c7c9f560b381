//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--exp all|fig11|fig17|fig18|comm-count|temp-storage|robustness|ablation|scaling|persistent|codegen|overlap|trace|tune|superstep|fig7to10|fuzz]
//!             [--n SIZE] [--sizes a,b,c] [--steps K]
//!             [--engine seq|threaded|threaded-overlap] [--json]
//! ```
//!
//! `--exp codegen` compares the interpreter and bytecode nest backends
//! (defaulting to N in {128, 512}) and writes the comparison to
//! `BENCH_codegen.json` in the current directory. `--exp overlap` compares
//! blocking threaded execution against the split-phase threaded-overlap
//! engine (defaulting to N in {128, 512, 2048}) and writes
//! `BENCH_overlap.json`. `--exp trace` runs Problem 9 traced under every
//! engine, attributes step time to compute/pack/send/drain/boundary from
//! the recorded spans, and writes `BENCH_trace.json`. `--exp tune` compares
//! the auto-tuner's pick against the default configuration and an
//! exhaustive search (defaulting to N in {128, 512, 2048}) and writes
//! `BENCH_tune.json`. `--exp superstep` runs Problem 9 at
//! communication-avoiding superstep depths {1, 2, 4, 8} under every engine
//! (defaulting to N in {128, 512}) and writes `BENCH_superstep.json`.
//! `--exp metrics` runs Problem 9 with metrics collection under every
//! engine, asserts the observation-only contract and exact drift-report
//! reconciliation, and writes `BENCH_metrics.json`. `--exp history`
//! appends the canonical small-suite key metrics (plus host metadata and
//! git revision) to `BENCH_history.json` — the baseline `benchdiff`
//! compares against.
//!
//! Every `BENCH_*.json` goes through the canonical `hpf-bench/v1`
//! envelope ([`hpf_bench::report::write_bench`]).
//!
//! `--engine` accepts the same specs as `hpfsc` (parsed by
//! [`ExecConfig::from_cli_str`]): an engine (`seq`, `threaded`,
//! `threaded-overlap`), a backend, or a pair like `threaded-bytecode`.

use hpf_bench::table::Table;
use hpf_bench::*;
use hpf_core::{Engine, ExecConfig};

/// Every experiment name `--exp` accepts, for the help text and the
/// unknown-experiment error.
const EXPERIMENTS: &[&str] = &[
    "all",
    "comm-count",
    "temp-storage",
    "fig11",
    "fig17",
    "fig18",
    "robustness",
    "ablation",
    "scaling",
    "persistent",
    "codegen",
    "overlap",
    "trace",
    "tune",
    "superstep",
    "metrics",
    "history",
    "fig7to10",
    "fuzz",
];

/// Write the experiment's table through the canonical envelope and print
/// it in the requested form.
fn emit(experiment: &str, t: &Table, json: bool) {
    let path = hpf_bench::report::write_bench(experiment, t);
    if json {
        println!("{}", t.to_json());
    } else {
        println!("{}", t.render());
    }
    eprintln!("wrote {path}");
}

struct Args {
    exp: String,
    n: usize,
    sizes: Vec<usize>,
    sizes_given: bool,
    steps: usize,
    engine: Engine,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        exp: "all".to_string(),
        n: 256,
        sizes: vec![64, 128, 256, 512],
        sizes_given: false,
        steps: 10,
        engine: Engine::Sequential,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exp" => args.exp = it.next().expect("--exp VALUE"),
            "--n" => args.n = it.next().expect("--n SIZE").parse().expect("numeric size"),
            "--steps" => {
                args.steps = it.next().expect("--steps K").parse().expect("numeric step count")
            }
            "--sizes" => {
                args.sizes = it
                    .next()
                    .expect("--sizes a,b,c")
                    .split(',')
                    .map(|s| s.trim().parse().expect("numeric size"))
                    .collect();
                args.sizes_given = true;
            }
            "--engine" => {
                let spec = it.next().expect("--engine seq|threaded|threaded-overlap");
                match ExecConfig::from_cli_str(&spec) {
                    Ok(cfg) => args.engine = cfg.engine,
                    Err(e) => panic!("--engine: {e}"),
                }
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp {}] [--n SIZE] [--sizes a,b,c] [--steps K] [--engine seq|threaded|threaded-overlap] [--json]",
                    EXPERIMENTS.join("|")
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut tables: Vec<Table> = Vec::new();
    let want = |name: &str| args.exp == "all" || args.exp == name;
    if want("comm-count") {
        tables.push(comm_count());
    }
    if want("temp-storage") {
        tables.push(temp_storage());
    }
    if want("fig11") {
        tables.push(fig11(&args.sizes, args.engine));
    }
    if want("fig17") {
        tables.push(fig17(args.n, args.engine));
    }
    if want("fig18") {
        tables.push(fig18(&args.sizes, args.engine));
    }
    if want("robustness") {
        tables.push(robustness());
    }
    if want("ablation") {
        tables.push(ablation(args.n, args.engine));
    }
    if want("scaling") {
        tables.push(scaling(args.n, args.engine));
    }
    if want("persistent") {
        tables.push(persistent(args.n, args.steps, args.engine));
    }
    if args.exp == "codegen" {
        // Both backends, both engines; defaults to the paper-scale sizes.
        let sizes: Vec<usize> = if args.sizes_given { args.sizes.clone() } else { vec![128, 512] };
        emit("codegen", &codegen(&sizes, args.steps), args.json);
        return;
    }
    if args.exp == "overlap" {
        // Blocking threaded vs threaded-overlap, bytecode backend; defaults
        // to sizes from a small step up to the headline N=2048.
        let sizes: Vec<usize> =
            if args.sizes_given { args.sizes.clone() } else { vec![128, 512, 2048] };
        emit("overlap", &overlap(&sizes, args.steps), args.json);
        return;
    }
    if args.exp == "trace" {
        // Per-engine span attribution for Problem 9; the experiment itself
        // validates the chrome JSON and the hidden-credit agreement.
        emit("trace", &trace_attribution(args.n, args.steps), args.json);
        return;
    }
    if args.exp == "tune" {
        // Tuned vs default vs exhaustive-search config; defaults to the
        // same headline sizes as the overlap experiment.
        let sizes: Vec<usize> =
            if args.sizes_given { args.sizes.clone() } else { vec![128, 512, 2048] };
        emit("tune", &tune(&sizes, args.steps), args.json);
        return;
    }
    if args.exp == "superstep" {
        // Communication-avoiding superstep depths {1,2,4,8} on Problem 9;
        // every depth runs the same logical-step budget and is verified
        // bitwise against the classic schedule. Defaults to the paper-scale
        // sizes where the wall-clock win is also asserted.
        let sizes: Vec<usize> = if args.sizes_given { args.sizes.clone() } else { vec![128, 512] };
        emit("superstep", &superstep(&sizes, args.steps), args.json);
        return;
    }
    if args.exp == "metrics" {
        // Per-engine metrics collection; the experiment itself asserts the
        // observation-only contract and drift reconciliation.
        emit("metrics", &metrics(args.n, args.steps), args.json);
        return;
    }
    if args.exp == "history" {
        // Append the canonical small-suite metrics to the regression
        // baseline; `benchdiff` compares two of these files.
        let meta = hpf_bench::report::run_meta();
        let metrics = hpf_bench::report::canonical_metrics();
        match hpf_bench::report::append_history("BENCH_history.json", &meta, &metrics) {
            Ok(count) => {
                for (k, v) in &metrics {
                    println!("{k} = {v}");
                }
                eprintln!(
                    "wrote BENCH_history.json ({count} entries, rev {}, host {})",
                    meta.git_rev, meta.host
                );
            }
            Err(e) => {
                eprintln!("experiments: --exp history: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.exp == "fig7to10" {
        println!("{}", hpf_bench::figures::figures_7_to_10(4));
        return;
    }
    if args.exp == "fuzz" {
        let spec = hpf_bench::workload::WorkloadSpec::default();
        let outcomes = hpf_bench::workload::fuzz_sweep(&spec, 32, 42);
        let failures: Vec<_> = outcomes.iter().filter(|o| o.failure.is_some()).collect();
        println!("fuzz sweep: {} cases, {} failures", outcomes.len(), failures.len());
        for f in failures {
            println!("seed {}: {}", f.seed, f.failure.as_ref().unwrap());
        }
        return;
    }
    if tables.is_empty() {
        eprintln!(
            "{}",
            hpf_core::exec::config::unknown_value("experiment", &args.exp, EXPERIMENTS)
        );
        std::process::exit(1);
    }
    if args.json {
        println!("{}", hpf_bench::table::tables_to_json(&tables));
    } else {
        for t in tables {
            println!("{}", t.render());
        }
    }
}
