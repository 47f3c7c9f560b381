//! Experiment harness: regenerates the tables and figures of the paper's
//! evaluation, on counters and modeled SP-2 time.
//!
//! ```text
//! experiments [--exp all|comm-count|temp-storage|fig11|fig17|fig18|robustness|ablation|history|fig7to10|fuzz|tune-check]
//!             [--n SIZE] [--sizes a,b,c]
//!             [--engine seq|threaded] [--json]
//! ```
//!
//! `--exp all` (the default) prints the seven paper tables. `--exp
//! history` appends the canonical small-suite key metrics (plus host
//! metadata and git revision) to `BENCH_history.json` in the current
//! directory — the baseline `benchdiff` compares against. Wall-clock
//! performance is not measured here: that is `benchmark/`'s job. The one
//! exception, `--exp tune-check`, times every tuner candidate of Problem 9
//! at `--sizes` (default 192,1024,2048) to validate the tuner's host
//! pricing (see [`hpf_bench::tune_check`]).
//!
//! `--engine` accepts the same specs as `hpfsc` (parsed by
//! [`ExecConfig::from_cli_str`]): an engine (`seq`, `threaded`), a
//! backend, or a pair like `threaded-bytecode`.
//!
//! Exit codes: 0 success; 1 unknown experiment or history I/O failure;
//! 2 usage error.

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
    "history",
    "fig7to10",
    "fuzz",
    "tune-check",
];

fn usage() -> String {
    format!(
        "usage: experiments [--exp {}] [--n SIZE] [--sizes a,b,c] [--engine seq|threaded] [--json]",
        EXPERIMENTS.join("|")
    )
}

struct Args {
    exp: String,
    n: usize,
    /// `--sizes`, when given: each experiment has its own default.
    sizes: Option<Vec<usize>>,
    engine: Engine,
    json: bool,
}

fn size(flag: &str, text: &str) -> Result<usize, String> {
    match text.trim().parse() {
        Ok(0) | Err(_) => Err(format!("{flag}: '{text}' is not a positive size")),
        Ok(n) => Ok(n),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        exp: "all".to_string(),
        n: 256,
        sizes: None,
        engine: Engine::Sequential,
        json: false,
    };
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--exp" => args.exp = value()?,
            "--n" => args.n = size("--n", &value()?)?,
            "--sizes" => {
                args.sizes = Some(
                    value()?.split(',').map(|s| size("--sizes", s)).collect::<Result<_, _>>()?,
                )
            }
            "--engine" => {
                args.engine = ExecConfig::from_cli_str(&value()?)
                    .map_err(|e| format!("--engine: {e}"))?
                    .engine
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{}", usage());
        std::process::exit(2);
    });
    if !EXPERIMENTS.contains(&args.exp.as_str()) {
        eprintln!(
            "{}",
            hpf_core::exec::config::unknown_value("experiment", &args.exp, EXPERIMENTS)
        );
        std::process::exit(1);
    }
    if args.exp == "history" {
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
    if args.exp == "tune-check" {
        let sizes = args.sizes.unwrap_or_else(|| vec![192, 1024, 2048]);
        let (tables, calib_ms) = hpf_bench::tune_check::tune_check(&sizes);
        if args.json {
            println!("{}", hpf_bench::table::tables_to_json(&tables));
        } else {
            for t in tables {
                println!("{}", t.render());
            }
            println!("host profile calibration: median {calib_ms:.1} ms of 10");
        }
        return;
    }
    let sizes = args.sizes.unwrap_or_else(|| vec![64, 128, 256, 512]);
    let paper: [(&str, &dyn Fn() -> Table); 7] = [
        ("comm-count", &comm_count),
        ("temp-storage", &temp_storage),
        ("fig11", &|| fig11(&sizes, args.engine)),
        ("fig17", &|| fig17(args.n, args.engine)),
        ("fig18", &|| fig18(&sizes, args.engine)),
        ("robustness", &robustness),
        ("ablation", &|| ablation(args.n, args.engine)),
    ];
    let tables: Vec<Table> = paper
        .iter()
        .filter(|(name, _)| args.exp == "all" || args.exp == *name)
        .map(|(_, table)| table())
        .collect();
    if args.json {
        println!("{}", hpf_bench::table::tables_to_json(&tables));
    } else {
        for t in tables {
            println!("{}", t.render());
        }
    }
}
