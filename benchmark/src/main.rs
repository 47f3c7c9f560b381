//! `hpf-benchmark` — the repo benchmark.
//!
//! ```text
//! hpf-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! hpf-benchmark --all [--seed N] [--seconds S] [--smoke]           every workload, untraced then traced
//! hpf-benchmark --repeat K [--smoke]                               K suites, first half against second
//! hpf-benchmark --compare A.json B.json                            two result files against each other
//! hpf-benchmark --manifest                                         print BENCHMARK.json
//! ```
//!
//! Run from the root of the checkout: paths under `benchmark/out/` are
//! relative to it. See `benchmark/README.md`.

mod gen;
mod json;
mod layers;
mod manifest;
mod native;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    all: bool,
    repeat: Option<usize>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: manifest::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        all: false,
        repeat: None,
        compare: None,
        manifest: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => a.smoke = true,
            "--all" => a.all = true,
            "--repeat" => {
                a.repeat = Some(value("a count")?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", a.seconds));
    }
    if a.smoke && !seconds_given {
        a.seconds = 0.3;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpf-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest::json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return suite::compare_files(a, b);
    }
    if let Some(k) = args.repeat {
        return suite::repeat(k.max(2), args.seed, args.seconds, args.smoke);
    }
    if args.all {
        return suite::all(args.seed, args.seconds, args.smoke);
    }
    let Some(name) = &args.workload else {
        eprintln!(
            "hpf-benchmark: give --workload NAME, --all, --repeat K, --compare A B or --manifest"
        );
        return ExitCode::from(2);
    };
    let Some(spec) = workloads::spec(name, args.smoke) else {
        eprintln!(
            "hpf-benchmark: unknown workload '{name}' (valid: {})",
            workloads::names().collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = run::run(&spec, args.seed, args.seconds, args.trace);
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {:>18} {unit}", run::fmt_value(*value));
    }
    println!("{:<36} {:>18} count", "ops_total", outcome.ops.attempted);
    println!("{:<36} {:>18} count", "ops_failed", outcome.ops.failed);
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
