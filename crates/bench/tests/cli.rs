//! End-to-end tests of the `experiments` binary's argument handling: every
//! bad invocation is one `experiments: …` line plus the usage text and an
//! exit code, never a panic.

use std::process::{Command, Output};

/// Every name `--exp` accepts.
const EXPERIMENTS: [&str; 12] = [
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

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("spawn experiments")
}

/// Assert exit 2, nothing on stdout, and a stderr of exactly the
/// `experiments: <message>` line followed by the usage line.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "{args:?}: {stderr}");
    assert_eq!(lines[0], format!("experiments: {message}"), "{args:?}");
    assert!(lines[1].starts_with("usage: experiments "), "{args:?}: {stderr}");
}

#[test]
fn bad_numbers_are_usage_errors() {
    assert_usage_error(&["--n", "x"], "--n: 'x' is not a positive size");
    assert_usage_error(&["--n", "0"], "--n: '0' is not a positive size");
    assert_usage_error(&["--sizes", "32,,64"], "--sizes: '' is not a positive size");
    assert_usage_error(
        &["--exp", "fig11", "--sizes", "-4"],
        "--sizes: '-4' is not a positive size",
    );
}

#[test]
fn missing_values_are_usage_errors() {
    for flag in ["--exp", "--n", "--sizes", "--engine"] {
        assert_usage_error(&[flag], &format!("{flag} needs a value"));
    }
}

#[test]
fn unknown_flags_and_engines_are_usage_errors() {
    assert_usage_error(&["--frobnicate"], "unknown argument '--frobnicate'");
    // Nothing retained takes a step count, so `--steps` is not a flag.
    assert_usage_error(&["--steps", "4"], "unknown argument '--steps'");
    let out = experiments(&["--engine", "warp9"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("experiments: --engine: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unknown_and_removed_experiments_exit_one_listing_the_valid_names() {
    for name in ["bogus", "codegen", "superstep", "scaling"] {
        let out = experiments(&["--exp", name]);
        assert_eq!(out.status.code(), Some(1), "--exp {name}");
        assert!(out.stdout.is_empty(), "--exp {name} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("unknown experiment '{name}' (valid: {})", EXPERIMENTS.join(", "))
        );
    }
}

#[test]
fn help_lists_exactly_the_experiments_and_flags() {
    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        help.trim_end(),
        format!(
            "usage: experiments [--exp {}] [--n SIZE] [--sizes a,b,c] \
             [--engine seq|threaded] [--json]",
            EXPERIMENTS.join("|")
        )
    );
}

#[test]
fn a_retained_experiment_still_runs() {
    let out = experiments(&["--exp", "comm-count", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.starts_with("[{\"title\": \"Communication counts"), "{json}");
}
