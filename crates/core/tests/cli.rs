//! End-to-end tests of the `hpfsc` driver binary: exit codes, lint
//! reporting, JSON diagnostics, and argument validation.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn hpfsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpfsc")).args(args).output().expect("spawn hpfsc")
}

fn write_preset(name: &str) -> PathBuf {
    // Tests run concurrently in one process and each removes its file when
    // done, so every call needs a path of its own.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let out = hpfsc(&["--print-input", name]);
    assert!(out.status.success(), "--print-input {name} failed");
    let path =
        std::env::temp_dir().join(format!("hpfsc-cli-{}-{call}-{name}.f90", std::process::id()));
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

/// `! vm tier: NAME` for the tier this host runs the VM at: `avx2` where
/// it has AVX2, `portable` elsewhere.
fn vm_tier_line() -> String {
    let name = hpf_core::codegen::Tier::active().name();
    assert!(["avx2", "portable"].contains(&name), "{name}");
    format!("! vm tier: {name}")
}

const PRESETS: [&str; 7] = [
    "five-point",
    "nine-point-cshift",
    "nine-point-array",
    "problem9",
    "jacobi",
    "image-blur",
    "wave2d",
];

#[test]
fn print_input_needs_no_file_and_prints_source() {
    let out = hpfsc(&["--print-input", "problem9:8"]);
    assert_eq!(out.status.code(), Some(0));
    let src = String::from_utf8(out.stdout).unwrap();
    assert!(src.contains("PROGRAM problem9"), "{src}");
    assert!(src.contains("PARAM N = 8"), "{src}");
}

#[test]
fn unknown_preset_is_a_usage_error() {
    let out = hpfsc(&["--print-input", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset 'nope'"));
}

#[test]
fn unknown_flag_reports_the_flag() {
    let out = hpfsc(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unrecognized option '--frobnicate'"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_exits_zero_and_documents_every_flag() {
    let out = hpfsc(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--stage",
        "--emit",
        "--lint",
        "--deny-warnings",
        "--run",
        "--grid",
        "--halo",
        "--engine",
        "--print-input",
        "--naive",
        "--drop-shift",
    ] {
        assert!(text.contains(flag), "usage omits {flag}");
    }
    // The `//!` synopsis at the top of the driver source must name every
    // flag the usage text documents.
    let source = include_str!("../src/bin/hpfsc.rs");
    let synopsis: String = source.lines().take_while(|l| l.starts_with("//!")).collect();
    let mut flags: Vec<&str> = text
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .filter(|w| w.starts_with("--") && w.len() > 2)
        .collect();
    flags.sort_unstable();
    flags.dedup();
    assert!(flags.len() >= 18, "flag scan found only {flags:?}");
    for flag in flags {
        assert!(synopsis.contains(flag), "hpfsc.rs synopsis omits {flag}");
    }
}

#[test]
fn presets_lint_clean_under_deny_warnings() {
    for name in PRESETS {
        let path = write_preset(name);
        let out = hpfsc(&[path.to_str().unwrap(), "--lint", "--deny-warnings"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name} not lint-clean: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn planted_uncovered_ghost_read_exits_4_with_span() {
    let path = write_preset("problem9");
    let out = hpfsc(&[path.to_str().unwrap(), "--lint", "--drop-shift", "0"]);
    assert_eq!(out.status.code(), Some(4), "lint errors must exit 4");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("HS001"), "stderr: {text}");
    assert!(text.contains("uncovered ghost read"), "stderr: {text}");
    // A source span in line:col form anchors the diagnostic.
    assert!(
        text.lines().any(|l| l.contains("error[HS001]") && l.contains(':')),
        "no span on HS001: {text}"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn diag_json_is_machine_readable_and_exits_4_on_errors() {
    let path = write_preset("problem9");
    let out = hpfsc(&[path.to_str().unwrap(), "--emit", "diag-json", "--drop-shift", "0"]);
    assert_eq!(out.status.code(), Some(4));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.trim_start().starts_with('['), "{json}");
    assert!(json.contains("\"code\":\"HS001\""), "{json}");
    assert!(json.contains("\"span\":{\"line\":"), "{json}");
    // Clean program: empty array, exit 0.
    let out = hpfsc(&[path.to_str().unwrap(), "--emit", "diag-json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[]");
    let _ = std::fs::remove_file(path);
}

#[test]
fn emit_bytecode_lists_problem9_as_a_few_folds() {
    // 128 / 2 = 64-point rows: wider than a chunk, so rows run chunked.
    let path = write_preset("problem9:128");
    let out = hpfsc(&[path.to_str().unwrap(), "--emit", "bytecode", "--grid", "2x2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // The header names the instruction set the chunked rows run at.
    assert_eq!(text.lines().nth(1), Some(vm_tier_line().as_str()), "{text}");
    // "  jammed body: N ops per 2 points, chunked, ..." — one fold per
    // statement instance, not a load/add/store string per tap (30 ops).
    let jammed = text.lines().find(|l| l.contains("jammed body:")).expect("a jammed body line");
    let words: Vec<&str> = jammed.split_whitespace().collect();
    let ops: usize = words[2].parse().unwrap_or_else(|_| panic!("op count in '{jammed}'"));
    assert_eq!(&words[3..6], ["ops", "per", "2"], "{jammed}");
    assert!(ops <= 8, "Problem 9's jammed body lists {ops} ops per two points:\n{text}");
    assert!(jammed.contains("chunked"), "{jammed}");
    assert!(text.contains("unit body:"), "{text}");
    assert!(text.contains("chain") && text.contains("tap U["), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn report_header_names_the_vm_tier() {
    let path = write_preset("problem9");
    let out = hpfsc(&[path.to_str().unwrap(), "--run", "--report"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let tier = vm_tier_line().replace("! vm tier: ", ", vm tier ");
    let want = format!("! run report: seq-bytecode on 4 PEs, 1 steps{tier}");
    assert!(text.lines().any(|l| l == want), "no '{want}' line:\n{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn dropped_shift_fails_the_verified_run() {
    let path = write_preset("problem9");
    let ok = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats"]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    let bad = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--drop-shift", "0"]);
    assert_eq!(bad.status.code(), Some(1), "corrupted kernel must fail verification");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("verification failed"));
    let _ = std::fs::remove_file(path);
}

/// A section copy between arrays of different shapes is a run failure that
/// names both arrays, not a panic. A debug build's pipeline invariant
/// checks stop at the statement (IR002) before the plan builder sees it.
#[test]
#[cfg_attr(debug_assertions, ignore = "the debug pipeline's IR002 check stops it first")]
fn a_nest_over_arrays_of_different_shapes_fails_the_run() {
    for (i, stmt) in ["A(1:8,1:8) = B", "B = A(1:8,1:8)"].iter().enumerate() {
        let name = format!("hpfsc-cli-{}-unlike-{i}.f90", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, format!("REAL A(10,10), B(8,8)\n{stmt}\n")).unwrap();
        for grid in ["1x1", "2x2"] {
            let out = hpfsc(&[path.to_str().unwrap(), "--run", "--grid", grid]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{stmt} on {grid}: {err}");
            assert!(err.contains("cannot share a loop nest"), "{stmt} on {grid}: {err}");
        }
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn bad_engine_names_the_flag_and_lists_choices() {
    let out = hpfsc(&["--engine", "warp9"]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--engine"), "stderr must name the flag: {text}");
    assert!(text.contains("'warp9'"), "stderr must echo the bad value: {text}");
    for choice in ["seq", "threaded", "interp", "bytecode"] {
        assert!(text.contains(choice), "stderr must list choice {choice}: {text}");
    }
    // The deleted split-phase engine's spelling is just another bad value.
    let out = hpfsc(&["--engine", "threaded-overlap"]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    let error = text.lines().next().unwrap_or_default();
    assert!(error.contains("--engine") && error.contains("'threaded-overlap'"), "{text}");
    assert!(!error.contains("threaded-overlap,"), "choices must not offer it: {error}");
    assert!(!text.contains("threaded-overlap-"), "usage must not offer it: {text}");
}

#[test]
fn a_grid_extent_below_one_is_a_usage_error() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/problem9.f90");
    for grid in ["0x2", "2x0", "0"] {
        for mode in ["--run", "--verify", "--tune"] {
            let out = hpfsc(&[kernel, mode, "--grid", grid]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{mode} --grid {grid}: {err}");
            assert!(err.contains(&format!("bad --grid {grid}")), "{mode} --grid {grid}: {err}");
        }
    }
}

/// A program of rank 8 is a compile error at its declaration (exit 1),
/// and a grid of eight axes, which no program can use, a usage error.
#[test]
fn rank_eight_is_refused_by_the_frontend_and_the_grid() {
    let path = std::env::temp_dir().join(format!("hpfsc-cli-{}-rank8.f90", std::process::id()));
    let dims = ["2"; 8].join(",");
    std::fs::write(&path, format!("REAL A({dims}), B({dims})\nA = B\n")).unwrap();
    let out = hpfsc(&[path.to_str().unwrap(), "--run"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("1:6: array A has rank 8") && err.contains("at most 7"), "{err}");
    let grid = ["1"; 8].join("x");
    let out = hpfsc(&[path.to_str().unwrap(), "--run", "--grid", &grid]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(&format!("bad --grid {grid}: at most 7 axes")), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn verify_reports_the_kernels_the_plan_compiled() {
    // One kernel per nest and subgrid layout: Problem 9's one nest has one
    // layout on the dividing 2x2 grid.
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/problem9.f90");
    let out = hpfsc(&[kernel, "--verify", "--grid", "2x2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let verified: Vec<&str> = text.lines().filter(|l| l.starts_with("! verified:")).collect();
    assert_eq!(verified, ["! verified: kernels compiled: 1, [2, 2] grid"], "{text}");
}

#[test]
fn engine_accepts_backend_and_combined_forms() {
    let path = write_preset("five-point");
    for spec in ["seq", "threaded", "interp", "bytecode", "seq-bytecode", "threaded-bytecode"] {
        let out = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--engine", spec]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--engine {spec} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The bytecode backend reports its kernel counters in the run summary.
    let out = hpfsc(&[path.to_str().unwrap(), "--run", "--emit", "stats", "--engine", "bytecode"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernels compiled"), "{text}");
    assert!(text.contains("kernel execs"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_defaults_to_the_bytecode_backend_and_interp_can_still_be_named() {
    let path = write_preset("five-point");
    let summary = |extra: &[&str]| {
        let out = hpfsc(&[&[path.to_str().unwrap(), "--run"], extra].concat());
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let default = summary(&[]);
    assert!(default.contains("kernels compiled: 1"), "{default}");
    for engine in ["seq", "threaded"] {
        let named = summary(&["--engine", engine]);
        assert!(named.contains("kernels compiled: "), "{engine}: {named}");
    }
    let interp = summary(&["--engine", "seq-interp"]);
    assert!(!interp.contains("kernels compiled"), "{interp}");
    assert!(hpfsc(&["--help"]).stdout.windows(21).any(|w| w == b"default: seq-bytecode"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn missing_file_is_an_io_error() {
    let out = hpfsc(&["/nonexistent/kernel.f90"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn tune_prints_the_bytecode_space_and_a_best_line_that_names_the_winner() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/problem9.f90");
    let cache = std::env::temp_dir().join(format!("hpfsc-cli-{}-tune.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let tune = format!("--tune={}", cache.display());

    let out = hpfsc(&[kernel, &tune]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let summary = text.lines().find(|l| l.starts_with("! tune:")).expect("a ! tune: line");
    assert!(
        summary.starts_with("! tune: searched 24 candidates, 12 probes, priced on host (cores "),
        "{summary}"
    );
    // The host profile is fitted under the active VM tier, which the cache
    // key includes.
    let tier = vm_tier_line().replace("! vm tier: ", ", vm tier ") + ", ";
    assert!(summary.contains(&tier), "{summary}");
    // The decision log: `[*] grid config ss sp2-ms host-ms why`, all
    // bytecode, and nothing measured.
    let header = text.lines().position(|l| l.contains("sp2 ms")).expect("a table header");
    let columns: Vec<&str> = text.lines().nth(header).unwrap().split_whitespace().collect();
    assert_eq!(columns, ["grid", "config", "ss", "sp2", "ms", "host", "ms", "why"], "{text}");
    assert!(!text.contains("measured") && !text.contains("timed"), "{text}");
    let rows: Vec<&str> =
        text.lines().skip(header + 1).take_while(|l| !l.starts_with('!')).collect();
    assert_eq!(rows.len(), 24, "{text}");
    let name = |row: &str| -> Vec<String> {
        row.trim_start_matches('*').split_whitespace().take(3).map(String::from).collect()
    };
    assert!(rows.iter().all(|r| name(r)[1].ends_with("-bytecode")), "{text}");
    assert!(!text.contains("overlap"), "the split-phase engine is gone:\n{text}");
    let starred: Vec<&&str> = rows.iter().filter(|r| r.starts_with('*')).collect();
    assert_eq!(starred.len(), 1, "{text}");
    assert!(starred[0].ends_with(" winner"), "{text}");
    // Every other row says how much dearer the host prices it.
    assert!(rows
        .iter()
        .filter(|r| !r.starts_with('*'))
        .all(|r| r.contains("% ") || r.ends_with('%')));
    // The `! best:` line is the starred row's `Candidate::label()`, depth
    // included (a deep superstep wins at this size), with its host price.
    let winner = name(starred[0]);
    let ss = if winner[2] == "1" { String::new() } else { format!(" ss={}", winner[2]) };
    let label = format!("! best: {} {}{ss} (", winner[0], winner[1]);
    let best = text.lines().find(|l| l.starts_with("! best:")).expect("a ! best: line");
    assert!(best.starts_with(&label), "'{best}' does not name the starred row '{label}'");
    assert!(best.ends_with(" ms on host)"), "{best}");

    // The warm rerun repeats the decision without searching.
    let warm = hpfsc(&[kernel, &tune]);
    assert_eq!(warm.status.code(), Some(0));
    let warm = String::from_utf8(warm.stdout).unwrap();
    assert!(warm.contains("cache hit") && warm.contains("zero candidates searched"), "{warm}");
    assert!(!warm.contains("sp2 ms"), "a cache hit prints no table:\n{warm}");
    assert_eq!(warm.lines().find(|l| l.starts_with("! best:")), Some(best), "{warm}");
    let _ = std::fs::remove_file(cache);
}

#[test]
fn an_auto_run_reports_the_superstep_depth_the_tuner_picked() {
    let kernel = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/problem9.f90");
    let cache = std::env::temp_dir().join(format!("hpfsc-cli-{}-auto.json", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let tune = format!("--tune={}", cache.display());
    let out = hpfsc(&[kernel, "--run", "--engine", "auto", "--grid", "2x2", &tune]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    // Whatever this host picks, the run summary reports the plan that ran:
    // a superstep line exactly when the `! best:` line names a depth.
    let best = text.lines().find(|l| l.starts_with("! best:")).expect("a ! best: line");
    let depth = best.split_whitespace().find_map(|w| w.strip_prefix("ss="));
    let line = text.lines().find(|l| l.starts_with("superstep       :"));
    match (depth, line) {
        (Some(k), Some(line)) => {
            assert!(line.starts_with(&format!("superstep       : depth {k}, ")), "{text}")
        }
        (None, None) => {}
        _ => panic!("'{best}' and the superstep line disagree:\n{text}"),
    }
    let _ = std::fs::remove_file(cache);
}
