//! **Tune check**: does the tuner's host price pick what the host runs
//! fastest? The one wall-clock experiment here — it validates the
//! tuner's pricing, not the paper.
//!
//! At each size, Problem 9 on the 2x2 base is searched once (no cache),
//! then every buildable candidate of that search is timed over the same
//! logical work (a multiple of 8 steps, as many as the host's pick runs
//! in about 50 ms, at most 512), for ten rounds with the candidate order
//! rotated each round so that no candidate always runs first or last.
//! Each table gives every candidate's host rank and measured-median rank,
//! and its footnotes the top-1 gap: how much slower, by the measured
//! medians, the host's pick runs than the fastest candidate.

use crate::experiments::input;
use crate::table::Table;
use hpf_core::tune::{host, Candidate};
use hpf_core::{presets, CompileOptions, Kernel, MachineConfig, Tuner};
use std::time::Instant;

/// Timing rounds per size.
const ROUNDS: usize = 10;

/// The largest top-1 gap at which the host's pick counts as the fastest
/// candidate: within host noise of the best measured median.
const GAP_BOUND: f64 = 0.05;

/// Run the check at every size in `sizes`: one table each, plus the
/// median over ten calibrations of what fitting the host profile costs.
pub fn tune_check(sizes: &[usize]) -> (Vec<Table>, f64) {
    let mut calib: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(host::calibrate());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    calib.sort_by(f64::total_cmp);
    (sizes.iter().map(|&n| check(n)).collect(), (calib[4] + calib[5]) / 2.0)
}

/// Search Problem 9 at `n` and time every buildable candidate.
fn check(n: usize) -> Table {
    let kernel =
        Kernel::compile(&presets::problem9(n), CompileOptions::full()).expect("Problem 9 compiles");
    let base = MachineConfig::with_grid(vec![2, 2]);
    let out = kernel.tune(&Tuner::new(base.clone()).no_cache()).expect("Problem 9 tunes");
    let cands: Vec<&Candidate> = out.candidates.iter().filter(|c| c.host_ms.is_finite()).collect();
    // Equal logical work for every candidate: a multiple of every depth,
    // enough for the host's pick to run about 50 ms (a threaded plan's
    // first steps after the warm-up still run slow), at most 512 steps.
    let probe = (0..3).map(|_| time(&kernel, &base, cands[0], 8)).fold(f64::INFINITY, f64::min);
    let logical = 8 * ((50.0 / (8.0 * probe)).ceil() as usize).clamp(1, 64);
    let mut samples = vec![Vec::with_capacity(ROUNDS); cands.len()];
    for round in 0..ROUNDS {
        for i in (0..cands.len()).map(|i| (i + round) % cands.len()) {
            samples[i].push(time(&kernel, &base, cands[i], logical));
        }
    }
    let medians: Vec<f64> = samples
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
        })
        .collect();
    let mut by_measured: Vec<usize> = (0..cands.len()).collect();
    by_measured.sort_by(|&a, &b| medians[a].total_cmp(&medians[b]));
    let mut measured_rank = vec![0; cands.len()];
    for (rank, &i) in by_measured.iter().enumerate() {
        measured_rank[i] = rank + 1;
    }

    let mut table = Table::new(
        format!("Tune check: Problem 9, N={n}, 2x2 base ({logical} logical steps a timing)"),
        &["candidate", "sp2 ms", "host ms", "host rank", "measured ms", "measured rank"],
    );
    for (i, c) in cands.iter().enumerate() {
        table.row(vec![
            c.label(),
            format!("{:.4}", c.modeled_ms),
            format!("{:.4}", c.host_ms),
            (i + 1).to_string(),
            format!("{:.4}", medians[i]),
            measured_rank[i].to_string(),
        ]);
    }
    let fastest = by_measured[0];
    let gap = medians[0] / medians[fastest] - 1.0;
    table.note(format!(
        "host top-1 {} measures {:.4} ms; fastest measured {} {:.4} ms; top-1 gap {:+.1}% ({} \
         the {:.0}% bound)",
        cands[0].label(),
        medians[0],
        cands[fastest].label(),
        medians[fastest],
        gap * 100.0,
        if gap <= GAP_BOUND { "within" } else { "beyond" },
        GAP_BOUND * 100.0
    ));
    table.note(format!(
        "medians of {ROUNDS} rounds, candidate order rotated each round; ms per logical step, \
         fresh plan each timing after one warm-up step"
    ));
    table
}

/// Milliseconds per logical step of `c` over `logical` logical steps of a
/// fresh plan, after one warm-up step.
fn time(kernel: &Kernel, base: &MachineConfig, c: &Candidate, logical: usize) -> f64 {
    let mut plan = kernel
        .plan(c.machine_config(base))
        .config(c.exec_config())
        .init("U", input)
        .build()
        .expect("a priced candidate builds");
    plan.step();
    let steps = logical / plan.logical_steps_per_step();
    let t = Instant::now();
    for _ in 0..steps {
        plan.step();
    }
    t.elapsed().as_secs_f64() * 1e3 / (steps * plan.logical_steps_per_step()) as f64
}
