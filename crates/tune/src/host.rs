//! The host cost profile the tuner ranks candidates by, and the calibration
//! that fits it.
//!
//! [`calibrate`] runs the program's own VM and engines on small kernels
//! and solves for the [`HostProfile`] terms:
//!
//! - **VM costs per load, store, flop, iteration and row**: two ladder
//!   kernels on one PE — a load ladder (two taps of one array up to
//!   Problem 9's nine) and a flop ladder (two taps up to seven more
//!   additions of the same tap) — plus the first rung unjammed and over
//!   short rows. That is five sequential plans with known per-step counts;
//!   the five step times determine the five costs.
//! - **Copy cost per byte**: a `memcpy` of an in-cache buffer.
//! - **Message costs**: a four-shift exchange kernel, timed on both
//!   engines. A threaded step's time beyond the sequential step's spread
//!   over the cores is what threading adds, charged to the busiest PE's
//!   message endpoints: on two PEs, whose waits spin when the host has two
//!   cores, and on more PEs than cores (twice the cores, at most two
//!   more), whose waits park. The parked exchange gives every PE about
//!   0.2 ms of work a step, since a parked wait lasts until the PE it
//!   waits for gets a core back, which a step of no work would hide, and
//!   reports the median of its batches: how long those waits take depends
//!   on what else the host runs, which is part of what is measured.
//!
//! A process fits the profile once, on its first tune-cache miss
//! ([`profile`]); the decisions it makes are persisted in the tune cache,
//! so a warm process never calibrates.

use hpf_exec::{Backend, Engine, ExecConfig, ExecPlan};
use hpf_passes::loopir::NodeProgram;
use hpf_passes::CompileOptions;
use hpf_runtime::{HostProfile, Machine, MachineConfig, PeStats};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The cores the threaded engine's spin rule counts (its
/// `available_parallelism`), at least 1.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's host profile: calibrated on the first call, then shared.
pub fn profile() -> HostProfile {
    static PROFILE: OnceLock<HostProfile> = OnceLock::new();
    *PROFILE.get_or_init(calibrate)
}

/// Fit a [`HostProfile`] to this host (tens of milliseconds; see the
/// module docs).
pub fn calibrate() -> HostProfile {
    let mut p = HostProfile { cores: cores(), copy_ns_per_byte: memcpy_ns_per_byte(), ..ZERO };
    fit_vm(&mut p);
    p.msg_park_ns = msg_ns(&p, p.cores + p.cores.min(2), 96);
    p.msg_spin_ns = if p.cores >= 2 { msg_ns(&p, 2, 8) } else { p.msg_park_ns };
    p
}

/// The two-tap first rung both ladders start from.
const TWO_TAPS: &str = "T = U + CSHIFT(U,1,1)";

/// The load ladder's top rung: Problem 9's nine taps of one array.
const NINE_TAPS: &str = "RIP = CSHIFT(U,1,1)\nRIN = CSHIFT(U,-1,1)\nT = U + RIP + RIN\n\
    T = T + CSHIFT(U,-1,2)\nT = T + CSHIFT(U,1,2)\nT = T + CSHIFT(RIP,-1,2)\n\
    T = T + CSHIFT(RIP,1,2)\nT = T + CSHIFT(RIN,-1,2)\nT = T + CSHIFT(RIN,1,2)";

/// The flop ladder's top rung: the first rung plus the same tap seven
/// more times — seven more additions, each reading its operand from
/// memory as a tap does, and no new load.
const MORE_FLOPS: &str = "T = U + CSHIFT(U,1,1) + U + U + U + U + U + U + U";

/// The rungs: (body, unroll factor, rows × row length), all over 6144
/// points. The short rows are one and a half of the VM's 32-lane chunks
/// long, so the row cost includes the half-empty chunk an average row
/// ends with.
const RUNGS: [(&str, usize, (usize, usize)); 5] = [
    (TWO_TAPS, 2, (8, 768)),
    (TWO_TAPS, 2, (128, 48)),
    (TWO_TAPS, 1, (8, 768)),
    (NINE_TAPS, 2, (8, 768)),
    (MORE_FLOPS, 2, (8, 768)),
];

/// Solve the five rungs' step times, less their priced wrap-around copies
/// (one PE wraps its own halos), for the VM's per-load, -store, -flop,
/// -iteration and -row costs. A cost the noise drives below zero is 0.
fn fit_vm(p: &mut HostProfile) {
    let mut a = [[0.0f64; 6]; 5];
    for (row, &(body, unroll, (rows, len))) in a.iter_mut().zip(&RUNGS) {
        let arrays = ["U", "T", "RIP", "RIN"];
        let decls = arrays.map(|a| format!("{a}({rows},{len})")).join(", ");
        let dists: String =
            arrays.iter().map(|a| format!("!HPF$ DISTRIBUTE {a}(BLOCK,BLOCK)\n")).collect();
        let src = format!("PROGRAM rung\nREAL {decls}\nREAL C = 0.5\n{dists}{body}\nEND\n");
        let opts = CompileOptions { unroll_factor: unroll, ..CompileOptions::full() };
        let checked = hpf_frontend::compile_source(&src).expect("the ladder kernels parse");
        let node = hpf_passes::compile(&checked, opts).node;
        let (counts, nest_rows, ns) = time_plan(&node, &[1, 1], Engine::Sequential, WORK);
        let c = counts[0];
        let copies = (c.wrap_bytes + c.intra_bytes) as f64 * p.copy_ns_per_byte;
        *row = [
            c.loads as f64,
            c.stores as f64,
            c.flops as f64,
            c.iters as f64,
            nest_rows[0] as f64,
            ns - copies,
        ];
    }
    let x = solve(a);
    [p.load_ns, p.store_ns, p.flop_ns, p.iter_ns, p.row_ns] = x.map(|v| v.max(0.0));
}

/// Gaussian elimination with partial pivoting on the augmented 5×6
/// system `a`; a singular column solves to 0.
fn solve(mut a: [[f64; 6]; 5]) -> [f64; 5] {
    for col in 0..5 {
        let pivot = (col..5).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()));
        a.swap(col, pivot.expect("a non-empty range"));
        if a[col][col].abs() < 1e-12 {
            continue;
        }
        let pivot_row = a[col];
        for (_, row) in a.iter_mut().enumerate().filter(|&(r, _)| r != col) {
            let f = row[col] / pivot_row[col];
            for (x, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
        }
    }
    std::array::from_fn(|i| if a[i][i].abs() < 1e-12 { 0.0 } else { a[i][5] / a[i][i] })
}

/// What threading adds to an exchange on `pes` PEs, a four-shift stencil
/// on a `pes`×1 grid whose PEs own `rows` rows of 1024 points each: a
/// threaded step's time beyond the sequential step's spread over
/// `min(pes, cores)` cores, per message endpoint of the busiest PE.
fn msg_ns(p: &HostProfile, pes: usize, rows: usize) -> f64 {
    let src = format!(
        "PROGRAM exchange\nREAL U({n},1024), T({n},1024)\n!HPF$ DISTRIBUTE U(BLOCK,BLOCK)\n\
         !HPF$ DISTRIBUTE T(BLOCK,BLOCK)\nT = CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) \
         + CSHIFT(U,-1,2)\nEND\n",
        n = rows * pes
    );
    let checked = hpf_frontend::compile_source(&src).expect("the exchange kernel parses");
    let node = hpf_passes::compile(&checked, CompileOptions::full()).node;
    let grid = [pes, 1];
    let (counts, _, seq) = time_plan(&node, &grid, Engine::Sequential, BASELINE);
    let (_, _, threaded) = time_plan(&node, &grid, Engine::Threaded, WAITS);
    let endpoints = counts.iter().map(|s| s.msgs_sent + s.msgs_recv).max().unwrap_or(0).max(1);
    ((threaded - seq / pes.min(p.cores) as f64) / endpoints as f64).max(0.0)
}

/// A host on which nothing costs anything.
const ZERO: HostProfile = HostProfile {
    cores: 1,
    load_ns: 0.0,
    store_ns: 0.0,
    flop_ns: 0.0,
    iter_ns: 0.0,
    row_ns: 0.0,
    copy_ns_per_byte: 0.0,
    msg_spin_ns: 0.0,
    msg_park_ns: 0.0,
};

/// How [`time_plan`] times a plan: `batches` batches of steps, each
/// lasting about `batch_ns` (at least two steps), after one warm-up step.
#[derive(Clone, Copy)]
struct Timing {
    batches: usize,
    batch_ns: f64,
    /// Report the median batch — waits on the scheduler depend on the
    /// host's other load, which is part of what is measured — instead of
    /// the fastest: other load only ever adds time to work.
    median: bool,
}

/// VM work: the fastest of five short batches.
const WORK: Timing = Timing { batches: 5, batch_ns: 2e5, median: false };

/// The sequential baseline of an exchange: the fastest of two batches.
const BASELINE: Timing = Timing { batches: 2, batch_ns: 1e6, median: false };

/// Threaded waits: the median of seven batches.
const WAITS: Timing = Timing { batches: 7, batch_ns: 1e6, median: true };

/// Build `node` on a `grid` machine for `engine` (bytecode) and time its
/// steps as `timing` says: the per-PE counts and rows of one step, and its
/// nanoseconds.
fn time_plan(
    node: &NodeProgram,
    grid: &[usize],
    engine: Engine,
    timing: Timing,
) -> (Vec<PeStats>, Vec<u64>, f64) {
    let mut machine = Machine::new(MachineConfig::grid(grid.to_vec()));
    let cfg = ExecConfig::new().engine(engine).backend(Backend::Bytecode);
    let mut plan = ExecPlan::build(&mut machine, node, &cfg).expect("calibration kernels build");
    let t = Instant::now();
    plan.step(&mut machine);
    let first = t.elapsed().as_secs_f64() * 1e9;
    let reps = ((timing.batch_ns / first.max(1.0)) as usize).clamp(2, 400);
    let mut batches: Vec<f64> = (0..timing.batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                plan.step(black_box(&mut machine));
            }
            t.elapsed().as_secs_f64() * 1e9 / reps as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    let ns = batches[if timing.median { batches.len() / 2 } else { 0 }];
    (plan.pe_counts_per_step().to_vec(), plan.rows_per_step().to_vec(), ns)
}

/// Nanoseconds per byte of copying a 64 KiB buffer: the fastest of five
/// batches.
fn memcpy_ns_per_byte() -> f64 {
    const LEN: usize = 8 << 10;
    let src = vec![1.0f64; LEN];
    let mut dst = vec![0.0f64; LEN];
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..16 {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
            t.elapsed().as_secs_f64() * 1e9 / (16 * LEN * 8) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_recovers_a_known_system() {
        let x = [1.5, 2.0, 0.25, 3.0, 40.0];
        let rows = [
            [2.0, 1.0, 1.0, 0.5, 4.0],
            [2.0, 1.0, 1.0, 0.5, 64.0],
            [2.0, 1.0, 1.0, 1.0, 8.0],
            [9.0, 1.0, 8.0, 0.5, 4.0],
            [2.0, 1.0, 8.0, 0.5, 4.0],
        ];
        let a = rows.map(|r| {
            let t: f64 = r.iter().zip(&x).map(|(a, b)| a * b).sum();
            [r[0], r[1], r[2], r[3], r[4], t]
        });
        for (got, want) in solve(a).iter().zip(&x) {
            assert!((got - want).abs() < 1e-9, "{got} != {want}");
        }
    }

    #[test]
    fn a_calibration_fits_every_term_and_is_shared() {
        let p = profile();
        assert_eq!(p.cores, cores());
        let terms = [p.load_ns, p.store_ns, p.flop_ns, p.iter_ns, p.row_ns, p.copy_ns_per_byte];
        assert!(terms.iter().all(|t| t.is_finite() && *t >= 0.0), "{p:?}");
        assert!(p.msg_spin_ns.is_finite() && p.msg_park_ns.is_finite(), "{p:?}");
        // A VM point costs something: loads, stores and iterations cannot
        // all fit to zero.
        assert!(p.load_ns + p.store_ns + p.iter_ns > 0.0, "{p:?}");
        assert_eq!(profile(), p, "the profile is fitted once per process");
    }
}
