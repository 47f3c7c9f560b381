//! Seeded random stencil workload generator.
//!
//! Produces random-but-valid mini-HPF kernels in the space the paper's
//! strategy covers: sums of coefficient×shift-chain terms over one or two
//! source arrays, accumulation statements, `CSHIFT`/`EOSHIFT` mixes, and
//! optional time loops. Used by the `--exp fuzz` robustness sweep (compile
//! at every stage, run, verify against the reference interpreter) and
//! available as a library for external fuzzing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Problem size (N×N arrays).
    pub n: usize,
    /// Number of statements.
    pub stmts: usize,
    /// Maximum terms per statement.
    pub max_terms: usize,
    /// Maximum shift-chain length per term.
    pub max_chain: usize,
    /// Allow `EOSHIFT` terms.
    pub eoshift: bool,
    /// Wrap the statements in a `DO k TIMES` loop.
    pub time_loop: Option<usize>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { n: 12, stmts: 3, max_terms: 4, max_chain: 2, eoshift: true, time_loop: None }
    }
}

/// Generate a random kernel source from a seed. The same `(spec, seed)`
/// pair always produces the same program.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src =
        format!("PROGRAM fuzz{seed}\nPARAM N = {}\nREAL U(N,N), V(N,N), T(N,N), S(N,N)\n", spec.n);
    let mut body = String::new();
    for si in 0..spec.stmts {
        // Destinations cycle over T and S; sources draw from U, V, and the
        // previously assigned destinations.
        let dst = if si % 2 == 0 { "T" } else { "S" };
        let n_terms = rng.gen_range(1..=spec.max_terms);
        let mut rhs = if rng.gen_bool(0.4) && si > 0 {
            dst.to_string() // accumulate
        } else {
            String::new()
        };
        for _ in 0..n_terms {
            let srcs = ["U", "V", "U", "V", "T", "S"];
            let base = srcs[rng.gen_range(0..if si == 0 { 4usize } else { 6 })];
            let mut operand = base.to_string();
            let chain = rng.gen_range(0..=spec.max_chain);
            for _ in 0..chain {
                let amt: i64 = if rng.gen_bool(0.5) { 1 } else { -1 };
                let dim = rng.gen_range(1..=2);
                let use_eoshift = spec.eoshift && rng.gen_bool(0.3);
                if use_eoshift {
                    let b = rng.gen_range(-2..=2) as f64 * 0.5;
                    operand = format!("EOSHIFT({operand},{amt},{dim},BOUNDARY={b})");
                } else {
                    operand = format!("CSHIFT({operand},{amt},{dim})");
                }
            }
            let coeff = rng.gen_range(-4..=4) as f64 * 0.25;
            let term = format!("{coeff} * {operand}");
            rhs = if rhs.is_empty() { term } else { format!("{rhs} + {term}") };
        }
        if rng.gen_bool(0.2) {
            let ops = [">", "<", ">=", "<=", "==", "/="];
            let op = ops[rng.gen_range(0..ops.len())];
            let msrc = ["U", "V"][rng.gen_range(0..2usize)];
            body.push_str(&format!("WHERE ({msrc} {op} 0.1) {dst} = {rhs}\n"));
        } else {
            body.push_str(&format!("{dst} = {rhs}\n"));
        }
    }
    match spec.time_loop {
        Some(iters) => src.push_str(&format!("DO {iters} TIMES\n{body}ENDDO\n")),
        None => src.push_str(&body),
    }
    src.push_str("END\n");
    src
}

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Seed of the failing or passing case.
    pub seed: u64,
    /// `None` = verified at every stage; `Some(msg)` = first failure.
    pub failure: Option<String>,
}

/// Compile `cases` random kernels at every pipeline stage and verify each
/// against the reference interpreter. Returns outcomes (failures first).
pub fn fuzz_sweep(spec: &WorkloadSpec, cases: u64, base_seed: u64) -> Vec<FuzzOutcome> {
    use hpf_core::passes::{CompileOptions, Stage};
    use hpf_core::{Kernel, MachineConfig};
    let mut out = Vec::new();
    for i in 0..cases {
        let seed = base_seed + i;
        let src = generate(spec, seed);
        let mut failure = None;
        'stages: for stage in Stage::all() {
            let kernel = match Kernel::compile(&src, CompileOptions::upto(stage)) {
                Ok(k) => k,
                Err(e) => {
                    failure = Some(format!("{stage:?}: compile: {e}"));
                    break 'stages;
                }
            };
            let result = kernel
                .plan(MachineConfig::sp2_2x2())
                .init("U", |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin())
                .init("V", |p| ((p[0] - 2 * p[1]) as f64 * 0.05).cos())
                .run_verified(&["T", "S"], 1e-11);
            if let Err(e) = result {
                failure = Some(format!("{stage:?}: {e}\n--- source ---\n{src}"));
                break 'stages;
            }
        }
        out.push(FuzzOutcome { seed, failure });
    }
    out.sort_by_key(|o| o.failure.is_none());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(generate(&spec, 7), generate(&spec, 7));
        assert_ne!(generate(&spec, 7), generate(&spec, 8));
    }

    #[test]
    fn generated_kernels_compile() {
        let spec = WorkloadSpec::default();
        for seed in 0..10 {
            let src = generate(&spec, seed);
            hpf_core::Kernel::compile(&src, hpf_core::CompileOptions::full())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn fuzz_sweep_small_batch_passes() {
        let spec = WorkloadSpec { n: 8, stmts: 2, ..Default::default() };
        let outcomes = fuzz_sweep(&spec, 6, 1000);
        for o in &outcomes {
            assert!(o.failure.is_none(), "seed {}: {}", o.seed, o.failure.as_ref().unwrap());
        }
    }

    #[test]
    fn time_loop_workloads_verify() {
        let spec = WorkloadSpec { n: 8, stmts: 2, time_loop: Some(3), ..Default::default() };
        let outcomes = fuzz_sweep(&spec, 4, 2000);
        for o in &outcomes {
            assert!(o.failure.is_none(), "seed {}: {}", o.seed, o.failure.as_ref().unwrap());
        }
    }
}
