//! The legal configuration space: PE-grid factorizations × engines ×
//! superstep depths. The nest backend is not a dimension: every candidate
//! runs [`Backend::Bytecode`] (interpreter fallback per declined nest).

use hpf_exec::{Backend, Engine, ExecConfig};
use hpf_runtime::{MachineConfig, PeGrid};

/// One point of the configuration space the tuner searches, annotated with
/// its modeled time (cost-model pruning stage) and, for the top-K
/// survivors, its empirically measured per-step wall time.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// PE mesh (a factorization of the machine's core count whose rank
    /// matches the base grid's).
    pub grid: Vec<usize>,
    /// The executor.
    pub engine: Engine,
    /// Communication-avoiding superstep depth (1 = the classic
    /// exchange-every-step schedule).
    pub superstep: usize,
    /// Modeled time of one step under the machine's cost model,
    /// milliseconds. `INFINITY` when the candidate's plan failed to build
    /// (e.g. a collapsed dimension on a multi-PE axis).
    pub modeled_ms: f64,
    /// Best-of-R measured wall time of one step, milliseconds. `None` for
    /// candidates never timed (pruned by the model, or failed model probe);
    /// `Some(INFINITY)` for one whose probe passed but whose own plan then
    /// failed to build.
    pub measured_ms: Option<f64>,
    /// The logical steps `measured_ms` was measured over (the timed steps
    /// times the logical steps each covers); `None` when not timed.
    pub timed_steps: Option<usize>,
}

impl Candidate {
    /// The execution configuration this candidate describes (the part
    /// [`hpf_exec::ExecPlan::build`] consumes), on the bytecode backend.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig::new().engine(self.engine).backend(Backend::Bytecode).superstep(self.superstep)
    }

    /// The base machine configuration with this candidate's grid applied
    /// (halo, budget, and cost model inherited).
    pub fn machine_config(&self, base: &MachineConfig) -> MachineConfig {
        let mut cfg = base.clone();
        cfg.grid = PeGrid::new(self.grid.clone());
        cfg
    }

    /// `RxC engine-bytecode [ss=K]` — the name of the candidate on every
    /// surface; the superstep depth appears only when it avoids communication.
    pub fn label(&self) -> String {
        let ss = if self.superstep > 1 { format!(" ss={}", self.superstep) } else { String::new() };
        format!("{} {}{ss}", grid_label(&self.grid), self.exec_config().label())
    }
}

/// Render a grid as `2x2` / `1x4x1`.
pub fn grid_label(grid: &[usize]) -> String {
    grid.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x")
}

/// Every ordered factorization of `pes` into `rank` positive factors, in
/// deterministic lexicographic order — the legal PE meshes for arrays of
/// that rank. `factorizations(4, 2)` is `[[1,4], [2,2], [4,1]]`.
pub fn factorizations(pes: usize, rank: usize) -> Vec<Vec<usize>> {
    assert!(pes >= 1 && rank >= 1, "need at least one PE and one axis");
    let mut out = Vec::new();
    let mut cur = vec![1usize; rank];
    fn rec(left: usize, d: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if d + 1 == cur.len() {
            cur[d] = left;
            out.push(cur.clone());
            return;
        }
        for f in 1..=left {
            if left.is_multiple_of(f) {
                cur[d] = f;
                rec(left / f, d + 1, cur, out);
            }
        }
    }
    rec(pes, 0, &mut cur, &mut out);
    out
}

/// Enumerate the full candidate space for `pes` processors arranged in
/// rank-`rank` meshes: every grid factorization × every engine × every
/// communication-avoiding superstep depth in `supersteps`. Callers pass
/// only superstep depths the kernel is eligible for (an empty slice means
/// the classic depth 1). Modeled and measured fields start unset.
pub fn enumerate(pes: usize, rank: usize, supersteps: &[usize]) -> Vec<Candidate> {
    let depths: &[usize] = if supersteps.is_empty() { &[1] } else { supersteps };
    let mut out = Vec::new();
    for grid in factorizations(pes, rank) {
        for engine in [Engine::Sequential, Engine::Threaded] {
            for &superstep in depths {
                out.push(Candidate {
                    grid: grid.clone(),
                    engine,
                    superstep: superstep.max(1),
                    modeled_ms: f64::INFINITY,
                    measured_ms: None,
                    timed_steps: None,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorizations_cover_all_ordered_splits() {
        assert_eq!(factorizations(4, 2), vec![vec![1, 4], vec![2, 2], vec![4, 1]]);
        assert_eq!(factorizations(1, 2), vec![vec![1, 1]]);
        assert_eq!(factorizations(6, 2).len(), 4); // 1x6 2x3 3x2 6x1
        assert_eq!(factorizations(8, 3).len(), 10);
        for f in factorizations(12, 3) {
            assert_eq!(f.iter().product::<usize>(), 12);
        }
    }

    #[test]
    fn enumerate_counts_the_matrix() {
        // 3 grids x 2 engines = 6.
        let cands = enumerate(4, 2, &[1]);
        assert_eq!(cands.len(), 3 * 2);
        // Superstep depths multiply the whole matrix; empty means depth 1.
        let deep = enumerate(4, 2, &[1, 2, 4]);
        assert_eq!(deep.len(), 3 * cands.len());
        assert_eq!(enumerate(4, 2, &[1, 2, 4, 8]).len(), 24, "Problem 9 on 4 PEs");
        assert_eq!(enumerate(4, 2, &[]).len(), cands.len());
        assert!(enumerate(4, 2, &[]).iter().all(|c| c.superstep == 1));
    }

    #[test]
    fn labels_read_like_the_cli() {
        let c = Candidate {
            grid: vec![2, 2],
            engine: Engine::Threaded,
            superstep: 1,
            modeled_ms: f64::INFINITY,
            measured_ms: None,
            timed_steps: None,
        };
        assert_eq!(c.label(), "2x2 threaded-bytecode");
        assert_eq!(ExecConfig::from_cli_str("threaded-bytecode").unwrap(), c.exec_config());
    }

    #[test]
    fn machine_config_applies_the_grid() {
        let base = MachineConfig::grid([2, 2]).halo(2).memory_mb(64);
        let c = Candidate {
            grid: vec![1, 4],
            engine: Engine::Threaded,
            superstep: 1,
            modeled_ms: 0.0,
            measured_ms: None,
            timed_steps: None,
        };
        let cfg = c.machine_config(&base);
        assert_eq!(cfg.grid.dims, vec![1, 4]);
        assert_eq!(cfg.halo, 2, "halo inherited from the base");
        assert_eq!(cfg.mem_budget, Some(64 << 20), "budget inherited");
    }
}
