#![warn(missing_docs)]
//! Auto-tuning: cost-guided configuration search with a persistent
//! on-disk tuning cache.
//!
//! The compilation pipeline fixes *what* a stencil computes; this crate
//! picks *how to run it*. For a (kernel, machine, problem-size) triple the
//! [`Tuner`] enumerates the legal configuration space — every PE-grid
//! factorization of the core count, both engines (`seq`/`threaded`), and
//! the superstep depths the kernel is eligible for — prunes it with the machine's analytic cost model (one model probe
//! per *counter class*, see [`Tuner::best`]), then empirically times the
//! top-K surviving candidates with short warm-state plan runs (one warmup
//! step, then min-of-R timed steps, reusing [`hpf_exec::ExecPlan`] so
//! schedules and bytecode kernels compile once per candidate). The nest
//! backend is not searched: the cost model cannot tell the interpreter from
//! the bytecode VM, the VM wins every measurement, and
//! [`hpf_exec::Backend::Bytecode`] already falls back to the interpreter for
//! any nest codegen declines — so every probe and candidate runs bytecode.
//!
//! The winner is persisted in an on-disk cache (default
//! [`cache::DEFAULT_CACHE_FILE`]) keyed by a deterministic kernel
//! [`fingerprint`], so subsequent runs of the same kernel on the same
//! machine shape skip the search entirely — a warm [`Tuner::best`] call
//! performs zero candidate timings. A corrupted cache file degrades to a
//! warning plus a fresh search, never an error.

pub mod cache;
pub mod space;

pub use cache::{fingerprint, CacheEntry, TuneCache, DEFAULT_CACHE_FILE};
pub use space::{enumerate, factorizations, grid_label, Candidate};

use hpf_exec::{Backend, Engine, ExecConfig, ExecPlan};
use hpf_passes::loopir::NodeProgram;
use hpf_runtime::{Machine, MachineConfig, RtError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The result of one [`Tuner::best`] call.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winning candidate (measured on a cold search; carrying the
    /// cached measurement on a cache hit).
    pub best: Candidate,
    /// Every enumerated candidate, sorted by modeled time (ties broken by
    /// label), with measurements filled in for the timed top-K. Empty on a
    /// cache hit — nothing was enumerated.
    pub candidates: Vec<Candidate>,
    /// How many model probes (plan build + one counted step) priced the
    /// candidates (0 on a cache hit).
    pub probes: usize,
    /// How many candidates were empirically timed (0 on a cache hit).
    pub timed: usize,
    /// Whether the result came straight from the tuning cache.
    pub cache_hit: bool,
    /// Wall time the whole call took (search or cache probe), nanoseconds.
    pub search_ns: u64,
    /// The kernel fingerprint the cache is keyed by.
    pub fingerprint: String,
}

impl TuneOutcome {
    /// The candidate table a cold search prints (`hpfsc --tune`): one row
    /// per enumerated candidate (grid, engine-backend, superstep depth `ss`)
    /// in modeled order, the winner marked `*`, un-timed candidates shown
    /// as `-`, failed builds as `build failed` in the column of the stage
    /// that hit them. Empty on a cache hit — nothing was enumerated.
    pub fn render_table(&self) -> String {
        use hpf_trace::{Align, TextTable};
        let mut t = TextTable::new(&[
            ("", Align::Left),
            ("grid", Align::Left),
            ("config", Align::Left),
            ("ss", Align::Right),
            ("modeled ms", Align::Right),
            ("measured ms", Align::Right),
        ]);
        let ms =
            |v: f64| if v.is_finite() { format!("{v:.4}") } else { "build failed".to_string() };
        for c in &self.candidates {
            t.row([
                if *c == self.best { "*".to_string() } else { String::new() },
                grid_label(&c.grid),
                c.exec_config().label(),
                c.superstep.to_string(),
                ms(c.modeled_ms),
                c.measured_ms.map_or("-".to_string(), ms),
            ]);
        }
        t.render()
    }
}

/// Cost-guided configuration search over PE grids, engines, and
/// superstep depths. Construct with [`Tuner::new`] around the base machine
/// configuration (which supplies the core count, mesh rank, halo width,
/// memory budget, and cost model — the parts the tuner does *not* search),
/// then call [`Tuner::best`].
#[derive(Clone, Debug)]
pub struct Tuner {
    base: MachineConfig,
    top_k: usize,
    reps: usize,
    cache: Option<PathBuf>,
    supersteps: Vec<usize>,
}

impl Tuner {
    /// A tuner over `base`'s machine: empirically time the 8 best-modeled
    /// candidates with min-of-3 step timings, consider
    /// communication-avoiding superstep depths {1, 2, 4, 8}
    /// (depths the kernel is ineligible for are dropped before the search),
    /// and persist decisions in [`DEFAULT_CACHE_FILE`].
    pub fn new(base: MachineConfig) -> Tuner {
        Tuner {
            base,
            top_k: 8,
            reps: 3,
            cache: Some(PathBuf::from(DEFAULT_CACHE_FILE)),
            supersteps: vec![1, 2, 4, 8],
        }
    }

    /// Empirically time the `k` best-modeled candidates (default 8).
    pub fn top_k(mut self, k: usize) -> Tuner {
        self.top_k = k.max(1);
        self
    }

    /// Time every step `r` times and keep the minimum (default 3).
    pub fn reps(mut self, r: usize) -> Tuner {
        self.reps = r.max(1);
        self
    }

    /// Persist decisions in `path` instead of [`DEFAULT_CACHE_FILE`].
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> Tuner {
        self.cache = Some(path.into());
        self
    }

    /// Disable the on-disk cache: always search, never read or write.
    pub fn no_cache(mut self) -> Tuner {
        self.cache = None;
        self
    }

    /// The communication-avoiding superstep depths to search (default
    /// `{1, 2, 4, 8}`). Depths the kernel's superstep planner rejects —
    /// wrong loop shape, non-shift communication, iteration-crossing data
    /// flow — are dropped before enumeration, so an ineligible kernel
    /// searches the classic depth-1 space only; `vec![1]` searches no
    /// supersteps at all.
    pub fn supersteps(mut self, ks: Vec<usize>) -> Tuner {
        self.supersteps = ks;
        self
    }

    /// Time *every* candidate the model does not reject outright — the
    /// exhaustive search the default pruned search is benchmarked against.
    pub fn exhaustive(self) -> Tuner {
        self.top_k(usize::MAX)
    }

    /// Find the best configuration for `node`. `seed` is the
    /// caller-supplied kernel identity (normalized IR listing plus array
    /// shapes); the tuner extends it with the machine shape and hashes it
    /// into the cache key, so any change to kernel, problem size, PE
    /// count, or halo re-keys the search.
    ///
    /// Flow: probe the cache (hit → return immediately, zero timings);
    /// otherwise enumerate the space, prune with one cost-model probe per
    /// counter class, empirically time the top-K survivors, persist the
    /// winner, and return the full candidate table. The model reads only
    /// the per-PE counters, which both engines produce identically, so per
    /// (grid, depth) `seq` and `threaded` are one class, probed on the
    /// sequential engine (no worker pool is started to read counters).
    ///
    /// Candidates whose plan cannot be built (e.g. an illegal distribution
    /// for that mesh) are kept in the table with infinite modeled time but
    /// never timed; if *no* candidate builds, the first build error is
    /// returned.
    pub fn best(&self, node: &NodeProgram, seed: &str) -> Result<TuneOutcome, RtError> {
        let t0 = Instant::now();
        let pes = self.base.grid.num_pes();
        let rank = self.base.grid.dims.len();
        // Drop superstep depths this kernel has no legal schedule for;
        // everything left deepens the halo to its own deep-fill depth
        // (candidates whose deep halo does not fit their subgrids fail to
        // build and prune themselves). The searched depth set is part of
        // the cache key: widening or narrowing it re-keys the search.
        let mut depths: Vec<usize> = self
            .supersteps
            .iter()
            .copied()
            .filter(|&k| k <= 1 || hpf_exec::superstep_halo(node, k).is_some())
            .collect();
        if depths.is_empty() {
            depths.push(1);
        }
        let key = fingerprint(&format!("{seed}|pes={pes}|halo={}|ss={depths:?}", self.base.halo));

        // Warm path: a cached decision for this fingerprint ends the call
        // before any candidate exists. A cache that fails to load is a
        // warning, not an error — fall through to the fresh search.
        let cached = self.cache.as_ref().and_then(|path| match TuneCache::load(path) {
            Ok(cache) => cache.lookup(&key).and_then(|e| self.cached_candidate(e)),
            Err(msg) => {
                eprintln!(
                    "warning: tuning cache {}: {msg}; running a fresh search",
                    path.display()
                );
                None
            }
        });
        if let Some(best) = cached {
            return Ok(TuneOutcome {
                best,
                candidates: Vec::new(),
                probes: 0,
                timed: 0,
                cache_hit: true,
                search_ns: t0.elapsed().as_nanos() as u64,
                fingerprint: key,
            });
        }

        let mut candidates = enumerate(pes, rank, &depths);

        // Model-probe pruning, one probe per counter class: each (grid,
        // depth) once. A failed build prices as infinity.
        let mut classes = BTreeMap::new();
        let mut first_err: Option<RtError> = None;
        for c in &mut candidates {
            c.modeled_ms = *classes.entry((c.grid.clone(), c.superstep)).or_insert_with(|| {
                self.model_probe(node, c).unwrap_or_else(|e| {
                    first_err.get_or_insert(e);
                    f64::INFINITY
                })
            });
        }
        let probes = classes.len();
        candidates.sort_by(|a, b| {
            a.modeled_ms.total_cmp(&b.modeled_ms).then_with(|| a.label().cmp(&b.label()))
        });

        // Empirically time the top-K model survivors: fresh machine, one
        // plan build (schedules + bytecode kernels compile once), one
        // warmup step, then the best of `reps` timed steps.
        let mut timed = 0usize;
        for c in candidates.iter_mut().take(self.top_k) {
            if !c.modeled_ms.is_finite() {
                break; // sorted: everything from here on failed to build
            }
            let mut machine = Machine::new(self.candidate_machine(node, c));
            let mut plan = match ExecPlan::build(&mut machine, node, &c.exec_config()) {
                Ok(p) => p,
                Err(e) => {
                    // The class's probe built; this candidate's own plan did not.
                    c.measured_ms = Some(f64::INFINITY);
                    first_err.get_or_insert(e);
                    continue;
                }
            };
            plan.step(&mut machine);
            let mut best = f64::INFINITY;
            for _ in 0..self.reps {
                let t = Instant::now();
                plan.step(&mut machine);
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            // A driver-stepped superstep plan covers k logical steps per
            // machine step; normalize so depths compete per logical step.
            c.measured_ms = Some(best / plan.logical_steps_per_step() as f64);
            timed += 1;
        }

        let best = candidates
            .iter()
            .filter_map(|c| Some((c.measured_ms.filter(|ms| ms.is_finite())?, c)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, c)| c.clone())
            .ok_or_else(|| {
                let none = "auto-tuner found no runnable configuration".to_string();
                first_err.unwrap_or(RtError::BadDistribution(none))
            })?;

        if let Some(path) = &self.cache {
            let mut cache = TuneCache::load(path).unwrap_or_default();
            cache.insert(CacheEntry {
                key: key.clone(),
                grid: best.grid.clone(),
                config: best.exec_config().label(),
                superstep: best.superstep as u64,
                modeled_ms: best.modeled_ms,
                measured_ms: best.measured_ms.unwrap_or(f64::INFINITY),
            });
            if let Err(e) = cache.store(path) {
                eprintln!("warning: could not write tuning cache {}: {e}", path.display());
            }
        }

        Ok(TuneOutcome {
            best,
            candidates,
            probes,
            timed,
            cache_hit: false,
            search_ns: t0.elapsed().as_nanos() as u64,
            fingerprint: key,
        })
    }

    /// Reconstruct a winner from a cache entry; `None` when the entry does
    /// not fit this tuner's machine (stale core count or rank after a
    /// config change hashes to the same key only if the seed matched, so
    /// this is belt-and-braces), its config label no longer parses, or it
    /// names a configuration outside the space (an interpreter winner
    /// written before the backend left the search) — stale, searched afresh.
    fn cached_candidate(&self, e: &CacheEntry) -> Option<Candidate> {
        let cfg = ExecConfig::from_cli_str(&e.config).ok()?;
        let fits = e.grid.len() == self.base.grid.dims.len()
            && e.grid.iter().product::<usize>() == self.base.grid.num_pes()
            && cfg.backend == Backend::Bytecode;
        fits.then(|| Candidate {
            grid: e.grid.clone(),
            engine: cfg.engine,
            superstep: (e.superstep as usize).max(1),
            modeled_ms: e.modeled_ms,
            measured_ms: Some(e.measured_ms),
        })
    }

    /// The candidate's machine configuration with its halo deepened to the
    /// superstep deep-fill depth, exactly as the plan builder will require
    /// it. Depth 1 inherits the base halo unchanged.
    fn candidate_machine(&self, node: &NodeProgram, c: &Candidate) -> MachineConfig {
        let mut cfg = c.machine_config(&self.base);
        if c.superstep > 1 {
            if let Some(h) = hpf_exec::superstep_halo(node, c.superstep) {
                cfg.halo = cfg.halo.max(h);
            }
        }
        cfg
    }

    /// One cost-model probe: build `c`'s plan on the sequential engine,
    /// reset the counters so plan-build costs are excluded, run one step,
    /// and read the modeled per-step time, normalized per logical step so
    /// driver-stepped superstep plans compete fairly with depth 1.
    fn model_probe(&self, node: &NodeProgram, c: &Candidate) -> Result<f64, RtError> {
        let mut machine = Machine::new(self.candidate_machine(node, c));
        let cfg = c.exec_config().engine(Engine::Sequential);
        let mut plan = ExecPlan::build(&mut machine, node, &cfg)?;
        machine.reset_stats();
        plan.step(&mut machine);
        Ok(machine.modeled_time_ms() / plan.logical_steps_per_step() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_exec::Engine;
    use hpf_passes::CompileOptions;

    fn node_for(n: usize) -> NodeProgram {
        let src = format!(
            r#"
PROGRAM jacobi
PARAM N = {n}
REAL U(N,N), T(N,N)
REAL C = 0.25
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
T = C * (CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
U = T
END
"#
        );
        let checked = hpf_frontend::compile_source(&src).unwrap();
        hpf_passes::compile(&checked, CompileOptions::full()).node
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpf-tune-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn cold_search_then_warm_cache_hit() {
        let node = node_for(16);
        let path = tmp("lib-warm");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path).top_k(4).reps(2);

        let cold = tuner.best(&node, "jacobi-16").unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.timed > 0 && cold.timed <= 4);
        assert!(cold.best.measured_ms.is_some());
        assert!(!cold.candidates.is_empty());
        // The rendered table marks exactly the winning row.
        let table = cold.render_table();
        assert!(table.contains("modeled ms"), "{table}");
        let starred: Vec<&str> = table.lines().filter(|l| l.starts_with('*')).collect();
        assert_eq!(starred.len(), 1, "{table}");
        assert!(starred[0].contains(&grid_label(&cold.best.grid)), "{table}");
        // The table is sorted by modeled time.
        for w in cold.candidates.windows(2) {
            assert!(w[0].modeled_ms <= w[1].modeled_ms);
        }

        let warm = tuner.best(&node, "jacobi-16").unwrap();
        assert!(warm.cache_hit, "second run must come from the cache");
        assert_eq!(warm.timed, 0, "a cache hit performs zero candidate timings");
        assert!(warm.candidates.is_empty());
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(warm.best.grid, cold.best.grid);
        assert_eq!(warm.best.exec_config().label(), cold.best.exec_config().label());

        // A different seed (problem size, kernel change) misses.
        let other = tuner.best(&node, "jacobi-32").unwrap();
        assert!(!other.cache_hit);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_cache_always_searches_and_touches_no_disk() {
        let node = node_for(12);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache().top_k(2).reps(1);
        let a = tuner.best(&node, "s").unwrap();
        let b = tuner.best(&node, "s").unwrap();
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(a.best.grid, b.best.grid, "search is deterministic in its winner set");
    }

    #[test]
    fn corrupt_cache_falls_back_to_fresh_search() {
        let node = node_for(12);
        let path = tmp("lib-corrupt");
        std::fs::write(&path, "{\"version\":1,\"entries\":[{tr").unwrap();
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path).top_k(2).reps(1);
        let out = tuner.best(&node, "s").unwrap();
        assert!(!out.cache_hit);
        // The search result overwrote the corrupt file with a valid cache.
        assert!(TuneCache::load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhaustive_search_times_every_buildable_candidate() {
        let node = node_for(12);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache().exhaustive().reps(1);
        let out = tuner.best(&node, "s").unwrap();
        // Deep-superstep candidates whose halo cannot fit the 12-point
        // subgrids fail to build; exhaustive times everything buildable.
        let buildable = out.candidates.iter().filter(|c| c.modeled_ms.is_finite()).count();
        assert_eq!(out.timed, buildable, "exhaustive times every buildable candidate");
        assert!(buildable > 0);
    }

    #[test]
    fn superstep_depths_enter_the_search_and_ineligible_ones_are_dropped() {
        let node = node_for(16);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache().exhaustive().reps(1);
        let out = tuner.best(&node, "s").unwrap();
        // The flat Jacobi kernel is superstep-eligible: depths beyond 1
        // appear in the table, and the deep candidates that fit were timed.
        for k in [2usize, 4] {
            assert!(out.candidates.iter().any(|c| c.superstep == k), "depth {k} missing");
        }
        assert!(out.candidates.iter().any(|c| c.superstep > 1 && c.measured_ms.is_some()));
        // An EOSHIFT kernel has no legal superstep schedule at any depth:
        // the search space collapses back to the classic depth.
        let src = r#"
PROGRAM edge
PARAM N = 12
REAL U(N,N), T(N,N)
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
T = EOSHIFT(U,1,1) + EOSHIFT(U,-1,2)
END
"#;
        let checked = hpf_frontend::compile_source(src).unwrap();
        let edge = hpf_passes::compile(&checked, CompileOptions::full()).node;
        let out = tuner.best(&edge, "edge").unwrap();
        assert!(out.candidates.iter().all(|c| c.superstep == 1));
    }

    #[test]
    fn rendered_rows_tell_every_candidate_apart() {
        // 3 grids x 2 engines x 4 depths: grid, config and the `ss` column
        // together must name each candidate, or rows that differ only in
        // depth read as repeats.
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache().top_k(1).reps(1);
        let out = tuner.best(&node_for(16), "s").unwrap();
        assert_eq!(out.candidates.len(), 24);
        assert!(out.candidates.iter().all(|c| c.exec_config().backend == Backend::Bytecode));
        // One probe per counter class, the 12 (grid, depth) pairs — never
        // one per candidate.
        assert_eq!(out.probes, 12);
        let table = out.render_table();
        let mut lines = table.lines();
        let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(header[..3], ["grid", "config", "ss"], "{table}");
        let mut names: Vec<Vec<&str>> =
            lines.map(|l| l.trim_start_matches('*').split_whitespace().take(3).collect()).collect();
        assert_eq!(names.len(), 24, "{table}");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24, "two rows name the same candidate:\n{table}");
    }

    #[test]
    fn a_timing_stage_build_failure_is_rendered_and_can_never_win() {
        let c = |grid: [usize; 2], measured_ms| Candidate {
            grid: grid.to_vec(),
            engine: Engine::Threaded,
            superstep: 1,
            modeled_ms: 1.0,
            measured_ms,
        };
        let out = TuneOutcome {
            best: c([2, 2], Some(0.5)),
            candidates: vec![c([4, 1], Some(f64::INFINITY)), c([2, 2], Some(0.5)), c([1, 4], None)],
            probes: 1,
            timed: 1,
            cache_hit: false,
            search_ns: 0,
            fingerprint: String::new(),
        };
        let table = out.render_table();
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert!(rows[0].ends_with("1.0000 build failed") && !rows[0].starts_with('*'), "{table}");
        assert!(rows[1].starts_with('*') && rows[1].ends_with("0.5000"), "{table}");
        assert!(rows[2].ends_with('-'), "{table}");
    }

    #[test]
    fn a_cached_interpreter_winner_is_stale_and_a_bytecode_one_warm_hits() {
        let node = node_for(16);
        let path = tmp("lib-stale");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path).top_k(2).reps(1);
        let key = tuner.best(&node, "s").unwrap().fingerprint;
        let write = |config: &str| {
            let entry = CacheEntry {
                key: key.clone(),
                grid: vec![1, 4],
                config: config.to_string(),
                superstep: 2,
                modeled_ms: 1.0,
                measured_ms: 0.25,
            };
            TuneCache { entries: vec![entry] }.store(&path).unwrap();
        };
        // A v3 file the parent wrote with an interpreter winner, or one
        // naming the deleted split-phase engine: outside the space now —
        // searched afresh, and the entry rewritten.
        for stale in ["seq", "threaded", "threaded-overlap-interp", "threaded-overlap-bytecode"] {
            write(stale);
            let out = tuner.best(&node, "s").unwrap();
            assert!(!out.cache_hit && out.timed > 0, "{stale} must not warm-hit");
            let rewritten = TuneCache::load(&path).unwrap();
            assert_eq!(rewritten.entries.len(), 1);
            assert!(rewritten.entries[0].config.ends_with("-bytecode"), "{rewritten:?}");
        }
        // The same file naming a bytecode winner is still a decision.
        write("threaded-bytecode");
        let warm = tuner.best(&node, "s").unwrap();
        assert!(warm.cache_hit, "a parent-written bytecode winner must warm-hit");
        assert_eq!((warm.timed, warm.probes), (0, 0));
        assert_eq!(warm.best.label(), "1x4 threaded-bytecode ss=2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_key_folds_the_superstep_depth_set() {
        let node = node_for(16);
        let a = Tuner::new(MachineConfig::grid([2, 2])).no_cache().top_k(1).reps(1);
        let b = a.clone().supersteps(vec![1]);
        let ka = a.best(&node, "s").unwrap().fingerprint;
        let kb = b.best(&node, "s").unwrap().fingerprint;
        assert_ne!(ka, kb, "narrowing the searched depths must re-key the cache");
    }
}
