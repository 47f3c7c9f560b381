#![warn(missing_docs)]
//! Auto-tuning: cost-guided configuration search with a persistent
//! on-disk tuning cache.
//!
//! The compilation pipeline fixes *what* a stencil computes; this crate
//! picks *how to run it*. For a (kernel, machine, problem-size) triple the
//! [`Tuner`] enumerates the legal configuration space — every PE-grid
//! factorization of the core count, both engines (`seq`/`threaded`), and
//! the superstep depths the kernel is eligible for — and a search is
//! probe, price, pick: one probe per *counter class* (see [`Tuner::best`]:
//! a plan build, whose per-step counts are read without stepping it),
//! each candidate priced twice from its probe — by the paper's SP-2 model
//! ([`hpf_runtime::CostModel::sp2`], the `modeled_ms` every surface
//! reports) and by this host's calibrated profile ([`host`]), which puts
//! the engine in the formula — and the host's cheapest candidate wins. No
//! plan is stepped. The nest backend is not searched: the VM wins every
//! measurement, and [`hpf_exec::Backend::Bytecode`] already falls back to
//! the interpreter for any nest codegen declines — so every candidate runs
//! bytecode.
//!
//! The winner is persisted in an on-disk cache (default
//! [`cache::DEFAULT_CACHE_FILE`]) keyed by a deterministic kernel
//! [`fingerprint`] that folds in the host's core count and the VM's
//! instruction-set tier ([`hpf_codegen::Tier`]), so subsequent runs
//! of the same kernel on the same machine shape skip the search entirely —
//! a warm [`Tuner::best`] call builds no plan and calibrates nothing. A
//! corrupted cache file degrades to a warning plus a fresh search, never
//! an error.

pub mod cache;
pub mod host;
pub mod space;

pub use cache::{fingerprint, CacheEntry, TuneCache, DEFAULT_CACHE_FILE};
pub use space::{enumerate, factorizations, grid_label, Candidate};

use hpf_exec::{Backend, Engine, ExecConfig, ExecPlan};
use hpf_passes::loopir::NodeProgram;
use hpf_runtime::{AggStats, HostProfile, Machine, MachineConfig, PeStats, RtError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The result of one [`Tuner::best`] call.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winning candidate: the host's cheapest on a cold search, the
    /// cached decision on a cache hit.
    pub best: Candidate,
    /// Every enumerated candidate, sorted by host price (ties broken by
    /// label). Empty on a cache hit — nothing was enumerated.
    pub candidates: Vec<Candidate>,
    /// How many probes (plan builds, whose per-step counts both models
    /// price) priced the candidates (0 on a cache hit).
    pub probes: usize,
    /// How many candidates were stepped to time them: always 0, since a
    /// search prices every candidate from its probe. Kept so that readers
    /// of the count (the benchmark's `tune.timed`) still find it.
    pub timed: usize,
    /// The host profile the candidates were priced with; `None` on a
    /// cache hit, which calibrates nothing.
    pub host: Option<HostProfile>,
    /// Whether the result came straight from the tuning cache.
    pub cache_hit: bool,
    /// Wall time the whole call took (search or cache probe), nanoseconds.
    pub search_ns: u64,
    /// The kernel fingerprint the cache is keyed by.
    pub fingerprint: String,
}

impl TuneOutcome {
    /// The decision log a cold search prints (`hpfsc --tune`): one row per
    /// enumerated candidate (grid, engine-backend, superstep depth `ss`) in
    /// host order, its SP-2 and host prices, and why it won or lost — the
    /// winner marked `*` and `winner`, every other buildable candidate by
    /// how much dearer the host prices it, a failed build by its error.
    /// Empty on a cache hit — nothing was enumerated.
    pub fn render_table(&self) -> String {
        use hpf_trace::{Align, TextTable};
        let mut t = TextTable::new(&[
            ("", Align::Left),
            ("grid", Align::Left),
            ("config", Align::Left),
            ("ss", Align::Right),
            ("sp2 ms", Align::Right),
            ("host ms", Align::Right),
            ("why", Align::Left),
        ]);
        let ms = |v: f64| if v.is_finite() { format!("{v:.4}") } else { "-".to_string() };
        for c in &self.candidates {
            let why = match &c.build_error {
                Some(e) => format!("build failed: {e}"),
                None if *c == self.best => "winner".to_string(),
                None => format!("+{:.1}%", (c.host_ms / self.best.host_ms - 1.0) * 100.0),
            };
            t.row([
                if *c == self.best { "*".to_string() } else { String::new() },
                grid_label(&c.grid),
                c.exec_config().label(),
                c.superstep.to_string(),
                ms(c.modeled_ms),
                ms(c.host_ms),
                why,
            ]);
        }
        t.render()
    }
}

/// One probe's reading: what a step of a (grid, depth) class's plan
/// counts, which both models price.
struct Probe {
    counts: Vec<PeStats>,
    rows: Vec<u64>,
    logical_steps: usize,
    sp2_ms: f64,
}

impl Probe {
    /// The host price of one logical step of this class on `engine`, ms.
    fn host_ms(&self, host: &HostProfile, engine: Engine) -> f64 {
        let ns = host.step_ns(&self.counts, &self.rows, engine == Engine::Threaded);
        ns / 1e6 / self.logical_steps as f64
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
    cache: Option<PathBuf>,
    supersteps: Vec<usize>,
}

impl Tuner {
    /// A tuner over `base`'s machine: price every candidate on this host
    /// and pick the cheapest, consider communication-avoiding superstep
    /// depths {1, 2, 4, 8} (depths the kernel is ineligible for are
    /// dropped before the search), and persist decisions in
    /// [`DEFAULT_CACHE_FILE`].
    pub fn new(base: MachineConfig) -> Tuner {
        Tuner { base, cache: Some(PathBuf::from(DEFAULT_CACHE_FILE)), supersteps: vec![1, 2, 4, 8] }
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

    /// Find the best configuration for `node`. `seed` is the
    /// caller-supplied kernel identity (normalized IR listing plus array
    /// shapes); the tuner extends it with the machine shape, the host's
    /// core count and the VM tier and hashes it into the cache key, so any
    /// change to kernel, problem size, PE count, halo, host cores or the
    /// executor the host profile was fitted under re-keys the search.
    ///
    /// Flow: probe the cache (hit → return immediately: no plan built, no
    /// calibration); otherwise fit this process's [`host::profile`] (once
    /// per process), enumerate the space, probe each counter class once,
    /// price every candidate on the host, persist the cheapest, and return
    /// the full candidate table. Both models read only the per-PE counts
    /// and rows a plan makes when it is built, which are the same on both
    /// engines, so per (grid, depth) `seq` and `threaded` are one class,
    /// probed by one sequential build that is never stepped; the engine
    /// enters through the host price only.
    ///
    /// Candidates whose plan cannot be built (e.g. an illegal distribution
    /// for that mesh) are kept in the table with infinite prices and their
    /// error; if *no* candidate builds, the first build error is returned.
    pub fn best(&self, node: &NodeProgram, seed: &str) -> Result<TuneOutcome, RtError> {
        let t0 = Instant::now();
        let pes = self.base.grid.num_pes();
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
        let key = fingerprint(&format!(
            "{seed}|pes={pes}|halo={}|ss={depths:?}|cores={}|vm={}",
            self.base.halo,
            host::cores(),
            hpf_codegen::Tier::active().name()
        ));

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
                host: None,
                cache_hit: true,
                search_ns: t0.elapsed().as_nanos() as u64,
                fingerprint: key,
            });
        }

        let host = host::profile();
        let (candidates, probes) = self.search(node, &depths, &host)?;
        let best = candidates[0].clone();

        if let Some(path) = &self.cache {
            let mut cache = TuneCache::load(path).unwrap_or_default();
            cache.insert(CacheEntry {
                key: key.clone(),
                grid: best.grid.clone(),
                config: best.exec_config().label(),
                superstep: best.superstep as u64,
                modeled_ms: best.modeled_ms,
                host_ms: best.host_ms,
            });
            if let Err(e) = cache.store(path) {
                eprintln!("warning: could not write tuning cache {}: {e}", path.display());
            }
        }

        Ok(TuneOutcome {
            best,
            candidates,
            probes,
            timed: 0,
            host: Some(host),
            cache_hit: false,
            search_ns: t0.elapsed().as_nanos() as u64,
            fingerprint: key,
        })
    }

    /// Probe and price the space at `depths` on `host`: every candidate,
    /// cheapest first (ties by label), and the number of probes. The first
    /// candidate is the winner; it is an error when no candidate builds.
    fn search(
        &self,
        node: &NodeProgram,
        depths: &[usize],
        host: &HostProfile,
    ) -> Result<(Vec<Candidate>, usize), RtError> {
        let (pes, rank) = (self.base.grid.num_pes(), self.base.grid.dims.len());
        let mut candidates = enumerate(pes, rank, depths);
        // One probe per counter class: each (grid, depth) once.
        let mut classes = BTreeMap::new();
        for c in &mut candidates {
            let probe =
                classes.entry((c.grid.clone(), c.superstep)).or_insert_with(|| self.probe(node, c));
            match probe {
                Ok(p) => {
                    c.modeled_ms = p.sp2_ms;
                    c.host_ms = p.host_ms(host, c.engine);
                }
                Err(e) => c.build_error = Some(e.to_string()),
            }
        }
        candidates.sort_by(|a, b| {
            a.host_ms.total_cmp(&b.host_ms).then_with(|| a.label().cmp(&b.label()))
        });
        if !candidates[0].host_ms.is_finite() {
            let none =
                || RtError::BadDistribution("auto-tuner found no runnable configuration".into());
            return Err(classes.into_values().find_map(Result::err).unwrap_or_else(none));
        }
        Ok((candidates, classes.len()))
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
            host_ms: e.host_ms,
            build_error: None,
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

    /// One probe: build `c`'s plan on the sequential engine and read the
    /// per-PE counts and rows one step of it adds, without stepping it —
    /// priced per logical step, so driver-stepped superstep plans compete
    /// fairly with depth 1.
    fn probe(&self, node: &NodeProgram, c: &Candidate) -> Result<Probe, RtError> {
        let mut machine = Machine::new(self.candidate_machine(node, c));
        let cfg = c.exec_config().engine(Engine::Sequential);
        let plan = ExecPlan::build(&mut machine, node, &cfg)?;
        let counts = plan.pe_counts_per_step().to_vec();
        let logical_steps = plan.logical_steps_per_step();
        let step = AggStats { per_pe: counts.clone(), ..AggStats::default() };
        Ok(Probe {
            sp2_ms: machine.cfg.cost.modeled_time_ms(&step) / logical_steps as f64,
            counts,
            rows: plan.rows_per_step().to_vec(),
            logical_steps,
        })
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

    fn problem9(n: usize) -> NodeProgram {
        let src = include_str!("../../../kernels/problem9.f90")
            .replace("PARAM N = 64", &format!("PARAM N = {n}"));
        let checked = hpf_frontend::compile_source(&src).unwrap();
        hpf_passes::compile(&checked, CompileOptions::full()).node
    }

    /// A fixed host: VM costs of a few nanoseconds, parked hand-offs of
    /// 20 µs.
    fn fixed_host(cores: usize) -> HostProfile {
        HostProfile {
            cores,
            load_ns: 1.0,
            store_ns: 1.0,
            flop_ns: 0.5,
            iter_ns: 1.0,
            row_ns: 5.0,
            copy_ns_per_byte: 0.05,
            msg_spin_ns: 1_000.0,
            msg_park_ns: 20_000.0,
        }
    }

    /// The winner of a Problem 9 search on a 2x2 base priced on `host`.
    fn p9_winner(n: usize, host: &HostProfile) -> Candidate {
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let (candidates, probes) = tuner.search(&problem9(n), &[1, 2, 4, 8], host).unwrap();
        assert_eq!((candidates.len(), probes), (24, 12));
        candidates[0].clone()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpf-tune-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn two_cores_run_a_compute_heavy_step_threaded() {
        // Four PEs on two cores: the threaded engine halves the work and
        // pays parked waits, which a 256x256 subgrid step dwarfs.
        assert_eq!(p9_winner(512, &fixed_host(2)).engine, Engine::Threaded);
    }

    #[test]
    fn one_core_runs_the_same_step_sequentially() {
        // One core: the threads share it, so threading only adds waits.
        assert_eq!(p9_winner(512, &fixed_host(1)).engine, Engine::Sequential);
    }

    #[test]
    fn a_step_too_small_to_pay_for_parked_wakes_runs_sequentially() {
        // 8x8 subgrids: a few microseconds of work against 20 µs a wake.
        assert_eq!(p9_winner(16, &fixed_host(2)).engine, Engine::Sequential);
    }

    #[test]
    fn cold_search_then_warm_cache_hit() {
        let node = node_for(16);
        let path = tmp("lib-warm");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path);

        let cold = tuner.best(&node, "jacobi-16").unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.timed, 0, "a search steps no plan");
        assert!(cold.probes > 0 && cold.host.is_some());
        assert!(cold.best.host_ms.is_finite());
        assert!(!cold.candidates.is_empty());
        // The rendered table marks exactly the winning row.
        let table = cold.render_table();
        assert!(table.contains("sp2 ms") && table.contains("host ms"), "{table}");
        let starred: Vec<&str> = table.lines().filter(|l| l.starts_with('*')).collect();
        assert_eq!(starred.len(), 1, "{table}");
        assert!(starred[0].contains(&grid_label(&cold.best.grid)), "{table}");
        assert!(starred[0].ends_with("winner"), "{table}");
        // The table is sorted by host price, the winner first.
        assert_eq!(cold.candidates[0], cold.best);
        for w in cold.candidates.windows(2) {
            assert!(w[0].host_ms <= w[1].host_ms);
        }

        let warm = tuner.best(&node, "jacobi-16").unwrap();
        assert!(warm.cache_hit, "second run must come from the cache");
        assert_eq!((warm.timed, warm.probes), (0, 0));
        assert!(warm.host.is_none(), "a cache hit calibrates nothing");
        assert!(warm.candidates.is_empty());
        assert_eq!(warm.fingerprint, cold.fingerprint);
        assert_eq!(warm.best.grid, cold.best.grid);
        assert_eq!(warm.best.exec_config().label(), cold.best.exec_config().label());
        assert_eq!(warm.best.host_ms, cold.best.host_ms, "the cache keeps the host price");

        // A different seed (problem size, kernel change) misses.
        let other = tuner.best(&node, "jacobi-32").unwrap();
        assert!(!other.cache_hit);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_cache_always_searches_and_touches_no_disk() {
        let node = node_for(12);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let a = tuner.best(&node, "s").unwrap();
        let b = tuner.best(&node, "s").unwrap();
        assert!(!a.cache_hit && !b.cache_hit);
        assert_eq!(a.best, b.best, "one process prices with one profile");
    }

    #[test]
    fn corrupt_cache_falls_back_to_fresh_search() {
        let node = node_for(12);
        let path = tmp("lib-corrupt");
        std::fs::write(&path, "{\"version\":1,\"entries\":[{tr").unwrap();
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path);
        let out = tuner.best(&node, "s").unwrap();
        assert!(!out.cache_hit);
        // The search result overwrote the corrupt file with a valid cache.
        assert!(TuneCache::load(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_buildable_candidate_is_priced_and_failures_keep_their_error() {
        let node = node_for(12);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let out = tuner.best(&node, "s").unwrap();
        // Deep-superstep candidates whose halo cannot fit the 12-point
        // subgrids fail to build; everything else carries both prices.
        let (built, failed): (Vec<&Candidate>, Vec<&Candidate>) =
            out.candidates.iter().partition(|c| c.build_error.is_none());
        assert!(!built.is_empty() && !failed.is_empty());
        assert!(built.iter().all(|c| c.modeled_ms.is_finite() && c.host_ms.is_finite()));
        assert!(failed.iter().all(|c| c.modeled_ms.is_infinite() && c.host_ms.is_infinite()));
    }

    #[test]
    fn superstep_depths_enter_the_search_and_ineligible_ones_are_dropped() {
        let node = node_for(16);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let out = tuner.best(&node, "s").unwrap();
        // The flat Jacobi kernel is superstep-eligible: depths beyond 1
        // appear in the table, and the deep candidates that fit are priced.
        for k in [2usize, 4] {
            assert!(out.candidates.iter().any(|c| c.superstep == k), "depth {k} missing");
        }
        assert!(out.candidates.iter().any(|c| c.superstep > 1 && c.host_ms.is_finite()));
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
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let out = tuner.best(&node_for(16), "s").unwrap();
        assert_eq!(out.candidates.len(), 24);
        assert!(out.candidates.iter().all(|c| c.exec_config().backend == Backend::Bytecode));
        // One probe per counter class, the 12 (grid, depth) pairs — never
        // one per candidate.
        assert_eq!(out.probes, 12);
        let table = out.render_table();
        let mut lines = table.lines();
        let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
        assert_eq!(header, ["grid", "config", "ss", "sp2", "ms", "host", "ms", "why"], "{table}");
        let mut names: Vec<Vec<&str>> =
            lines.map(|l| l.trim_start_matches('*').split_whitespace().take(3).collect()).collect();
        assert_eq!(names.len(), 24, "{table}");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24, "two rows name the same candidate:\n{table}");
    }

    #[test]
    fn the_decision_log_says_why_each_candidate_lost() {
        let c = |grid: [usize; 2], host_ms: f64, build_error: Option<&str>| Candidate {
            grid: grid.to_vec(),
            engine: Engine::Threaded,
            superstep: 1,
            modeled_ms: if build_error.is_some() { f64::INFINITY } else { 1.0 },
            host_ms,
            build_error: build_error.map(String::from),
        };
        let out = TuneOutcome {
            best: c([2, 2], 0.5, None),
            candidates: vec![
                c([2, 2], 0.5, None),
                c([1, 4], 0.6, None),
                c([4, 1], f64::INFINITY, Some("halo too deep")),
            ],
            probes: 3,
            timed: 0,
            host: None,
            cache_hit: false,
            search_ns: 0,
            fingerprint: String::new(),
        };
        let table = out.render_table();
        let rows: Vec<&str> = table.lines().skip(1).collect();
        let tail = |row: &str| {
            row.trim_start_matches('*').split_whitespace().skip(3).collect::<Vec<_>>().join(" ")
        };
        assert!(rows[0].starts_with('*'), "{table}");
        assert_eq!(tail(rows[0]), "1.0000 0.5000 winner", "{table}");
        assert_eq!(tail(rows[1]), "1.0000 0.6000 +20.0%", "{table}");
        assert_eq!(tail(rows[2]), "- - build failed: halo too deep", "{table}");
        assert!(!rows[2].starts_with('*'), "{table}");
    }

    #[test]
    fn a_cached_interpreter_winner_is_stale_and_a_bytecode_one_warm_hits() {
        let node = node_for(16);
        let path = tmp("lib-stale");
        let _ = std::fs::remove_file(&path);
        let tuner = Tuner::new(MachineConfig::grid([2, 2])).cache_path(&path);
        let key = tuner.best(&node, "s").unwrap().fingerprint;
        let write = |config: &str| {
            let entry = CacheEntry {
                key: key.clone(),
                grid: vec![1, 4],
                config: config.to_string(),
                superstep: 2,
                modeled_ms: 1.0,
                host_ms: 0.25,
            };
            TuneCache { entries: vec![entry] }.store(&path).unwrap();
        };
        // An entry with an interpreter winner, or one naming the deleted
        // split-phase engine: outside the space now — searched afresh, and
        // the entry rewritten.
        for stale in ["seq", "threaded", "threaded-overlap-interp", "threaded-overlap-bytecode"] {
            write(stale);
            let out = tuner.best(&node, "s").unwrap();
            assert!(!out.cache_hit && out.probes > 0, "{stale} must not warm-hit");
            let rewritten = TuneCache::load(&path).unwrap();
            assert_eq!(rewritten.entries.len(), 1);
            assert!(rewritten.entries[0].config.ends_with("-bytecode"), "{rewritten:?}");
        }
        // The same file naming a bytecode winner is still a decision.
        write("threaded-bytecode");
        let warm = tuner.best(&node, "s").unwrap();
        assert!(warm.cache_hit, "a bytecode winner must warm-hit");
        assert_eq!((warm.timed, warm.probes), (0, 0));
        assert_eq!(warm.best.label(), "1x4 threaded-bytecode ss=2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_key_folds_the_superstep_depth_set() {
        let node = node_for(16);
        let a = Tuner::new(MachineConfig::grid([2, 2])).no_cache();
        let b = a.clone().supersteps(vec![1]);
        let ka = a.best(&node, "s").unwrap().fingerprint;
        let kb = b.best(&node, "s").unwrap().fingerprint;
        assert_ne!(ka, kb, "narrowing the searched depths must re-key the cache");
    }
}
