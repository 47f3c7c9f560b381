//! Execution configuration: the engine/backend/tracing/checking knobs a
//! plan is built with, and the one CLI spelling shared by every driver.
//!
//! [`ExecConfig`] is the single argument of [`crate::ExecPlan::build`] —
//! instead of one constructor per engine/backend combination, callers
//! describe the run once and the plan stores the choice, so
//! [`crate::ExecPlan::step`] needs no per-call dispatch arguments.

/// The nest backend a configuration names. There is one nest executor,
/// the bytecode VM: every nest is compiled once per (nest, subgrid layout)
/// at plan build, shared by the PEs of that layout, and run by the VM
/// under either value. The two values differ only in their spelling
/// ([`ExecConfig::label`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Deprecated alias of [`Backend::Bytecode`]: it runs the same kernels.
    /// It keeps its name, and stays the library default, only because the
    /// benchmark package names it; the next benchmark change deletes it.
    #[default]
    Interp,
    /// The bytecode VM: one hoisted bounds proof per row, unchecked
    /// indexing, chunk-safe rows 32 points per op on the host's widest tier.
    Bytecode,
}

/// Which executor steps the plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// One PE at a time (deterministic, lowest overhead for small problems).
    #[default]
    Sequential,
    /// One OS thread per PE with channel-based message passing; results are
    /// bitwise identical to [`Engine::Sequential`].
    Threaded,
}

impl Engine {
    /// The old name of the split-phase overlap engine, which never beat
    /// [`Engine::Threaded`] and was deleted: it now names that engine.
    #[deprecated(note = "the split-phase overlap engine is gone: use Engine::Threaded")]
    #[allow(non_upper_case_globals)]
    pub const ThreadedOverlap: Engine = Engine::Threaded;

    /// Short name, as accepted by `hpfsc --engine` and printed by benches.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Sequential => "seq",
            Engine::Threaded => "threaded",
        }
    }
}

/// How to build and step an execution plan: engine, nest backend, event
/// tracing, and extra invariant checking. A builder with by-value setters:
///
/// ```
/// use hpf_exec::{Backend, Engine, ExecConfig};
/// let cfg = ExecConfig::new().engine(Engine::Threaded).backend(Backend::Bytecode);
/// assert_eq!(cfg.label(), "threaded-bytecode");
/// assert_eq!(ExecConfig::from_cli_str("threaded-bytecode").unwrap(), cfg);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecConfig {
    /// The executor stepping the plan.
    pub engine: Engine,
    /// The nest backend's spelling; the VM runs every nest under either.
    pub backend: Backend,
    /// When set, the plan keeps a per-PE event timeline: every schedule
    /// build, pack/unpack, comm post/drain, superstep and kernel
    /// compile/exec records a span into a preallocated ring of
    /// `hpf_trace::RING_CAPACITY` events per track.
    pub trace: bool,
    /// When set, the plan collects metrics: per-PE span-latency
    /// histograms, a per-step time series (phase breakdown, bytes moved,
    /// busy fractions, load imbalance), and the inputs of the cost-model
    /// drift report — all read off the per-kind folds the same recorders
    /// keep, never off the timeline (observation-only either way). With
    /// both options off (the default) every recorder stays disabled and
    /// recording sites cost one predictable branch and no clock read.
    pub metrics: bool,
    /// Checked build: pre-validate every communication plan (shift widths
    /// against the halo) before any schedule is compiled, and run the
    /// static verifiers (BV*/PL*), which every debug build runs too: a
    /// diagnostic fails the build.
    pub check: bool,
    /// Ask the planning layer to auto-tune this run: enumerate the legal
    /// (PE grid, engine, superstep depth) space with `hpf-tune`, consult
    /// the persistent tuning cache, and overwrite `engine`/`superstep` (and
    /// the machine's grid) with the winner before building. The backend is
    /// not searched: every candidate, and so the winner, runs bytecode.
    /// Resolved *above* [`crate::ExecPlan::build`] — the plan builder
    /// itself ignores this flag and uses the embedded engine/backend as-is.
    pub auto: bool,
    /// Superstep depth `k`: amortize one deep halo exchange over `k`
    /// logical time steps by redundantly recomputing boundary cells on a
    /// trapezoidally shrinking region (the communication-avoiding schedule
    /// of `DESIGN.md §5h`). `1` (the default) is the classic
    /// exchange-every-step schedule. Depths above 1 engage only when the
    /// kernel passes the superstep legality analysis; an ineligible kernel
    /// degrades to `k = 1` and the plan records why
    /// ([`crate::ExecPlan::superstep_diags`]).
    pub superstep: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            engine: Engine::default(),
            backend: Backend::default(),
            trace: false,
            metrics: false,
            check: false,
            auto: false,
            superstep: 1,
        }
    }
}

impl ExecConfig {
    /// The default configuration: sequential engine, the `interp` spelling,
    /// tracing off, checks off, superstep depth 1.
    pub fn new() -> ExecConfig {
        ExecConfig::default()
    }

    /// A configuration that asks the planning layer to pick the fastest
    /// legal configuration itself (see [`ExecConfig::auto`] the field).
    /// Spelled `auto` on the CLI: `hpfsc … --run --engine auto`.
    pub fn auto() -> ExecConfig {
        ExecConfig { auto: true, ..ExecConfig::default() }
    }

    /// Select the executor.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the nest backend's spelling ([`Backend`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Toggle the event timeline.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Toggle metrics collection.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Toggle build-time communication-plan pre-validation.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check = on;
        self
    }

    /// Select the superstep depth (`0` is normalized to `1`). Depths above
    /// 1 require a machine halo deep enough for the depth-`k` fill — size
    /// it with [`crate::superstep_halo`].
    pub fn superstep(mut self, k: usize) -> Self {
        self.superstep = k.max(1);
        self
    }

    /// The `engine[-backend]` spelling [`ExecConfig::from_cli_str`]
    /// round-trips: the engine label, plus `-bytecode` when the bytecode
    /// backend is selected (`-interp` being the default is omitted). An
    /// unresolved auto configuration is labeled `auto`.
    pub fn label(&self) -> String {
        if self.auto {
            return "auto".to_string();
        }
        match self.backend {
            Backend::Interp => self.engine.label().to_string(),
            Backend::Bytecode => format!("{}-bytecode", self.engine.label()),
        }
    }

    /// Parse a `--engine` argument: an engine (`seq`, `threaded`), a
    /// backend (`interp`, `bytecode`), or both joined with `-` (e.g.
    /// `threaded-bytecode`), or `auto` (auto-tune: the planning layer picks
    /// grid, engine and superstep depth, on the bytecode backend). Engine
    /// names are matched longest first so `sequential` is not misread as
    /// `seq` plus an unknown backend. `hpfsc` and the bench driver share
    /// this parser, so one spelling works everywhere.
    pub fn from_cli_str(spec: &str) -> Result<ExecConfig, String> {
        if spec == "auto" {
            return Ok(ExecConfig::auto());
        }
        let mut cfg = ExecConfig::new();
        let mut rest = spec;
        for (name, engine) in [
            ("threaded", Engine::Threaded),
            ("par", Engine::Threaded),
            ("sequential", Engine::Sequential),
            ("seq", Engine::Sequential),
        ] {
            if let Some(r) = rest.strip_prefix(name) {
                cfg.engine = engine;
                rest = r;
                break;
            }
        }
        match rest {
            "" if !spec.is_empty() => Ok(cfg),
            rest => match rest.strip_prefix('-').unwrap_or(rest) {
                "interp" => Ok(cfg.backend(Backend::Interp)),
                "bytecode" => Ok(cfg.backend(Backend::Bytecode)),
                _ => Err(unknown_value(
                    "engine",
                    spec,
                    &[
                        "seq",
                        "threaded",
                        "interp",
                        "bytecode",
                        "auto",
                        "engine-backend pairs like seq-bytecode, threaded-interp",
                    ],
                )),
            },
        }
    }
}

/// Render the one unknown-CLI-value error every driver prints the same way:
/// `unknown <flag> '<value>' (valid: a, b, c)`. Shared by
/// [`ExecConfig::from_cli_str`], `hpfsc`, and the bench drivers so the
/// "choices are…" list is spelled once.
pub fn unknown_value(flag: &str, value: &str, choices: &[&str]) -> String {
    format!("unknown {flag} '{value}' (valid: {})", choices.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_interp_untraced() {
        let cfg = ExecConfig::new();
        assert_eq!(cfg.engine, Engine::Sequential);
        assert_eq!(cfg.backend, Backend::Interp);
        assert!(!cfg.trace && !cfg.metrics);
        assert!(!cfg.check);
        assert_eq!(cfg.superstep, 1);
    }

    #[test]
    fn superstep_builder_normalizes_zero_to_one() {
        assert_eq!(ExecConfig::new().superstep(4).superstep, 4);
        assert_eq!(ExecConfig::new().superstep(0).superstep, 1);
        assert_eq!(ExecConfig::new().superstep(0), ExecConfig::new());
    }

    #[test]
    fn cli_round_trips_every_combination() {
        for engine in [Engine::Sequential, Engine::Threaded] {
            for backend in [Backend::Interp, Backend::Bytecode] {
                let cfg = ExecConfig::new().engine(engine).backend(backend);
                let parsed = ExecConfig::from_cli_str(&cfg.label()).unwrap();
                assert_eq!(parsed.engine, engine, "{}", cfg.label());
                assert_eq!(parsed.backend, backend, "{}", cfg.label());
            }
        }
    }

    #[test]
    fn cli_accepts_engine_or_backend_alone_and_aliases() {
        assert_eq!(ExecConfig::from_cli_str("seq").unwrap().engine, Engine::Sequential);
        assert_eq!(ExecConfig::from_cli_str("sequential").unwrap().engine, Engine::Sequential);
        assert_eq!(ExecConfig::from_cli_str("par").unwrap().engine, Engine::Threaded);
        let b = ExecConfig::from_cli_str("bytecode").unwrap();
        assert_eq!(b.engine, Engine::Sequential);
        assert_eq!(b.backend, Backend::Bytecode);
        let ti = ExecConfig::from_cli_str("threaded-interp").unwrap();
        assert_eq!(ti.engine, Engine::Threaded);
        assert_eq!(ti.backend, Backend::Interp);
    }

    #[test]
    fn auto_round_trips_and_clears_on_resolution() {
        let cfg = ExecConfig::auto();
        assert!(cfg.auto);
        assert_eq!(cfg.label(), "auto");
        assert_eq!(ExecConfig::from_cli_str("auto").unwrap(), cfg);
        // The planning layer resolves auto by overwriting engine/backend
        // and clearing the flag; the label then reads normally again.
        let resolved = ExecConfig { auto: false, ..cfg }.engine(Engine::Threaded);
        assert_eq!(resolved.label(), "threaded");
    }

    #[test]
    fn cli_rejects_garbage() {
        for bad in
            ["", "fast", "threaded-", "threaded-turbo", "seq-bytecode-extra", "threaded-overlap"]
        {
            assert!(ExecConfig::from_cli_str(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn trace_and_metrics_are_independent_toggles() {
        let cfg = ExecConfig::new().trace(true);
        assert!(cfg.trace && !cfg.metrics);
        assert!(!cfg.metrics(true).trace(false).trace && cfg.metrics(true).metrics);
    }
}
