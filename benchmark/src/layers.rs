//! The per-layer ladder of the traced run: each probe calls one layer's
//! public functions from outside, inside a span named after the layer, and
//! turns the time (or an exact count the layer reports) into a per-layer
//! metric. Nothing here reads the program's own tracing.
//!
//! Probes run Problem 9 at the workload's size and grid unless the metric
//! says otherwise, so a layer's numbers are comparable with the workload's
//! end-to-end numbers of the same run.

use crate::gen::{self, Program};
use crate::native;
use crate::spans::{span, timed};
use crate::stats::{median, quantile};
use crate::workloads::{self as wl, Kind, Ops, Spec, Timed};
use hpf_core::passes::{NodeItem, Stage, PASS_NAMES};
use hpf_core::runtime::{schedule, MoveKind};
use hpf_core::{
    baselines, Backend, CompileOptions, Engine, Kernel, Machine, MachineConfig, Plan, TuneOutcome,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a probe plan is configured (the `Planner` setters it calls).
#[derive(Clone, Copy)]
struct Cfg {
    engine: Engine,
    backend: Backend,
    superstep: usize,
    trace: bool,
    metrics: bool,
}

const SEQ_BYTECODE: Cfg = Cfg {
    engine: Engine::Sequential,
    backend: Backend::Bytecode,
    superstep: 1,
    trace: false,
    metrics: false,
};

/// What stepping a probe plan gave.
struct Stepped<'k> {
    plan: Plan<'k>,
    build_s: f64,
    /// Median seconds per logical step.
    step_s: f64,
}

impl Stepped<'_> {
    fn ns_per_pt(&self, prog: &Program) -> f64 {
        self.step_s * 1e9 / (prog.points as f64 * prog.sweeps as f64)
    }
}

/// What every probe needs: the seed of the initial values and how long to
/// step for.
#[derive(Clone, Copy)]
struct Probe {
    seed: u64,
    probe_s: f64,
}

/// Call `f` (which returns one timing) at least `min` times, then until
/// `max` calls or `budget_s` seconds.
fn samples(min: usize, max: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed().as_secs_f64() < budget_s) {
        out.push(f());
    }
    out
}

/// Seconds one `Plan::step` takes, under a span.
fn step_seconds(plan: &mut Plan<'_>) -> f64 {
    timed("exec.Plan::step", || {
        plan.step();
    })
    .1
}

/// Build a plan of `kernel` on `machine` and take its warm-up step.
/// Returns the plan and the seconds `Planner::build` took.
fn built<'k>(
    probe: Probe,
    kernel: &'k Kernel,
    prog: &Program,
    machine: MachineConfig,
    cfg: Cfg,
) -> Result<(Plan<'k>, f64), String> {
    let planner = kernel
        .plan(machine)
        .engine(cfg.engine)
        .backend(cfg.backend)
        .superstep(cfg.superstep)
        .trace(cfg.trace)
        .metrics(cfg.metrics);
    let planner = wl::with_inputs(planner, prog, probe.seed);
    let (plan, build_s) = timed("exec.Planner::build", || planner.build());
    let mut plan = plan.map_err(|e| format!("{}: {e}", prog.name))?;
    span("exec.Plan::step(warm-up)", || {
        plan.step();
    });
    Ok((plan, build_s))
}

/// [`built`], then 3 to 12 timed steps within `probe_s` seconds; the median
/// is per logical step.
fn stepped<'k>(
    probe: Probe,
    kernel: &'k Kernel,
    prog: &Program,
    machine: MachineConfig,
    cfg: Cfg,
) -> Result<Stepped<'k>, String> {
    let (mut plan, build_s) = built(probe, kernel, prog, machine, cfg)?;
    let per_step = samples(3, 12, probe.probe_s, || step_seconds(&mut plan));
    let step_s = median(&per_step) / plan.logical_steps_per_step() as f64;
    Ok(Stepped { plan, build_s, step_s })
}

/// Step the plans turn by turn for `budget_s` seconds (at least 5 rounds)
/// and return each one's median seconds per step. Differences of a few
/// percent between two configurations need this: stepped one after the
/// other, drift of the host between the two would be as large.
fn interleaved(plans: &mut [Plan<'_>], budget_s: f64) -> Vec<f64> {
    let mut samples = vec![Vec::new(); plans.len()];
    let start = Instant::now();
    while samples[0].len() < 5
        || (samples[0].len() < 5000 && start.elapsed().as_secs_f64() < budget_s)
    {
        for (plan, out) in plans.iter_mut().zip(&mut samples) {
            out.push(step_seconds(plan));
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

pub struct Ladder<'a> {
    spec: &'a Spec,
    programs: &'a [Program],
    kernels: &'a [Kernel],
    probe: Probe,
    ops: &'a mut Ops,
    pub out: BTreeMap<&'static str, f64>,
}

impl<'a> Ladder<'a> {
    pub fn new(
        spec: &'a Spec,
        programs: &'a [Program],
        kernels: &'a [Kernel],
        seed: u64,
        ops: &'a mut Ops,
    ) -> Self {
        let probe = Probe { seed, probe_s: spec.probe_s };
        Ladder { spec, programs, kernels, probe, ops, out: BTreeMap::new() }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }

    /// Metrics that come from the workload's own spanned steps and set-up.
    pub fn workload_steps(&mut self, timed: &[Timed], build_s: f64, tune: Option<&TuneOutcome>) {
        let spanned: Vec<f64> =
            timed.iter().flat_map(|t| t.spanned_step_s.iter().copied()).collect();
        self.put("exec.step_us_p50", median(&spanned) * 1e6);
        self.put("exec.step_us_p90", quantile(&spanned, 0.9) * 1e6);
        self.put("exec.plan_build_us", build_s * 1e6 / self.programs.len() as f64);
        // Per plan, spanned against plain per-step time; the median over
        // the plans (the zoo has 64) is the cost of the harness's spans.
        let overheads: Vec<f64> = timed
            .iter()
            .filter(|t| !t.plain_step_s.is_empty() && !t.spanned_step_s.is_empty())
            .map(|t| (median(&t.spanned_step_s) / median(&t.plain_step_s) - 1.0) * 100.0)
            .collect();
        self.put("bench.span_overhead_pct", median(&overheads));
        if let Some(t) = tune {
            self.put("tune.search_s", t.search_ns as f64 / 1e9);
            self.put("tune.candidates", t.candidates.len() as f64);
            self.put("tune.timed", t.timed as f64);
        }
    }

    pub fn run(&mut self) {
        self.compile_layers();
        let p9 = gen::frozen("problem9", self.spec.n);
        let Some(p9k) = self.ops.run("ladder compile problem9", || wl::compile(&p9)) else {
            return;
        };
        let seq_step_s = self.stage_ladder(&p9);
        self.codegen_and_exec(&p9, &p9k, seq_step_s);
        self.runtime_layer(&p9, &p9k);
        self.tune_layer();
        self.observers(&p9, &p9k);
        self.baselines(&p9);
        self.put("bench.host_spin_scaling", host_spin_scaling());
    }

    /// frontend, passes, ir, analysis, core: the compile-side layers, over
    /// the workload's own programs.
    fn compile_layers(&mut self) {
        let programs = self.programs;
        let reps = (60 / programs.len().max(1)).clamp(3, 30);
        let (mut parse, mut passes, mut lint, mut listing, mut whole) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut pass_us: Vec<Vec<f64>> = vec![Vec::new(); PASS_NAMES.len()];
        let (mut bytes, mut parse_s) = (0usize, 0.0);
        let mut counts = [0usize; 5]; // instrs, comm_ops, nests, arrays, diagnostics
        let ok = self.ops.run("ladder compile layers", || {
            for rep in 0..reps {
                let mut per_pass = vec![0u64; PASS_NAMES.len()];
                for (prog, kernel) in programs.iter().zip(self.kernels) {
                    let (checked, s) = timed("frontend.compile_source", || {
                        hpf_core::frontend::compile_source(&prog.source)
                    });
                    let checked = checked.map_err(|e| e.to_string())?;
                    parse.push(s);
                    parse_s += s;
                    bytes += prog.source.len();
                    let (compiled, s) = timed("passes.compile", || {
                        hpf_core::passes::compile(&checked, CompileOptions::full())
                    });
                    passes.push(s);
                    for (acc, t) in per_pass.iter_mut().zip(&compiled.stats.pass_timings) {
                        *acc += t.wall_ns;
                    }
                    let (diags, s) = timed("analysis.Kernel::lint", || kernel.lint());
                    lint.push(s);
                    let (text, s) = timed("ir.Kernel::listing", || kernel.listing());
                    std::hint::black_box(text);
                    listing.push(s);
                    let (k, s) = timed("core.Kernel::compile", || {
                        Kernel::compile(&prog.source, CompileOptions::full())
                    });
                    k.map_err(|e| e.to_string())?;
                    whole.push(s);
                    if rep == 0 {
                        compiled.node.for_each_item(&mut |item| {
                            if let NodeItem::Nest(nest) = item {
                                counts[0] += nest.body.len();
                            }
                        });
                        counts[1] += compiled.stats.comm_ops;
                        counts[2] += compiled.stats.nests;
                        counts[3] += compiled.stats.arrays_allocated;
                        counts[4] += diags.len();
                    }
                }
                for (samples, ns) in pass_us.iter_mut().zip(per_pass) {
                    samples.push(ns as f64 / 1e3);
                }
            }
            Ok(())
        });
        if ok.is_none() {
            return;
        }
        self.put("frontend.parse_us_p50", median(&parse) * 1e6);
        self.put("frontend.src_mb_per_s", bytes as f64 / 1e6 / parse_s.max(1e-12));
        self.put("passes.compile_us_p50", median(&passes) * 1e6);
        const PASS_METRICS: [&str; 6] = [
            "passes.normalize_us",
            "passes.offset-arrays_us",
            "passes.context-partitioning_us",
            "passes.comm-unioning_us",
            "passes.scalarize_us",
            "passes.memopt_us",
        ];
        for (name, samples) in PASS_METRICS.iter().zip(&pass_us) {
            // Summed over the workload's programs, median over repetitions.
            self.put(name, median(samples));
        }
        self.put("analysis.lint_us_p50", median(&lint) * 1e6);
        self.put("ir.listing_us_p50", median(&listing) * 1e6);
        self.put("core.kernel_compile_us_p50", median(&whole) * 1e6);
        self.put("ir.node_instrs", counts[0] as f64);
        self.put("passes.comm_ops", counts[1] as f64);
        self.put("passes.nests", counts[2] as f64);
        self.put("passes.arrays_allocated", counts[3] as f64);
        self.put("analysis.diagnostics", counts[4] as f64);
    }

    /// Figure 17 on the wall clock: Problem 9 compiled up to each stage,
    /// stepped on the workload's grid by the sequential bytecode engine.
    /// Returns the full pipeline's seconds per step.
    fn stage_ladder(&mut self, p9: &Program) -> Option<f64> {
        let (spec, probe) = (self.spec, self.probe);
        const NAMES: [&str; 5] = [
            "passes.stage_original_ns_per_pt",
            "passes.stage_offset_ns_per_pt",
            "passes.stage_partition_ns_per_pt",
            "passes.stage_unioning_ns_per_pt",
            "passes.stage_full_ns_per_pt",
        ];
        let mut full = None;
        for (stage, name) in Stage::all().into_iter().zip(NAMES) {
            let got = self.ops.run(name, || {
                let kernel = span("passes.Kernel::compile(upto)", || {
                    Kernel::compile(&p9.source, CompileOptions::upto(stage))
                })
                .map_err(|e| e.to_string())?;
                let s = stepped(probe, &kernel, p9, spec.machine(2), SEQ_BYTECODE)?;
                Ok((s.ns_per_pt(p9), s.step_s))
            });
            if let Some((ns, step_s)) = got {
                self.put(name, ns);
                full = Some(step_s);
            }
        }
        full
    }

    /// codegen and exec: backends, engines and supersteps against the
    /// sequential bytecode step of the same kernel on the same grid.
    fn codegen_and_exec(&mut self, p9: &Program, p9k: &Kernel, seq_step_s: Option<f64>) {
        let (spec, probe) = (self.spec, self.probe);
        let grid = spec.machine(2);
        let pes = spec.grid.iter().product::<usize>();
        let points = p9.points as f64;

        // Interpreter against bytecode, same grid: the build-time difference
        // is what compiling (and verifying) the kernels costs.
        let interp = self.ops.run("exec.interp_ns_per_pt", || {
            let s = stepped(
                probe,
                p9k,
                p9,
                grid.clone(),
                Cfg { backend: Backend::Interp, ..SEQ_BYTECODE },
            )?;
            Ok((s.ns_per_pt(p9), s.build_s))
        });
        let bytecode = self.ops.run("codegen.compile_us", || {
            let s = stepped(probe, p9k, p9, grid.clone(), SEQ_BYTECODE)?;
            let (diags, verify_s) = timed("codegen.Plan::verify_static", || s.plan.verify_static());
            if !diags.is_empty() {
                return Err(format!("verify_static: {} diagnostics", diags.len()));
            }
            let stats = s.plan.stats();
            let steps = s.plan.steps() as f64;
            let total = stats.total();
            Ok((
                s.build_s,
                verify_s,
                stats.kernels_compiled as f64,
                (total.loads + total.stores) as f64 * 8.0 / (points * steps),
                stats.total_messages() as f64 / steps,
                stats.total_comm_bytes() as f64 / steps,
                stats.schedule_reuses as f64 / steps,
                stats.max_peak_bytes() as f64,
                s.plan.modeled_ms() / steps,
            ))
        });
        if let Some((ns, _)) = interp {
            self.put("exec.interp_ns_per_pt", ns);
        }
        if let Some((build_s, verify_s, kernels, bytes, msgs, comm, reuses, peak, modeled)) =
            bytecode
        {
            if let Some((_, interp_build_s)) = interp {
                self.put("codegen.compile_us", (build_s - interp_build_s) * 1e6);
            }
            self.put("codegen.verify_us", verify_s * 1e6);
            self.put("codegen.kernels_compiled", kernels);
            self.put("codegen.computed_bytes_per_pt", bytes);
            self.put("runtime.msgs_per_step", msgs);
            self.put("runtime.comm_bytes_per_step", comm);
            self.put("runtime.schedule_reuses_per_step", reuses);
            self.put("runtime.peak_pe_bytes", peak);
            self.put("runtime.modeled_ms_per_step", modeled);
        }

        // The VM alone: one PE, no messages; and the hand-written floor.
        let n = spec.n;
        let f = gen::init_for(probe.seed, "U");
        let native_ns = self.ops.run("bench.native_ns_per_pt", || {
            let mut u = native::Field::new(n, |p| f(p));
            let mut t = native::Field::new(n, |_| 0.0);
            native::nine_point_step(&mut u, &mut t);
            let per_step = samples(5, 200, probe.probe_s, || {
                timed("bench.native::nine_point_step", || native::nine_point_step(&mut u, &mut t)).1
            });
            std::hint::black_box(t.dense().first().copied());
            Ok(median(&per_step) * 1e9 / points)
        });
        let alone = self.ops.run("codegen.bytecode_ns_per_pt", || {
            Ok(stepped(probe, p9k, p9, MachineConfig::grid([1, 1]), SEQ_BYTECODE)?.ns_per_pt(p9))
        });
        if let Some(ns) = native_ns {
            self.put("bench.native_ns_per_pt", ns);
        }
        if let Some(ns) = alone {
            self.put("codegen.bytecode_ns_per_pt", ns);
            if let Some(floor) = native_ns {
                self.put("codegen.bytecode_over_native", ns / floor);
            }
            // The share of a sequential step on the workload's grid that is
            // VM work; the rest is messages, packing and per-PE loop set-up.
            if let Some(seq) = seq_step_s {
                self.put("bench.vm_share_pct", 100.0 * ns * points / (seq * 1e9));
            }
        }
        // The other shapes through the VM alone.
        for (kernel_name, metric) in [
            ("wave2d", "codegen.wave2d_ns_per_pt"),
            ("image_blur", "codegen.image_blur_ns_per_pt"),
            ("masked", "codegen.masked_ns_per_pt"),
            ("heat3d", "codegen.heat3d_ns_per_pt"),
        ] {
            let prog = gen::frozen(kernel_name, if kernel_name == "heat3d" { spec.n3 } else { n });
            let got = self.ops.run(metric, || {
                let kernel = wl::compile(&prog)?;
                let one_pe = MachineConfig::grid(vec![1; prog.rank]);
                Ok(stepped(probe, &kernel, &prog, one_pe, SEQ_BYTECODE)?.ns_per_pt(&prog))
            });
            if let Some(ns) = got {
                self.put(metric, ns);
            }
        }
        // Engines against the sequential step of the same grid, turn by turn.
        let engines = self.ops.run("exec engines", || {
            let mut plans = Vec::new();
            for engine in [Engine::Sequential, Engine::Threaded, Engine::ThreadedOverlap] {
                plans.push(built(probe, p9k, p9, grid.clone(), Cfg { engine, ..SEQ_BYTECODE })?.0);
            }
            Ok(interleaved(&mut plans, 4.0 * spec.probe_s))
        });
        if let Some(step_s) = engines {
            let (seq, threaded, overlap) = (step_s[0], step_s[1], step_s[2]);
            self.put("exec.threaded_overhead_us", (threaded - seq) * 1e6);
            self.put("exec.overlap_overhead_us", (overlap - seq) * 1e6);
            let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
            self.put("exec.parallel_eff", seq / (threaded * pes.min(cpus) as f64));
        }
        let k4 = self.ops.run("exec.superstep_k4_step_us", || {
            Ok(stepped(probe, p9k, p9, grid.clone(), Cfg { superstep: 4, ..SEQ_BYTECODE })?.step_s)
        });
        if let Some(step_s) = k4 {
            self.put("exec.superstep_k4_step_us", step_s * 1e6);
        }
    }

    /// runtime: the machine driven directly — allocation and fill, the four
    /// overlap shifts of Figure 15 as persistent schedules, and a gather.
    fn runtime_layer(&mut self, p9: &Program, p9k: &Kernel) {
        let cfg = self.spec.machine(2);
        let halo = cfg.halo;
        let probe = self.probe;
        let got = self.ops.run("runtime layer", || {
            let id = p9k.array_id("U").map_err(|e| e.to_string())?;
            let decl = p9k.checked.symbols.array(id);
            let f = gen::init_for(probe.seed, "U");
            let (machine, alloc_fill_s) = timed("runtime.Machine::alloc+fill", || {
                let mut m = Machine::new(cfg);
                m.alloc(id, decl).map(|()| {
                    m.fill(id, |p| f(p));
                    m
                })
            });
            let mut machine = machine.map_err(|e| e.to_string())?;
            let geom = machine.geometry_for(decl).map_err(|e| e.to_string())?;
            // Dimension 1 both ways, then dimension 2 both ways with the
            // RSD that picks the corners up out of dimension 1's overlap.
            let mut corners = hpf_core::ir::Rsd::none(2);
            corners.extend(0, -1);
            corners.extend(0, 1);
            let (scheds, build_s) = timed("runtime.schedule+compile_comm", || {
                let mut scheds = Vec::new();
                for (shift, dim, rsd) in
                    [(1, 0, None), (-1, 0, None), (1, 1, Some(&corners)), (-1, 1, Some(&corners))]
                {
                    let plan = schedule::overlap_shift_plan(
                        &geom,
                        shift,
                        dim,
                        rsd,
                        hpf_core::ir::ShiftKind::Circular,
                        halo,
                    )?;
                    scheds.push(machine.compile_comm(id, id, plan, MoveKind::Overlap));
                }
                Ok::<_, hpf_core::RtError>(scheds)
            });
            let mut scheds = scheds.map_err(|e| e.to_string())?;
            let exchanges = samples(5, 2000, probe.probe_s, || {
                timed("runtime.Machine::apply_compiled", || {
                    for s in &mut scheds {
                        machine.apply_compiled(s);
                    }
                })
                .1
            });
            let (dense, gather_s) = timed("runtime.Machine::gather", || machine.gather(id));
            if dense.len() as u64 != p9.points {
                return Err("gather returned the wrong number of points".to_string());
            }
            Ok((alloc_fill_s, build_s, median(&exchanges), gather_s))
        });
        if let Some((alloc_fill_s, build_s, exchange_s, gather_s)) = got {
            self.put("runtime.alloc_fill_us", alloc_fill_s * 1e6);
            self.put("runtime.schedule_build_us", build_s * 1e6);
            self.put("runtime.halo_exchange_us_p50", exchange_s * 1e6);
            self.put("runtime.gather_us", gather_s * 1e6);
        }
    }

    /// tune: a cold search (the workload's own on the tune workload, else
    /// one at `tune_n`), the warm lookup after it, and the winner's step
    /// against the fixed 2x2 sequential-bytecode step.
    fn tune_layer(&mut self) {
        let spec =
            Spec { kind: Kind::Tune, n: self.spec.tune_n, grid: [2, 2], ..self.spec.clone() };
        let prog = gen::frozen("problem9", spec.n);
        let own_search = self.spec.kind == Kind::Tune;
        let probe = self.probe;
        let got = self.ops.run("tune layer", || {
            let kernel = wl::compile(&prog)?;
            // The tune workload's set-up already searched and left its
            // decision in the cache; elsewhere search now.
            let cold = if own_search { None } else { Some(wl::tune_cold(&spec, &kernel)?) };
            let (warm, warm_s) =
                timed("tune.Kernel::tune(warm)", || kernel.tune(&wl::tuner(&spec)));
            if !warm.map_err(|e| e.to_string())?.cache_hit {
                return Err("warm lookup missed the cache".to_string());
            }
            // The winner's plan, built the way the tune workload builds it.
            let mut tuned = wl::build(&spec, &kernel, &prog, probe.seed)?;
            tuned.step();
            let per_step = samples(5, 12, probe.probe_s, || step_seconds(&mut tuned));
            let tuned_s = median(&per_step) / tuned.logical_steps_per_step() as f64;
            let fixed_s = stepped(probe, &kernel, &prog, spec.machine(2), SEQ_BYTECODE)?.step_s;
            Ok((cold, warm_s, tuned_s / fixed_s))
        });
        if !own_search {
            let _ = std::fs::remove_file(spec.tune_cache());
        }
        if let Some((cold, warm_s, ratio)) = got {
            if let Some(t) = cold {
                self.put("tune.search_s", t.search_ns as f64 / 1e9);
                self.put("tune.candidates", t.candidates.len() as f64);
                self.put("tune.timed", t.timed as f64);
            }
            self.put("tune.warm_hit_us", warm_s * 1e6);
            self.put("tune.tuned_over_fixed", ratio);
        }
    }

    /// trace and metrics: what switching the program's own observers on
    /// costs a step of the workload's engine.
    fn observers(&mut self, p9: &Program, p9k: &Kernel) {
        let (spec, probe) = (self.spec, self.probe);
        let grid = spec.machine(2);
        let base = Cfg { engine: spec.engine, ..SEQ_BYTECODE };
        let got = self.ops.run("trace and metrics layers", || {
            let mut plans = Vec::new();
            for cfg in [base, Cfg { trace: true, ..base }, Cfg { metrics: true, ..base }] {
                plans.push(built(probe, p9k, p9, grid.clone(), cfg)?.0);
            }
            let step_s = interleaved(&mut plans, 7.0 * spec.probe_s);
            let steps = plans[1].steps() as f64;
            let trace = span("trace.Plan::take_trace", || plans[1].take_trace());
            let events: usize = trace.tracks.iter().map(|t| t.events.len()).sum();
            let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
            let (snapshot, snapshot_s) =
                timed("metrics.Plan::metrics_snapshot", || plans[2].metrics_snapshot());
            if snapshot.is_none() {
                return Err("no metrics snapshot from a metered plan".to_string());
            }
            Ok((
                (step_s[1] / step_s[0] - 1.0) * 100.0,
                events as f64 / steps,
                dropped as f64,
                (step_s[2] / step_s[0] - 1.0) * 100.0,
                snapshot_s * 1e6,
            ))
        });
        if let Some((trace_pct, spans_per_step, dropped, metrics_pct, snapshot_us)) = got {
            self.put("trace.on_overhead_pct", trace_pct);
            self.put("trace.spans_per_step", spans_per_step);
            self.put("trace.dropped_spans", dropped);
            self.put("metrics.on_overhead_pct", metrics_pct);
            self.put("metrics.snapshot_us", snapshot_us);
        }
    }

    /// baselines: the naive and the hand-MPI translations of Problem 9 —
    /// context rows for the stage ladder.
    fn baselines(&mut self, p9: &Program) {
        let (spec, probe) = (self.spec, self.probe);
        for (metric, options) in [
            ("baselines.naive_ns_per_pt", baselines::naive::naive_options()),
            ("baselines.hand_mpi_ns_per_pt", baselines::hand_mpi::hand_mpi_options()),
        ] {
            let got = self.ops.run(metric, || {
                let kernel = span("baselines.Kernel::compile(options)", || {
                    Kernel::compile(&p9.source, options)
                })
                .map_err(|e| e.to_string())?;
                Ok(stepped(probe, &kernel, p9, spec.machine(2), SEQ_BYTECODE)?.ns_per_pt(p9))
            });
            if let Some(ns) = got {
                self.put(metric, ns);
            }
        }
    }
}

/// How much two threads get done against one on this host: the same
/// spin loop on one thread, then on two at once; 2.0 is two full cores,
/// 1.0 is one core shared. Explains `exec.parallel_eff`.
fn host_spin_scaling() -> f64 {
    fn spin() -> f64 {
        let t = Instant::now();
        let mut x = 1.000_000_1_f64;
        for _ in 0..20_000_000u32 {
            x = std::hint::black_box(x * 1.000_000_1 + 1e-9);
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64()
    }
    span("bench.host_spin_scaling", || {
        let one = spin();
        let two = std::thread::scope(|s| {
            let a = s.spawn(spin);
            let b = s.spawn(spin);
            let a = a.join().expect("spin thread");
            let b = b.join().expect("spin thread");
            a.max(b)
        });
        2.0 * one / two
    })
}
