//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repo is `--manifest` written to a file; `tests/smoke.rs` checks that
//! the two agree.

/// How long one run measures its steady state, seconds.
pub const RUN_SECONDS: u64 = 12;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1997;

pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    (
        "p9-large-2048",
        "The paper's kernel far out of cache on the sequential engine: the bytecode VM is over 90% \
         of a step, messages under 5%; VM work must show here, executor work must not.",
    ),
    (
        "p9-threaded-192",
        "The same kernel small, one thread per PE: per-step spawn, channels and pack/unpack are \
         about half of every step; executor work must show here, VM work at half rate.",
    ),
    (
        "mixed-shapes-768",
        "Four other shapes (copies, EOSHIFT boundary, WHERE mask, rank 3) through the same VM and \
         runtime: a shortcut fitted to Problem 9 that slows them shows here.",
    ),
    (
        "zoo-compile-64",
        "64 small programs (9 frozen, 55 seeded) from source to first result: frontend, passes, \
         lint and plan build are all of the time; work moved from stepping into set-up shows here.",
    ),
    (
        "tune-cold-1024",
        "Problem 9 configured by a cold auto-tune: set-up is the search, throughput is the quality \
         of its decision, and every engine and backend runs inside the search.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "mpoints_per_s", unit: "Mpt/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15 },
];

/// (name, unit, better). `count` metrics marked exact in the README repeat
/// bit for bit between runs of one commit on one seed.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("frontend.parse_us_p50", "us", "lower"),
    ("frontend.src_mb_per_s", "MB/s", "higher"),
    ("ir.node_instrs", "count", "lower"),
    ("ir.listing_us_p50", "us", "lower"),
    ("passes.compile_us_p50", "us", "lower"),
    ("passes.normalize_us", "us", "lower"),
    ("passes.offset-arrays_us", "us", "lower"),
    ("passes.context-partitioning_us", "us", "lower"),
    ("passes.comm-unioning_us", "us", "lower"),
    ("passes.scalarize_us", "us", "lower"),
    ("passes.memopt_us", "us", "lower"),
    ("passes.comm_ops", "count", "lower"),
    ("passes.nests", "count", "lower"),
    ("passes.arrays_allocated", "count", "lower"),
    ("passes.stage_original_ns_per_pt", "ns/pt", "lower"),
    ("passes.stage_offset_ns_per_pt", "ns/pt", "lower"),
    ("passes.stage_partition_ns_per_pt", "ns/pt", "lower"),
    ("passes.stage_unioning_ns_per_pt", "ns/pt", "lower"),
    ("passes.stage_full_ns_per_pt", "ns/pt", "lower"),
    ("analysis.lint_us_p50", "us", "lower"),
    ("analysis.diagnostics", "count", "lower"),
    ("codegen.bytecode_ns_per_pt", "ns/pt", "lower"),
    ("codegen.bytecode_over_native", "ratio", "lower"),
    ("codegen.wave2d_ns_per_pt", "ns/pt", "lower"),
    ("codegen.image_blur_ns_per_pt", "ns/pt", "lower"),
    ("codegen.masked_ns_per_pt", "ns/pt", "lower"),
    ("codegen.heat3d_ns_per_pt", "ns/pt", "lower"),
    ("codegen.compile_us", "us", "lower"),
    ("codegen.verify_us", "us", "lower"),
    ("codegen.kernels_compiled", "count", "lower"),
    ("codegen.computed_bytes_per_pt", "B/pt", "lower"),
    ("exec.plan_build_us", "us", "lower"),
    ("exec.step_us_p50", "us", "lower"),
    ("exec.step_us_p90", "us", "lower"),
    ("exec.interp_ns_per_pt", "ns/pt", "lower"),
    ("exec.oracle_ns_per_pt", "ns/pt", "lower"),
    ("exec.threaded_overhead_us", "us", "lower"),
    ("exec.overlap_overhead_us", "us", "lower"),
    ("exec.superstep_k4_step_us", "us", "lower"),
    ("exec.parallel_eff", "ratio", "higher"),
    ("runtime.halo_exchange_us_p50", "us", "lower"),
    ("runtime.schedule_build_us", "us", "lower"),
    ("runtime.alloc_fill_us", "us", "lower"),
    ("runtime.gather_us", "us", "lower"),
    ("runtime.msgs_per_step", "count", "lower"),
    ("runtime.comm_bytes_per_step", "B", "lower"),
    ("runtime.schedule_reuses_per_step", "count", "higher"),
    ("runtime.peak_pe_bytes", "B", "lower"),
    ("runtime.modeled_ms_per_step", "ms", "lower"),
    ("tune.search_s", "s", "lower"),
    ("tune.candidates", "count", "lower"),
    ("tune.timed", "count", "lower"),
    ("tune.warm_hit_us", "us", "lower"),
    ("tune.tuned_over_fixed", "ratio", "lower"),
    ("trace.on_overhead_pct", "%", "lower"),
    ("trace.spans_per_step", "count", "lower"),
    ("trace.dropped_spans", "count", "lower"),
    ("metrics.on_overhead_pct", "%", "lower"),
    ("metrics.snapshot_us", "us", "lower"),
    ("baselines.naive_ns_per_pt", "ns/pt", "lower"),
    ("baselines.hand_mpi_ns_per_pt", "ns/pt", "lower"),
    ("core.kernel_compile_us_p50", "us", "lower"),
    ("bench.native_ns_per_pt", "ns/pt", "lower"),
    ("bench.span_overhead_pct", "%", "lower"),
    ("bench.host_spin_scaling", "ratio", "higher"),
    ("bench.check_s", "s", "lower"),
    ("bench.attributed_pct", "%", "higher"),
    ("bench.vm_share_pct", "%", "higher"),
    ("bench.spans", "count", "lower"),
];

/// Per-layer metrics that are exact counts: identical between two runs of
/// one commit on one seed (the compiler-determinism check of the smoke
/// test).
pub const EXACT: [&str; 13] = [
    "ir.node_instrs",
    "passes.comm_ops",
    "passes.nests",
    "passes.arrays_allocated",
    "analysis.diagnostics",
    "codegen.kernels_compiled",
    "codegen.computed_bytes_per_pt",
    "runtime.msgs_per_step",
    "runtime.comm_bytes_per_step",
    "runtime.schedule_reuses_per_step",
    "runtime.peak_pe_bytes",
    "tune.candidates",
    "tune.timed",
];

/// `BENCHMARK.json`.
pub fn json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOAD_WHY
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
