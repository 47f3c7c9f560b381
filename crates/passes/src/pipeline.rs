//! The pass pipeline with per-stage toggles.
//!
//! [`CompileOptions::upto`] reproduces the staged configurations of the
//! paper's Figure 17: *original* (naive Fortran77+MPI translation), then
//! cumulatively offset arrays, context partitioning, communication
//! unioning, and memory optimizations.

use crate::loopir::NodeProgram;
use crate::memopt::{self, MemOptOptions, MemOptStats};
use crate::normalize::{self, NormalizeStats, TempPolicy};
use crate::offset::{self, OffsetStats};
use crate::partition::{self, PartitionStats};
use crate::rotate;
use crate::scalarize::{self, ScalarizeOptions, ScalarizeStats};
use crate::unioning::{self, UnioningStats};
use hpf_frontend::Checked;
use hpf_ir::Program;

/// Cumulative pipeline stages matching Figure 17's x-axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Naive translation: full shifts, one loop per statement.
    Original,
    /// + offset arrays (§3.1).
    OffsetArrays,
    /// + context partitioning (§3.2), which enables loop fusion.
    Partition,
    /// + communication unioning (§3.3).
    Unioning,
    /// + memory optimizations (§3.4): scalar replacement & unroll-and-jam.
    MemOpt,
}

impl Stage {
    /// All stages in pipeline order.
    pub fn all() -> [Stage; 5] {
        [Stage::Original, Stage::OffsetArrays, Stage::Partition, Stage::Unioning, Stage::MemOpt]
    }

    /// Display label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Original => "original",
            Stage::OffsetArrays => "+offset-arrays",
            Stage::Partition => "+context-partitioning",
            Stage::Unioning => "+comm-unioning",
            Stage::MemOpt => "+memory-opts",
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Temporary allocation policy during normalization.
    pub temp_policy: TempPolicy,
    /// Offset-array optimization.
    pub offset_arrays: bool,
    /// Context partitioning.
    pub partition: bool,
    /// Communication unioning.
    pub unioning: bool,
    /// Fuse adjacent congruent statements during scalarization.
    pub fuse: bool,
    /// Scalar replacement.
    pub scalar_replacement: bool,
    /// Unroll-and-jam factor (1 = off).
    pub unroll_factor: usize,
    /// Loop permutation.
    pub permute: bool,
    /// Emit naive Fortran scalarization loop order (permutation then fixes
    /// it); used by the permutation ablation.
    pub fortran_order: bool,
    /// Overlap-area width of the target machine.
    pub halo: usize,
    /// Check each pass's declared post-conditions between stages and panic
    /// with rendered diagnostics on violation. On by default in debug builds
    /// (and therefore under `cargo test`); release builds skip the checks.
    pub check_invariants: bool,
}

impl CompileOptions {
    /// Everything on — the paper's full strategy.
    pub fn full() -> Self {
        CompileOptions {
            temp_policy: TempPolicy::Reuse,
            offset_arrays: true,
            partition: true,
            unioning: true,
            fuse: true,
            scalar_replacement: true,
            unroll_factor: 2,
            permute: true,
            fortran_order: false,
            halo: 1,
            check_invariants: cfg!(debug_assertions),
        }
    }

    /// Everything off: the hand-translated Fortran77+MPI starting point of
    /// Figure 17 (sane loop order, reused temporaries, but full shifts and
    /// one loop nest per statement).
    pub fn original() -> Self {
        CompileOptions {
            temp_policy: TempPolicy::Reuse,
            offset_arrays: false,
            partition: false,
            unioning: false,
            fuse: true, // fusion of *adjacent* congruent statements only
            scalar_replacement: false,
            unroll_factor: 1,
            permute: true,
            fortran_order: false,
            halo: 1,
            check_invariants: cfg!(debug_assertions),
        }
    }

    /// The cumulative configuration for a Figure 17 stage.
    pub fn upto(stage: Stage) -> Self {
        let mut o = Self::original();
        if stage >= Stage::OffsetArrays {
            o.offset_arrays = true;
        }
        if stage >= Stage::Partition {
            o.partition = true;
        }
        if stage >= Stage::Unioning {
            o.unioning = true;
        }
        if stage >= Stage::MemOpt {
            o.scalar_replacement = true;
            o.unroll_factor = 2;
        }
        o
    }

    /// Set the overlap width.
    pub fn halo(mut self, halo: usize) -> Self {
        self.halo = halo;
        self
    }

    /// Enable or disable inter-stage post-condition checking.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// Number of timed pipeline passes (the fixed pipeline order).
pub const NUM_PASSES: usize = 6;

/// Pass names, in pipeline order — indexes [`PipelineStats::pass_timings`].
pub const PASS_NAMES: [&str; NUM_PASSES] =
    ["normalize", "offset-arrays", "context-partitioning", "comm-unioning", "scalarize", "memopt"];

/// Wall time and post-condition checking effort of one pipeline pass.
/// `PipelineStats` is `Copy`, so these live in a fixed-size array rather
/// than a `Vec`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassTiming {
    /// Wall nanoseconds spent in the pass, post-condition checks included.
    /// Zero when the pass was disabled by the options.
    pub wall_ns: u64,
    /// Post-condition checks evaluated after the pass (zero when
    /// `check_invariants` is off).
    pub checks: u32,
    /// Diagnostics those checks produced. Nonzero means the pass broke an
    /// invariant; `compile` panics right after counting, so a value you
    /// can observe is always zero.
    pub diagnostics: u32,
}

/// Statistics from every pass that ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// Normalization.
    pub normalize: NormalizeStats,
    /// Offset arrays (zeroed when disabled).
    pub offset: OffsetStats,
    /// Whole-array copies storage rotation turned into rebinds (zero when
    /// offset arrays are disabled).
    pub rotated: usize,
    /// Context partitioning (zeroed when disabled).
    pub partition: PartitionStats,
    /// Communication unioning (zeroed when disabled).
    pub unioning: UnioningStats,
    /// Scalarization.
    pub scalarize: ScalarizeStats,
    /// Memory optimizations.
    pub memopt: MemOptStats,
    /// Static communication statements in the final node program.
    pub comm_ops: usize,
    /// Loop nests in the final node program.
    pub nests: usize,
    /// Arrays the node program allocates.
    pub arrays_allocated: usize,
    /// Arrays whose owned elements one step of the node program writes
    /// ([`NodeProgram::arrays_written`]).
    pub arrays_written: usize,
    /// Per-pass wall time and checking effort, indexed like [`PASS_NAMES`].
    pub pass_timings: [PassTiming; NUM_PASSES],
}

impl PipelineStats {
    /// Total wall nanoseconds across all passes.
    pub fn total_pass_ns(&self) -> u64 {
        self.pass_timings.iter().map(|t| t.wall_ns).sum()
    }
}

/// A compiled kernel: the optimized array-level IR (for inspection and the
/// paper-style listings) plus the executable node program.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Array-level IR after the enabled array passes.
    pub array_ir: Program,
    /// Lowered node program.
    pub node: NodeProgram,
    /// Per-pass statistics.
    pub stats: PipelineStats,
    /// The options used.
    pub options: CompileOptions,
}

impl Compiled {
    /// The overlap-area width the node program needs at run time: the
    /// largest overlap-shift amount / RSD extension, and the largest
    /// absolute load offset of any subgrid loop body.
    pub fn required_halo(&self) -> usize {
        use crate::loopir::{CommOp, Instr, NodeItem};
        let mut need = 0usize;
        self.node.for_each_item(&mut |item| match item {
            NodeItem::Comm(CommOp::Overlap { shift, rsd, .. }) => {
                need = need.max(shift.unsigned_abs() as usize);
                if let Some(r) = rsd {
                    for &(lo, hi) in &r.ext {
                        need = need.max(lo as usize).max(hi as usize);
                    }
                }
            }
            NodeItem::Nest(nest) => {
                // The unit body's offsets bound the halo need: a jammed
                // copy's extra +k along the unrolled dimension indexes owned
                // rows of later iterations (the main loop stops while
                // i+factor-1 is in range), not the overlap area.
                let unit = nest.unroll.as_ref().map_or(&nest.body, |u| &u.unit_body);
                for i in unit {
                    if let Instr::Load { offsets, .. } | Instr::Store { offsets, .. } = i {
                        for &o in offsets {
                            need = need.max(o.unsigned_abs() as usize);
                        }
                    }
                }
            }
            _ => {}
        });
        need
    }
}

/// Panic with rendered diagnostics when a pass's post-conditions fail: any
/// diagnostic here means the *compiler* broke its own invariants, not that
/// the user program is wrong.
fn enforce(stage: &str, diags: &[hpf_ir::Diagnostic]) {
    assert!(
        diags.is_empty(),
        "internal compiler error: post-condition violated after {stage}:\n{}",
        hpf_analysis::render_text(diags)
    );
}

/// Run post-condition checks for one pass, recording how many checks ran
/// and how many diagnostics they produced before enforcing (which panics
/// on any diagnostic).
fn check_pass(
    timing: &mut PassTiming,
    stage: &str,
    program: &Program,
    halo: i64,
    checks: &[hpf_analysis::Check],
) {
    let diags = hpf_analysis::run_checks(program, halo, checks);
    timing.checks += checks.len() as u32;
    timing.diagnostics += diags.len() as u32;
    enforce(stage, &diags);
}

/// Run the pipeline on a checked source program.
pub fn compile(checked: &Checked, options: CompileOptions) -> Compiled {
    let halo = options.halo as i64;
    let checking = options.check_invariants;
    let mut stats = PipelineStats::default();
    let mut clock = std::time::Instant::now();
    // Lap: wall time since the previous pass boundary.
    let mut lap = move || {
        let ns = clock.elapsed().as_nanos() as u64;
        clock = std::time::Instant::now();
        ns
    };
    let (mut program, nstats) = normalize::normalize(checked, options.temp_policy);
    stats.normalize = nstats;
    if checking {
        check_pass(
            &mut stats.pass_timings[0],
            "normalize",
            &program,
            halo,
            normalize::post_conditions(),
        );
    }
    stats.pass_timings[0].wall_ns = lap();
    if options.offset_arrays {
        stats.offset = offset::run(&mut program, halo);
        // Storage rotation rides with offset arrays: the same storage
        // sharing, applied to whole-array copies instead of shifts.
        stats.rotated = rotate::run(&mut program);
        if checking {
            check_pass(
                &mut stats.pass_timings[1],
                "offset-arrays",
                &program,
                halo,
                offset::post_conditions(),
            );
        }
        stats.pass_timings[1].wall_ns = lap();
    }
    if options.partition {
        if checking {
            // Group legality needs the member lists the pass actually built,
            // so the check rides along inside the pass.
            let mut diags = Vec::new();
            stats.partition = partition::run_checked(&mut program, &mut diags);
            diags.extend(hpf_analysis::run_checks(&program, halo, partition::post_conditions()));
            stats.pass_timings[2].checks += 1 + partition::post_conditions().len() as u32;
            stats.pass_timings[2].diagnostics += diags.len() as u32;
            enforce("context-partitioning", &diags);
        } else {
            stats.partition = partition::run(&mut program);
        }
        stats.pass_timings[2].wall_ns = lap();
    }
    if options.unioning {
        stats.unioning = unioning::run(&mut program);
        if checking {
            check_pass(
                &mut stats.pass_timings[3],
                "comm-unioning",
                &program,
                halo,
                unioning::post_conditions(),
            );
        }
        stats.pass_timings[3].wall_ns = lap();
    }
    if checking {
        check_pass(
            &mut stats.pass_timings[4],
            "array passes",
            &program,
            halo,
            scalarize::pre_conditions(),
        );
    }
    let (mut node, sstats) = scalarize::run(
        &program,
        ScalarizeOptions { fuse: options.fuse, fortran_order: options.fortran_order },
    );
    stats.scalarize = sstats;
    stats.pass_timings[4].wall_ns = lap();
    stats.memopt = memopt::run(
        &mut node,
        MemOptOptions {
            scalar_replacement: options.scalar_replacement,
            unroll_factor: options.unroll_factor,
            permute: options.permute,
        },
    );
    stats.pass_timings[5].wall_ns = lap();
    stats.comm_ops = node.comm_count();
    stats.nests = node.nest_count();
    stats.arrays_allocated = node.live_arrays.len();
    stats.arrays_written = node.arrays_written();
    let compiled = Compiled { array_ir: program, node, stats, options };
    if checking {
        let need = compiled.required_halo();
        assert!(
            need <= options.halo,
            "internal compiler error: node program needs a halo of {need} \
             but the target provides {}",
            options.halo
        );
    }
    compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_frontend::compile_source;

    const PROBLEM9: &str = r#"
PROGRAM p9
PARAM N = 8
REAL U(N,N), T(N,N), RIP(N,N), RIN(N,N)
RIP = CSHIFT(U,SHIFT=+1,DIM=1)
RIN = CSHIFT(U,SHIFT=-1,DIM=1)
T = U + RIP + RIN
T = T + CSHIFT(U,SHIFT=-1,DIM=2)
T = T + CSHIFT(U,SHIFT=+1,DIM=2)
T = T + CSHIFT(RIP,SHIFT=-1,DIM=2)
T = T + CSHIFT(RIP,SHIFT=+1,DIM=2)
T = T + CSHIFT(RIN,SHIFT=-1,DIM=2)
T = T + CSHIFT(RIN,SHIFT=+1,DIM=2)
END
"#;

    #[test]
    fn staged_options_are_cumulative() {
        let o0 = CompileOptions::upto(Stage::Original);
        assert!(!o0.offset_arrays && !o0.partition && !o0.unioning && !o0.scalar_replacement);
        let o1 = CompileOptions::upto(Stage::OffsetArrays);
        assert!(o1.offset_arrays && !o1.partition);
        let o4 = CompileOptions::upto(Stage::MemOpt);
        assert!(o4.offset_arrays && o4.partition && o4.unioning && o4.scalar_replacement);
        assert!(o4.unroll_factor > 1);
    }

    #[test]
    fn problem9_staged_comm_and_nest_counts() {
        let checked = compile_source(PROBLEM9).unwrap();
        let by_stage: Vec<(usize, usize)> = Stage::all()
            .iter()
            .map(|s| {
                let c = compile(&checked, CompileOptions::upto(*s));
                (c.stats.comm_ops, c.stats.nests)
            })
            .collect();
        // Original: 8 full shifts, computes split by the interleaved comm.
        assert_eq!(by_stage[0].0, 8);
        assert!(by_stage[0].1 >= 6);
        // Offset arrays: still 8 comm ops, now overlap shifts.
        assert_eq!(by_stage[1].0, 8);
        // Partitioning: comm grouped; single fused nest.
        assert_eq!(by_stage[2].0, 8);
        assert_eq!(by_stage[2].1, 1);
        // Unioning: 4 comm ops (the paper's Figure 15).
        assert_eq!(by_stage[3].0, 4);
        assert_eq!(by_stage[3].1, 1);
        // Memory opts don't change either count.
        assert_eq!(by_stage[4], (4, 1));
    }

    #[test]
    fn problem9_storage_shrinks_with_offset_arrays() {
        let checked = compile_source(PROBLEM9).unwrap();
        let orig = compile(&checked, CompileOptions::upto(Stage::Original));
        let opt = compile(&checked, CompileOptions::full());
        // Original allocates U, T, RIP, RIN, TMP = 5 arrays; optimized only
        // U and T (§4.2: temporaries need not be allocated).
        assert_eq!(orig.stats.arrays_allocated, 5);
        assert_eq!(opt.stats.arrays_allocated, 2);
    }

    #[test]
    fn full_pipeline_monotone_improvements() {
        let checked = compile_source(PROBLEM9).unwrap();
        let full = compile(&checked, CompileOptions::full());
        assert!(full.stats.memopt.loads_after < full.stats.memopt.loads_before);
        assert!(full.stats.memopt.stores_after < full.stats.memopt.stores_before);
        assert_eq!(full.stats.unioning.before, 8);
        assert_eq!(full.stats.unioning.after, 4);
        assert_eq!(full.stats.offset.converted, 8);
    }

    #[test]
    fn pass_timings_track_enabled_passes() {
        let checked = compile_source(PROBLEM9).unwrap();
        let full = compile(&checked, CompileOptions::full().check_invariants(true));
        // Every pass enabled: normalize/scalarize/memopt always run and the
        // three optional array passes are on.
        let t = &full.stats.pass_timings;
        assert!(t[0].checks > 0, "normalize post-conditions ran");
        assert!(t[1].checks > 0 && t[2].checks > 0 && t[3].checks > 0);
        assert_eq!(t.iter().map(|p| p.diagnostics).sum::<u32>(), 0, "healthy pipeline");
        assert!(full.stats.total_pass_ns() >= t[0].wall_ns);
        // Disabled passes report zero time and zero checks.
        let orig = compile(&checked, CompileOptions::original());
        assert_eq!(orig.stats.pass_timings[1], PassTiming::default());
        assert_eq!(orig.stats.pass_timings[2], PassTiming::default());
        assert_eq!(orig.stats.pass_timings[3], PassTiming::default());
    }

    #[test]
    fn pass_names_cover_all_slots() {
        assert_eq!(PASS_NAMES.len(), NUM_PASSES);
        let stats = PipelineStats::default();
        assert_eq!(stats.pass_timings.len(), NUM_PASSES);
    }

    #[test]
    fn all_three_nine_point_specs_reach_same_final_shape() {
        let single_cshift = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
DST = CSHIFT(CSHIFT(SRC,-1,1),-1,2) + CSHIFT(SRC,-1,1) &
    + CSHIFT(CSHIFT(SRC,-1,1),+1,2) + CSHIFT(SRC,-1,2) &
    + SRC + CSHIFT(SRC,+1,2) &
    + CSHIFT(CSHIFT(SRC,+1,1),-1,2) + CSHIFT(SRC,+1,1) &
    + CSHIFT(CSHIFT(SRC,+1,1),+1,2)
"#;
        let array_syntax = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
DST(2:N-1,2:N-1) = SRC(1:N-2,1:N-2) + SRC(1:N-2,2:N-1) + SRC(1:N-2,3:N) &
                 + SRC(2:N-1,1:N-2) + SRC(2:N-1,2:N-1) + SRC(2:N-1,3:N) &
                 + SRC(3:N,1:N-2) + SRC(3:N,2:N-1) + SRC(3:N,3:N)
"#;
        for src in [single_cshift, array_syntax, PROBLEM9] {
            let c = compile(&compile_source(src).unwrap(), CompileOptions::full());
            assert_eq!(c.stats.comm_ops, 4, "every specification reaches 4 messages");
            assert_eq!(c.stats.nests, 1, "and a single fused subgrid nest");
        }
    }
}
