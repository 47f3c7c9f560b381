//! Scalarization with loop fusion and SPMD bounds (paper §3.4, §4.5).
//!
//! Lowers the array-level IR to the node program: each communication
//! statement becomes a [`CommOp`]; each maximal run of adjacent, congruent,
//! legally fusible compute statements becomes a single subgrid
//! [`LoopNest`] whose body is a register-machine program. The iteration
//! space stays global — the executor intersects it with each PE's owned
//! region, which is the SPMD loop-bounds reduction.
//!
//! Fusion is only attempted across *adjacent* statements: context
//! partitioning is what makes congruent statements adjacent, so disabling
//! it degrades fusion exactly as in the paper's staged experiment.

use crate::loopir::{CommOp, Instr, LoopNest, NodeItem, NodeProgram, Reg};
use crate::partition::{classify, fusion_preventing};
use hpf_ir::{Dims, Expr, Program, Section, Stmt, SymbolTable};

/// Options for scalarization.
#[derive(Clone, Copy, Debug)]
pub struct ScalarizeOptions {
    /// Fuse adjacent congruent compute statements into one nest.
    pub fuse: bool,
    /// Emit loops in naive Fortran scalarization order (leftmost subscript
    /// innermost) instead of natural row-major order; the loop-permutation
    /// memory optimization then has real work to do.
    pub fortran_order: bool,
}

impl Default for ScalarizeOptions {
    fn default() -> Self {
        ScalarizeOptions { fuse: true, fortran_order: false }
    }
}

/// Statistics reported by scalarization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarizeStats {
    /// Loop nests emitted.
    pub nests: usize,
    /// Compute statements folded into those nests.
    pub statements: usize,
}

/// Pre-conditions scalarization assumes of its input IR, checked by the
/// pipeline when `CompileOptions::check_invariants` is set: the greedy
/// grouping this pass performs must be fusion-legal (FP001) — no group may
/// pair statements whose fusion would turn a loop-independent dependence
/// into a loop-carried one.
pub fn pre_conditions() -> &'static [hpf_analysis::Check] {
    use hpf_analysis::Check;
    &[Check::FusionLegal]
}

/// Lower a program to its node program.
pub fn run(program: &Program, opts: ScalarizeOptions) -> (NodeProgram, ScalarizeStats) {
    let mut stats = ScalarizeStats::default();
    let items = lower_block(&program.symbols, &program.body, opts, &mut stats);
    let node =
        NodeProgram { symbols: program.symbols.clone(), live_arrays: program.live_arrays(), items };
    (node, stats)
}

fn lower_block(
    symbols: &SymbolTable,
    block: &[Stmt],
    opts: ScalarizeOptions,
    stats: &mut ScalarizeStats,
) -> Vec<NodeItem> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < block.len() {
        match &block[i] {
            Stmt::ShiftAssign { dst, src, shift, dim, kind } => {
                items.push(NodeItem::Comm(CommOp::FullShift {
                    dst: *dst,
                    src: *src,
                    shift: *shift,
                    dim: *dim,
                    kind: *kind,
                }));
                i += 1;
            }
            Stmt::OverlapShift { array, shift, dim, rsd, kind, src_offsets } => {
                // A leftover source annotation (unioning disabled) means this
                // shift reads lower-dimension ghost data; express that as an
                // RSD so the runtime transfers the right region.
                let rsd = match (rsd, src_offsets.is_zero()) {
                    (Some(r), _) => Some(*r),
                    (None, true) => None,
                    (None, false) => {
                        let mut r = hpf_ir::Rsd::none(src_offsets.rank());
                        for (e, &o) in src_offsets.0.iter().enumerate() {
                            if e != *dim {
                                r.extend(e, o);
                            }
                        }
                        if r.is_trivial() {
                            None
                        } else {
                            Some(r)
                        }
                    }
                };
                items.push(NodeItem::Comm(CommOp::Overlap {
                    array: *array,
                    shift: *shift,
                    dim: *dim,
                    rsd,
                    kind: *kind,
                }));
                i += 1;
            }
            Stmt::Rebind { dst, src } => {
                items.push(NodeItem::Rebind { dst: *dst, src: *src });
                i += 1;
            }
            Stmt::TimeLoop { iters, body } => {
                let inner = lower_block(symbols, body, opts, stats);
                items.push(NodeItem::TimeLoop { iters: *iters, body: inner });
                i += 1;
            }
            Stmt::Compute { .. } | Stmt::Copy { .. } => {
                // Collect the maximal fusible run starting here.
                let mut run = vec![i];
                if opts.fuse {
                    let class = classify(symbols, &block[i]);
                    let mut j = i + 1;
                    while j < block.len() {
                        let next = &block[j];
                        if classify(symbols, next) != class {
                            break;
                        }
                        if run.iter().any(|&k| fusion_preventing(&block[k], next)) {
                            break;
                        }
                        run.push(j);
                        j += 1;
                    }
                }
                let nest = build_nest(symbols, block, &run, opts);
                stats.nests += 1;
                stats.statements += run.len();
                i = run.last().unwrap() + 1;
                items.push(NodeItem::Nest(nest));
            }
        }
    }
    items
}

fn build_nest(
    symbols: &SymbolTable,
    block: &[Stmt],
    run: &[usize],
    opts: ScalarizeOptions,
) -> LoopNest {
    let space = match &block[run[0]] {
        Stmt::Compute { space, .. } => *space,
        Stmt::Copy { dst, .. } => Section::full(&symbols.array(*dst).shape),
        _ => unreachable!("runs contain compute/copy statements only"),
    };
    let rank = space.rank();
    let order: Vec<usize> =
        if opts.fortran_order { (0..rank).rev().collect() } else { (0..rank).collect() };
    let mut body = Vec::new();
    let mut next_reg: Reg = 0;
    for &idx in run {
        match &block[idx] {
            Stmt::Compute { lhs, rhs, .. } => {
                let r = emit_expr(rhs, &mut body, &mut next_reg, rank);
                body.push(Instr::Store { array: *lhs, offsets: Dims::filled(rank, 0), src: r });
            }
            Stmt::Copy { dst, src } => {
                let r = next_reg;
                next_reg += 1;
                body.push(Instr::Load { dst: r, array: src.array, offsets: src.offsets.0 });
                body.push(Instr::Store { array: *dst, offsets: Dims::filled(rank, 0), src: r });
            }
            _ => unreachable!(),
        }
    }
    LoopNest { space, order, body, regs: next_reg as usize, unroll: None }
}

fn emit_expr(e: &Expr, body: &mut Vec<Instr>, next: &mut Reg, rank: usize) -> Reg {
    match e {
        Expr::Const(v) => {
            let r = *next;
            *next += 1;
            body.push(Instr::Const { dst: r, value: *v });
            r
        }
        Expr::Scalar(id) => {
            let r = *next;
            *next += 1;
            body.push(Instr::LoadScalar { dst: r, id: *id });
            r
        }
        Expr::Ref(op) => {
            let r = *next;
            *next += 1;
            let offsets = Dims::from_fn(rank, |d| op.offsets.0.get(d).copied().unwrap_or(0));
            body.push(Instr::Load { dst: r, array: op.array, offsets });
            r
        }
        Expr::Bin(opk, a, b) => {
            let ra = emit_expr(a, body, next, rank);
            let rb = emit_expr(b, body, next, rank);
            let r = *next;
            *next += 1;
            body.push(Instr::Bin { op: *opk, dst: r, a: ra, b: rb });
            r
        }
        Expr::Neg(a) => {
            let ra = emit_expr(a, body, next, rank);
            let r = *next;
            *next += 1;
            body.push(Instr::Neg { dst: r, src: ra });
            r
        }
        Expr::Cmp(opk, a, b) => {
            let ra = emit_expr(a, body, next, rank);
            let rb = emit_expr(b, body, next, rank);
            let r = *next;
            *next += 1;
            body.push(Instr::Cmp { op: *opk, dst: r, a: ra, b: rb });
            r
        }
        Expr::Select(c, t, e) => {
            let rc = emit_expr(c, body, next, rank);
            let rt = emit_expr(t, body, next, rank);
            let re = emit_expr(e, body, next, rank);
            let r = *next;
            *next += 1;
            body.push(Instr::Select { dst: r, c: rc, t: rt, e: re });
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::{offset, partition, unioning};
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

    fn full_pipeline(src: &str) -> NodeProgram {
        let checked = compile_source(src).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        partition::run(&mut p);
        unioning::run(&mut p);
        run(&p, ScalarizeOptions::default()).0
    }

    /// Figure 16: after the whole pipeline, Problem 9 is 4 communication
    /// operations plus a single fused loop nest.
    #[test]
    fn problem9_single_fused_nest() {
        let node = full_pipeline(PROBLEM9);
        assert_eq!(node.comm_count(), 4);
        assert_eq!(node.nest_count(), 1);
        // The fused nest computes all 7 statements: 7 stores before memopt.
        let mut stores = 0;
        node.for_each_item(&mut |it| {
            if let NodeItem::Nest(n) = it {
                stores = n.stores_per_point();
            }
        });
        assert_eq!(stores, 7);
    }

    #[test]
    fn no_fusion_without_partitioning() {
        let checked = compile_source(PROBLEM9).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        // Skip partitioning: comm statements separate the computes.
        let (node, stats) = run(&p, ScalarizeOptions::default());
        assert!(stats.nests > 1, "interleaved comm blocks fusion");
        assert_eq!(node.comm_count(), 8, "no unioning either");
    }

    #[test]
    fn fuse_toggle_off_gives_one_nest_per_statement() {
        let checked = compile_source(PROBLEM9).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        partition::run(&mut p);
        let (_, fused) = run(&p, ScalarizeOptions::default());
        let (_, unfused) = run(&p, ScalarizeOptions { fuse: false, fortran_order: false });
        assert_eq!(fused.nests, 1);
        assert_eq!(unfused.nests, 7);
    }

    #[test]
    fn fortran_order_reverses_loops() {
        let checked = compile_source("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = B\n").unwrap();
        let (p, _) = normalize(&checked, TempPolicy::Reuse);
        let (node, _) = run(&p, ScalarizeOptions { fuse: true, fortran_order: true });
        node.for_each_item(&mut |it| {
            if let NodeItem::Nest(n) = it {
                assert_eq!(n.order, vec![1, 0]);
            }
        });
        let (node2, _) = run(&p, ScalarizeOptions::default());
        node2.for_each_item(&mut |it| {
            if let NodeItem::Nest(n) = it {
                assert_eq!(n.order, vec![0, 1]);
            }
        });
    }

    #[test]
    fn leftover_annotation_becomes_rsd() {
        // Offset arrays without unioning: multi-offset shifts keep their
        // annotations, which scalarization folds into RSDs for the runtime.
        let checked = compile_source(
            r#"
PARAM N = 8
REAL U(N,N), T(N,N), RIP(N,N)
RIP = CSHIFT(U,SHIFT=+1,DIM=1)
T = U + CSHIFT(RIP,SHIFT=-1,DIM=2)
"#,
        )
        .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        let (node, _) = run(&p, ScalarizeOptions::default());
        let mut found_rsd = false;
        node.for_each_item(&mut |it| {
            if let NodeItem::Comm(CommOp::Overlap { dim: 1, rsd: Some(r), .. }) = it {
                assert_eq!(r.ext[0], (0, 1));
                found_rsd = true;
            }
        });
        assert!(found_rsd);
    }

    #[test]
    fn time_loops_lower_recursively() {
        let checked = compile_source(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nDO 5 TIMES\nA = CSHIFT(B,1,1)\nB = A\nENDDO\n",
        )
        .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        let (node, _) = run(&p, ScalarizeOptions::default());
        match &node.items[0] {
            NodeItem::TimeLoop { iters, body } => {
                assert_eq!(*iters, 5);
                assert!(!body.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_codegen_shapes() {
        let checked =
            compile_source("REAL A(4,4), B(4,4)\nREAL C = 2.0\nA = -(C * B) + 1.5\n").unwrap();
        let (p, _) = normalize(&checked, TempPolicy::Reuse);
        let (node, _) = run(&p, ScalarizeOptions::default());
        let mut nest = None;
        node.for_each_item(&mut |it| {
            if let NodeItem::Nest(n) = it {
                nest = Some(n.clone());
            }
        });
        let n = nest.unwrap();
        assert_eq!(n.loads_per_point(), 1);
        assert_eq!(n.stores_per_point(), 1);
        // mul, neg, add.
        assert_eq!(n.flops_per_point(), 3);
        assert!(n.regs >= 5);
    }
}
