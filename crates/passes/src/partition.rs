//! Context partitioning (paper §3.2): statement reordering by typed fusion.
//!
//! Partitions each basic block into groups of *congruent* array statements
//! and groups of communication operations, using the Kennedy–McKinley typed
//! fusion algorithm over the (acyclic) statement-level data dependence
//! graph. Reordering makes congruent compute statements adjacent — so
//! scalarization can fuse them into a single subgrid loop nest without
//! over-fusing — and makes communication operations adjacent, which is what
//! communication unioning needs.

use hpf_ir::defuse::writes_interior;
use hpf_ir::{ArrayId, DepGraph, Distribution, Program, Section, Stmt, SymbolTable};

/// Congruence class of a statement (paper footnote 2: congruent array
/// statements operate on identically distributed arrays over the same
/// iteration space).
#[derive(Clone, PartialEq, Debug)]
pub enum StmtClass {
    /// Communication operations (shift assignments and overlap shifts).
    Comm,
    /// Array compute statements keyed by iteration space + distribution.
    Compute(Section, Distribution),
    /// Statements that never share a group (time loops, storage rebinds).
    Single,
}

/// Statistics reported by the pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Number of groups after partitioning (across all blocks).
    pub groups: usize,
    /// Statements that changed position.
    pub moved: usize,
}

/// Classify a statement.
pub fn classify(symbols: &SymbolTable, s: &Stmt) -> StmtClass {
    match s {
        Stmt::ShiftAssign { .. } | Stmt::OverlapShift { .. } => StmtClass::Comm,
        Stmt::Compute { lhs, space, .. } => StmtClass::Compute(*space, symbols.array(*lhs).dist),
        Stmt::Copy { dst, .. } => {
            let decl = symbols.array(*dst);
            StmtClass::Compute(Section::full(&decl.shape), decl.dist)
        }
        Stmt::Rebind { .. } | Stmt::TimeLoop { .. } => StmtClass::Single,
    }
}

/// True when fusing `earlier` and `later` into one loop nest would turn a
/// loop-independent dependence into a loop-carried one (the paper's
/// over-fusion guard): some array is written by one statement and read at a
/// non-zero offset by the other.
pub fn fusion_preventing(earlier: &Stmt, later: &Stmt) -> bool {
    offset_conflict(earlier, later) || offset_conflict(later, earlier)
}

/// Does `reader` read an array whose owned elements `writer` writes, at a
/// non-zero offset?
fn offset_conflict(writer: &Stmt, reader: &Stmt) -> bool {
    let mut conflict = false;
    let mut check = |array: ArrayId, offsets: &hpf_ir::Offsets| {
        if !offsets.is_zero() && writes_interior(writer, array) {
            conflict = true;
        }
    };
    match reader {
        Stmt::Compute { rhs, .. } => rhs.for_each_ref(&mut |r| check(r.array, &r.offsets)),
        Stmt::Copy { src, .. } => check(src.array, &src.offsets),
        _ => {}
    }
    conflict
}

/// Post-conditions of context partitioning, checked by the pipeline when
/// `CompileOptions::check_invariants` is set. Group legality (FP001 over the
/// member lists the pass actually built) is checked inline by
/// [`run_checked`] because it needs the groups, not just the reordered IR.
pub fn post_conditions() -> &'static [hpf_analysis::Check] {
    &[hpf_analysis::Check::Validate]
}

/// Partition (reorder) every basic block of the program.
pub fn run(program: &mut Program) -> PartitionStats {
    run_checked(program, None)
}

/// Like [`run`], but with `diags` appends an FP001 diagnostic to it for
/// every pair of statements the pass grouped whose fusion would be illegal
/// — the pass's own post-condition over the grouping it actually built,
/// computed only when asked for.
pub fn run_checked(
    program: &mut Program,
    mut diags: Option<&mut Vec<hpf_ir::Diagnostic>>,
) -> PartitionStats {
    let mut stats = PartitionStats::default();
    program.for_each_block_mut(&mut |block, symbols| {
        let Some((order, groups)) = partition_order(symbols, block) else { return };
        stats.groups += groups.len();
        stats.moved += order.iter().enumerate().filter(|&(i, &o)| block[o] != block[i]).count();
        let mut taken: Vec<Option<Stmt>> = block.drain(..).map(Some).collect();
        block.extend(order.iter().map(|&i| taken[i].take().expect("order is a permutation")));
        if let Some(diags) = diags.as_deref_mut() {
            diags.extend(hpf_analysis::check_partition_groups(symbols, block, &groups));
        }
    });
    stats
}

/// The order typed fusion puts a non-empty block in, and each group's
/// member positions in that order (groups are contiguous).
fn partition_order(symbols: &SymbolTable, block: &[Stmt]) -> Option<(Vec<usize>, Vec<Vec<usize>>)> {
    let n = block.len();
    if n == 0 {
        return None;
    }
    let graph = DepGraph::build(block);
    let classes: Vec<StmtClass> = block.iter().map(|s| classify(symbols, s)).collect();
    let prevents = |a: usize, b: usize| fusion_preventing(&block[a], &block[b]);

    // groups[g] = (class, member statement indices in insertion order)
    let mut groups: Vec<(StmtClass, Vec<usize>)> = Vec::new();
    let mut group_of: Vec<usize> = vec![usize::MAX; n];

    for s in 0..n {
        // Earliest group index this statement may join: after every
        // predecessor's group, strictly after when the predecessor is of a
        // different class or fusion with it is illegal.
        let mut earliest = 0usize;
        for &p in graph.pred(s) {
            let g = group_of[p];
            let bump = classes[p] != classes[s] || prevents(p, s);
            earliest = earliest.max(if bump { g + 1 } else { g });
        }
        // Join the first same-class group at or after `earliest` whose
        // members all fuse legally with this statement.
        let mut placed = false;
        for g in earliest..groups.len() {
            if groups[g].0 == classes[s]
                && !matches!(classes[s], StmtClass::Single)
                && groups[g].1.iter().all(|&m| !prevents(m, s))
            {
                groups[g].1.push(s);
                group_of[s] = g;
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push((classes[s].clone(), vec![s]));
            group_of[s] = groups.len() - 1;
        }
    }

    let order: Vec<usize> = groups.iter().flat_map(|(_, m)| m.iter().copied()).collect();
    debug_assert!(graph.order_is_valid(&order), "partition broke a dependence");
    // Re-index member lists to positions in the reordered output, where each
    // group occupies a contiguous range.
    let mut member_lists = Vec::with_capacity(groups.len());
    let mut pos = 0usize;
    for (_, m) in &groups {
        member_lists.push((pos..pos + m.len()).collect());
        pos += m.len();
    }
    Some((order, member_lists))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::offset;
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

    /// The paper's Figure 13 → Figure 14 transformation: after offset
    /// arrays, the block partitions into exactly two groups — all the
    /// overlap shifts, then all the congruent compute statements.
    #[test]
    fn problem9_partitions_into_two_groups() {
        let checked = compile_source(PROBLEM9).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        let stats = run(&mut p);
        assert_eq!(stats.groups, 2);
        // All comm first, all compute after.
        let first_compute = p.body.iter().position(|s| !s.is_comm()).unwrap();
        assert_eq!(first_compute, 8);
        assert!(p.body[first_compute..].iter().all(|s| !s.is_comm()));
        hpf_ir::validate::validate(&p, 1).unwrap();
    }

    /// Without offset arrays the full shifts write real destination arrays,
    /// creating true dependences that keep comm and compute interleaved —
    /// but typed fusion still hoists independent shifts together.
    #[test]
    fn problem9_without_offset_still_partitions() {
        let checked = compile_source(PROBLEM9).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::FreshPerShift);
        let stats = run(&mut p);
        // All 8 shifts are independent of each other (they read only U,
        // RIP, RIN which are shift results… RIP/RIN defined by the first
        // two). The computes chain on T. Group count must be small but >2 is
        // fine; key property: dependences hold.
        assert!(stats.groups >= 2);
        let g = DepGraph::build(&p.body);
        let ident: Vec<usize> = (0..p.body.len()).collect();
        assert!(g.order_is_valid(&ident));
    }

    #[test]
    fn fusion_preventing_detects_offset_read_after_write() {
        let checked =
            compile_source("PARAM N = 8\nREAL A(N,N), B(N,N), C(N,N)\nA = B\nC = A\n").unwrap();
        let (p, _) = normalize(&checked, TempPolicy::Reuse);
        // Zero-offset chain: fusable.
        assert!(!fusion_preventing(&p.body[0], &p.body[1]));
    }

    #[test]
    fn fusion_preventing_with_nonzero_offset() {
        use hpf_ir::{ArrayDecl, Distribution, Expr, Offsets, OperandRef, Shape};
        let mut sym = SymbolTable::new();
        let a = sym.add_array(ArrayDecl::user("A", Shape::new([8, 8]), Distribution::block(2)));
        let b = sym.add_array(ArrayDecl::user("B", Shape::new([8, 8]), Distribution::block(2)));
        let space = Section::new([(2, 7), (2, 7)]);
        let w = Stmt::Compute { lhs: a, space, rhs: Expr::Const(1.0) };
        let r = Stmt::Compute {
            lhs: b,
            space,
            rhs: Expr::Ref(OperandRef::offset(a, Offsets::new([1, 0]))),
        };
        assert!(fusion_preventing(&w, &r));
        assert!(fusion_preventing(&r, &w), "anti direction too");
        let r0 = Stmt::Compute {
            lhs: b,
            space: Section::new([(2, 7), (2, 7)]),
            rhs: Expr::Ref(OperandRef::aligned(a, 2)),
        };
        assert!(!fusion_preventing(&w, &r0));
    }

    #[test]
    fn different_spaces_do_not_group() {
        let checked = compile_source(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nA(2:N-1,2:N-1) = 1\nB(1:N,1:N) = 2\n",
        )
        .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        let stats = run(&mut p);
        assert_eq!(stats.groups, 2, "not congruent: different spaces");
    }

    #[test]
    fn congruent_independent_statements_group() {
        let checked =
            compile_source("PARAM N = 8\nREAL A(N,N), B(N,N), C(N,N), D(N,N)\nA = C\nB = D\n")
                .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        let stats = run(&mut p);
        assert_eq!(stats.groups, 1);
    }

    #[test]
    fn time_loops_stay_single() {
        let checked = compile_source(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nDO 2 TIMES\nA = B\nENDDO\nDO 3 TIMES\nB = A\nENDDO\n",
        )
        .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        let stats = run(&mut p);
        // Two loop groups at top level + one group inside each body.
        assert_eq!(stats.groups, 4);
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn reordering_preserves_dependences_randomly() {
        // A chain with interleaved comm and compute; the reorder must be a
        // valid topological order of the original DDG.
        let checked = compile_source(
            r#"
PARAM N = 8
REAL A(N,N), B(N,N), C(N,N), T(N,N)
T = CSHIFT(A,1,1)
B = T + A
T = CSHIFT(A,-1,1)
C = T + B
B = B + C
"#,
        )
        .unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        let original = p.body.clone();
        let g = DepGraph::build(&original);
        run(&mut p);
        // Map reordered statements back to original indices.
        let mut used = vec![false; original.len()];
        let order: Vec<usize> = p
            .body
            .iter()
            .map(|s| {
                let i = original.iter().enumerate().position(|(i, o)| !used[i] && o == s).unwrap();
                used[i] = true;
                i
            })
            .collect();
        assert!(g.order_is_valid(&order));
    }
}
