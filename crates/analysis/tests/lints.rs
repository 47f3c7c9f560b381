//! Unit tests for each lint, on hand-built IR.

use hpf_analysis::{analyze, check_partition_groups, has_errors, run_checks, Check};
use hpf_ir::{
    ArrayDecl, ArrayId, Distribution, Expr, Offsets, OperandRef, Program, Rsd, Section, Shape,
    ShiftKind, Span, Stmt, SymbolTable,
};

fn symbols3() -> (SymbolTable, ArrayId, ArrayId, ArrayId) {
    let mut t = SymbolTable::new();
    let u = t.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
    let v = t.add_array(ArrayDecl::user("V", Shape::new([8, 8]), Distribution::block(2)));
    let tmp = {
        let decl = ArrayDecl::temp_like("TMP1", t.array(u));
        t.add_array(decl)
    };
    (t, u, v, tmp)
}

fn overlap(array: ArrayId, shift: i64, dim: usize, rsd: Option<Rsd>) -> Stmt {
    Stmt::OverlapShift {
        array,
        src_offsets: Offsets::zero(2),
        shift,
        dim,
        rsd,
        kind: ShiftKind::Circular,
    }
}

fn compute_read(lhs: ArrayId, src: ArrayId, off: [i64; 2], span: Option<Span>) -> Stmt {
    let mut r = OperandRef::offset(src, Offsets::new(off));
    r.span = span;
    Stmt::Compute { lhs, space: Section::new([(2, 7), (2, 7)]), rhs: Expr::Ref(r) }
}

#[test]
fn hs001_uncovered_ghost_read() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(compute_read(v, u, [1, 0], Some(Span::new(4, 9))));
    let diags = analyze(&p, 1);
    assert!(has_errors(&diags));
    let d = diags.iter().find(|d| d.code == "HS001").expect("HS001 raised");
    assert_eq!(d.span, Some(Span::new(4, 9)));
    assert!(d.message.contains("U<+1,0>"), "{}", d.message);
}

#[test]
fn hs001_clean_when_shift_covers() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(compute_read(v, u, [1, 0], None));
    assert!(analyze(&p, 1).is_empty(), "{:?}", analyze(&p, 1));
}

#[test]
fn hs001_wrong_direction_still_fires() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, -1, 0, None));
    p.body.push(compute_read(v, u, [1, 0], None));
    assert!(analyze(&p, 1).iter().any(|d| d.code == "HS001"));
}

#[test]
fn hs001_interior_write_invalidates_ghosts() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    // U's interior changes: the filled ghost copy is stale now.
    p.body.push(Stmt::Compute {
        lhs: u,
        space: Section::new([(1, 8), (1, 8)]),
        rhs: Expr::Const(0.0),
    });
    p.body.push(compute_read(v, u, [1, 0], None));
    assert!(analyze(&p, 1).iter().any(|d| d.code == "HS001"));
}

#[test]
fn hs001_corner_needs_rsd() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(overlap(u, 1, 1, None));
    p.body.push(compute_read(v, u, [1, 1], None));
    assert!(analyze(&p, 1).iter().any(|d| d.code == "HS001"), "corner not covered without RSD");
    // Same but the dim-1 shift carries the RSD: clean.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    let mut rsd = Rsd::none(2);
    rsd.extend(0, 1);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(overlap(u, 1, 1, Some(rsd)));
    p.body.push(compute_read(v, u, [1, 1], None));
    assert!(!analyze(&p, 1).iter().any(|d| d.code == "HS001"));
}

#[test]
fn hs001_time_loop_steady_state() {
    // Fill happens inside the loop *after* the read: the first iteration
    // reads an unfilled ghost.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::TimeLoop {
        iters: 3,
        body: vec![compute_read(v, u, [1, 0], None), overlap(u, 1, 0, None)],
    });
    assert!(analyze(&p, 1).iter().any(|d| d.code == "HS001"), "first-iteration read");

    // Fill precedes the read and U is never rewritten: clean in every
    // iteration.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::TimeLoop {
        iters: 3,
        body: vec![overlap(u, 1, 0, None), compute_read(v, u, [1, 0], None)],
    });
    assert!(analyze(&p, 1).is_empty());

    // The loop rewrites U after the read; the fill at the loop head renews
    // the ghosts each iteration: still clean.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::TimeLoop {
        iters: 3,
        body: vec![
            overlap(u, 1, 0, None),
            compute_read(v, u, [1, 0], None),
            Stmt::Copy { dst: u, src: OperandRef::aligned(v, 2) },
        ],
    });
    assert!(analyze(&p, 1).is_empty());

    // Fill only *before* the loop, rewrite inside: the second iteration
    // reads stale ghosts.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(Stmt::TimeLoop {
        iters: 3,
        body: vec![
            compute_read(v, u, [1, 0], None),
            Stmt::Copy { dst: u, src: OperandRef::aligned(v, 2) },
        ],
    });
    assert!(analyze(&p, 1).iter().any(|d| d.code == "HS001"), "steady-state read is stale");
}

#[test]
fn hs002_offset_beyond_halo() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(compute_read(v, u, [2, 0], Some(Span::new(2, 1))));
    let diags = analyze(&p, 1);
    assert!(diags.iter().any(|d| d.code == "HS002" && d.span == Some(Span::new(2, 1))));
    // Not also HS001 noise for the same ref.
    assert!(!diags.iter().any(|d| d.code == "HS001"));
}

#[test]
fn cu001_subsumed_shift_in_run() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(overlap(u, 2, 0, None));
    p.body.push(compute_read(v, u, [1, 0], None));
    let diags = analyze(&p, 2);
    let cu: Vec<_> = diags.iter().filter(|d| d.code == "CU001").collect();
    assert_eq!(cu.len(), 1, "{diags:?}");
    assert!(cu[0].message.contains("SHIFT=+1"), "the smaller shift is flagged: {}", cu[0].message);
}

#[test]
fn cu001_identical_shifts_flag_the_later() {
    let (t, u, _, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(overlap(u, 1, 0, None));
    let diags = analyze(&p, 1);
    assert_eq!(diags.iter().filter(|d| d.code == "CU001").count(), 1);
}

#[test]
fn cu001_not_across_statement_boundaries() {
    // The compute between the shifts splits the run: no subsumption.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(compute_read(v, u, [1, 0], None));
    p.body.push(overlap(u, 2, 0, None));
    assert!(!analyze(&p, 2).iter().any(|d| d.code == "CU001"));
}

#[test]
fn cu001_different_direction_or_kind_not_subsumed() {
    let (t, u, _, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(overlap(u, 1, 0, None));
    p.body.push(overlap(u, -2, 0, None));
    p.body.push(Stmt::OverlapShift {
        array: u,
        src_offsets: Offsets::zero(2),
        shift: 1,
        dim: 0,
        rsd: None,
        kind: ShiftKind::EndOff(0.0),
    });
    assert!(!analyze(&p, 2).iter().any(|d| d.code == "CU001"));
}

#[test]
fn df001_temp_read_never_written() {
    let (t, _, v, tmp) = symbols3();
    let mut p = Program::new(t);
    p.body.push(compute_read(v, tmp, [0, 0], None));
    // Aligned read of a never-written temp — make it an offset-free read so
    // HS001 stays quiet and DF001 is the only finding.
    let diags = analyze(&p, 1);
    assert!(diags.iter().any(|d| d.code == "DF001"), "{diags:?}");
}

#[test]
fn df001_user_arrays_exempt() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::Compute {
        lhs: v,
        space: Section::new([(1, 8), (1, 8)]),
        rhs: Expr::Ref(OperandRef::aligned(u, 2)),
    });
    assert!(analyze(&p, 1).is_empty(), "user arrays are external inputs");
}

#[test]
fn df002_dead_temp_write() {
    let (t, u, _, tmp) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::Compute {
        lhs: tmp,
        space: Section::new([(1, 8), (1, 8)]),
        rhs: Expr::Ref(OperandRef::aligned(u, 2)),
    });
    let diags = analyze(&p, 1);
    let df: Vec<_> = diags.iter().filter(|d| d.code == "DF002").collect();
    assert_eq!(df.len(), 1);
    assert_eq!(df[0].severity, hpf_analysis::Severity::Warning);
}

#[test]
fn fp001_bad_explicit_group() {
    let (t, u, v, tmp) = symbols3();
    let space = Section::new([(2, 7), (2, 7)]);
    let w = Stmt::Compute { lhs: u, space, rhs: Expr::Const(1.0) };
    let r = Stmt::Compute {
        lhs: v,
        space,
        rhs: Expr::Ref(OperandRef::offset(u, Offsets::new([1, 0]))),
    };
    let block = vec![w, r];
    let symbols = {
        let mut t2 = SymbolTable::new();
        t2.add_array(t.array(u).clone());
        t2.add_array(t.array(v).clone());
        t2.add_array(t.array(tmp).clone());
        t2
    };
    // Grouped together although a fusion-preventing dependence separates
    // them: FP001.
    let diags = check_partition_groups(&symbols, &block, &[vec![0, 1]]);
    assert!(diags.iter().any(|d| d.code == "FP001"), "{diags:?}");
    // Separate groups: legal.
    assert!(check_partition_groups(&symbols, &block, &[vec![0], vec![1]]).is_empty());
}

#[test]
fn post_condition_checks_compose() {
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(compute_read(v, u, [1, 0], None));
    // AlignedRefs and HaloSafe both reject this program.
    let diags = run_checks(&p, 1, &[Check::Validate, Check::AlignedRefs, Check::HaloSafe]);
    assert!(diags.iter().any(|d| d.code == "NF002"));
    assert!(diags.iter().any(|d| d.code == "HS001"));
    // A clean aligned program passes everything.
    let (t, u, v, _) = symbols3();
    let mut p = Program::new(t);
    p.body.push(Stmt::Compute {
        lhs: v,
        space: Section::new([(1, 8), (1, 8)]),
        rhs: Expr::Ref(OperandRef::aligned(u, 2)),
    });
    let all = [
        Check::Validate,
        Check::NormalForm,
        Check::AlignedRefs,
        Check::HaloSafe,
        Check::NoSubsumedShifts,
        Check::FusionLegal,
    ];
    assert!(run_checks(&p, 1, &all).is_empty());
}
