//! Normalization into the paper's normal form (§2.1).
//!
//! Translates a checked source program — array-syntax sections, nested
//! `CSHIFT`/`EOSHIFT` intrinsics, shifts of whole expressions — into the
//! common intermediate form every later pass operates on:
//!
//! * each shift intrinsic becomes a singleton whole-array assignment
//!   `TMP = CSHIFT(base, SHIFT=k, DIM=d)` ([`hpf_ir::Stmt::ShiftAssign`]);
//! * array-syntax operand sections are converted to shifts: a reference
//!   `SRC(1:N-2, 2:N-1)` under LHS section `(2:N-1, 2:N-1)` has offset −1 in
//!   dimension 1 and becomes `TMP = CSHIFT(SRC,-1,1)` exactly as in the
//!   paper's Figure 4;
//! * compute statements reference only perfectly aligned operands.
//!
//! Temporary arrays are drawn from a pool. [`TempPolicy::FreshPerShift`]
//! mimics the "most Fortran90 compilers will generate 12 temporary arrays"
//! behaviour the paper ascribes to xlhpf-class compilers (§4); with
//! [`TempPolicy::Reuse`] temporaries whose live ranges do not overlap share
//! storage, which is how the multi-statement Problem 9 runs in 3 temporary
//! arrays (§4.1).

use hpf_frontend::{CExpr, CStmt, Checked};
use hpf_ir::{
    ArrayDecl, ArrayId, Dims, Expr, OperandRef, Program, Section, ShiftKind, Span, Stmt,
    SymbolTable,
};

/// Temporary-array allocation policy during normalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TempPolicy {
    /// One fresh temporary per shift intrinsic (the naive translation).
    FreshPerShift,
    /// Reuse temporaries whose live ranges have ended (per-statement
    /// liveness: a temp dies when the statement that consumes it is emitted).
    Reuse,
}

/// Statistics reported by normalization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Shift assignments emitted (one per shift intrinsic or section offset).
    pub shifts: usize,
    /// Temporary arrays created.
    pub temps: usize,
}

/// Post-conditions of normalization, checked by the pipeline when
/// `CompileOptions::check_invariants` is set: the output is structurally
/// valid, in the §2.1 normal form (every compute operand distributed like
/// its LHS), and fully aligned (no offset references or overlap shifts yet —
/// those only appear after the offset-array stage).
pub fn post_conditions() -> &'static [hpf_analysis::Check] {
    use hpf_analysis::Check;
    &[Check::Validate, Check::NormalForm, Check::AlignedRefs]
}

struct Normalizer {
    symbols: SymbolTable,
    policy: TempPolicy,
    /// Free temporaries, keyed by (shape, dist index into symbols).
    pool: Vec<ArrayId>,
    stats: NormalizeStats,
}

/// Normalize a checked program into the IR normal form.
pub fn normalize(checked: &Checked, policy: TempPolicy) -> (Program, NormalizeStats) {
    let mut n = Normalizer {
        symbols: checked.symbols.clone(),
        policy,
        pool: Vec::new(),
        stats: NormalizeStats::default(),
    };
    let body = n.block(&checked.stmts);
    let mut program = Program::new(n.symbols);
    program.body = body;
    (program, n.stats)
}

impl Normalizer {
    fn block(&mut self, stmts: &[CStmt]) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                CStmt::Assign { lhs, section, rhs, mask, span } => {
                    self.assign(*lhs, section, rhs, mask.as_deref(), *span, &mut out);
                }
                CStmt::Do { iters, body } => {
                    let inner = self.block(body);
                    out.push(Stmt::TimeLoop { iters: *iters, body: inner });
                }
            }
        }
        out
    }

    fn assign(
        &mut self,
        lhs: ArrayId,
        section: &Section,
        rhs: &CExpr,
        mask: Option<&(hpf_ir::expr::CmpOp, CExpr, CExpr)>,
        span: Span,
        out: &mut Vec<Stmt>,
    ) {
        // Masked assignment: lower `WHERE (a op b) lhs = rhs` to
        // `lhs = MERGE(rhs, lhs, a op b)` — a Select over an aligned read of
        // the LHS, so untouched elements keep their values.
        if let Some((op, a, b)) = mask {
            let mut stmt_temps = Vec::new();
            let ca = self.expr(a, section, out, &mut stmt_temps);
            let cb = self.expr(b, section, out, &mut stmt_temps);
            let cond = Expr::Cmp(*op, Box::new(ca), Box::new(cb));
            let then = self.expr(rhs, section, out, &mut stmt_temps);
            let els = Expr::Ref(OperandRef::aligned(lhs, section.rank()).at(span));
            out.push(Stmt::Compute {
                lhs,
                space: *section,
                rhs: Expr::Select(Box::new(cond), Box::new(then), Box::new(els)),
            });
            self.release(stmt_temps);
            return;
        }
        // A whole-array assignment whose RHS is a bare shift is already in
        // normal form: target the LHS directly instead of a temporary
        // (`RIP = CSHIFT(U,+1,1)` stays as-is, paper Figure 12).
        if let CExpr::Shift { arg, shift, dim, kind, .. } = rhs {
            let full = Section::full(&self.symbols.array(lhs).shape);
            if *section == full && *shift != 0 {
                let mut stmt_temps = Vec::new();
                let base = self.shift_operand(arg, out, &mut stmt_temps);
                if base != lhs {
                    out.push(Stmt::ShiftAssign {
                        dst: lhs,
                        src: base,
                        shift: *shift,
                        dim: *dim,
                        kind: *kind,
                    });
                    self.stats.shifts += 1;
                    self.release(stmt_temps);
                    return;
                }
                // `A = CSHIFT(A, ...)`: shifting in place is unsafe; use the
                // temporary-based general path instead.
                self.release(stmt_temps);
            }
        }
        let mut stmt_temps = Vec::new();
        let expr = self.expr(rhs, section, out, &mut stmt_temps);
        out.push(Stmt::Compute { lhs, space: *section, rhs: expr });
        // Temps referenced by the compute statement die here.
        self.release(stmt_temps);
    }

    fn release(&mut self, temps: impl IntoIterator<Item = ArrayId>) {
        if self.policy == TempPolicy::Reuse {
            self.pool.extend(temps);
        }
    }

    /// Take a temp conformant with `like` from the pool or create one.
    fn temp(&mut self, like: ArrayId) -> ArrayId {
        let shape = self.symbols.array(like).shape;
        let dist = self.symbols.array(like).dist;
        if self.policy == TempPolicy::Reuse {
            if let Some(pos) = self.pool.iter().position(|&t| {
                self.symbols.array(t).shape == shape && self.symbols.array(t).dist == dist
            }) {
                return self.pool.swap_remove(pos);
            }
        }
        let name = self.symbols.fresh_temp_name();
        let decl = ArrayDecl::temp_like(name, self.symbols.array(like));
        self.stats.temps += 1;
        self.symbols.add_array(decl)
    }

    /// Normalize an expression under the statement's iteration space,
    /// emitting prelude shift statements into `out` and tracking the temps
    /// that remain live until the final compute statement in `live`.
    fn expr(
        &mut self,
        e: &CExpr,
        space: &Section,
        out: &mut Vec<Stmt>,
        live: &mut Vec<ArrayId>,
    ) -> Expr {
        match e {
            CExpr::Const(v) => Expr::Const(*v),
            CExpr::Scalar(s) => Expr::Scalar(*s),
            CExpr::Neg(a) => Expr::Neg(Box::new(self.expr(a, space, out, live))),
            CExpr::Bin(op, a, b) => {
                let ea = self.expr(a, space, out, live);
                let eb = self.expr(b, space, out, live);
                Expr::bin(*op, ea, eb)
            }
            CExpr::Sec { array, section, span } => {
                // Per-dimension offset of the operand section relative to the
                // iteration space (Figure 4's translation).
                let deltas = Dims::from_fn(space.rank(), |d| section.dim(d).0 - space.dim(d).0);
                let mut base = *array;
                for (d, &delta) in deltas.iter().enumerate() {
                    if delta != 0 {
                        base = self.emit_shift(base, delta, d, ShiftKind::Circular, out, live);
                    }
                }
                Expr::Ref(OperandRef::aligned(base, space.rank()).at(*span))
            }
            CExpr::Shift { arg, shift, dim, kind, span } => {
                let base = self.shift_operand(arg, out, live);
                let t = if *shift == 0 {
                    base
                } else {
                    self.emit_shift(base, *shift, *dim, *kind, out, live)
                };
                Expr::Ref(OperandRef::aligned(t, self.symbols.array(t).rank()).at(*span))
            }
        }
    }

    /// Reduce a shift argument to a whole array: either it already is one,
    /// or it is computed into a temporary first.
    fn shift_operand(
        &mut self,
        arg: &CExpr,
        out: &mut Vec<Stmt>,
        live: &mut Vec<ArrayId>,
    ) -> ArrayId {
        match arg {
            CExpr::Sec { array, section, .. } => {
                let full = Section::full(&self.symbols.array(*array).shape);
                assert_eq!(*section, full, "sema guarantees whole-array shift operands");
                *array
            }
            CExpr::Shift { arg: inner, shift, dim, kind, .. } => {
                let base = self.shift_operand(inner, out, live);
                if *shift == 0 {
                    base
                } else {
                    let t = self.emit_shift(base, *shift, *dim, *kind, out, live);
                    // This temp is consumed by the enclosing shift only; it
                    // dies as soon as that shift is emitted. Pull it out of
                    // the live set so the enclosing emit can reuse it…
                    // except the shift reading it must not also write it, so
                    // it is released by the caller via `release_after_use`.
                    t
                }
            }
            other => {
                // General expression under a shift: compute it into a temp
                // over the full space first.
                let arrays = referenced_arrays(other);
                let like =
                    *arrays.first().expect("sema guarantees shifts of array-valued expressions");
                let full = Section::full(&self.symbols.array(like).shape);
                let t = self.temp(like);
                let mut inner_live = Vec::new();
                let expr = self.expr(other, &full, out, &mut inner_live);
                out.push(Stmt::Compute { lhs: t, space: full, rhs: expr });
                self.release(inner_live);
                t
            }
        }
    }

    /// Emit `t = SHIFT(base, amount, dim)`, releasing `base` immediately when
    /// it is a temporary that no later code can reference (single-consumer
    /// chains produced by `shift_operand`).
    fn emit_shift(
        &mut self,
        base: ArrayId,
        shift: i64,
        dim: usize,
        kind: ShiftKind,
        out: &mut Vec<Stmt>,
        live: &mut Vec<ArrayId>,
    ) -> ArrayId {
        let t = self.temp(base);
        out.push(Stmt::ShiftAssign { dst: t, src: base, shift, dim, kind });
        self.stats.shifts += 1;
        // If the base was a pending live temp consumed solely by this shift
        // (a chain), it dies now.
        if self.symbols.array(base).temp {
            if let Some(pos) = live.iter().position(|&x| x == base) {
                live.remove(pos);
                self.release([base]);
            }
        }
        live.push(t);
        t
    }
}

fn referenced_arrays(e: &CExpr) -> Vec<ArrayId> {
    let mut out = Vec::new();
    e.walk(&mut |n| {
        if let CExpr::Sec { array, .. } = n {
            if !out.contains(array) {
                out.push(*array);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_frontend::compile_source;
    use hpf_ir::pretty;

    fn norm(src: &str, policy: TempPolicy) -> (Program, NormalizeStats) {
        normalize(&compile_source(src).unwrap(), policy)
    }

    /// The paper's Figure 1 → Figure 4 translation.
    const FIVE_POINT: &str = r#"
PROGRAM five
PARAM N = 8
REAL SRC(N,N), DST(N,N)
REAL C1 = 1, C2 = 2, C3 = 3, C4 = 4, C5 = 5
DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,2:N-1) &
                 + C2 * SRC(2:N-1,1:N-2) &
                 + C3 * SRC(2:N-1,2:N-1) &
                 + C4 * SRC(3:N,2:N-1) &
                 + C5 * SRC(2:N-1,3:N)
END
"#;

    #[test]
    fn five_point_matches_figure_4() {
        let (p, stats) = norm(FIVE_POINT, TempPolicy::FreshPerShift);
        // Four shifted operands -> four ShiftAssigns + one Compute.
        assert_eq!(stats.shifts, 4);
        assert_eq!(stats.temps, 4);
        assert_eq!(p.body.len(), 5);
        let printed = pretty::program(&p);
        assert!(printed.contains("TMP1 = CSHIFT(SRC,SHIFT=-1,DIM=1)"), "{printed}");
        assert!(printed.contains("TMP2 = CSHIFT(SRC,SHIFT=-1,DIM=2)"), "{printed}");
        assert!(printed.contains("TMP3 = CSHIFT(SRC,SHIFT=+1,DIM=1)"), "{printed}");
        assert!(printed.contains("TMP4 = CSHIFT(SRC,SHIFT=+1,DIM=2)"), "{printed}");
        // The compute statement references only aligned operands.
        match p.body.last().unwrap() {
            Stmt::Compute { rhs, space, .. } => {
                assert_eq!(*space, Section::new([(2, 7), (2, 7)]));
                rhs.for_each_ref(&mut |r| assert!(r.offsets.is_zero()));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Figure 2: the single-statement 9-point CSHIFT stencil has 12 shift
    /// intrinsics → 12 temps under the naive policy (paper §4.1).
    const NINE_POINT_CSHIFT: &str = r#"
PROGRAM nine
PARAM N = 8
REAL SRC(N,N), DST(N,N)
REAL C1=1, C2=2, C3=3, C4=4, C5=5, C6=6, C7=7, C8=8, C9=9
DST = C1 * CSHIFT(CSHIFT(SRC,-1,1),-1,2) &
    + C2 * CSHIFT(SRC,-1,1) &
    + C3 * CSHIFT(CSHIFT(SRC,-1,1),+1,2) &
    + C4 * CSHIFT(SRC,-1,2) &
    + C5 * SRC &
    + C6 * CSHIFT(SRC,+1,2) &
    + C7 * CSHIFT(CSHIFT(SRC,+1,1),-1,2) &
    + C8 * CSHIFT(SRC,+1,1) &
    + C9 * CSHIFT(CSHIFT(SRC,+1,1),+1,2)
END
"#;

    #[test]
    fn nine_point_naive_needs_12_temps() {
        let (p, stats) = norm(NINE_POINT_CSHIFT, TempPolicy::FreshPerShift);
        assert_eq!(stats.shifts, 12, "12 CSHIFT intrinsics (paper §4)");
        assert_eq!(stats.temps, 12);
        assert_eq!(p.count_stmts(|s| s.is_comm()), 12);
    }

    #[test]
    fn nine_point_reuse_shares_chain_temps() {
        let (_, stats) = norm(NINE_POINT_CSHIFT, TempPolicy::Reuse);
        assert_eq!(stats.shifts, 12);
        // 8 temps are live in the final expression; chain intermediates are
        // recycled.
        assert!(stats.temps <= 9, "got {}", stats.temps);
        assert!(stats.temps >= 8);
    }

    /// Figure 3 (Problem 9) normalizes to Figure 12: user temporaries RIP/RIN
    /// plus a single shared compiler temporary.
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
    fn problem9_reuse_single_compiler_temp() {
        let (p, stats) = norm(PROBLEM9, TempPolicy::Reuse);
        assert_eq!(stats.shifts, 8);
        assert_eq!(stats.temps, 1, "one shared TMP (paper Figure 12)");
        // 8 shift assignments + 7 computes.
        assert_eq!(p.count_stmts(|s| s.is_comm()), 8);
        assert_eq!(p.count_stmts(|s| matches!(s, Stmt::Compute { .. })), 7);
    }

    #[test]
    fn problem9_fresh_policy_six_temps() {
        let (_, stats) = norm(PROBLEM9, TempPolicy::FreshPerShift);
        assert_eq!(stats.temps, 6, "one per hoisted CSHIFT");
    }

    #[test]
    fn zero_shift_is_elided() {
        let (p, stats) =
            norm("REAL A(4,4), B(4,4)\nA = CSHIFT(B, SHIFT=0, DIM=1)\n", TempPolicy::Reuse);
        assert_eq!(stats.shifts, 0);
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn aligned_section_needs_no_shift() {
        let (p, stats) = norm(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nA(2:N-1,2:N-1) = B(2:N-1,2:N-1)\n",
            TempPolicy::Reuse,
        );
        assert_eq!(stats.shifts, 0);
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn shift_of_expression_computes_temp_first() {
        let (p, stats) = norm(
            "REAL A(4,4), B(4,4), C(4,4)\nA = CSHIFT(B + C, SHIFT=1, DIM=1)\n",
            TempPolicy::Reuse,
        );
        assert_eq!(stats.shifts, 1);
        // temp = B + C ; A = CSHIFT(temp) (direct normal-form target)
        assert_eq!(p.body.len(), 2);
        assert!(matches!(p.body[0], Stmt::Compute { .. }));
        assert!(matches!(p.body[1], Stmt::ShiftAssign { .. }));
    }

    #[test]
    fn eoshift_kind_preserved() {
        let (p, _) = norm(
            "REAL A(4,4), B(4,4)\nA = EOSHIFT(B, SHIFT=1, DIM=2, BOUNDARY=7.0)\n",
            TempPolicy::Reuse,
        );
        match &p.body[0] {
            Stmt::ShiftAssign { kind, .. } => assert_eq!(*kind, ShiftKind::EndOff(7.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn time_loop_body_normalized() {
        let (p, stats) = norm(
            "REAL A(4,4), B(4,4)\nDO 3 TIMES\nA = CSHIFT(B, 1, 1)\nB = A\nENDDO\n",
            TempPolicy::Reuse,
        );
        assert_eq!(stats.shifts, 1);
        match &p.body[0] {
            Stmt::TimeLoop { iters, body } => {
                assert_eq!(*iters, 3);
                assert_eq!(body.len(), 2); // A = CSHIFT(B) direct, compute B
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn normal_form_validates() {
        for (src, policy) in [
            (FIVE_POINT, TempPolicy::FreshPerShift),
            (NINE_POINT_CSHIFT, TempPolicy::Reuse),
            (PROBLEM9, TempPolicy::Reuse),
        ] {
            let (p, _) = norm(src, policy);
            hpf_ir::validate::validate(&p, 1).unwrap();
            hpf_ir::validate::check_normal_form(&p).unwrap();
        }
    }

    #[test]
    fn mixed_whole_array_and_cshift_normalizes() {
        // A statement mixing an aligned whole-array operand with a shift.
        let (p, stats) = norm(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nA = B + CSHIFT(B, SHIFT=1, DIM=2)\n",
            TempPolicy::Reuse,
        );
        assert_eq!(stats.shifts, 1);
        assert_eq!(p.body.len(), 2);
        hpf_ir::validate::check_normal_form(&p).unwrap();
    }

    #[test]
    fn multi_dim_section_offsets_chain_shifts() {
        // Corner reference: offsets in both dimensions -> two chained shifts.
        let (p, stats) = norm(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nA(2:N-1,2:N-1) = B(1:N-2,3:N)\n",
            TempPolicy::Reuse,
        );
        assert_eq!(stats.shifts, 2);
        let shifts: Vec<_> = p
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::ShiftAssign { shift, dim, .. } => Some((*shift, *dim)),
                _ => None,
            })
            .collect();
        assert_eq!(shifts, vec![(-1, 0), (1, 1)]);
    }
}
