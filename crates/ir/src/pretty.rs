//! Pretty printer rendering IR programs in the paper's surface notation.
//!
//! The output mirrors the figures of the paper: `TMP1 = CSHIFT(SRC,-1,1)`,
//! `CALL OVERLAP_CSHIFT(U,SHIFT=+1,DIM=1,[0:N+1,*])`, offset references as
//! `U<+1,0>`, etc. Used by the `problem9` example to reproduce Figures 12–16
//! and by tests asserting pass output shapes.

use crate::expr::{BinOp, Expr};
use crate::program::{Program, SymbolTable};
use crate::section::Section;
use crate::stmt::{ShiftKind, Stmt};
use std::fmt::Write;

/// Render a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.body {
        stmt_into(&p.symbols, s, 0, &mut out);
    }
    out
}

/// Render one statement (and, for loops, its body) at an indent level.
pub fn stmt(symbols: &SymbolTable, s: &Stmt) -> String {
    let mut out = String::new();
    stmt_into(symbols, s, 0, &mut out);
    out.trim_end().to_string()
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn stmt_into(symbols: &SymbolTable, s: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match s {
        Stmt::ShiftAssign { dst, src, shift, dim, kind } => {
            let intr = match kind {
                ShiftKind::Circular => "CSHIFT",
                ShiftKind::EndOff(_) => "EOSHIFT",
            };
            writeln!(
                out,
                "{} = {intr}({},SHIFT={:+},DIM={})",
                symbols.array(*dst).name,
                symbols.array(*src).name,
                shift,
                dim + 1
            )
            .unwrap();
        }
        Stmt::OverlapShift { array, src_offsets, shift, dim, rsd, kind } => {
            let intr = match kind {
                ShiftKind::Circular => "OVERLAP_CSHIFT",
                ShiftKind::EndOff(_) => "OVERLAP_EOSHIFT",
            };
            let src = if src_offsets.is_zero() {
                symbols.array(*array).name.clone()
            } else {
                format!("{}{:?}", symbols.array(*array).name, src_offsets)
            };
            write!(out, "CALL {intr}({src},SHIFT={:+},DIM={}", shift, dim + 1).unwrap();
            if let Some(rsd) = rsd {
                if !rsd.is_trivial() {
                    write!(out, ",{rsd:?}").unwrap();
                }
            }
            writeln!(out, ")").unwrap();
        }
        Stmt::Compute { lhs, space, rhs } => {
            let decl = symbols.array(*lhs);
            let full = Section::full(&decl.shape);
            if *space == full {
                write!(out, "{} = ", decl.name).unwrap();
            } else {
                write!(out, "{}{:?} = ", decl.name, space).unwrap();
            }
            expr_into(symbols, rhs, 0, out);
            out.push('\n');
        }
        Stmt::Copy { dst, src } => {
            let srcname = if src.offsets.is_zero() {
                symbols.array(src.array).name.clone()
            } else {
                format!("{}{:?}", symbols.array(src.array).name, src.offsets)
            };
            writeln!(out, "{} = {}", symbols.array(*dst).name, srcname).unwrap();
        }
        Stmt::Rebind { dst, src } => {
            let (d, s) = (&symbols.array(*dst).name, &symbols.array(*src).name);
            writeln!(out, "CALL REBIND({d} <- {s})").unwrap();
        }
        Stmt::TimeLoop { iters, body } => {
            writeln!(out, "DO {iters} TIMES").unwrap();
            for s in body {
                stmt_into(symbols, s, level + 1, out);
            }
            indent(level, out);
            writeln!(out, "ENDDO").unwrap();
        }
    }
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul | BinOp::Div => 2,
    }
}

fn expr_into(symbols: &SymbolTable, e: &Expr, parent_prec: u8, out: &mut String) {
    match e {
        Expr::Const(c) => write!(out, "{c}").unwrap(),
        Expr::Scalar(s) => out.push_str(&symbols.scalar(*s).name),
        Expr::Ref(r) => {
            out.push_str(&symbols.array(r.array).name);
            if !r.offsets.is_zero() {
                write!(out, "{:?}", r.offsets).unwrap();
            }
        }
        Expr::Bin(op, a, b) => {
            let p = prec(*op);
            let need = p < parent_prec;
            if need {
                out.push('(');
            }
            expr_into(symbols, a, p, out);
            write!(out, " {} ", op.symbol()).unwrap();
            // Right operand needs parens at equal precedence for - and /.
            let rp = match op {
                BinOp::Sub | BinOp::Div => p + 1,
                _ => p,
            };
            expr_into(symbols, b, rp, out);
            if need {
                out.push(')');
            }
        }
        Expr::Neg(a) => {
            out.push('-');
            expr_into(symbols, a, 3, out);
        }
        Expr::Cmp(op, a, b) => {
            // Comparisons always parenthesized for clarity.
            out.push('(');
            expr_into(symbols, a, 0, out);
            write!(out, " {} ", op.symbol()).unwrap();
            expr_into(symbols, b, 0, out);
            out.push(')');
        }
        Expr::Select(c, t, e2) => {
            out.push_str("MERGE(");
            expr_into(symbols, t, 0, out);
            out.push_str(", ");
            expr_into(symbols, e2, 0, out);
            out.push_str(", ");
            expr_into(symbols, c, 0, out);
            out.push(')');
        }
    }
}

/// Render an expression alone.
pub fn expr(symbols: &SymbolTable, e: &Expr) -> String {
    let mut out = String::new();
    expr_into(symbols, e, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, Distribution, ScalarDecl, Shape};
    use crate::expr::OperandRef;
    use crate::section::Offsets;

    fn setup() -> (SymbolTable, crate::ArrayId, crate::ArrayId, crate::ScalarId) {
        let mut t = SymbolTable::new();
        let u = t.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
        let v = t.add_array(ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2)));
        let c = t.add_scalar(ScalarDecl { name: "C1".into(), value: 1.0 });
        (t, u, v, c)
    }

    #[test]
    fn shift_assign_prints_like_paper() {
        let (t, u, v, _) = setup();
        let s = Stmt::ShiftAssign { dst: v, src: u, shift: -1, dim: 1, kind: ShiftKind::Circular };
        assert_eq!(stmt(&t, &s), "T = CSHIFT(U,SHIFT=-1,DIM=2)");
    }

    #[test]
    fn overlap_shift_with_offsets_and_rsd() {
        let (t, u, ..) = setup();
        let mut rsd = crate::Rsd::none(2);
        rsd.extend(0, -1);
        rsd.extend(0, 1);
        let s = Stmt::OverlapShift {
            array: u,
            src_offsets: Offsets::new([1, 0]),
            shift: -1,
            dim: 1,
            rsd: Some(rsd),
            kind: ShiftKind::Circular,
        };
        assert_eq!(stmt(&t, &s), "CALL OVERLAP_CSHIFT(U<+1,0>,SHIFT=-1,DIM=2,[1-1:n+1,*])");
    }

    #[test]
    fn compute_with_offsets() {
        let (t, u, v, c) = setup();
        let rhs = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                Expr::Scalar(c),
                Expr::Ref(OperandRef::offset(u, Offsets::new([1, 0]))),
            ),
            Expr::Ref(OperandRef::aligned(u, 2)),
        );
        let s = Stmt::Compute { lhs: v, space: Section::full(&Shape::new([8, 8])), rhs };
        assert_eq!(stmt(&t, &s), "T = C1 * U<+1,0> + U");
    }

    #[test]
    fn sectioned_compute_prints_section() {
        let (t, u, v, _) = setup();
        let s = Stmt::Compute {
            lhs: v,
            space: Section::new([(2, 7), (2, 7)]),
            rhs: Expr::Ref(OperandRef::aligned(u, 2)),
        };
        assert_eq!(stmt(&t, &s), "T(2:7,2:7) = U");
    }

    #[test]
    fn parenthesization() {
        let (t, u, ..) = setup();
        // (U + U) * U needs parens; U + U * U does not.
        let sum = Expr::bin(
            BinOp::Add,
            Expr::Ref(OperandRef::aligned(u, 2)),
            Expr::Ref(OperandRef::aligned(u, 2)),
        );
        let e = Expr::bin(BinOp::Mul, sum.clone(), Expr::Ref(OperandRef::aligned(u, 2)));
        assert_eq!(expr(&t, &e), "(U + U) * U");
        let e2 = Expr::bin(BinOp::Sub, Expr::Ref(OperandRef::aligned(u, 2)), sum);
        assert_eq!(expr(&t, &e2), "U - (U + U)");
    }

    #[test]
    fn timeloop_indents() {
        let (t, u, v, _) = setup();
        let s = Stmt::TimeLoop {
            iters: 5,
            body: vec![Stmt::Copy { dst: v, src: OperandRef::aligned(u, 2) }],
        };
        assert_eq!(stmt(&t, &s), "DO 5 TIMES\n  T = U\nENDDO");
        assert_eq!(stmt(&t, &Stmt::Rebind { dst: u, src: v }), "CALL REBIND(U <- T)");
    }
}
