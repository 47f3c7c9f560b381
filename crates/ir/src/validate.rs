//! IR validation: structural well-formedness checks run between passes.
//!
//! [`check`] walks the whole program and collects *every* violation as a
//! [`Diagnostic`] (code `IR0xx`, with a source span where the offending
//! construct still carries one); [`validate`] is the `Result`-shaped wrapper
//! most callers use. Normal-form alignment (§2.1) is checked separately by
//! [`normal_form_diagnostics`] / [`check_normal_form`] because passes that
//! run before alignment is established still want the structural checks.

use crate::array::ArrayId;
use crate::diag::Diagnostic;
use crate::program::{Program, SymbolTable};
use crate::section::Section;
use crate::stmt::Stmt;

/// Dangling array/scalar id.
pub const IR001: &str = "IR001";
/// Shape/conformance mismatch between operands.
pub const IR002: &str = "IR002";
/// Dimension index out of rank.
pub const IR003: &str = "IR003";
/// Shift amount or offset annotation exceeds the overlap width.
pub const IR004: &str = "IR004";
/// Malformed RSD (rank, width, or extension along the shifted dimension).
pub const IR005: &str = "IR005";
/// Iteration space rank mismatch or outside array bounds.
pub const IR006: &str = "IR006";
/// Offset annotation rank mismatch.
pub const IR007: &str = "IR007";
/// Normal-form violation: compute operand not aligned with the LHS.
pub const NF001: &str = "NF001";

/// A validation failure: the collected diagnostics for every violation.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateError(pub Vec<Diagnostic>);

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IR validation error: ")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", d.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidateError {}

fn check_array(symbols: &SymbolTable, id: ArrayId, out: &mut Vec<Diagnostic>) -> bool {
    if (id.0 as usize) < symbols.num_arrays() {
        true
    } else {
        out.push(Diagnostic::error(IR001, format!("dangling array id {id:?}")));
        false
    }
}

/// Validate a program against the normal-form invariants:
///
/// * every referenced array/scalar id is declared;
/// * shift dimensions are within rank and operand ranks agree;
/// * compute iteration spaces lie within the LHS array bounds;
/// * operand references inside a compute statement have the rank of their
///   array and, translated by their offsets, the referenced section lies
///   within the array extended by the given overlap width;
/// * offset annotations never exceed the machine's overlap width.
///
/// Returns `Err` with **all** violations, not just the first.
pub fn validate(p: &Program, overlap_width: i64) -> Result<(), ValidateError> {
    let diags = check(p, overlap_width);
    if diags.is_empty() {
        Ok(())
    } else {
        Err(ValidateError(diags))
    }
}

/// Collect every structural violation in the program as diagnostics.
pub fn check(p: &Program, overlap_width: i64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    p.for_each_stmt(&mut |s| check_stmt(&p.symbols, s, overlap_width, &mut out));
    out
}

fn check_stmt(symbols: &SymbolTable, s: &Stmt, w: i64, out: &mut Vec<Diagnostic>) {
    match s {
        Stmt::ShiftAssign { dst, src, dim, .. } => {
            if !check_array(symbols, *dst, out) || !check_array(symbols, *src, out) {
                return;
            }
            let d = symbols.array(*dst);
            let r = symbols.array(*src);
            if d.shape != r.shape {
                out.push(Diagnostic::error(
                    IR002,
                    format!(
                        "shift assign shape mismatch: {} {:?} vs {} {:?}",
                        d.name, d.shape, r.name, r.shape
                    ),
                ));
            }
            if *dim >= d.rank() {
                out.push(Diagnostic::error(
                    IR003,
                    format!("shift dim {} out of rank {}", dim + 1, d.rank()),
                ));
            }
        }
        Stmt::OverlapShift { array, src_offsets, shift, dim, rsd, .. } => {
            if !check_array(symbols, *array, out) {
                return;
            }
            let a = symbols.array(*array);
            if *dim >= a.rank() {
                out.push(Diagnostic::error(
                    IR003,
                    format!("overlap shift dim {} out of rank {}", dim + 1, a.rank()),
                ));
            }
            if src_offsets.rank() != a.rank() {
                out.push(Diagnostic::error(
                    IR007,
                    format!("offset annotation rank mismatch on {}", a.name),
                ));
            }
            if shift.abs() > w {
                out.push(Diagnostic::error(
                    IR004,
                    format!("overlap shift amount {shift} exceeds overlap width {w} on {}", a.name),
                ));
            }
            if let Some(rsd) = rsd {
                if rsd.rank() != a.rank() {
                    out.push(Diagnostic::error(IR005, format!("RSD rank mismatch on {}", a.name)));
                    return;
                }
                if rsd.ext.iter().any(|&(lo, hi)| lo as i64 > w || hi as i64 > w) {
                    out.push(Diagnostic::error(
                        IR005,
                        format!("RSD extension exceeds overlap width on {}", a.name),
                    ));
                }
                if *dim < a.rank() && rsd.ext[*dim] != (0, 0) {
                    out.push(Diagnostic::error(
                        IR005,
                        format!("RSD must not extend the shifted dimension itself on {}", a.name),
                    ));
                }
            }
        }
        Stmt::Compute { lhs, space, rhs } => {
            if !check_array(symbols, *lhs, out) {
                return;
            }
            let l = symbols.array(*lhs);
            if space.rank() != l.rank() {
                out.push(Diagnostic::error(
                    IR006,
                    format!("iteration space rank mismatch on {}", l.name),
                ));
                return;
            }
            if !space.within(&l.shape) {
                out.push(Diagnostic::error(
                    IR006,
                    format!("iteration space {space:?} outside bounds of {} {:?}", l.name, l.shape),
                ));
            }
            rhs.for_each_ref(&mut |r| {
                if !check_array(symbols, r.array, out) {
                    return;
                }
                let a = symbols.array(r.array);
                if r.offsets.rank() != a.rank() {
                    out.push(
                        Diagnostic::error(
                            IR007,
                            format!("operand offset rank mismatch on {}", a.name),
                        )
                        .at_opt(r.span),
                    );
                    return;
                }
                if r.offsets.max_abs() > w {
                    out.push(
                        Diagnostic::error(
                            IR004,
                            format!(
                                "operand offset {:?} exceeds overlap width {w} on {}",
                                r.offsets, a.name
                            ),
                        )
                        .at_opt(r.span),
                    );
                }
                if a.shape != l.shape {
                    out.push(
                        Diagnostic::error(
                            IR002,
                            format!("operand {} not conformant with LHS {}", a.name, l.name),
                        )
                        .at_opt(r.span),
                    );
                }
            });
        }
        Stmt::Copy { dst, src } => {
            if !check_array(symbols, *dst, out) || !check_array(symbols, src.array, out) {
                return;
            }
            let d = symbols.array(*dst);
            let s = symbols.array(src.array);
            if d.shape != s.shape {
                out.push(Diagnostic::error(
                    IR002,
                    format!("copy shape mismatch {} vs {}", d.name, s.name),
                ));
            }
            if src.offsets.rank() != s.rank() {
                out.push(
                    Diagnostic::error(IR007, format!("copy offset rank mismatch on {}", s.name))
                        .at_opt(src.span),
                );
                return;
            }
            if src.offsets.max_abs() > w {
                out.push(
                    Diagnostic::error(
                        IR004,
                        format!("copy offset exceeds overlap width on {}", s.name),
                    )
                    .at_opt(src.span),
                );
            }
        }
        Stmt::Rebind { dst, src } => {
            if !check_array(symbols, *dst, out) || !check_array(symbols, *src, out) {
                return;
            }
            let (d, s) = (symbols.array(*dst), symbols.array(*src));
            if d.shape != s.shape || d.dist != s.dist {
                out.push(Diagnostic::error(
                    IR002,
                    format!("rebind of {} to {}: shapes or distributions differ", d.name, s.name),
                ));
            }
        }
        Stmt::TimeLoop { .. } => {} // bodies visited by the caller
    }
}

/// Collect every *normal form* (§2.1) violation: every compute statement's
/// operands must be declared with a distribution identical to the LHS
/// (perfect alignment ⇒ no communication).
pub fn normal_form_diagnostics(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    p.for_each_stmt(&mut |s| {
        if let Stmt::Compute { lhs, rhs, .. } = s {
            let ldist = &p.symbols.array(*lhs).dist;
            rhs.for_each_ref(&mut |r| {
                let rd = &p.symbols.array(r.array).dist;
                if rd != ldist {
                    out.push(
                        Diagnostic::error(
                            NF001,
                            format!(
                                "compute operand {} not aligned with {} (distributions differ)",
                                p.symbols.array(r.array).name,
                                p.symbols.array(*lhs).name
                            ),
                        )
                        .at_opt(r.span),
                    );
                }
            });
        }
    });
    out
}

/// Check the *normal form* property of §2.1: every shift is a singleton
/// whole-array assignment (guaranteed by construction here), and every
/// compute statement's operands are declared with identical distributions as
/// the LHS. Returns `Err` with **all** violations.
pub fn check_normal_form(p: &Program) -> Result<(), ValidateError> {
    let diags = normal_form_diagnostics(p);
    if diags.is_empty() {
        Ok(())
    } else {
        Err(ValidateError(diags))
    }
}

/// Full iteration space of an array (used by kill analysis and validation).
pub fn full_space(symbols: &SymbolTable, id: ArrayId) -> Section {
    Section::full(&symbols.array(id).shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, Distribution, Shape};
    use crate::expr::{BinOp, Expr, OperandRef};
    use crate::section::Offsets;
    use crate::span::Span;
    use crate::stmt::ShiftKind;

    fn prog() -> (Program, ArrayId, ArrayId) {
        let mut t = SymbolTable::new();
        let u = t.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
        let v = t.add_array(ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2)));
        (Program::new(t), u, v)
    }

    #[test]
    fn valid_program_passes() {
        let (mut p, u, v) = prog();
        p.body.push(Stmt::ShiftAssign {
            dst: v,
            src: u,
            shift: 1,
            dim: 0,
            kind: ShiftKind::Circular,
        });
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(2, 7), (2, 7)]),
            rhs: Expr::Ref(OperandRef::offset(u, Offsets::new([1, -1]))),
        });
        assert!(validate(&p, 1).is_ok());
        assert!(check_normal_form(&p).is_ok());
    }

    #[test]
    fn shift_dim_out_of_rank_fails() {
        let (mut p, u, v) = prog();
        p.body.push(Stmt::ShiftAssign {
            dst: v,
            src: u,
            shift: 1,
            dim: 2,
            kind: ShiftKind::Circular,
        });
        assert!(validate(&p, 1).is_err());
    }

    #[test]
    fn offset_exceeding_overlap_fails() {
        let (mut p, u, v) = prog();
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(3, 6), (1, 8)]),
            rhs: Expr::Ref(OperandRef::offset(u, Offsets::new([2, 0]))),
        });
        assert!(validate(&p, 1).is_err());
        assert!(validate(&p, 2).is_ok());
    }

    #[test]
    fn space_outside_bounds_fails() {
        let (mut p, u, v) = prog();
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(0, 8), (1, 8)]),
            rhs: Expr::Ref(OperandRef::aligned(u, 2)),
        });
        assert!(validate(&p, 1).is_err());
    }

    #[test]
    fn misaligned_operand_fails_normal_form() {
        let mut t = SymbolTable::new();
        let u = t.add_array(ArrayDecl::user(
            "U",
            Shape::new([8, 8]),
            Distribution([crate::DimDist::Block, crate::DimDist::Collapsed].into()),
        ));
        let v = t.add_array(ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2)));
        let mut p = Program::new(t);
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(1, 8), (1, 8)]),
            rhs: Expr::Ref(OperandRef::aligned(u, 2)),
        });
        assert!(validate(&p, 1).is_ok(), "structurally fine");
        assert!(check_normal_form(&p).is_err(), "but not aligned");
    }

    #[test]
    fn rsd_must_not_extend_shift_dim() {
        let (mut p, u, _) = prog();
        let mut rsd = crate::Rsd::none(2);
        rsd.extend(1, 1);
        p.body.push(Stmt::OverlapShift {
            array: u,
            src_offsets: Offsets::zero(2),
            shift: 1,
            dim: 1,
            rsd: Some(rsd),
            kind: ShiftKind::Circular,
        });
        assert!(validate(&p, 1).is_err());
    }

    #[test]
    fn collects_all_violations_not_just_first() {
        let (mut p, u, v) = prog();
        // Two independent violations in one statement: oversized offsets on
        // two distinct operands, plus a bad shift dim in a second statement.
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(3, 6), (3, 6)]),
            rhs: Expr::bin(
                BinOp::Add,
                Expr::Ref(OperandRef::offset(u, Offsets::new([2, 0])).at(Span::new(3, 5))),
                Expr::Ref(OperandRef::offset(u, Offsets::new([0, -3]))),
            ),
        });
        p.body.push(Stmt::ShiftAssign {
            dst: v,
            src: u,
            shift: 1,
            dim: 5,
            kind: ShiftKind::Circular,
        });
        let diags = check(&p, 1);
        assert_eq!(diags.len(), 3, "all violations collected: {diags:?}");
        assert_eq!(diags[0].code, IR004);
        assert_eq!(diags[0].span, Some(Span::new(3, 5)));
        assert_eq!(diags[1].code, IR004);
        assert_eq!(diags[2].code, IR003);
        let err = validate(&p, 1).unwrap_err();
        assert_eq!(err.0.len(), 3);
        assert!(err.to_string().contains("exceeds overlap width"));
    }
}
