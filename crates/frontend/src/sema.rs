//! Semantic analysis: symbol resolution, shape/conformance checking, and
//! evaluation of `PARAM`-dependent extents and bounds.
//!
//! The result, [`Checked`], is the fully resolved program that both the
//! normalization pass (producing the paper's normal form) and the reference
//! interpreter (the correctness oracle) consume.

use crate::ast::*;
use crate::error::{FrontError, Span};
use hpf_ir::{
    ArrayDecl, ArrayId, BinOp, DimDist, Dims, Distribution, ScalarDecl, ScalarId, Section, Shape,
    ShiftKind, SymbolTable, MAX_RANK,
};

/// A checked expression. Array operands carry explicit concrete sections;
/// shift arguments are restricted to whole-array expressions (checked here),
/// matching the forms the paper's normalization handles.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// Literal.
    Const(f64),
    /// Scalar coefficient.
    Scalar(ScalarId),
    /// Array operand restricted to `section`.
    Sec {
        /// Referenced array.
        array: ArrayId,
        /// Concrete 1-based section.
        section: Section,
        /// Source position of the reference.
        span: Span,
    },
    /// `CSHIFT`/`EOSHIFT` of a whole-array expression.
    Shift {
        /// Shifted operand (whole-array shaped).
        arg: Box<CExpr>,
        /// Shift amount.
        shift: i64,
        /// Dimension, 0-based.
        dim: usize,
        /// Circular or end-off.
        kind: ShiftKind,
        /// Source position of the intrinsic call.
        span: Span,
    },
    /// Binary arithmetic.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Negation.
    Neg(Box<CExpr>),
}

impl CExpr {
    /// Visit every node of the expression tree.
    pub fn walk(&self, f: &mut impl FnMut(&CExpr)) {
        f(self);
        match self {
            CExpr::Shift { arg, .. } => arg.walk(f),
            CExpr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            CExpr::Neg(a) => a.walk(f),
            _ => {}
        }
    }

    /// Number of shift intrinsics in the expression.
    pub fn shift_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if matches!(e, CExpr::Shift { .. }) {
                n += 1;
            }
        });
        n
    }
}

/// A checked statement.
#[derive(Clone, Debug, PartialEq)]
pub enum CStmt {
    /// `[WHERE (a op b)] lhs(section) = rhs`
    Assign {
        /// Assigned array.
        lhs: ArrayId,
        /// Concrete LHS section (the iteration space).
        section: Section,
        /// Right-hand side.
        rhs: Box<CExpr>,
        /// Optional `WHERE` mask; both sides conform to the section.
        mask: Option<Box<(hpf_ir::expr::CmpOp, CExpr, CExpr)>>,
        /// Source position of the statement.
        span: Span,
    },
    /// `DO iters TIMES … ENDDO`
    Do {
        /// Number of iterations.
        iters: usize,
        /// Body.
        body: Vec<CStmt>,
    },
}

/// A semantically checked program.
#[derive(Clone, Debug, PartialEq)]
pub struct Checked {
    /// Program name.
    pub name: String,
    /// Resolved symbols with concrete shapes and distributions.
    pub symbols: SymbolTable,
    /// Checked statements.
    pub stmts: Vec<CStmt>,
}

/// Inferred shape of an expression: `None` = scalar (broadcasts), `Some` =
/// per-dimension extents.
type InferredShape = Option<Dims<i64>>;

struct Checker {
    symbols: SymbolTable,
    params: Vec<(String, i64)>,
}

/// Run semantic analysis on a parsed program.
pub fn check(ast: &Ast) -> Result<Checked, FrontError> {
    let mut symbols = SymbolTable::new();
    // Arrays: evaluate extents, default distribution BLOCK in all dims.
    for a in &ast.arrays {
        if a.dims.len() > MAX_RANK {
            return Err(FrontError::new(
                a.span,
                format!(
                    "array {} has rank {}; Fortran 90 allows at most {MAX_RANK} dimensions",
                    a.name,
                    a.dims.len()
                ),
            ));
        }
        let mut extents = Vec::new();
        for d in &a.dims {
            let v = d.eval(&ast.params).map_err(|m| FrontError::new(a.span, m))?;
            if v < 1 {
                return Err(FrontError::new(
                    a.span,
                    format!("array {} has non-positive extent {v}", a.name),
                ));
            }
            extents.push(v as usize);
        }
        let rank = extents.len();
        symbols.add_array(ArrayDecl::user(
            a.name.clone(),
            Shape::new(extents),
            Distribution::block(rank),
        ));
    }
    // DISTRIBUTE directives override the default.
    for (name, dists, span) in &ast.distributes {
        let id = symbols.lookup_array(name).ok_or_else(|| {
            FrontError::new(*span, format!("DISTRIBUTE of undeclared array {name}"))
        })?;
        let rank = symbols.array(id).rank();
        if dists.len() != rank {
            return Err(FrontError::new(
                *span,
                format!("DISTRIBUTE rank {} does not match array {name} rank {rank}", dists.len()),
            ));
        }
        let dist = Distribution(
            dists
                .iter()
                .map(|d| match d {
                    AstDist::Block => DimDist::Block,
                    AstDist::Collapsed => DimDist::Collapsed,
                })
                .collect(),
        );
        symbols.set_distribution(id, dist);
    }
    for (name, value) in &ast.scalars {
        symbols.add_scalar(ScalarDecl { name: name.clone(), value: value.unwrap_or(0.0) });
    }
    let checker = Checker { symbols, params: ast.params.clone() };
    let stmts = checker.block(&ast.stmts)?;
    Ok(Checked { name: ast.name.clone(), symbols: checker.symbols, stmts })
}

impl Checker {
    fn block(&self, stmts: &[AstStmt]) -> Result<Vec<CStmt>, FrontError> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&self, s: &AstStmt) -> Result<CStmt, FrontError> {
        match s {
            AstStmt::Assign { lhs, section, rhs, mask, span } => {
                let id = self.symbols.lookup_array(lhs).ok_or_else(|| {
                    FrontError::new(*span, format!("assignment to undeclared array {lhs}"))
                })?;
                let decl = self.symbols.array(id);
                let sec = self.resolve_section(section.as_deref(), &decl.shape, *span)?;
                if !sec.within(&decl.shape) {
                    return Err(FrontError::new(
                        *span,
                        format!("section {sec:?} outside bounds of {lhs} {:?}", decl.shape),
                    ));
                }
                let (rhs, shape) = self.expr(rhs)?;
                if let Some(extents) = shape {
                    let want = Dims::from_fn(sec.rank(), |d| sec.extent(d));
                    if extents != want {
                        return Err(FrontError::new(
                            *span,
                            format!(
                                "shape mismatch: LHS section extents {want:?} vs RHS {extents:?}"
                            ),
                        ));
                    }
                }
                let cmask = match mask {
                    None => None,
                    Some(m) => {
                        let (op, a, b) = &**m;
                        let (ca, sa) = self.expr(a)?;
                        let (cb, sb) = self.expr(b)?;
                        let want = Dims::from_fn(sec.rank(), |d| sec.extent(d));
                        for (side, shape) in [("left", &sa), ("right", &sb)] {
                            if let Some(extents) = shape {
                                if *extents != want {
                                    return Err(FrontError::new(
                                        *span,
                                        format!(
                                            "WHERE mask {side} side extents {extents:?} do not                                              conform to the assignment {want:?}"
                                        ),
                                    ));
                                }
                            }
                        }
                        Some(Box::new((*op, ca, cb)))
                    }
                };
                Ok(CStmt::Assign {
                    lhs: id,
                    section: sec,
                    rhs: Box::new(rhs),
                    mask: cmask,
                    span: *span,
                })
            }
            AstStmt::Do { iters, body, span } => {
                let n = iters.eval(&self.params).map_err(|m| FrontError::new(*span, m))?;
                if n < 0 {
                    return Err(FrontError::new(*span, "negative DO count"));
                }
                Ok(CStmt::Do { iters: n as usize, body: self.block(body)? })
            }
        }
    }

    fn resolve_section(
        &self,
        section: Option<&[AstRange]>,
        shape: &Shape,
        span: Span,
    ) -> Result<Section, FrontError> {
        match section {
            None => Ok(Section::full(shape)),
            Some(ranges) => {
                if ranges.len() != shape.rank() {
                    return Err(FrontError::new(
                        span,
                        format!(
                            "section rank {} does not match array rank {}",
                            ranges.len(),
                            shape.rank()
                        ),
                    ));
                }
                let mut bounds = Dims::new();
                for (d, r) in ranges.iter().enumerate() {
                    let b = match r {
                        AstRange::Full => (1, shape.extent(d) as i64),
                        AstRange::Index(i) => {
                            let v = i.eval(&self.params).map_err(|m| FrontError::new(span, m))?;
                            (v, v)
                        }
                        AstRange::Range(lo, hi) => {
                            let lo = lo.eval(&self.params).map_err(|m| FrontError::new(span, m))?;
                            let hi = hi.eval(&self.params).map_err(|m| FrontError::new(span, m))?;
                            (lo, hi)
                        }
                    };
                    bounds.push(b);
                }
                Ok(Section::new(bounds))
            }
        }
    }

    fn expr(&self, e: &AstExpr) -> Result<(CExpr, InferredShape), FrontError> {
        match e {
            AstExpr::Num(v) => Ok((CExpr::Const(*v), None)),
            AstExpr::Neg(a) => {
                let (ce, sh) = self.expr(a)?;
                Ok((CExpr::Neg(Box::new(ce)), sh))
            }
            AstExpr::Bin(op, a, b) => {
                let (ca, sa) = self.expr(a)?;
                let (cb, sb) = self.expr(b)?;
                let shape = match (sa, sb) {
                    (None, s) | (s, None) => s,
                    (Some(x), Some(y)) => {
                        if x != y {
                            return Err(FrontError::new(
                                Span::default(),
                                format!("non-conformant operands: extents {x:?} vs {y:?}"),
                            ));
                        }
                        Some(x)
                    }
                };
                Ok((CExpr::Bin(*op, Box::new(ca), Box::new(cb)), shape))
            }
            AstExpr::Ident { name, section, span } => {
                if let Some(id) = self.symbols.lookup_array(name) {
                    let decl = self.symbols.array(id);
                    let sec = self.resolve_section(section.as_deref(), &decl.shape, *span)?;
                    if !sec.within(&decl.shape) {
                        return Err(FrontError::new(
                            *span,
                            format!("section {sec:?} outside bounds of {name} {:?}", decl.shape),
                        ));
                    }
                    let extents = Dims::from_fn(sec.rank(), |d| sec.extent(d));
                    Ok((CExpr::Sec { array: id, section: sec, span: *span }, Some(extents)))
                } else if let Some(id) = self.symbols.lookup_scalar(name) {
                    if section.is_some() {
                        return Err(FrontError::new(*span, format!("scalar {name} subscripted")));
                    }
                    Ok((CExpr::Scalar(id), None))
                } else {
                    Err(FrontError::new(*span, format!("undeclared identifier {name}")))
                }
            }
            AstExpr::Shift { arg, shift, dim, boundary, span } => {
                let (carg, shape) = self.expr(arg)?;
                let extents = shape.ok_or_else(|| {
                    FrontError::new(*span, "shift intrinsic applied to a scalar expression")
                })?;
                // The normal form applies shifts to whole arrays only
                // (paper §2.1); reject sectioned operands inside shifts.
                let mut sectioned = false;
                carg.walk(&mut |e| {
                    if let CExpr::Sec { array, section, .. } = e {
                        if *section != Section::full(&self.symbols.array(*array).shape) {
                            sectioned = true;
                        }
                    }
                });
                if sectioned {
                    return Err(FrontError::new(
                        *span,
                        "array sections inside CSHIFT/EOSHIFT are not supported; shift whole arrays",
                    ));
                }
                if *dim < 1 || *dim > extents.len() {
                    return Err(FrontError::new(
                        *span,
                        format!("DIM={} out of range for rank {}", dim, extents.len()),
                    ));
                }
                let kind = match boundary {
                    None => ShiftKind::Circular,
                    Some(b) => ShiftKind::EndOff(*b),
                };
                Ok((
                    CExpr::Shift {
                        arg: Box::new(carg),
                        shift: *shift,
                        dim: dim - 1,
                        kind,
                        span: *span,
                    },
                    Some(extents),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Checked, FrontError> {
        check(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn resolves_arrays_scalars_and_default_distribution() {
        let c = check_src("PARAM N = 4\nREAL U(N,N)\nREAL C1 = 2.0\nU = C1 * U\n").unwrap();
        let u = c.symbols.lookup_array("U").unwrap();
        assert_eq!(c.symbols.array(u).shape, Shape::new([4, 4]));
        assert_eq!(c.symbols.array(u).dist, Distribution::block(2));
        assert_eq!(c.symbols.scalar(c.symbols.lookup_scalar("C1").unwrap()).value, 2.0);
    }

    #[test]
    fn distribute_overrides_default() {
        let c = check_src("REAL U(4,4)\n!HPF$ DISTRIBUTE U(BLOCK,*)\n").unwrap();
        let u = c.symbols.lookup_array("U").unwrap();
        assert_eq!(
            c.symbols.array(u).dist,
            Distribution([DimDist::Block, DimDist::Collapsed].into())
        );
    }

    #[test]
    fn distribute_rank_mismatch_fails() {
        assert!(check_src("REAL U(4,4)\n!HPF$ DISTRIBUTE U(BLOCK)\n").is_err());
    }

    #[test]
    fn distribute_unknown_array_fails() {
        assert!(check_src("!HPF$ DISTRIBUTE U(BLOCK)\n").is_err());
    }

    #[test]
    fn section_bounds_checked() {
        assert!(check_src("PARAM N = 4\nREAL U(N,N)\nU(0:N,1:N) = 1\n").is_err());
        assert!(check_src("PARAM N = 4\nREAL U(N,N)\nU(1:N,1:N) = 1\n").is_ok());
    }

    #[test]
    fn conformance_checked() {
        // 2-element section vs 3-element section.
        let err = check_src("REAL A(4), B(4)\nA(1:2) = B(1:3)\n").unwrap_err();
        assert!(err.message.contains("shape mismatch"), "{err}");
        assert!(check_src("REAL A(4), B(4)\nA(1:2) = B(2:3)\n").is_ok());
    }

    #[test]
    fn scalar_broadcast_conforms() {
        assert!(check_src("REAL A(4)\nREAL C = 3.0\nA(1:2) = C\n").is_ok());
    }

    #[test]
    fn scalar_subscript_fails() {
        assert!(check_src("REAL A(4)\nREAL C\nA = C(1)\n").is_err());
    }

    #[test]
    fn shift_dim_checked() {
        assert!(check_src("REAL A(4,4), B(4,4)\nA = CSHIFT(B, SHIFT=1, DIM=3)\n").is_err());
        assert!(check_src("REAL A(4,4), B(4,4)\nA = CSHIFT(B, SHIFT=1, DIM=2)\n").is_ok());
    }

    #[test]
    fn shift_dim_is_zero_based_internally() {
        let c = check_src("REAL A(4,4), B(4,4)\nA = CSHIFT(B, SHIFT=1, DIM=2)\n").unwrap();
        match &c.stmts[0] {
            CStmt::Assign { rhs, .. } => {
                assert!(matches!(**rhs, CExpr::Shift { dim: 1, .. }), "{rhs:?}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shift_of_scalar_fails() {
        assert!(check_src("REAL A(4)\nREAL C\nA = CSHIFT(C, SHIFT=1, DIM=1)\n").is_err());
    }

    #[test]
    fn shift_of_section_rejected() {
        let err =
            check_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(B(1:N,1:N), SHIFT=1, DIM=1)\n");
        // B(1:N,1:N) is the full array, so it is allowed…
        assert!(err.is_ok());
        // …but a proper sub-section is not.
        let err2 =
            check_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(B(2:N,1:N), SHIFT=1, DIM=1)\n");
        assert!(err2.is_err());
    }

    #[test]
    fn shift_of_expression_allowed() {
        let c = check_src("REAL A(4,4), B(4,4)\nA = CSHIFT(A + B, SHIFT=1, DIM=1)\n").unwrap();
        match &c.stmts[0] {
            CStmt::Assign { rhs, .. } => match &**rhs {
                CExpr::Shift { arg, .. } => assert!(matches!(**arg, CExpr::Bin(..))),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn do_loop_checked() {
        let c = check_src("PARAM K = 3\nREAL A(4), B(4)\nDO K TIMES\nA = B\nENDDO\n").unwrap();
        match &c.stmts[0] {
            CStmt::Do { iters, body } => {
                assert_eq!(*iters, 3);
                assert_eq!(body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_positive_extent_fails() {
        assert!(check_src("PARAM N = 0\nREAL A(N)\n").is_err());
    }

    #[test]
    fn index_subscript_becomes_degenerate_range() {
        let c = check_src("REAL A(4,4), B(4,4)\nA(2,1:4) = B(3,1:4)\n").unwrap();
        match &c.stmts[0] {
            CStmt::Assign { section, .. } => assert_eq!(section.dim(0), (2, 2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shift_count_helper() {
        let c = check_src("REAL A(4,4), B(4,4)\nA = CSHIFT(B,1,1) + CSHIFT(CSHIFT(B,1,1),-1,2)\n")
            .unwrap();
        match &c.stmts[0] {
            CStmt::Assign { rhs, .. } => assert_eq!(rhs.shift_count(), 3),
            other => panic!("{other:?}"),
        }
    }
}
