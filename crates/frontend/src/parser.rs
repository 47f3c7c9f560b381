//! Recursive-descent parser for the mini-HPF dialect.

use crate::ast::*;
use crate::error::{FrontError, Span};
use crate::lexer::{Tok, Token};
use hpf_ir::expr::CmpOp;
use hpf_ir::BinOp;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

/// Parse a token stream into an [`Ast`].
pub fn parse(toks: &[Token]) -> Result<Ast, FrontError> {
    Parser { toks, pos: 0 }.program()
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &'a Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> &Tok {
        let t = &self.toks[self.pos].tok;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), FrontError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> FrontError {
        FrontError::new(self.span(), msg)
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn end_of_line(&mut self) -> Result<(), FrontError> {
        match self.peek() {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("trailing tokens on line: {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, FrontError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    // ----- program structure ------------------------------------------------

    fn program(&mut self) -> Result<Ast, FrontError> {
        let mut ast = Ast::default();
        self.skip_newlines();
        if self.eat_kw("PROGRAM") {
            ast.name = self.ident("program name")?;
            self.end_of_line()?;
        }
        loop {
            self.skip_newlines();
            match self.peek() {
                Tok::Eof => break,
                Tok::Ident(kw) if kw == "END" => {
                    self.bump();
                    break;
                }
                Tok::Ident(kw) if kw == "PARAM" || kw == "PARAMETER" => {
                    self.bump();
                    self.param_decl(&mut ast)?;
                }
                Tok::Ident(kw) if kw == "REAL" => {
                    self.bump();
                    self.real_decl(&mut ast)?;
                }
                Tok::HpfDirective => {
                    self.bump();
                    self.directive(&mut ast)?;
                }
                Tok::Ident(kw) if kw == "DISTRIBUTE" => {
                    self.bump();
                    self.distribute_body(&mut ast)?;
                }
                _ => {
                    let s = self.stmt()?;
                    ast.stmts.push(s);
                }
            }
        }
        Ok(ast)
    }

    fn param_decl(&mut self, ast: &mut Ast) -> Result<(), FrontError> {
        loop {
            let name = self.ident("parameter name")?;
            self.expect(&Tok::Eq, "'='")?;
            let neg = self.eat(&Tok::Minus);
            let v = match self.peek().clone() {
                Tok::Int(v) => {
                    self.bump();
                    if neg {
                        -v
                    } else {
                        v
                    }
                }
                other => return Err(self.err(format!("expected integer, found {other:?}"))),
            };
            ast.params.push((name, v));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.end_of_line()
    }

    fn real_decl(&mut self, ast: &mut Ast) -> Result<(), FrontError> {
        loop {
            let span = self.span();
            let name = self.ident("declaration name")?;
            if self.eat(&Tok::LParen) {
                let mut dims = Vec::new();
                loop {
                    dims.push(self.int_expr()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "')'")?;
                ast.arrays.push(AstArrayDecl { name, dims, span });
            } else if self.eat(&Tok::Eq) {
                let v = self.number()?;
                ast.scalars.push((name, Some(v)));
            } else {
                ast.scalars.push((name, None));
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.end_of_line()
    }

    fn directive(&mut self, ast: &mut Ast) -> Result<(), FrontError> {
        if self.eat_kw("DISTRIBUTE") {
            self.distribute_body(ast)
        } else {
            // Unknown directives are ignored to end of line, like real
            // compilers treat unrecognized `!HPF$` lines.
            while !matches!(self.peek(), Tok::Newline | Tok::Eof) {
                self.bump();
            }
            self.end_of_line()
        }
    }

    fn distribute_body(&mut self, ast: &mut Ast) -> Result<(), FrontError> {
        loop {
            let span = self.span();
            let name = self.ident("array name")?;
            self.expect(&Tok::LParen, "'('")?;
            let mut dists = Vec::new();
            loop {
                if self.eat(&Tok::Star) {
                    dists.push(AstDist::Collapsed);
                } else if self.eat_kw("BLOCK") {
                    dists.push(AstDist::Block);
                } else {
                    return Err(self.err("expected BLOCK or '*' in DISTRIBUTE"));
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen, "')'")?;
            ast.distributes.push((name, dists, span));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.end_of_line()
    }

    // ----- statements -------------------------------------------------------

    fn stmt(&mut self) -> Result<AstStmt, FrontError> {
        let span = self.span();
        if self.eat_kw("WHERE") {
            // Single-statement masked assignment: WHERE (cond) lhs = rhs
            self.expect(&Tok::LParen, "'(' after WHERE")?;
            let a = self.expr()?;
            let op = match self.bump().clone() {
                Tok::Gt => CmpOp::Gt,
                Tok::Lt => CmpOp::Lt,
                Tok::Ge => CmpOp::Ge,
                Tok::Le => CmpOp::Le,
                Tok::EqEq => CmpOp::Eq,
                Tok::Ne => CmpOp::Ne,
                other => {
                    return Err(self.err(format!(
                        "expected comparison operator in WHERE mask, found {other:?}"
                    )))
                }
            };
            let b = self.expr()?;
            self.expect(&Tok::RParen, "')' after WHERE mask")?;
            let inner = self.stmt()?;
            return match inner {
                AstStmt::Assign { lhs, section, rhs, mask: None, span } => Ok(AstStmt::Assign {
                    lhs,
                    section,
                    rhs,
                    mask: Some(Box::new((op, a, b))),
                    span,
                }),
                _ => Err(FrontError::new(span, "WHERE must guard a single assignment")),
            };
        }
        if self.eat_kw("DO") {
            let iters = self.int_expr()?;
            if !self.eat_kw("TIMES") {
                return Err(self.err("expected TIMES after DO count"));
            }
            self.end_of_line()?;
            let mut body = Vec::new();
            loop {
                self.skip_newlines();
                if self.eat_kw("ENDDO") {
                    self.end_of_line()?;
                    break;
                }
                if matches!(self.peek(), Tok::Eof) {
                    return Err(self.err("unterminated DO: expected ENDDO"));
                }
                body.push(self.stmt()?);
            }
            return Ok(AstStmt::Do { iters, body, span });
        }
        // Assignment.
        let lhs = self.ident("assignment target")?;
        let section = if self.eat(&Tok::LParen) {
            let s = self.section_list()?;
            self.expect(&Tok::RParen, "')'")?;
            Some(s)
        } else {
            None
        };
        self.expect(&Tok::Eq, "'='")?;
        let rhs = self.expr()?;
        self.end_of_line()?;
        Ok(AstStmt::Assign { lhs, section, rhs, mask: None, span })
    }

    fn section_list(&mut self) -> Result<Vec<AstRange>, FrontError> {
        let mut out = Vec::new();
        loop {
            out.push(self.range()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn range(&mut self) -> Result<AstRange, FrontError> {
        if self.eat(&Tok::Colon) {
            return Ok(AstRange::Full);
        }
        let lo = self.int_expr()?;
        if self.eat(&Tok::Colon) {
            let hi = self.int_expr()?;
            Ok(AstRange::Range(lo, hi))
        } else {
            Ok(AstRange::Index(lo))
        }
    }

    // ----- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<AstExpr, FrontError> {
        let mut lhs = self.term()?;
        loop {
            let op = if self.eat(&Tok::Plus) {
                BinOp::Add
            } else if self.eat(&Tok::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            let rhs = self.term()?;
            lhs = AstExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<AstExpr, FrontError> {
        let mut lhs = self.factor()?;
        loop {
            let op = if self.eat(&Tok::Star) {
                BinOp::Mul
            } else if self.eat(&Tok::Slash) {
                BinOp::Div
            } else {
                break;
            };
            let rhs = self.factor()?;
            lhs = AstExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<AstExpr, FrontError> {
        let span = self.span();
        if self.eat(&Tok::Minus) {
            return Ok(AstExpr::Neg(Box::new(self.factor()?)));
        }
        if self.eat(&Tok::Plus) {
            return self.factor();
        }
        match self.peek() {
            &Tok::Float(v) => {
                self.bump();
                Ok(AstExpr::Num(v))
            }
            &Tok::Int(v) => {
                self.bump();
                Ok(AstExpr::Num(v as f64))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(name) if name == "CSHIFT" || name == "EOSHIFT" => {
                let endoff = name == "EOSHIFT";
                self.bump();
                self.shift_intrinsic(endoff, span)
            }
            Tok::Ident(name) => {
                self.bump();
                let section = if self.eat(&Tok::LParen) {
                    let s = self.section_list()?;
                    self.expect(&Tok::RParen, "')'")?;
                    Some(s)
                } else {
                    None
                };
                Ok(AstExpr::Ident { name: name.clone(), section, span })
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    /// Parse `(arg, SHIFT=s, DIM=d [, BOUNDARY=b])` — keyword or positional.
    fn shift_intrinsic(&mut self, endoff: bool, span: Span) -> Result<AstExpr, FrontError> {
        self.expect(&Tok::LParen, "'(' after shift intrinsic")?;
        let arg = self.expr()?;
        self.expect(&Tok::Comma, "',' after shift argument")?;
        let mut shift: Option<i64> = None;
        let mut dim: Option<usize> = None;
        let mut boundary: Option<f64> = None;
        let mut positional = 0usize;
        loop {
            if self.eat_kw("SHIFT") {
                self.expect(&Tok::Eq, "'=' after SHIFT")?;
                shift = Some(self.signed_int()?);
            } else if self.eat_kw("DIM") {
                self.expect(&Tok::Eq, "'=' after DIM")?;
                let d = self.signed_int()?;
                if d < 1 {
                    return Err(self.err("DIM must be >= 1"));
                }
                dim = Some(d as usize);
            } else if self.eat_kw("BOUNDARY") {
                self.expect(&Tok::Eq, "'=' after BOUNDARY")?;
                boundary = Some(self.signed_number()?);
            } else {
                // positional: first SHIFT, then DIM, then BOUNDARY
                match positional {
                    0 => shift = Some(self.signed_int()?),
                    1 => {
                        let d = self.signed_int()?;
                        if d < 1 {
                            return Err(self.err("DIM must be >= 1"));
                        }
                        dim = Some(d as usize);
                    }
                    2 if endoff => boundary = Some(self.signed_number()?),
                    _ => return Err(self.err("too many shift-intrinsic arguments")),
                }
                positional += 1;
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen, "')'")?;
        let shift = shift.ok_or_else(|| FrontError::new(span, "missing SHIFT amount"))?;
        let dim = dim.unwrap_or(1);
        let boundary = if endoff { Some(boundary.unwrap_or(0.0)) } else { None };
        Ok(AstExpr::Shift { arg: Box::new(arg), shift, dim, boundary, span })
    }

    fn signed_int(&mut self) -> Result<i64, FrontError> {
        let neg = if self.eat(&Tok::Minus) {
            true
        } else {
            self.eat(&Tok::Plus);
            false
        };
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    fn signed_number(&mut self) -> Result<f64, FrontError> {
        let neg = if self.eat(&Tok::Minus) {
            true
        } else {
            self.eat(&Tok::Plus);
            false
        };
        let v = self.number()?;
        Ok(if neg { -v } else { v })
    }

    fn number(&mut self) -> Result<f64, FrontError> {
        match self.peek().clone() {
            Tok::Float(v) => {
                self.bump();
                Ok(v)
            }
            Tok::Int(v) => {
                self.bump();
                Ok(v as f64)
            }
            other => Err(self.err(format!("expected number, found {other:?}"))),
        }
    }

    fn int_expr(&mut self) -> Result<IntExpr, FrontError> {
        let mut lhs = self.int_primary()?;
        loop {
            if self.eat(&Tok::Plus) {
                let rhs = self.int_primary()?;
                lhs = IntExpr::Add(Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Tok::Minus) {
                let rhs = self.int_primary()?;
                lhs = IntExpr::Sub(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn int_primary(&mut self) -> Result<IntExpr, FrontError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(IntExpr::Lit(v))
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(IntExpr::Param(name))
            }
            other => Err(self.err(format!("expected integer expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn program_header_and_end() {
        let ast = parse_src("PROGRAM foo\nEND");
        assert_eq!(ast.name, "FOO");
        assert!(ast.stmts.is_empty());
    }

    #[test]
    fn param_and_decls() {
        let ast = parse_src("PARAM N = 8\nREAL U(N,N), T(N,N)\nREAL C1 = 0.5, C2\n");
        assert_eq!(ast.params, vec![("N".to_string(), 8)]);
        assert_eq!(ast.arrays.len(), 2);
        assert_eq!(ast.arrays[1].name, "T");
        assert_eq!(ast.scalars, vec![("C1".to_string(), Some(0.5)), ("C2".to_string(), None)]);
    }

    #[test]
    fn distribute_directive() {
        let ast = parse_src("REAL U(4,4)\n!HPF$ DISTRIBUTE U(BLOCK,*)\n");
        assert_eq!(ast.distributes.len(), 1);
        assert_eq!(ast.distributes[0].1, vec![AstDist::Block, AstDist::Collapsed]);
    }

    #[test]
    fn unknown_directive_ignored() {
        let ast = parse_src("!HPF$ ALIGN A WITH B\nREAL U(4)\n");
        assert!(ast.distributes.is_empty());
        assert_eq!(ast.arrays.len(), 1);
    }

    #[test]
    fn cshift_keyword_args() {
        let ast = parse_src("RIP = CSHIFT(U,SHIFT=+1,DIM=1)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { lhs, rhs, .. } => {
                assert_eq!(lhs, "RIP");
                match rhs {
                    AstExpr::Shift { shift, dim, boundary, .. } => {
                        assert_eq!(*shift, 1);
                        assert_eq!(*dim, 1);
                        assert!(boundary.is_none());
                    }
                    other => panic!("expected shift, got {other:?}"),
                }
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn cshift_positional_args_and_nesting() {
        let ast = parse_src("T = CSHIFT(CSHIFT(U,-1,1),+1,2)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { rhs: AstExpr::Shift { arg, shift, dim, .. }, .. } => {
                assert_eq!((*shift, *dim), (1, 2));
                assert!(matches!(**arg, AstExpr::Shift { shift: -1, dim: 1, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eoshift_with_boundary() {
        let ast = parse_src("T = EOSHIFT(U, SHIFT=-1, DIM=2, BOUNDARY=-3.5)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { rhs: AstExpr::Shift { boundary, .. }, .. } => {
                assert_eq!(*boundary, Some(-3.5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eoshift_default_boundary_zero() {
        let ast = parse_src("T = EOSHIFT(U, SHIFT=1, DIM=1)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { rhs: AstExpr::Shift { boundary, .. }, .. } => {
                assert_eq!(*boundary, Some(0.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sections_on_both_sides() {
        let ast = parse_src("DST(2:N-1,2:N-1) = SRC(1:N-2,2:N-1) + SRC(3:N,2:N-1)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { section: Some(sec), rhs, .. } => {
                assert_eq!(sec.len(), 2);
                assert!(matches!(rhs, AstExpr::Bin(BinOp::Add, ..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_and_index_ranges() {
        let ast = parse_src("A(:,3) = B(:,4)\n");
        match &ast.stmts[0] {
            AstStmt::Assign { section: Some(sec), .. } => {
                assert_eq!(sec[0], AstRange::Full);
                assert_eq!(sec[1], AstRange::Index(IntExpr::Lit(3)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn do_times_loop() {
        let ast = parse_src("DO 10 TIMES\nT = U\nU = T\nENDDO\n");
        match &ast.stmts[0] {
            AstStmt::Do { iters, body, .. } => {
                assert_eq!(*iters, IntExpr::Lit(10));
                assert_eq!(body.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_do_loops() {
        let ast = parse_src("DO 2 TIMES\nDO 3 TIMES\nT = U\nENDDO\nENDDO\n");
        match &ast.stmts[0] {
            AstStmt::Do { body, .. } => assert!(matches!(body[0], AstStmt::Do { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unterminated_do_errors() {
        let toks = lex("DO 2 TIMES\nT = U\n").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn operator_precedence() {
        let ast = parse_src("T = C1 * U + C2 * V\n");
        match &ast.stmts[0] {
            AstStmt::Assign { rhs: AstExpr::Bin(BinOp::Add, l, r), .. } => {
                assert!(matches!(**l, AstExpr::Bin(BinOp::Mul, ..)));
                assert!(matches!(**r, AstExpr::Bin(BinOp::Mul, ..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_parens() {
        let ast = parse_src("T = -(U + V) * W\n");
        match &ast.stmts[0] {
            AstStmt::Assign { rhs: AstExpr::Bin(BinOp::Mul, l, _), .. } => {
                assert!(matches!(**l, AstExpr::Neg(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_shift_amount_errors() {
        let toks = lex("T = CSHIFT(U, DIM=1)\n").unwrap();
        assert!(parse(&toks).is_err());
    }

    #[test]
    fn trailing_garbage_errors() {
        let toks = lex("T = U V\n").unwrap();
        assert!(parse(&toks).is_err());
    }
}
