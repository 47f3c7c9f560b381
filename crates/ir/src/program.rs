//! Whole-program container and symbol table.

use crate::array::{ArrayDecl, ArrayId, ScalarDecl, ScalarId};
use crate::stmt::Stmt;

/// Symbol table holding array and scalar declarations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymbolTable {
    arrays: Vec<ArrayDecl>,
    scalars: Vec<ScalarDecl>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an array declaration, returning its id.
    pub fn add_array(&mut self, decl: ArrayDecl) -> ArrayId {
        assert!(self.lookup_array(&decl.name).is_none(), "duplicate array {}", decl.name);
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(decl);
        id
    }

    /// Add a scalar declaration, returning its id.
    pub fn add_scalar(&mut self, decl: ScalarDecl) -> ScalarId {
        assert!(self.lookup_scalar(&decl.name).is_none(), "duplicate scalar {}", decl.name);
        let id = ScalarId(self.scalars.len() as u32);
        self.scalars.push(decl);
        id
    }

    /// Declaration of an array id.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// Declaration of a scalar id.
    pub fn scalar(&self, id: ScalarId) -> &ScalarDecl {
        &self.scalars[id.0 as usize]
    }

    /// Replace the distribution of an array (of the same rank).
    pub fn set_distribution(&mut self, id: ArrayId, dist: crate::Distribution) {
        let decl = &mut self.arrays[id.0 as usize];
        assert_eq!(decl.dist.rank(), dist.rank(), "distribution rank of {}", decl.name);
        decl.dist = dist;
    }

    /// Find an array by name.
    pub fn lookup_array(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name).map(|i| ArrayId(i as u32))
    }

    /// Find a scalar by name.
    pub fn lookup_scalar(&self, name: &str) -> Option<ScalarId> {
        self.scalars.iter().position(|s| s.name == name).map(|i| ScalarId(i as u32))
    }

    /// All array ids.
    pub fn array_ids(&self) -> impl Iterator<Item = ArrayId> {
        (0..self.arrays.len() as u32).map(ArrayId)
    }

    /// All scalar ids.
    pub fn scalar_ids(&self) -> impl Iterator<Item = ScalarId> {
        (0..self.scalars.len() as u32).map(ScalarId)
    }

    /// Number of arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Number of scalars.
    pub fn num_scalars(&self) -> usize {
        self.scalars.len()
    }

    /// Generate a fresh compiler temporary name not colliding with any
    /// existing array.
    pub fn fresh_temp_name(&self) -> String {
        let mut k = 1;
        loop {
            let name = format!("TMP{k}");
            if self.lookup_array(&name).is_none() {
                return name;
            }
            k += 1;
        }
    }
}

/// A normalized stencil program: symbols plus a statement list (the body may
/// contain [`Stmt::TimeLoop`] nests whose bodies are basic blocks).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Array and scalar declarations.
    pub symbols: SymbolTable,
    /// Statement list.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Empty program over a symbol table.
    pub fn new(symbols: SymbolTable) -> Self {
        Program { symbols, body: Vec::new() }
    }

    /// Apply `f` to every basic block of the program (the top-level block
    /// and each time-loop body, recursively).
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut Vec<Stmt>, &mut SymbolTable)) {
        fn walk(
            block: &mut Vec<Stmt>,
            symbols: &mut SymbolTable,
            f: &mut impl FnMut(&mut Vec<Stmt>, &mut SymbolTable),
        ) {
            // Visit inner blocks first so the callback sees loop bodies in
            // their final shape before reordering the enclosing block.
            for s in block.iter_mut() {
                if let Stmt::TimeLoop { body, .. } = s {
                    walk(body, symbols, f);
                }
            }
            f(block, symbols);
        }
        let mut body = std::mem::take(&mut self.body);
        walk(&mut body, &mut self.symbols, f);
        self.body = body;
    }

    /// Visit every statement (including inside time loops).
    pub fn for_each_stmt(&self, f: &mut impl FnMut(&Stmt)) {
        fn walk(block: &[Stmt], f: &mut impl FnMut(&Stmt)) {
            for s in block {
                f(s);
                if let Stmt::TimeLoop { body, .. } = s {
                    walk(body, f);
                }
            }
        }
        walk(&self.body, f);
    }

    /// Count statements satisfying a predicate (recursively).
    pub fn count_stmts(&self, pred: impl Fn(&Stmt) -> bool) -> usize {
        let mut n = 0;
        self.for_each_stmt(&mut |s| {
            if pred(s) {
                n += 1;
            }
        });
        n
    }

    /// Arrays that are still referenced anywhere in the program (assigned or
    /// read). Temporaries absent from this set need not be allocated — the
    /// storage reduction the paper reports in §4.2.
    pub fn live_arrays(&self) -> Vec<ArrayId> {
        let mut live = Vec::new();
        let mut note = |r| {
            let (crate::stmt::Resource::Interior(a) | crate::stmt::Resource::Ghost(a, ..)) = r;
            if !live.contains(&a) {
                live.push(a);
            }
        };
        self.for_each_stmt(&mut |s| {
            s.for_each_read(&mut note);
            s.for_each_write(&mut note);
        });
        live.sort_unstable();
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, Distribution, ScalarDecl, Shape};
    use crate::expr::{Expr, OperandRef};
    use crate::section::Section;
    use crate::stmt::ShiftKind;

    fn table() -> (SymbolTable, ArrayId, ArrayId) {
        let mut t = SymbolTable::new();
        let u = t.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
        let v = t.add_array(ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2)));
        (t, u, v)
    }

    #[test]
    fn lookup_roundtrip() {
        let (mut t, u, v) = table();
        assert_eq!(t.lookup_array("U"), Some(u));
        assert_eq!(t.lookup_array("T"), Some(v));
        assert_eq!(t.lookup_array("X"), None);
        let c = t.add_scalar(ScalarDecl { name: "C1".into(), value: 0.5 });
        assert_eq!(t.lookup_scalar("C1"), Some(c));
        assert_eq!(t.scalar(c).value, 0.5);
        assert_eq!(t.num_arrays(), 2);
        assert_eq!(t.num_scalars(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate array")]
    fn duplicate_array_panics() {
        let (mut t, ..) = table();
        t.add_array(ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2)));
    }

    #[test]
    fn fresh_temp_names_skip_taken() {
        let (mut t, ..) = table();
        assert_eq!(t.fresh_temp_name(), "TMP1");
        t.add_array(ArrayDecl::user("TMP1", Shape::new([8, 8]), Distribution::block(2)));
        assert_eq!(t.fresh_temp_name(), "TMP2");
    }

    #[test]
    fn live_arrays_and_block_walk() {
        let (mut t, u, v) = table();
        let dead = t.add_array(ArrayDecl::user("DEAD", Shape::new([8, 8]), Distribution::block(2)));
        let mut p = Program::new(t);
        p.body.push(Stmt::TimeLoop {
            iters: 2,
            body: vec![
                Stmt::ShiftAssign { dst: v, src: u, shift: 1, dim: 0, kind: ShiftKind::Circular },
                Stmt::Copy { dst: u, src: OperandRef::aligned(v, 2) },
            ],
        });
        let live = p.live_arrays();
        assert!(live.contains(&u) && live.contains(&v));
        assert!(!live.contains(&dead));

        let mut blocks = 0;
        p.for_each_block_mut(&mut |_, _| blocks += 1);
        assert_eq!(blocks, 2); // top level + loop body

        assert_eq!(p.count_stmts(|s| s.is_comm()), 1);
    }

    #[test]
    fn for_each_stmt_recurses() {
        let (t, u, v) = table();
        let mut p = Program::new(t);
        p.body.push(Stmt::Compute {
            lhs: v,
            space: Section::new([(1, 8), (1, 8)]),
            rhs: Expr::Ref(OperandRef::aligned(u, 2)),
        });
        p.body.push(Stmt::TimeLoop {
            iters: 1,
            body: vec![Stmt::Copy { dst: u, src: OperandRef::aligned(v, 2) }],
        });
        let mut n = 0;
        p.for_each_stmt(&mut |_| n += 1);
        assert_eq!(n, 3); // compute, timeloop, copy
    }
}
