//! The reference interpreter — the correctness oracle.
//!
//! Evaluates a checked source program directly on dense global arrays with
//! Fortran90 semantics: the whole right-hand side of an array assignment is
//! evaluated before any element of the left-hand side is stored, `CSHIFT`
//! wraps circularly, `EOSHIFT` shifts the boundary value in. Every compiled
//! configuration (any stage subset, any PE grid, sequential or threaded)
//! must reproduce this interpreter's results exactly.

use hpf_frontend::{CExpr, CStmt, Checked};
use hpf_ir::hash::HashMap;
use hpf_ir::{ArrayId, BinOp, Section, ShiftKind, SymbolTable};

/// A dense global array (row-major, 1-based logical indices).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseArray {
    /// Per-dimension extents.
    pub shape: Vec<usize>,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl DenseArray {
    /// Zero-filled array.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        DenseArray { shape, data: vec![0.0; len] }
    }

    /// Build from a function of the 1-based global coordinates.
    pub fn from_fn(shape: Vec<usize>, f: impl Fn(&[i64]) -> f64) -> Self {
        let mut a = DenseArray::zeros(shape.clone());
        let sec = Section::new(shape.iter().map(|&e| (1i64, e as i64)).collect::<Vec<_>>());
        for p in sec.points() {
            let v = f(&p);
            a.set(&p, v);
        }
        a
    }

    fn strides(&self) -> Vec<usize> {
        let r = self.shape.len();
        let mut s = vec![1usize; r];
        for d in (0..r.saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.shape[d + 1];
        }
        s
    }

    fn index(&self, p: &[i64]) -> usize {
        let strides = self.strides();
        p.iter().zip(&strides).map(|(&i, &s)| (i - 1) as usize * s).sum()
    }

    /// Read a 1-based coordinate.
    pub fn get(&self, p: &[i64]) -> f64 {
        self.data[self.index(p)]
    }

    /// Write a 1-based coordinate.
    pub fn set(&mut self, p: &[i64], v: f64) {
        let i = self.index(p);
        self.data[i] = v;
    }
}

/// An evaluated RHS value: a scalar (broadcasts) or a section-shaped block.
#[derive(Clone, Debug)]
enum Val {
    Scalar(f64),
    /// Extents + row-major data over those extents.
    Arr(Vec<i64>, Vec<f64>),
}

/// The reference interpreter's state.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Symbols of the interpreted program.
    pub symbols: SymbolTable,
    /// Global arrays by id.
    pub arrays: HashMap<ArrayId, DenseArray>,
}

impl Reference {
    /// Allocate every declared array, zero-filled.
    pub fn new(checked: &Checked) -> Self {
        let mut arrays = HashMap::default();
        for id in checked.symbols.array_ids() {
            let shape = checked.symbols.array(id).shape.0.to_vec();
            arrays.insert(id, DenseArray::zeros(shape));
        }
        Reference { symbols: checked.symbols.clone(), arrays }
    }

    /// Fill an array from a function of its global coordinates.
    pub fn fill(&mut self, id: ArrayId, f: impl Fn(&[i64]) -> f64) {
        let a = self.arrays.get_mut(&id).expect("declared array");
        let shape = a.shape.clone();
        *a = DenseArray::from_fn(shape, f);
    }

    /// Fill an array by name.
    pub fn fill_named(&mut self, name: &str, f: impl Fn(&[i64]) -> f64) {
        let id = self.symbols.lookup_array(name).expect("known array");
        self.fill(id, f);
    }

    /// Borrow an array by name.
    pub fn array_named(&self, name: &str) -> &DenseArray {
        let id = self.symbols.lookup_array(name).expect("known array");
        &self.arrays[&id]
    }

    /// Execute the whole program.
    pub fn run(&mut self, checked: &Checked) {
        self.exec_block(&checked.stmts);
    }

    fn exec_block(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            match s {
                CStmt::Assign { lhs, section, rhs, mask, .. } => {
                    let val = self.eval(rhs);
                    match mask {
                        None => self.assign(*lhs, section, val),
                        Some(m) => {
                            let (op, a, b) = &**m;
                            let ma = self.eval(a);
                            let mb = self.eval(b);
                            self.assign_masked(*lhs, section, val, *op, ma, mb);
                        }
                    }
                }
                CStmt::Do { iters, body } => {
                    for _ in 0..*iters {
                        self.exec_block(body);
                    }
                }
            }
        }
    }

    fn assign(&mut self, lhs: ArrayId, section: &Section, val: Val) {
        let arr = self.arrays.get_mut(&lhs).expect("declared array");
        match val {
            Val::Scalar(v) => {
                for p in section.points() {
                    arr.set(&p, v);
                }
            }
            Val::Arr(extents, data) => {
                debug_assert_eq!(
                    extents,
                    (0..section.rank()).map(|d| section.extent(d)).collect::<Vec<_>>()
                );
                for (i, p) in section.points().enumerate() {
                    arr.set(&p, data[i]);
                }
            }
        }
    }

    /// Masked (`WHERE`) assignment: only elements where `a op b` holds are
    /// stored; the rest keep their previous values.
    fn assign_masked(
        &mut self,
        lhs: ArrayId,
        section: &Section,
        val: Val,
        op: hpf_ir::expr::CmpOp,
        ma: Val,
        mb: Val,
    ) {
        let arr = self.arrays.get_mut(&lhs).expect("declared array");
        let pick = |v: &Val, i: usize| match v {
            Val::Scalar(s) => *s,
            Val::Arr(_, d) => d[i],
        };
        for (i, p) in section.points().enumerate() {
            if op.apply(pick(&ma, i), pick(&mb, i)) != 0.0 {
                arr.set(&p, pick(&val, i));
            }
        }
    }

    fn eval(&self, e: &CExpr) -> Val {
        match e {
            CExpr::Const(v) => Val::Scalar(*v),
            CExpr::Scalar(id) => Val::Scalar(self.symbols.scalar(*id).value),
            CExpr::Sec { array, section, .. } => {
                let arr = &self.arrays[array];
                let data: Vec<f64> = section.points().map(|p| arr.get(&p)).collect();
                let extents = (0..section.rank()).map(|d| section.extent(d)).collect();
                Val::Arr(extents, data)
            }
            CExpr::Neg(a) => match self.eval(a) {
                Val::Scalar(v) => Val::Scalar(-v),
                Val::Arr(e, d) => Val::Arr(e, d.into_iter().map(|v| -v).collect()),
            },
            CExpr::Bin(op, a, b) => combine(*op, self.eval(a), self.eval(b)),
            CExpr::Shift { arg, shift, dim, kind, .. } => {
                let val = self.eval(arg);
                let (extents, data) = match val {
                    Val::Arr(e, d) => (e, d),
                    Val::Scalar(_) => panic!("sema rejects shifts of scalars"),
                };
                let sec = Section::new(extents.iter().map(|&e| (1i64, e)).collect::<Vec<_>>());
                let tmp = DenseArray { shape: extents.iter().map(|&e| e as usize).collect(), data };
                let n = extents[*dim];
                let out: Vec<f64> = sec
                    .points()
                    .map(|p| {
                        let mut q = p.clone();
                        q[*dim] += shift;
                        match kind {
                            ShiftKind::Circular => {
                                q[*dim] = (q[*dim] - 1).rem_euclid(n) + 1;
                                tmp.get(&q)
                            }
                            ShiftKind::EndOff(b) => {
                                if q[*dim] >= 1 && q[*dim] <= n {
                                    tmp.get(&q)
                                } else {
                                    *b
                                }
                            }
                        }
                    })
                    .collect();
                Val::Arr(extents, out)
            }
        }
    }
}

fn combine(op: BinOp, a: Val, b: Val) -> Val {
    match (a, b) {
        (Val::Scalar(x), Val::Scalar(y)) => Val::Scalar(op.apply(x, y)),
        (Val::Scalar(x), Val::Arr(e, d)) => {
            Val::Arr(e, d.into_iter().map(|v| op.apply(x, v)).collect())
        }
        (Val::Arr(e, d), Val::Scalar(y)) => {
            Val::Arr(e, d.into_iter().map(|v| op.apply(v, y)).collect())
        }
        (Val::Arr(e1, d1), Val::Arr(e2, d2)) => {
            debug_assert_eq!(e1, e2, "sema guarantees conformance");
            Val::Arr(e1, d1.into_iter().zip(d2).map(|(x, y)| op.apply(x, y)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_frontend::compile_source;

    type Init = fn(&[i64]) -> f64;

    fn run_src(src: &str, init: &[(&str, Init)]) -> Reference {
        let checked = compile_source(src).unwrap();
        let mut r = Reference::new(&checked);
        for (name, f) in init {
            r.fill_named(name, f);
        }
        r.run(&checked);
        r
    }

    fn coord(p: &[i64]) -> f64 {
        (p[0] * 100 + p[1]) as f64
    }

    #[test]
    fn dense_array_indexing() {
        let mut a = DenseArray::zeros(vec![3, 4]);
        a.set(&[2, 3], 5.0);
        assert_eq!(a.get(&[2, 3]), 5.0);
        assert_eq!(a.data[4 + (3 - 1)], 5.0);
        let b = DenseArray::from_fn(vec![2, 2], |p| (p[0] + p[1]) as f64);
        assert_eq!(b.get(&[2, 2]), 4.0);
    }

    #[test]
    fn cshift_semantics() {
        let r = run_src(
            "PARAM N = 4\nREAL U(N,N), T(N,N)\nT = CSHIFT(U, SHIFT=1, DIM=1)\n",
            &[("U", coord)],
        );
        let t = r.array_named("T");
        // T(i,j) = U(i+1,j) circular.
        assert_eq!(t.get(&[1, 2]), coord(&[2, 2]));
        assert_eq!(t.get(&[4, 3]), coord(&[1, 3]));
    }

    #[test]
    fn eoshift_semantics() {
        let r = run_src(
            "PARAM N = 4\nREAL U(N,N), T(N,N)\nT = EOSHIFT(U, SHIFT=-2, DIM=2, BOUNDARY=7.5)\n",
            &[("U", coord)],
        );
        let t = r.array_named("T");
        assert_eq!(t.get(&[2, 4]), coord(&[2, 2]));
        assert_eq!(t.get(&[2, 1]), 7.5);
        assert_eq!(t.get(&[2, 2]), 7.5);
    }

    #[test]
    fn section_assignment() {
        let r =
            run_src("PARAM N = 4\nREAL U(N,N), T(N,N)\nT(2:3,2:3) = U(1:2,3:4)\n", &[("U", coord)]);
        let t = r.array_named("T");
        assert_eq!(t.get(&[2, 2]), coord(&[1, 3]));
        assert_eq!(t.get(&[3, 3]), coord(&[2, 4]));
        assert_eq!(t.get(&[1, 1]), 0.0, "outside the section untouched");
    }

    #[test]
    fn rhs_evaluated_before_assignment() {
        // In-place shift: every element must see the ORIGINAL values.
        let r = run_src(
            "PARAM N = 4\nREAL U(N)\nU = CSHIFT(U, SHIFT=1, DIM=1)\n",
            &[("U", |p| p[0] as f64)],
        );
        let u = r.array_named("U");
        assert_eq!(u.get(&[1]), 2.0);
        assert_eq!(u.get(&[4]), 1.0, "wrap uses the pre-assignment value");
    }

    #[test]
    fn scalar_broadcast_and_arithmetic() {
        let r = run_src(
            "PARAM N = 4\nREAL U(N), T(N)\nREAL C = 2.0\nT = C * U + 1 - U / 2\n",
            &[("U", |p| p[0] as f64)],
        );
        let t = r.array_named("T");
        for i in 1..=4i64 {
            assert_eq!(t.get(&[i]), 2.0 * i as f64 + 1.0 - i as f64 / 2.0);
        }
    }

    #[test]
    fn five_point_stencil_values() {
        let r = run_src(
            r#"
PARAM N = 4
REAL SRC(N,N), DST(N,N)
DST(2:N-1,2:N-1) = SRC(1:N-2,2:N-1) + SRC(2:N-1,1:N-2) &
                 + SRC(2:N-1,2:N-1) + SRC(3:N,2:N-1) + SRC(2:N-1,3:N)
"#,
            &[("SRC", coord)],
        );
        let d = r.array_named("DST");
        // DST(2,2) = SRC(1,2)+SRC(2,1)+SRC(2,2)+SRC(3,2)+SRC(2,3).
        assert_eq!(d.get(&[2, 2]), 102.0 + 201.0 + 202.0 + 302.0 + 203.0);
        assert_eq!(d.get(&[1, 1]), 0.0);
    }

    #[test]
    fn do_loop_repeats() {
        let r =
            run_src("PARAM N = 4\nREAL U(N)\nDO 3 TIMES\nU = U + 1\nENDDO\n", &[("U", |_| 0.0)]);
        assert_eq!(r.array_named("U").get(&[2]), 3.0);
    }

    #[test]
    fn nested_shift_composes() {
        let r = run_src(
            "PARAM N = 5\nREAL U(N), T(N)\nT = CSHIFT(CSHIFT(U, 2, 1), -1, 1)\n",
            &[("U", |p| p[0] as f64)],
        );
        // Net shift +1.
        let t = r.array_named("T");
        assert_eq!(t.get(&[1]), 2.0);
        assert_eq!(t.get(&[5]), 1.0);
    }
}
