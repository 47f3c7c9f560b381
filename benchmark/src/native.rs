//! Hand-written floor: plain Rust sweeps over a ghost-ringed `Vec<f64>`,
//! in the oracle's summation order so the results are bitwise equal.
//!
//! `bench.native_ns_per_pt` and the base of `codegen.bytecode_over_native`
//! come from [`nine_point_step`]; both sweeps are checked against
//! `Kernel::oracle()` at start-up of every run.

/// An `n × n` field with one ghost layer per side, row-major, the second
/// index contiguous (the layout `Plan::gather` returns, plus the ring).
pub struct Field {
    n: usize,
    data: Vec<f64>,
}

impl Field {
    pub fn new(n: usize, f: impl Fn(&[i64]) -> f64) -> Field {
        let w = n + 2;
        let mut data = vec![0.0; w * w];
        for i in 1..=n {
            for j in 1..=n {
                data[i * w + j] = f(&[i as i64, j as i64]);
            }
        }
        Field { n, data }
    }

    /// Fill the ghost ring circularly (what the four overlap shifts with
    /// corner pickup achieve on the machine).
    fn wrap(&mut self) {
        let (n, w) = (self.n, self.n + 2);
        for i in 1..=n {
            self.data[i * w] = self.data[i * w + n];
            self.data[i * w + n + 1] = self.data[i * w + 1];
        }
        for j in 0..w {
            self.data[j] = self.data[n * w + j];
            self.data[(n + 1) * w + j] = self.data[w + j];
        }
    }

    /// The owned points as a dense row-major buffer.
    pub fn dense(&self) -> Vec<f64> {
        let w = self.n + 2;
        (1..=self.n)
            .flat_map(|i| self.data[i * w + 1..i * w + 1 + self.n].iter().copied())
            .collect()
    }
}

/// One sweep of Problem 9: `T = U + RIP + RIN`, then the six accumulations
/// in source order, with `RIP(i,j) = U(i+1,j)` and `RIN(i,j) = U(i-1,j)`.
pub fn nine_point_step(u: &mut Field, t: &mut Field) {
    u.wrap();
    let (n, w) = (u.n, u.n + 2);
    for i in 1..=n {
        let up = &u.data[(i - 1) * w..i * w];
        let mid = &u.data[i * w..(i + 1) * w];
        let down = &u.data[(i + 1) * w..(i + 2) * w];
        let out = &mut t.data[i * w..(i + 1) * w];
        for j in 1..=n {
            let mut s = mid[j] + down[j] + up[j];
            s += mid[j - 1];
            s += mid[j + 1];
            s += down[j - 1];
            s += down[j + 1];
            s += up[j - 1];
            s += up[j + 1];
            out[j] = s;
        }
    }
}

/// One sweep of the frozen five-point kernel: interior points only.
pub fn five_point_step(src: &Field, dst: &mut Field) {
    const C: [f64; 5] = [0.15, 0.2, 0.3, 0.2, 0.15];
    let (n, w) = (src.n, src.n + 2);
    for i in 2..n {
        let up = &src.data[(i - 1) * w..i * w];
        let mid = &src.data[i * w..(i + 1) * w];
        let down = &src.data[(i + 1) * w..(i + 2) * w];
        let out = &mut dst.data[i * w..(i + 1) * w];
        for j in 2..n {
            out[j] = C[0] * up[j]
                + C[1] * mid[j - 1]
                + C[2] * mid[j]
                + C[3] * down[j]
                + C[4] * mid[j + 1];
        }
    }
}
