//! Frozen inputs: the nine kernel texts under `kernels/`, a seeded program
//! generator, and seeded array initialisers.
//!
//! Everything here is owned by the benchmark. `hpf_core::presets` and the
//! `hpf-bench` fuzz generator are deliberately not used: a later change to
//! either would silently change the workloads.

use std::sync::Arc;

/// splitmix64: the benchmark's own PRNG, so the inputs do not depend on
/// the workspace's `rand` shim.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n` small; modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An array initialiser: a function of the 1-based global coordinates.
pub type Init = Arc<dyn Fn(&[i64]) -> f64 + Send + Sync>;

/// Seeded initial values in `[0.5, 1.5)` (`[-0.5, 0.5)` for a mask array
/// named `M`, so `WHERE (M > 0)` takes both branches). Values are a hash of
/// (seed, array name, coordinates): the same seed gives the same data on
/// every grid shape, and the machine and the oracle see identical inputs.
pub fn init_for(seed: u64, array: &str) -> Init {
    let salt = array.bytes().fold(seed ^ 0xA076_1D64_78BD_642F, |h, b| mix(h ^ b as u64));
    let centre = if array == "M" { 0.0 } else { 1.0 };
    Arc::new(move |p: &[i64]| {
        let mut h = salt;
        for &c in p {
            h = mix(h ^ c as u64);
        }
        centre - 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
    })
}

/// One input program of a workload.
#[derive(Clone)]
pub struct Program {
    pub name: String,
    /// The only thing the compiler under test ever receives.
    pub source: String,
    /// Arrays initialised before the first step.
    pub inputs: Vec<String>,
    /// Arrays compared with the oracle after the check steps.
    pub outputs: Vec<String>,
    /// Rank of the arrays (and so of the PE grid the program needs).
    pub rank: usize,
    /// Points of one array (the unit of "point-updates").
    pub points: u64,
    /// Logical sweeps one run of the program text performs (`DO k TIMES`).
    pub sweeps: usize,
}

struct Frozen {
    name: &'static str,
    text: &'static str,
    rank: usize,
    inputs: &'static [&'static str],
    outputs: &'static [&'static str],
    sweeps: usize,
}

const FROZEN: [Frozen; 9] = [
    Frozen {
        name: "problem9",
        text: include_str!("../kernels/problem9.f90"),
        rank: 2,
        inputs: &["U"],
        outputs: &["T"],
        sweeps: 1,
    },
    Frozen {
        name: "five_point",
        text: include_str!("../kernels/five_point.f90"),
        rank: 2,
        inputs: &["SRC"],
        outputs: &["DST"],
        sweeps: 1,
    },
    Frozen {
        name: "nine_point_cshift",
        text: include_str!("../kernels/nine_point_cshift.f90"),
        rank: 2,
        inputs: &["SRC"],
        outputs: &["DST"],
        sweeps: 1,
    },
    Frozen {
        name: "nine_point_array",
        text: include_str!("../kernels/nine_point_array.f90"),
        rank: 2,
        inputs: &["SRC"],
        outputs: &["DST"],
        sweeps: 1,
    },
    Frozen {
        name: "jacobi",
        text: include_str!("../kernels/jacobi.f90"),
        rank: 2,
        inputs: &["U"],
        outputs: &["U", "T"],
        sweeps: 2,
    },
    Frozen {
        name: "wave2d",
        text: include_str!("../kernels/wave2d.f90"),
        rank: 2,
        inputs: &["U", "UPREV"],
        outputs: &["U", "UPREV"],
        sweeps: 1,
    },
    Frozen {
        name: "image_blur",
        text: include_str!("../kernels/image_blur.f90"),
        rank: 2,
        inputs: &["IMG"],
        outputs: &["IMG", "OUT"],
        sweeps: 1,
    },
    Frozen {
        name: "masked",
        text: include_str!("../kernels/masked.f90"),
        rank: 2,
        inputs: &["U", "M"],
        outputs: &["U", "T"],
        sweeps: 1,
    },
    Frozen {
        name: "heat3d",
        text: include_str!("../kernels/heat3d.f90"),
        rank: 3,
        inputs: &["U"],
        outputs: &["U", "T"],
        sweeps: 1,
    },
];

/// A frozen kernel at problem size `n`. The files are stored at `N = 64`;
/// only the `PARAM N` line is rewritten.
pub fn frozen(name: &str, n: usize) -> Program {
    let f = FROZEN.iter().find(|f| f.name == name).expect("a frozen kernel name");
    assert!(f.text.contains("PARAM N = 64\n"), "{name}: frozen text lost its PARAM line");
    Program {
        name: name.to_string(),
        source: f.text.replacen("PARAM N = 64\n", &format!("PARAM N = {n}\n"), 1),
        inputs: f.inputs.iter().map(|s| s.to_string()).collect(),
        outputs: f.outputs.iter().map(|s| s.to_string()).collect(),
        rank: f.rank,
        points: (n as u64).pow(f.rank as u32),
        sweeps: f.sweeps,
    }
}

const DSTS: [&str; 4] = ["A", "B", "C", "D"];

/// Generated program `index` of the zoo at size `n`.
///
/// The *shape* of the program is a function of `index` alone — statement
/// count (3–16), terms per statement (2–4), shift-chain length per term
/// (0–3), which terms use `EOSHIFT`, which statements are `WHERE`-masked,
/// and whether the body sits in a `DO 2 TIMES` loop — so the amount of work
/// the compiler and the VM get is the same for every seed and the timings
/// of two seeds are comparable. The seed picks everything else: operand
/// arrays, shift directions and dimensions, boundary values, coefficients,
/// mask operators and thresholds.
///
/// Every statement is a convex combination of its operands (positive
/// sixteenths summing to one), so repeated stepping neither overflows nor
/// decays into denormals and the steady-state timing is of ordinary values.
pub fn generated(index: usize, n: usize, seed: u64) -> Program {
    let mut rng = SplitMix64::new(mix(seed) ^ (index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let nstmts = 3 + index % 14;
    let looped = index % 4 == 3;
    let mut assigned: Vec<&str> = Vec::new();
    let mut body = String::new();
    for j in 0..nstmts {
        let dst = DSTS[(index + j) % DSTS.len()];
        let nterms = 2 + (index + j) % 3;
        // Split 16 sixteenths over the terms, each at least one.
        let mut weights = vec![1u32; nterms];
        for _ in 0..16 - nterms {
            weights[rng.below(nterms)] += 1;
        }
        let mut rhs = String::new();
        for (t, w) in weights.iter().enumerate() {
            let mut pool: Vec<&str> = vec!["U", "V"];
            pool.extend(assigned.iter().copied());
            let mut operand = pool[rng.below(pool.len())].to_string();
            let chain = (index + j + t) % 4;
            let endoff = (index + 2 * j + t).is_multiple_of(5);
            for _ in 0..chain {
                let amount = if rng.below(2) == 0 { "+1" } else { "-1" };
                let dim = 1 + rng.below(2);
                operand = if endoff {
                    let boundary = rng.below(5) as f64 * 0.25;
                    format!("EOSHIFT({operand},{amount},{dim},BOUNDARY={boundary})")
                } else {
                    format!("CSHIFT({operand},{amount},{dim})")
                };
            }
            if t > 0 {
                rhs.push_str(" &\n    + ");
            }
            rhs.push_str(&format!("{} * {operand}", *w as f64 / 16.0));
        }
        if (index * 7 + j).is_multiple_of(6) {
            let op = [">", "<", ">=", "<="][rng.below(4)];
            let src = ["U", "V"][rng.below(2)];
            let threshold = 0.75 + rng.below(3) as f64 * 0.25;
            body.push_str(&format!("WHERE ({src} {op} {threshold}) {dst} = {rhs}\n"));
        } else {
            body.push_str(&format!("{dst} = {rhs}\n"));
        }
        if !assigned.contains(&dst) {
            assigned.push(dst);
        }
    }
    let mut source = format!("PROGRAM zoo{index}\nPARAM N = {n}\nREAL U(N,N), V(N,N)");
    for d in &assigned {
        source.push_str(&format!(", {d}(N,N)"));
    }
    source.push('\n');
    for a in ["U", "V"].iter().chain(&assigned) {
        source.push_str(&format!("!HPF$ DISTRIBUTE {a}(BLOCK,BLOCK)\n"));
    }
    if looped {
        source.push_str(&format!("DO 2 TIMES\n{body}ENDDO\n"));
    } else {
        source.push_str(&body);
    }
    source.push_str("END\n");
    Program {
        name: format!("zoo{index}"),
        source,
        inputs: vec!["U".to_string(), "V".to_string()],
        outputs: assigned.iter().map(|s| s.to_string()).collect(),
        rank: 2,
        points: (n * n) as u64,
        sweeps: if looped { 2 } else { 1 },
    }
}

/// The zoo: the nine frozen kernels first (`heat3d` at edge `n3`), then
/// `generated` programs up to `count` in total.
pub fn zoo(count: usize, n: usize, n3: usize, seed: u64) -> Vec<Program> {
    let mut out: Vec<Program> = FROZEN
        .iter()
        .map(|f| frozen(f.name, if f.rank == 3 { n3 } else { n }))
        .take(count)
        .collect();
    for i in 0..count.saturating_sub(out.len()) {
        out.push(generated(i, n, seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        assert_eq!(generated(5, 16, 1).source, generated(5, 16, 1).source);
        assert_ne!(generated(5, 16, 1).source, generated(5, 16, 2).source);
    }

    #[test]
    fn program_shape_does_not_depend_on_the_seed() {
        for i in 0..55 {
            let (a, b) = (generated(i, 16, 1), generated(i, 16, 99));
            assert_eq!(a.source.lines().count(), b.source.lines().count(), "zoo{i}");
            assert_eq!(a.source.matches("SHIFT(").count(), b.source.matches("SHIFT(").count());
            assert_eq!(a.source.matches("WHERE").count(), b.source.matches("WHERE").count());
        }
    }

    #[test]
    fn init_values_stay_in_range() {
        let (u, m) = (init_for(7, "U"), init_for(7, "M"));
        for i in 1..50 {
            let (a, b) = (u(&[i, 3]), m(&[i, 3]));
            assert!((0.5..1.5).contains(&a) && (-0.5..0.5).contains(&b));
        }
    }
}
