//! Frontend robustness: the lexer and parser must never panic — any input,
//! however mangled, produces either a parse or a located error. Plus
//! machine-level shift semantics on randomized geometries.

use hpf_stencil::frontend;
use hpf_stencil::ir::{ArrayDecl, ArrayId, Distribution, Section, Shape, ShiftKind};
use hpf_stencil::runtime::schedule::{cshift_plan, overlap_shift_plan, CommAction};
use hpf_stencil::runtime::{Machine, MachineConfig, MoveKind};
use proptest::prelude::*;

/// Move data by a shift's communication plan the way a plan step does:
/// compiled into a schedule, then applied.
fn apply(m: &mut Machine, dst: ArrayId, src: ArrayId, plan: Vec<CommAction>, kind: MoveKind) {
    let sched = m.compile_comm(dst, src, plan, kind);
    m.apply_compiled(&sched);
}

/// Fortran 90 arrays have at most seven dimensions: an eighth is refused
/// with an error at the declaration, not carried into the compiler.
#[test]
fn an_array_of_rank_eight_is_refused_at_its_declaration() {
    let decl = |rank: usize| {
        let dims = vec!["2"; rank].join(",");
        format!("PROGRAM r\nREAL A({dims}), B({dims})\nA = CSHIFT(B,1,1)\nEND\n")
    };
    frontend::compile_source(&decl(7)).expect("rank 7 is legal");
    let err = frontend::compile_source(&decl(8)).unwrap_err();
    assert_eq!((err.span.line, err.span.col), (2, 6), "the span names A: {err}");
    assert!(err.to_string().contains("at most 7 dimensions"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary printable garbage never panics the frontend.
    #[test]
    fn frontend_never_panics_on_garbage(src in "[ -~\n]{0,200}") {
        let _ = frontend::compile_source(&src);
    }

    /// Mutations of a valid program never panic: truncations and splices.
    #[test]
    fn frontend_never_panics_on_mutations(
        cut in 0usize..400,
        splice in "[A-Z0-9 ()=+*,:<>/&!-]{0,30}",
        pos in 0usize..400,
    ) {
        let base = hpf_stencil::presets::problem9(16);
        let mut s: String = base.chars().take(cut.min(base.len())).collect();
        let pos = pos.min(s.len());
        // Splice at a char boundary (ASCII source, always aligned).
        s.insert_str(pos, &splice);
        let _ = frontend::compile_source(&s);
    }

    /// Full CSHIFT on a random 1-D geometry matches the modular formula for
    /// every element — arbitrary extents, processor counts (including empty
    /// trailing blocks), and shift amounts.
    #[test]
    fn cshift_matches_formula_on_random_geometry(
        n in 2usize..24,
        p in 1usize..6,
        shift in -30i64..30,
        endoff in any::<bool>(),
    ) {
        const U: ArrayId = ArrayId(0);
        const T: ArrayId = ArrayId(1);
        let mut m = Machine::new(MachineConfig::with_grid([p]));
        for (id, name) in [(U, "U"), (T, "T")] {
            m.alloc(id, &ArrayDecl::user(name, Shape::new([n]), Distribution::block(1)))
                .unwrap();
        }
        m.fill(U, |q| q[0] as f64);
        let kind = if endoff { ShiftKind::EndOff(-99.0) } else { ShiftKind::Circular };
        let plan = cshift_plan(&m.meta(U).geom.clone(), shift, 0, kind);
        apply(&mut m, T, U, plan, MoveKind::FullShift);
        for i in 1..=n as i64 {
            let j = i + shift;
            let want = match kind {
                ShiftKind::Circular => ((j - 1).rem_euclid(n as i64) + 1) as f64,
                ShiftKind::EndOff(b) => {
                    if j >= 1 && j <= n as i64 { j as f64 } else { b }
                }
            };
            prop_assert_eq!(m.get(T, &[i]), want, "n={} p={} s={} i={}", n, p, shift, i);
        }
    }

    /// Overlap shifts on random 2-D geometries fill ghost cells with exactly
    /// the circular neighbours' values.
    #[test]
    fn overlap_shift_ghosts_match_wrap(
        n in 4usize..20,
        p0 in 1usize..4,
        p1 in 1usize..4,
        dir in any::<bool>(),
        dim in 0usize..2,
    ) {
        const U: ArrayId = ArrayId(0);
        let mut m = Machine::new(MachineConfig::with_grid([p0, p1]));
        m.alloc(U, &ArrayDecl::user("U", Shape::new([n, n]), Distribution::block(2)))
            .unwrap();
        // Shifts through overlap areas need a block extent of at least 1 on
        // every non-empty PE; that always holds for BLOCK.
        m.fill(U, |q| (q[0] * 1000 + q[1]) as f64);
        let s: i64 = if dir { 1 } else { -1 };
        let geom = m.meta(U).geom;
        let plan = overlap_shift_plan(&geom, s, dim, None, ShiftKind::Circular, 1).unwrap();
        apply(&mut m, U, U, plan, MoveKind::Overlap);
        // Check every PE's freshly filled ghost layer against the wrapped
        // global values.
        for pe in 0..m.num_pes() {
            let meta = m.meta(U).geom;
            let owned = Section::new(meta.owned(pe));
            if owned.is_empty() {
                continue;
            }
            let sub = m.pes[pe].subgrid(U).clone();
            let (lo, hi) = owned.dim(dim);
            let ghost_row = if s > 0 { hi + 1 } else { lo - 1 };
            let (olo2, ohi2) = owned.dim(1 - dim);
            for other in olo2..=ohi2 {
                let mut gpt = [0i64; 2];
                gpt[dim] = ghost_row;
                gpt[1 - dim] = other;
                let local = sub.to_local(&gpt);
                let got = sub.get(&local);
                let mut src = gpt;
                src[dim] = (ghost_row - 1).rem_euclid(n as i64) + 1;
                let want = (src[0] * 1000 + src[1]) as f64;
                prop_assert_eq!(got, want, "pe={} dim={} s={} at {:?}", pe, dim, s, gpt);
            }
        }
    }
}
