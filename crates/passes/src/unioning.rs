//! Communication unioning (paper §3.3).
//!
//! Within each maximal run of adjacent communication statements (which
//! context partitioning has made maximal), the overlap shifts of each base
//! array are reduced to at most one `OVERLAP_SHIFT` per direction per
//! dimension:
//!
//! * shifts commute, so multi-offset chains are canonicalized with lower
//!   dimensions shifted first;
//! * a shift of amount `j` subsumes a shift of amount `i` in the same
//!   dimension and direction when `|j| ≥ |i|`;
//! * multi-offset ("corner") requirements are satisfied by attaching an RSD
//!   that widens the transferred section into the overlap areas of lower
//!   dimensions, which earlier shifts have already filled — the paper's
//!   Figure 6/15.
//!
//! The requirement set is derived from the shifts themselves: every overlap
//! shift with source annotation `o` and shift `k` along `d` demands the
//! ghost data at total offset `o + k·e_d`. Emitting, per dimension in
//! ascending order and per direction, one shift of the maximal amount with
//! the union of the lower-dimension extensions provably covers every
//! requirement (tested by the coverage property test in `hpf-exec`).

use hpf_ir::{ArrayId, Offsets, Program, Rsd, ShiftKind, Stmt};

/// Statistics reported by the pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnioningStats {
    /// Overlap shifts before unioning.
    pub before: usize,
    /// Overlap shifts after unioning.
    pub after: usize,
    /// Emitted shifts carrying a non-trivial RSD.
    pub with_rsd: usize,
}

/// Key for grouping shifts that may legally union: same base array and same
/// shift semantics (end-off boundary values must match bit-for-bit).
#[derive(Clone, PartialEq, Debug)]
struct GroupKey {
    array: ArrayId,
    kind: ShiftKind,
}

/// Post-conditions of communication unioning, checked by the pipeline when
/// `CompileOptions::check_invariants` is set: structural validity, halo
/// safety (subsumption must not drop a fill any read depends on — the static
/// twin of the halo-poisoning property test), and minimality (no emitted
/// run still contains a subsumed shift, CU001).
pub fn post_conditions() -> &'static [hpf_analysis::Check] {
    use hpf_analysis::Check;
    &[Check::Validate, Check::HaloSafe, Check::NoSubsumedShifts]
}

/// Run communication unioning over every basic block.
pub fn run(program: &mut Program) -> UnioningStats {
    let mut stats = UnioningStats::default();
    program.for_each_block_mut(&mut |block, symbols| {
        let mut out: Vec<Stmt> = Vec::with_capacity(block.len());
        let mut run_buf: Vec<Stmt> = Vec::new();
        for s in block.drain(..) {
            if s.is_comm() {
                run_buf.push(s);
            } else {
                flush(&mut run_buf, &mut out, symbols, &mut stats);
                out.push(s);
            }
        }
        flush(&mut run_buf, &mut out, symbols, &mut stats);
        *block = out;
    });
    stats
}

fn flush(
    run_buf: &mut Vec<Stmt>,
    out: &mut Vec<Stmt>,
    symbols: &hpf_ir::SymbolTable,
    stats: &mut UnioningStats,
) {
    if run_buf.is_empty() {
        return;
    }
    // Full shifts (not converted to overlap form) pass through untouched, in
    // their original relative order, ahead of the unioned overlap shifts.
    let mut groups: Vec<(GroupKey, Vec<Offsets>)> = Vec::new();
    for s in run_buf.drain(..) {
        match s {
            Stmt::OverlapShift { array, src_offsets, shift, dim, kind, .. } => {
                stats.before += 1;
                let total = src_offsets.compose(&Offsets::unit(src_offsets.rank(), dim, shift));
                let key = GroupKey { array, kind };
                if let Some((_, v)) = groups.iter_mut().find(|(k, _)| *k == key) {
                    v.push(total);
                } else {
                    groups.push((key, vec![total]));
                }
            }
            other => out.push(other),
        }
    }
    for (key, requirements) in groups {
        let rank = symbols.array(key.array).rank();
        for stmt in emit_minimal_shifts(key.array, key.kind, rank, &requirements) {
            if let Stmt::OverlapShift { rsd: Some(r), .. } = &stmt {
                if !r.is_trivial() {
                    stats.with_rsd += 1;
                }
            }
            stats.after += 1;
            out.push(stmt);
        }
    }
}

/// Emit the minimal overlap-shift set covering a requirement set of total
/// offset vectors: per dimension (ascending) and direction, one shift of the
/// maximal amount, with an RSD unioning the lower-dimension extensions of
/// every requirement active in that direction.
pub fn emit_minimal_shifts(
    array: ArrayId,
    kind: ShiftKind,
    rank: usize,
    requirements: &[Offsets],
) -> Vec<Stmt> {
    let mut out = Vec::new();
    for d in 0..rank {
        for dir in [1i64, -1] {
            // Largest requirement magnitude along d in this direction.
            let amt = requirements
                .iter()
                .map(|v| {
                    let c = v.dim(d);
                    if c.signum() == dir {
                        c.abs()
                    } else {
                        0
                    }
                })
                .max()
                .unwrap_or(0);
            if amt == 0 {
                continue;
            }
            // RSD: lower dimensions must ride along for corner requirements.
            let mut rsd = Rsd::none(rank);
            for v in requirements {
                if v.dim(d).signum() != dir {
                    continue;
                }
                for e in 0..d {
                    rsd.extend(e, v.dim(e));
                }
            }
            let rsd = if rsd.is_trivial() { None } else { Some(rsd) };
            out.push(Stmt::OverlapShift {
                array,
                src_offsets: Offsets::zero(rank),
                shift: dir * amt,
                dim: d,
                rsd,
                kind,
            });
        }
    }
    out
}

/// The set of ghost offsets guaranteed available after executing a sequence
/// of overlap shifts in order — used by tests to prove coverage. Returns
/// true when every requirement vector is covered.
pub fn covers(shifts: &[Stmt], requirements: &[Offsets]) -> bool {
    requirements.iter().all(|req| covered_one(shifts, req))
}

fn covered_one(shifts: &[Stmt], req: &Offsets) -> bool {
    // A requirement v is covered if for every non-zero component v_d there
    // is a shift along d, direction sign(v_d), amount ≥ |v_d|, whose RSD (or
    // trivially, for v with a single non-zero component) extends over every
    // other non-zero component of v in lower dims, and components in higher
    // dims are zero… Rather than replicate the emission logic, walk the
    // shifts in order and track which offset vectors are materialized.
    let rank = req.rank();
    let mut have: Vec<Offsets> = vec![Offsets::zero(rank)];
    for s in shifts {
        if let Stmt::OverlapShift { shift, dim, rsd, .. } = s {
            let mut new: Vec<Offsets> = Vec::new();
            for base in &have {
                // The shift moves data whose other-dimension coordinates lie
                // within the RSD extension; `base` qualifies when every
                // non-shift component fits the RSD.
                let fits = (0..rank).all(|e| {
                    if e == *dim {
                        base.dim(e) == 0
                    } else {
                        let c = base.dim(e);
                        match rsd {
                            None => c == 0,
                            Some(r) => (-(r.ext[e].0 as i64)..=(r.ext[e].1 as i64)).contains(&c),
                        }
                    }
                });
                if fits {
                    for k in 1..=shift.abs() {
                        let mut v = *base;
                        v.0[*dim] = shift.signum() * k;
                        new.push(v);
                    }
                }
            }
            for v in new {
                if !have.contains(&v) {
                    have.push(v);
                }
            }
        }
    }
    have.contains(req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::{offset, partition};
    use hpf_frontend::compile_source;
    use hpf_ir::pretty;

    fn pipeline_to_unioning(src: &str, halo: i64) -> (Program, UnioningStats) {
        let checked = compile_source(src).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, halo);
        partition::run(&mut p);
        let stats = run(&mut p);
        hpf_ir::validate::validate(&p, halo).unwrap();
        (p, stats)
    }

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

    /// The paper's Figure 14 → Figure 15 transformation: 8 overlap shifts
    /// reduce to 4, the two dim-2 shifts carrying RSDs.
    #[test]
    fn problem9_eight_shifts_become_four() {
        let (p, stats) = pipeline_to_unioning(PROBLEM9, 1);
        assert_eq!(stats.before, 8);
        assert_eq!(stats.after, 4);
        assert_eq!(stats.with_rsd, 2);
        let printed = pretty::program(&p);
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U,SHIFT=+1,DIM=1)"), "{printed}");
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U,SHIFT=-1,DIM=1)"), "{printed}");
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U,SHIFT=-1,DIM=2,[1-1:n+1,*])"), "{printed}");
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U,SHIFT=+1,DIM=2,[1-1:n+1,*])"), "{printed}");
    }

    /// The single-statement 9-point CSHIFT stencil (Figure 2) reaches the
    /// same 4 shifts — the generality claim of §5.
    #[test]
    fn nine_point_single_statement_same_result() {
        let src = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
REAL C1=1, C2=2, C3=3, C4=4, C5=5, C6=6, C7=7, C8=8, C9=9
DST = C1 * CSHIFT(CSHIFT(SRC,-1,1),-1,2) + C2 * CSHIFT(SRC,-1,1) &
    + C3 * CSHIFT(CSHIFT(SRC,-1,1),+1,2) + C4 * CSHIFT(SRC,-1,2) &
    + C5 * SRC + C6 * CSHIFT(SRC,+1,2) &
    + C7 * CSHIFT(CSHIFT(SRC,+1,1),-1,2) + C8 * CSHIFT(SRC,+1,1) &
    + C9 * CSHIFT(CSHIFT(SRC,+1,1),+1,2)
"#;
        let (_, stats) = pipeline_to_unioning(src, 1);
        assert_eq!(stats.before, 12);
        assert_eq!(stats.after, 4);
        assert_eq!(stats.with_rsd, 2);
    }

    /// Array-syntax 9-point stencil: same minimal communication again.
    #[test]
    fn nine_point_array_syntax_same_result() {
        let src = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
DST(2:N-1,2:N-1) = SRC(1:N-2,1:N-2) + SRC(1:N-2,2:N-1) + SRC(1:N-2,3:N) &
                 + SRC(2:N-1,1:N-2) + SRC(2:N-1,2:N-1) + SRC(2:N-1,3:N) &
                 + SRC(3:N,1:N-2) + SRC(3:N,2:N-1) + SRC(3:N,3:N)
"#;
        let (_, stats) = pipeline_to_unioning(src, 1);
        assert_eq!(stats.after, 4);
        assert_eq!(stats.with_rsd, 2);
    }

    #[test]
    fn subsumption_keeps_largest_amount() {
        let src = r#"
PARAM N = 16
REAL A(N,N), B(N,N)
B = CSHIFT(A,1,1) + CSHIFT(CSHIFT(A,1,1),1,1)
"#;
        let (p, stats) = pipeline_to_unioning(src, 2);
        assert_eq!(stats.after, 1, "{}", pretty::program(&p));
        let mut amt = 0;
        p.for_each_stmt(&mut |s| {
            if let Stmt::OverlapShift { shift, .. } = s {
                amt = *shift;
            }
        });
        assert_eq!(amt, 2, "amount 2 subsumes amount 1");
    }

    #[test]
    fn five_point_needs_four_shifts_no_rsd() {
        let src = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
DST(2:N-1,2:N-1) = SRC(1:N-2,2:N-1) + SRC(2:N-1,1:N-2) &
                 + SRC(2:N-1,2:N-1) + SRC(3:N,2:N-1) + SRC(2:N-1,3:N)
"#;
        let (_, stats) = pipeline_to_unioning(src, 1);
        assert_eq!(stats.after, 4);
        assert_eq!(stats.with_rsd, 0, "no corners in a 5-point stencil");
    }

    #[test]
    fn different_kinds_do_not_union() {
        // Different dimensions, so both shifts convert to overlap form (no
        // ghost-claim conflict), but their kinds keep them in separate
        // unioning groups.
        let src = r#"
PARAM N = 8
REAL A(N,N), B(N,N)
B = CSHIFT(A,1,1) + EOSHIFT(A,1,2) + A
"#;
        let (_, stats) = pipeline_to_unioning(src, 1);
        assert_eq!(stats.before, 2);
        assert_eq!(stats.after, 2, "circular and end-off must stay separate");
    }

    #[test]
    fn conflicting_kinds_on_same_ghost_region_block_conversion() {
        // CSHIFT and EOSHIFT along the same dimension and direction would
        // fill the same overlap area with different values; the offset pass
        // refuses the second conversion (kept as a full shift).
        let src = r#"
PARAM N = 8
REAL A(N,N), B(N,N)
B = CSHIFT(A,1,1) + EOSHIFT(A,1,1) + A
"#;
        let checked = hpf_frontend::compile_source(src).unwrap();
        let (mut p, _) = crate::normalize::normalize(&checked, crate::normalize::TempPolicy::Reuse);
        let stats = crate::offset::run(&mut p, 1);
        assert_eq!(stats.converted, 1);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn different_arrays_do_not_union() {
        let src = r#"
PARAM N = 8
REAL A(N,N), B(N,N), C(N,N)
C = CSHIFT(A,1,1) + CSHIFT(B,1,1)
"#;
        let (_, stats) = pipeline_to_unioning(src, 1);
        assert_eq!(stats.after, 2);
    }

    #[test]
    fn emitted_shifts_cover_requirements() {
        // All 8 neighbour offsets of a 9-point stencil.
        let reqs: Vec<Offsets> =
            [[-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0], [1, 1]]
                .iter()
                .map(|v| Offsets::new(v.to_vec()))
                .collect();
        let shifts = emit_minimal_shifts(ArrayId(0), ShiftKind::Circular, 2, &reqs);
        assert_eq!(shifts.len(), 4);
        assert!(covers(&shifts, &reqs));
    }

    #[test]
    fn coverage_fails_without_rsd() {
        // Corner requirement but shifts lack RSDs: not covered.
        let reqs = vec![Offsets::new([1, 1])];
        let shifts = vec![
            Stmt::OverlapShift {
                array: ArrayId(0),
                src_offsets: Offsets::zero(2),
                shift: 1,
                dim: 0,
                rsd: None,
                kind: ShiftKind::Circular,
            },
            Stmt::OverlapShift {
                array: ArrayId(0),
                src_offsets: Offsets::zero(2),
                shift: 1,
                dim: 1,
                rsd: None,
                kind: ShiftKind::Circular,
            },
        ];
        assert!(!covers(&shifts, &reqs));
        // With the RSD it is covered.
        let mut rsd = Rsd::none(2);
        rsd.extend(0, 1);
        let shifts2 = vec![
            shifts[0].clone(),
            Stmt::OverlapShift {
                array: ArrayId(0),
                src_offsets: Offsets::zero(2),
                shift: 1,
                dim: 1,
                rsd: Some(rsd),
                kind: ShiftKind::Circular,
            },
        ];
        assert!(covers(&shifts2, &reqs));
    }

    #[test]
    fn asymmetric_amounts_per_direction() {
        let reqs = vec![Offsets::new([2, 0]), Offsets::new([-1, 0])];
        let shifts = emit_minimal_shifts(ArrayId(0), ShiftKind::Circular, 2, &reqs);
        assert_eq!(shifts.len(), 2);
        let amounts: Vec<i64> = shifts
            .iter()
            .map(|s| match s {
                Stmt::OverlapShift { shift, .. } => *shift,
                _ => unreachable!(),
            })
            .collect();
        assert!(amounts.contains(&2));
        assert!(amounts.contains(&-1));
        assert!(covers(&shifts, &reqs));
    }

    #[test]
    fn three_dimensional_corners() {
        // A 3-D diagonal requirement exercises cascading RSDs.
        let reqs = vec![Offsets::new([1, 1, 1])];
        let shifts = emit_minimal_shifts(ArrayId(0), ShiftKind::Circular, 3, &reqs);
        assert_eq!(shifts.len(), 3);
        assert!(covers(&shifts, &reqs));
        // The dim-2 shift's RSD extends both lower dims.
        match &shifts[2] {
            Stmt::OverlapShift { dim: 2, rsd: Some(r), .. } => {
                assert_eq!(r.ext[0], (0, 1));
                assert_eq!(r.ext[1], (0, 1));
            }
            other => panic!("{other:?}"),
        }
    }
}
