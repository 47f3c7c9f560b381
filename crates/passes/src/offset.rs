//! The offset-array optimization (paper §3.1).
//!
//! Eliminates the *intraprocessor* component of shift assignments by letting
//! the source and destination arrays share storage. A transformable
//! `DST = CSHIFT(SRC, SHIFT=k, DIM=d)` becomes
//! `CALL OVERLAP_SHIFT(SRC, SHIFT=k, DIM=d)` — only off-processor data
//! moves, into `SRC`'s overlap area — and every use of `DST` reached by the
//! definition is rewritten as the annotated offset reference `SRC<…,k,…>`.
//!
//! Multi-offset arrays arise when the source is itself an offset array
//! (Problem 9's `CSHIFT(RIP, …)` with `RIP ↦ U<+1,0>`): the offsets compose
//! additively and the emitted `OVERLAP_SHIFT` carries the source annotation,
//! exactly as in the paper's Figure 13.
//!
//! Safety criteria (checked per reached use on the block's def-use chains,
//! including the loop back-edge for time-loop bodies):
//!
//! * the total offset fits the machine's overlap width in every dimension;
//! * neither the base array nor the destination is destructively updated
//!   between the shift and the use;
//! * the use does not itself assign the base array (storage sharing would
//!   turn an aligned assignment into an in-place shifted one);
//! * the destination is not referenced outside the current basic block and
//!   no use is reached around the loop back-edge (conservative).
//!
//! When a shift is *not* transformable but its source has already been
//! turned into an offset array, semantics are repaired by materializing the
//! source with an inserted copy ([`hpf_ir::Stmt::Copy`]) — the paper's
//! criterion-violation repair.

use hpf_ir::defuse::{reached_uses, write_between, writes_interior, UseSite};
use hpf_ir::hash::HashMap;
use hpf_ir::{ArrayId, Offsets, OperandRef, Program, Section, ShiftKind, Stmt, SymbolTable};

/// Statistics reported by the pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OffsetStats {
    /// Shift assignments converted to `OVERLAP_SHIFT`s.
    pub converted: usize,
    /// Shift assignments left as full shifts.
    pub kept: usize,
    /// Repair copies inserted for criterion violations.
    pub copies_inserted: usize,
    /// Arrays (typically temporaries) left with no remaining references —
    /// the storage reduction of §4.2.
    pub arrays_freed: usize,
}

/// Post-conditions of the offset-array conversion, checked by the pipeline
/// when `CompileOptions::check_invariants` is set: the output is still
/// structurally valid and halo-safe — every offset read it introduced is
/// covered by the `OVERLAP_SHIFT`s it placed, within the machine's overlap
/// width (the HS001/HS002 dataflow of `hpf-analysis`).
pub fn post_conditions() -> &'static [hpf_analysis::Check] {
    use hpf_analysis::Check;
    &[Check::Validate, Check::HaloSafe]
}

/// Run the offset-array optimization over every basic block of the program.
/// `halo` is the machine's overlap width.
pub fn run(program: &mut Program, halo: i64) -> OffsetStats {
    let mut stats = OffsetStats::default();
    let live_before = program.live_arrays().len();
    // Arrays read per block are needed to detect cross-block uses; gather
    // reads for each block first.
    let block_reads = collect_block_reads(program);
    let mut block_no = 0usize;
    // Ghost-region claims: which shift kind fills each (array, dim, side)
    // overlap area. Two kinds filling the same ghost region would leave one
    // rewritten use reading the other's values, so claims are exclusive
    // program-wide (conservative but safe).
    let mut claims: HashMap<(ArrayId, usize, i8), ShiftKind> = HashMap::default();
    process_blocks(
        &mut program.body,
        &program.symbols,
        false,
        halo,
        &block_reads,
        &mut block_no,
        &mut claims,
        &mut stats,
    );
    let live_after = program.live_arrays().len();
    stats.arrays_freed = live_before.saturating_sub(live_after);
    stats
}

/// Reads (interior) per block, in pre-order block numbering (top level = 0,
/// then each time-loop body in statement order, recursively).
fn collect_block_reads(program: &Program) -> Vec<Vec<ArrayId>> {
    fn walk(block: &[Stmt], out: &mut Vec<Vec<ArrayId>>) {
        let idx = out.len();
        out.push(Vec::new());
        for s in block {
            if let Stmt::TimeLoop { body, .. } = s {
                walk(body, out);
            } else {
                s.for_each_read(&mut |r| {
                    if let hpf_ir::stmt::Resource::Interior(a) = r {
                        if !out[idx].contains(&a) {
                            out[idx].push(a);
                        }
                    }
                });
            }
        }
    }
    let mut out = Vec::new();
    walk(&program.body, &mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn process_blocks(
    block: &mut Vec<Stmt>,
    symbols: &SymbolTable,
    wrap: bool,
    halo: i64,
    block_reads: &[Vec<ArrayId>],
    block_no: &mut usize,
    claims: &mut HashMap<(ArrayId, usize, i8), ShiftKind>,
    stats: &mut OffsetStats,
) {
    let my_block = *block_no;
    // First transform this block, then recurse into nested loop bodies
    // (numbered in the order collect_block_reads assigned).
    run_block(block, symbols, wrap, halo, block_reads, my_block, claims, stats);
    for s in block.iter_mut() {
        if let Stmt::TimeLoop { body, .. } = s {
            *block_no += 1;
            process_blocks(body, symbols, true, halo, block_reads, block_no, claims, stats);
        }
    }
}

fn read_outside_block(array: ArrayId, block_reads: &[Vec<ArrayId>], my_block: usize) -> bool {
    block_reads.iter().enumerate().any(|(i, reads)| i != my_block && reads.contains(&array))
}

#[allow(clippy::too_many_arguments)]
fn run_block(
    block: &mut Vec<Stmt>,
    symbols: &SymbolTable,
    wrap: bool,
    halo: i64,
    block_reads: &[Vec<ArrayId>],
    my_block: usize,
    claims: &mut HashMap<(ArrayId, usize, i8), ShiftKind>,
    stats: &mut OffsetStats,
) {
    // alias: array -> (base array whose storage it shares, offset
    // annotation, the kind of the shifts that built the annotation)
    let mut alias: HashMap<ArrayId, (ArrayId, Offsets, ShiftKind)> = HashMap::default();
    let mut i = 0usize;
    while i < block.len() {
        match block[i] {
            Stmt::ShiftAssign { dst, src, shift, dim, kind } => {
                // Resolve the source through the alias map (multi-offset).
                let (base, off0, kind0) = alias
                    .get(&src)
                    .copied()
                    .unwrap_or_else(|| (src, Offsets::zero(symbols.array(src).rank()), kind));
                let off1 = off0.compose(&Offsets::unit(off0.rank(), dim, shift));
                let full = Section::full(&symbols.array(dst).shape);

                // Offset annotations compose additively, which matches
                // CSHIFT semantics unconditionally, but EOSHIFT truncates at
                // the boundary: `EOSHIFT(EOSHIFT(U,-1,1),+1,1)` is *not* U.
                // A multi-offset chain is therefore only valid when the
                // kinds match and, for end-off shifts, the new shift does
                // not cancel against the existing offset in its dimension.
                let composition_ok = off0.is_zero()
                    || (kind == kind0
                        && match kind {
                            ShiftKind::Circular => true,
                            ShiftKind::EndOff(_) => {
                                let prev = off0.dim(dim);
                                prev == 0 || prev.signum() == shift.signum()
                            }
                        });

                // The overlap area this shift fills must not already be
                // claimed by a shift of a different kind.
                let claim_key = (base, dim, shift.signum() as i8);
                let claim_ok = claims.get(&claim_key).is_none_or(|k| *k == kind);

                let transformable = composition_ok
                    && claim_ok
                    && off1.max_abs() <= halo
                    && dst != base
                    && !read_outside_block(dst, block_reads, my_block)
                    && uses_are_safe(block, i, dst, base, &full, wrap);

                if transformable {
                    let uses = reached_uses(block, i, dst, &full, wrap);
                    block[i] = Stmt::OverlapShift {
                        array: base,
                        src_offsets: off0,
                        shift,
                        dim,
                        rsd: None,
                        kind,
                    };
                    for u in &uses {
                        rewrite_use(&mut block[u.stmt], dst, base, &off1);
                    }
                    alias.insert(dst, (base, off1, kind));
                    claims.insert(claim_key, kind);
                    stats.converted += 1;
                } else {
                    // Not transformable. If the source was an offset array we
                    // must materialize it first (criterion-violation repair).
                    if alias.contains_key(&src) {
                        block.insert(
                            i,
                            Stmt::Copy { dst: src, src: OperandRef::offset(base, off0) },
                        );
                        alias.remove(&src);
                        stats.copies_inserted += 1;
                        i += 1; // the shift moved one slot down
                    }
                    alias.remove(&dst);
                    stats.kept += 1;
                }
            }
            ref other => {
                // Any interior write invalidates aliases that share the
                // written storage or that were the written array itself.
                other.for_each_write(&mut |w| {
                    if let hpf_ir::stmt::Resource::Interior(a) = w {
                        alias.retain(|k, (b, ..)| *k != a && *b != a);
                    }
                });
            }
        }
        i += 1;
    }
}

/// Check the §3.1 criteria for every use reached by the definition.
fn uses_are_safe(
    block: &[Stmt],
    def_idx: usize,
    dst: ArrayId,
    base: ArrayId,
    full: &Section,
    wrap: bool,
) -> bool {
    let uses = reached_uses(block, def_idx, dst, full, wrap);
    for u in &uses {
        if u.wrapped {
            // Rewriting a back-edge use changes first-iteration semantics.
            return false;
        }
        let stmt = &block[u.stmt];
        match stmt {
            Stmt::Compute { .. } | Stmt::Copy { .. } => {
                if writes_interior(stmt, base) {
                    return false;
                }
                if !rewritable(stmt, dst) {
                    return false;
                }
            }
            Stmt::ShiftAssign { .. } => {
                // Consumed by a later shift: handled through the alias map;
                // nothing to rewrite here. Still subject to the path checks
                // below.
            }
            _ => return false, // time loops, overlap shifts: bail
        }
        let site = UseSite { stmt: u.stmt, wrapped: u.wrapped };
        if write_between(block, def_idx, site, base).is_some() {
            return false;
        }
        if write_between(block, def_idx, site, dst).is_some() {
            return false;
        }
    }
    true
}

/// A use is rewritable when every reference to `dst` carries a zero offset
/// annotation (normal-form references; anything else would need offset
/// composition on the reference, which the alias map handles for shifts).
fn rewritable(stmt: &Stmt, dst: ArrayId) -> bool {
    let mut ok = true;
    match stmt {
        Stmt::Compute { rhs, .. } => {
            rhs.for_each_ref(&mut |r| {
                if r.array == dst && !r.offsets.is_zero() {
                    ok = false;
                }
            });
        }
        Stmt::Copy { src, .. } if src.array == dst && !src.offsets.is_zero() => {
            ok = false;
        }
        _ => {}
    }
    ok
}

/// Rewrite references to `dst` as offset references to `base`.
fn rewrite_use(stmt: &mut Stmt, dst: ArrayId, base: ArrayId, off: &Offsets) {
    match stmt {
        Stmt::Compute { rhs, .. } => {
            rhs.for_each_ref_mut(&mut |r| {
                if r.array == dst {
                    r.array = base;
                    r.offsets = *off;
                }
            });
        }
        Stmt::Copy { src, .. } if src.array == dst => {
            src.array = base;
            src.offsets = *off;
        }
        // Shift uses resolve through the alias map instead.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use hpf_frontend::compile_source;
    use hpf_ir::pretty;

    fn run_src(src: &str, halo: i64) -> (Program, OffsetStats) {
        let checked = compile_source(src).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        let stats = run(&mut p, halo);
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

    /// The paper's Figure 12 → Figure 13 transformation.
    #[test]
    fn problem9_all_shifts_become_overlap_shifts() {
        let (p, stats) = run_src(PROBLEM9, 1);
        assert_eq!(stats.converted, 8);
        assert_eq!(stats.kept, 0);
        assert_eq!(stats.copies_inserted, 0);
        let printed = pretty::program(&p);
        // The multi-offset shifts carry the source annotation (Figure 13).
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U<+1,0>,SHIFT=-1,DIM=2)"), "{printed}");
        assert!(printed.contains("CALL OVERLAP_CSHIFT(U<-1,0>,SHIFT=+1,DIM=2)"), "{printed}");
        // Corner references appear as composed offsets.
        assert!(printed.contains("U<+1,-1>"), "{printed}");
        assert!(printed.contains("U<-1,+1>"), "{printed}");
        // RIP / RIN / TMP are no longer referenced: storage freed (§4.2).
        assert_eq!(stats.arrays_freed, 3);
    }

    #[test]
    fn five_point_array_syntax_transforms_fully() {
        let (p, stats) = run_src(
            r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
REAL C1=1, C2=2, C3=3, C4=4, C5=5
DST(2:N-1,2:N-1) = C1 * SRC(1:N-2,2:N-1) + C2 * SRC(2:N-1,1:N-2) &
                 + C3 * SRC(2:N-1,2:N-1) + C4 * SRC(3:N,2:N-1) + C5 * SRC(2:N-1,3:N)
"#,
            1,
        );
        assert_eq!(stats.converted, 4);
        assert_eq!(p.count_stmts(|s| matches!(s, Stmt::OverlapShift { .. })), 4);
        // The compute statement reads SRC with unit offsets.
        let mut offsets_seen = Vec::new();
        p.for_each_stmt(&mut |s| {
            if let Stmt::Compute { rhs, .. } = s {
                rhs.for_each_ref(&mut |r| offsets_seen.push(r.offsets));
            }
        });
        assert!(offsets_seen.contains(&Offsets::new([-1, 0])));
        assert!(offsets_seen.contains(&Offsets::new([0, -1])));
        assert!(offsets_seen.contains(&Offsets::new([0, 0])));
        assert!(offsets_seen.contains(&Offsets::new([1, 0])));
        assert!(offsets_seen.contains(&Offsets::new([0, 1])));
    }

    #[test]
    fn shift_wider_than_overlap_is_kept() {
        let (p, stats) =
            run_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(B, SHIFT=2, DIM=1)\n", 1);
        assert_eq!(stats.converted, 0);
        assert_eq!(stats.kept, 1);
        assert_eq!(p.count_stmts(|s| matches!(s, Stmt::ShiftAssign { .. })), 1);
        // With a wider overlap area it transforms.
        let (_, stats2) =
            run_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(B, SHIFT=2, DIM=1)\n", 2);
        assert_eq!(stats2.converted, 1);
    }

    #[test]
    fn composed_offsets_must_fit_overlap() {
        // Two chained unit shifts along the same dimension compose to 2.
        let (_, stats) =
            run_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(CSHIFT(B,1,1), 1, 1)\n", 1);
        // The inner shift converts; the outer would need offset 2 > halo and
        // is kept, forcing a repair copy of the inner offset array.
        assert_eq!(stats.converted, 1);
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.copies_inserted, 1);
    }

    #[test]
    fn source_update_between_def_and_use_blocks() {
        let (p, stats) = run_src(
            r#"
PARAM N = 8
REAL A(N,N), B(N,N), T(N,N)
T = CSHIFT(B, SHIFT=1, DIM=1)
B = A
A = T + B
"#,
            1,
        );
        // B (the base) is overwritten before T's use: not transformable.
        assert_eq!(stats.converted, 0);
        assert_eq!(stats.kept, 1);
        assert_eq!(p.count_stmts(|s| matches!(s, Stmt::ShiftAssign { .. })), 1);
    }

    #[test]
    fn in_place_style_shift_blocks() {
        // A = CSHIFT(A,…) normalizes to TMP = CSHIFT(A); A = TMP. The use
        // assigns the base, so sharing storage is unsafe.
        let (p, stats) = run_src("PARAM N = 8\nREAL A(N,N)\nA = CSHIFT(A, SHIFT=1, DIM=1)\n", 1);
        assert_eq!(stats.converted, 0, "{}", pretty::program(&p));
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn dead_shift_still_converts() {
        let (p, stats) =
            run_src("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = CSHIFT(B, SHIFT=1, DIM=1)\n", 1);
        // A's def has no uses in the program; conversion is safe and the
        // overlap shift remains as the only trace.
        assert_eq!(stats.converted, 1);
        assert_eq!(p.count_stmts(|s| matches!(s, Stmt::OverlapShift { .. })), 1);
    }

    #[test]
    fn jacobi_loop_body_transforms() {
        let (p, stats) = run_src(
            r#"
PARAM N = 8
REAL U(N,N), T(N,N)
DO 4 TIMES
T = CSHIFT(U,1,1) + CSHIFT(U,-1,1) + CSHIFT(U,1,2) + CSHIFT(U,-1,2)
U = T
ENDDO
"#,
            1,
        );
        assert_eq!(stats.converted, 4);
        assert_eq!(stats.kept, 0);
        // Inside the loop: 4 overlap shifts + compute + copy-back.
        let mut overlaps = 0;
        p.for_each_stmt(&mut |s| {
            if matches!(s, Stmt::OverlapShift { .. }) {
                overlaps += 1;
            }
        });
        assert_eq!(overlaps, 4);
    }

    #[test]
    fn use_before_redefinition_in_loop_is_not_rewritten_across_back_edge() {
        // Loop body where T is used before being shifted into: the def only
        // reaches the use around the back edge — conservative bail.
        let (_, stats) = run_src(
            r#"
PARAM N = 8
REAL U(N,N), T(N,N)
DO 4 TIMES
U = T + U
T = CSHIFT(U,1,1)
ENDDO
"#,
            1,
        );
        assert_eq!(stats.converted, 0);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn cross_block_use_blocks_transformation() {
        let (_, stats) = run_src(
            r#"
PARAM N = 8
REAL U(N,N), T(N,N), S(N,N)
T = CSHIFT(U,1,1)
DO 2 TIMES
S = S + T
ENDDO
"#,
            1,
        );
        assert_eq!(stats.converted, 0);
        assert_eq!(stats.kept, 1);
    }

    #[test]
    fn eoshift_transforms_with_kind_preserved() {
        let (p, stats) = run_src(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nA = EOSHIFT(B, SHIFT=1, DIM=1, BOUNDARY=3.0) + B\n",
            1,
        );
        assert_eq!(stats.converted, 1);
        let mut found = false;
        p.for_each_stmt(&mut |s| {
            if let Stmt::OverlapShift { kind, .. } = s {
                assert_eq!(*kind, hpf_ir::ShiftKind::EndOff(3.0));
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn redefined_temp_kills_alias() {
        // TMP reused across statements (Reuse policy): the second def must
        // not see stale offsets from the first.
        let (p, stats) = run_src(
            r#"
PARAM N = 8
REAL U(N,N), T(N,N)
T = U + CSHIFT(U,1,1)
T = T + CSHIFT(U,-1,1)
"#,
            1,
        );
        assert_eq!(stats.converted, 2);
        let mut seen = Vec::new();
        p.for_each_stmt(&mut |s| {
            if let Stmt::Compute { rhs, .. } = s {
                rhs.for_each_ref(&mut |r| seen.push((r.array, r.offsets)));
            }
        });
        assert!(seen.iter().any(|(_, o)| o == &Offsets::new([1, 0])));
        assert!(seen.iter().any(|(_, o)| o == &Offsets::new([-1, 0])));
    }
}
