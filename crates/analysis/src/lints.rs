//! The lint registry and the individual lint passes.
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | HS001 | error    | uncovered ghost read: an offset reference not dominated by `OVERLAP_SHIFT`s of sufficient width/direction |
//! | HS002 | error    | offset annotation exceeds the configured halo width |
//! | CU001 | warning  | residual subsumed shift: a comm run still contains a shift covered by a neighbouring one (unioning would remove it) |
//! | DF001 | error    | a temporary array is read but never written |
//! | DF002 | warning  | dead array statement: a temporary is written but never read |
//! | FP001 | error    | fusion-legality violation: a partition group contains non-congruent or fusion-preventing statements |
//!
//! `HS` lints run as a forward dataflow over basic blocks (see
//! [`crate::coverage`] for the lattice); `DF` lints use whole-program
//! def/use sets restricted to compiler temporaries (user arrays are external
//! inputs/outputs and are exempt); `CU`/`FP` check the §3.3 subsumption and
//! §3.2 congruence invariants respectively.

use crate::coverage::{covered, ShiftRec};
use hpf_ir::hash::HashMap;
use hpf_ir::stmt::Resource;
use hpf_ir::{
    ArrayId, Diagnostic, Offsets, OperandRef, Program, Rsd, Section, ShiftKind, Span, Stmt,
    SymbolTable,
};

/// Uncovered ghost read.
pub const HS001: &str = "HS001";
/// Offset exceeds the configured halo width.
pub const HS002: &str = "HS002";
/// Residual subsumed shift after (or absent) unioning.
pub const CU001: &str = "CU001";
/// Temporary array read but never written.
pub const DF001: &str = "DF001";
/// Dead array statement: temporary written but never read.
pub const DF002: &str = "DF002";
/// Fusion-legality violation inside a partition group.
pub const FP001: &str = "FP001";

/// Every lint code with a one-line description (the registry).
pub fn registry() -> &'static [(&'static str, &'static str)] {
    &[
        (HS001, "uncovered ghost read (offset reference not dominated by an OVERLAP_SHIFT of sufficient width/direction)"),
        (HS002, "offset annotation exceeds the configured halo width"),
        (CU001, "residual subsumed shift in a communication run (unioning would remove it)"),
        (DF001, "temporary array read but never written"),
        (DF002, "dead array statement (temporary written but never read)"),
        (FP001, "fusion-legality violation inside a partition group"),
    ]
}

/// Render an offset annotation in the paper's style: `<+1,0>`.
fn fmt_offsets(o: &Offsets) -> String {
    let mut s = String::from("<");
    for (i, &c) in o.0.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        if c > 0 {
            s.push('+');
        }
        s.push_str(&c.to_string());
    }
    s.push('>');
    s
}

// ---------------------------------------------------------------------------
// HS001 / HS002: halo-safety dataflow
// ---------------------------------------------------------------------------

/// Per-array fills since the array's interior was last written.
type HaloState = HashMap<ArrayId, Vec<ShiftRec>>;

/// Forward halo-safety dataflow: HS001 (uncovered ghost read) and HS002
/// (offset beyond the halo). `halo` is the machine's overlap width.
pub fn halo_safety(p: &Program, halo: i64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut state = HaloState::default();
    halo_block(&p.symbols, &p.body, &mut state, halo, &mut out);
    // The two-pass loop body analysis revisits statements; drop exact
    // duplicate diagnostics.
    let mut seen: Vec<Diagnostic> = Vec::new();
    out.retain(|d| {
        if seen.contains(d) {
            false
        } else {
            seen.push(d.clone());
            true
        }
    });
    out
}

fn halo_block(
    symbols: &SymbolTable,
    block: &[Stmt],
    state: &mut HaloState,
    halo: i64,
    out: &mut Vec<Diagnostic>,
) {
    for s in block {
        match s {
            Stmt::OverlapShift { array, .. } => {
                if let Some(rec) = ShiftRec::from_stmt(s) {
                    state.entry(*array).or_default().push(rec);
                }
            }
            Stmt::ShiftAssign { dst, .. } => {
                // Writes the whole interior of `dst`: any previously filled
                // ghost copy of `dst` is now stale.
                state.remove(dst);
            }
            Stmt::Compute { lhs, rhs, .. } => {
                rhs.for_each_ref(&mut |r| check_read(symbols, state, r, halo, out));
                state.remove(lhs);
            }
            Stmt::Copy { dst, src } => {
                check_read(symbols, state, src, halo, out);
                state.remove(dst);
            }
            // The swap hands `dst` the source's ghosts and the source the
            // destination's; neither is counted on (the source is dead).
            Stmt::Rebind { dst, src } => {
                state.remove(dst);
                state.remove(src);
            }
            Stmt::TimeLoop { body, .. } => {
                // First pass: diagnoses reads of the first iteration. Its
                // exit state is the loop's steady-state entry (fills
                // accumulate monotonically; writes reset identically every
                // iteration), so a second pass diagnoses steady-state reads.
                halo_block(symbols, body, state, halo, out);
                halo_block(symbols, body, state, halo, out);
            }
        }
    }
}

fn check_read(
    symbols: &SymbolTable,
    state: &HaloState,
    r: &OperandRef,
    halo: i64,
    out: &mut Vec<Diagnostic>,
) {
    if r.offsets.is_zero() {
        return;
    }
    let name = &symbols.array(r.array).name;
    if r.offsets.max_abs() > halo {
        out.push(
            Diagnostic::error(
                HS002,
                format!(
                    "offset reference {}{} exceeds the halo width {halo}",
                    name,
                    fmt_offsets(&r.offsets)
                ),
            )
            .at_opt(r.span)
            .note("widen the halo (--halo) or reduce the stencil radius"),
        );
        return; // HS001 on the same ref would be noise
    }
    let fills: &[ShiftRec] = state.get(&r.array).map(Vec::as_slice).unwrap_or(&[]);
    if !covered(fills, &r.offsets) {
        out.push(
            Diagnostic::error(
                HS001,
                format!("uncovered ghost read {}{}", name, fmt_offsets(&r.offsets)),
            )
            .at_opt(r.span)
            .note(format!(
                "no OVERLAP_SHIFT of sufficient width/direction fills this overlap area of {name} \
                 between its last interior write and this read"
            )),
        );
    }
}

// ---------------------------------------------------------------------------
// CU001: residual subsumed shifts
// ---------------------------------------------------------------------------

/// Warn about overlap shifts inside one communication run that a
/// neighbouring shift of the same array/kind/dimension/direction subsumes
/// (§3.3: `|j| ≥ |i|` and an RSD at least as wide).
pub fn residual_subsumed_shifts(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for_each_block(&p.body, &mut |block| {
        let mut run: Vec<&Stmt> = Vec::new();
        for s in block {
            if s.is_comm() {
                run.push(s);
            } else {
                check_comm_run(&p.symbols, &run, &mut out);
                run.clear();
            }
        }
        check_comm_run(&p.symbols, &run, &mut out);
    });
    out
}

/// Effective transferred region of an overlap shift, for subsumption.
fn effective_rsd(s: &Stmt) -> Option<Rsd> {
    ShiftRec::from_stmt(s).and_then(|r| r.rsd)
}

fn check_comm_run(symbols: &SymbolTable, run: &[&Stmt], out: &mut Vec<Diagnostic>) {
    let shifts: Vec<(usize, ArrayId, ShiftKind, i64, usize, Option<Rsd>)> = run
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Stmt::OverlapShift { array, shift, dim, kind, .. } => {
                Some((i, *array, *kind, *shift, *dim, effective_rsd(s)))
            }
            _ => None,
        })
        .collect();
    let covers = |a: &Option<Rsd>, b: &Option<Rsd>| match (a, b) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(x), Some(y)) => x.covers(y),
    };
    // `a` subsumes `b`: same array/kind/dim/direction, at least the amount,
    // at least the RSD.
    let subsumes = |a: &(usize, ArrayId, ShiftKind, i64, usize, Option<Rsd>),
                    b: &(usize, ArrayId, ShiftKind, i64, usize, Option<Rsd>)| {
        a.1 == b.1
            && a.2 == b.2
            && a.4 == b.4
            && a.3.signum() == b.3.signum()
            && a.3.abs() >= b.3.abs()
            && covers(&a.5, &b.5)
    };
    for (i, si) in shifts.iter().enumerate() {
        let redundant = shifts.iter().enumerate().any(|(j, sj)| {
            // Flag the later of two mutually subsuming (identical) shifts.
            j != i && subsumes(sj, si) && (j < i || !subsumes(si, sj))
        });
        if redundant {
            let name = &symbols.array(si.1).name;
            out.push(
                Diagnostic::warning(
                    CU001,
                    format!(
                        "subsumed OVERLAP_SHIFT({name},SHIFT={:+},DIM={}) in a communication run",
                        si.3,
                        si.4 + 1
                    ),
                )
                .note("communication unioning (§3.3, --stage unioning or later) removes it"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// DF001 / DF002: temporary def/use
// ---------------------------------------------------------------------------

/// Whole-program def/use lint over compiler temporaries: DF001 (read but
/// never written — would read garbage) and DF002 (written but never read —
/// the statement is dead). User arrays are external inputs/outputs and are
/// exempt.
pub fn temp_dataflow(p: &Program) -> Vec<Diagnostic> {
    let n = p.symbols.num_arrays();
    let mut written = vec![false; n];
    let mut read = vec![false; n];
    let mut first_read_span: Vec<Option<Span>> = vec![None; n];
    p.for_each_stmt(&mut |s| {
        s.for_each_read(&mut |r| {
            if let Resource::Interior(a) = r {
                read[a.0 as usize] = true;
            }
        });
        match s {
            Stmt::Compute { lhs, rhs, .. } => {
                rhs.for_each_ref(&mut |r| {
                    let slot = &mut first_read_span[r.array.0 as usize];
                    if slot.is_none() {
                        *slot = r.span;
                    }
                });
                written[lhs.0 as usize] = true;
            }
            Stmt::Copy { dst, src } => {
                // `reads()` models an offset Copy source as ghost resources
                // only; for def/use purposes it is a read of the array.
                read[src.array.0 as usize] = true;
                written[dst.0 as usize] = true;
            }
            Stmt::ShiftAssign { dst, .. } | Stmt::Rebind { dst, .. } => {
                written[dst.0 as usize] = true;
            }
            Stmt::OverlapShift { .. } | Stmt::TimeLoop { .. } => {}
        }
    });
    let mut out = Vec::new();
    for id in p.symbols.array_ids() {
        let decl = p.symbols.array(id);
        if !decl.temp {
            continue;
        }
        let i = id.0 as usize;
        if read[i] && !written[i] {
            out.push(
                Diagnostic::error(
                    DF001,
                    format!("temporary {} is read but never written", decl.name),
                )
                .at_opt(first_read_span[i])
                .note("its contents are undefined at every read"),
            );
        }
        if written[i] && !read[i] {
            // One diagnostic per writing statement (each is dead).
            p.for_each_stmt(&mut |s| {
                let writes_it = match s {
                    Stmt::Compute { lhs, .. } => lhs == &id,
                    Stmt::Copy { dst, .. }
                    | Stmt::ShiftAssign { dst, .. }
                    | Stmt::Rebind { dst, .. } => dst == &id,
                    _ => false,
                };
                if writes_it {
                    let mut span = None;
                    if let Stmt::Compute { rhs, .. } = s {
                        rhs.for_each_ref(&mut |r| {
                            if span.is_none() {
                                span = r.span;
                            }
                        });
                    }
                    out.push(
                        Diagnostic::warning(
                            DF002,
                            format!(
                                "dead statement: temporary {} is written but never read",
                                decl.name
                            ),
                        )
                        .at_opt(span),
                    );
                }
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// FP001: fusion legality of partition groups
// ---------------------------------------------------------------------------

/// Congruence class of a statement (the analyzer's replica of the §3.2
/// classification in `hpf-passes`: congruent array statements operate on
/// identically distributed arrays over the same iteration space).
#[derive(Clone, PartialEq, Debug)]
enum StmtClass {
    Comm,
    Compute(Section, hpf_ir::Distribution),
    Single,
}

fn classify(symbols: &SymbolTable, s: &Stmt) -> StmtClass {
    match s {
        Stmt::ShiftAssign { .. } | Stmt::OverlapShift { .. } => StmtClass::Comm,
        Stmt::Compute { lhs, space, .. } => StmtClass::Compute(*space, symbols.array(*lhs).dist),
        Stmt::Copy { dst, .. } => {
            let decl = symbols.array(*dst);
            StmtClass::Compute(Section::full(&decl.shape), decl.dist)
        }
        Stmt::Rebind { .. } | Stmt::TimeLoop { .. } => StmtClass::Single,
    }
}

/// True when fusing the two statements into one loop nest would turn a
/// loop-independent dependence into a loop-carried one: some array is
/// written by one statement and read at a non-zero offset by the other.
pub fn fusion_conflict(a: &Stmt, b: &Stmt) -> bool {
    offset_conflict(a, b) || offset_conflict(b, a)
}

fn offset_conflict(writer: &Stmt, reader: &Stmt) -> bool {
    let mut conflict = false;
    let mut check = |array: ArrayId, offsets: &Offsets| {
        if !offsets.is_zero() && hpf_ir::defuse::writes_interior(writer, array) {
            conflict = true;
        }
    };
    match reader {
        Stmt::Compute { rhs, .. } => rhs.for_each_ref(&mut |r| check(r.array, &r.offsets)),
        Stmt::Copy { src, .. } => check(src.array, &src.offsets),
        _ => {}
    }
    conflict
}

/// Check explicit partition groups (member indices into `block`) for
/// fusion legality: every pair in a group must be congruent and free of
/// fusion-preventing dependences. This is the post-condition the partition
/// pass hands its actual grouping to.
pub fn check_partition_groups(
    symbols: &SymbolTable,
    block: &[Stmt],
    groups: &[Vec<usize>],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for members in groups {
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                let (ci, cj) = (classify(symbols, &block[i]), classify(symbols, &block[j]));
                if matches!(ci, StmtClass::Comm) && matches!(cj, StmtClass::Comm) {
                    continue; // comm groups never fuse into loop nests
                }
                if ci != cj {
                    out.push(Diagnostic::error(
                        FP001,
                        format!(
                            "partition group mixes non-congruent statements (positions {i} and {j})"
                        ),
                    ));
                } else if fusion_conflict(&block[i], &block[j]) {
                    out.push(
                        Diagnostic::error(
                            FP001,
                            format!(
                                "fusion-preventing dependence inside a partition group \
                                 (positions {i} and {j})"
                            ),
                        )
                        .note(
                            "fusing them would turn a loop-independent dependence into a \
                             loop-carried one (§3.2's over-fusion guard)",
                        ),
                    );
                }
            }
        }
    }
    out
}

/// FP001 as a standalone lint: rebuild the greedy grouping scalarization
/// will use (maximal runs of adjacent same-class statements, broken when a
/// statement conflicts with any run member) and check it pairwise. Clean on
/// pipeline output by construction; it exists to catch drift between the
/// partitioner's placement and scalarization's fusion guard.
pub fn fusion_legality(p: &Program) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for_each_block(&p.body, &mut |block| {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, s) in block.iter().enumerate() {
            let class = classify(&p.symbols, s);
            let joins = match groups.last() {
                Some(run) if !matches!(class, StmtClass::Single) => {
                    classify(&p.symbols, &block[run[0]]) == class
                        && run.iter().all(|&k| !fusion_conflict(&block[k], s))
                }
                _ => false,
            };
            if joins {
                groups.last_mut().unwrap().push(i);
            } else {
                groups.push(vec![i]);
            }
        }
        out.extend(check_partition_groups(&p.symbols, block, &groups));
    });
    out
}

/// Visit every basic block (the program body and each time-loop body).
fn for_each_block(body: &[Stmt], f: &mut impl FnMut(&[Stmt])) {
    f(body);
    for s in body {
        if let Stmt::TimeLoop { body: inner, .. } = s {
            for_each_block(inner, f);
        }
    }
}
