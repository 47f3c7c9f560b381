//! Def-use scanning within a basic block.
//!
//! The offset-array optimization (paper §3.1) is driven by an SSA-style
//! def-use analysis: given a shift definition `DST = CSHIFT(SRC, …)` it must
//! find the uses of `DST` reached by that definition and verify that neither
//! `SRC` nor `DST` is destructively updated between the definition and each
//! use. This module provides those scans over a basic block, including the
//! wrap-around scan needed when the block is the body of a time loop (a
//! definition at the end of one iteration reaches uses at the start of the
//! next).

use crate::array::ArrayId;
use crate::stmt::{Resource, Stmt};

/// True when `stmt` reads the interior elements of `array`.
pub fn reads_interior(stmt: &Stmt, array: ArrayId) -> bool {
    let mut hit = false;
    stmt.for_each_read(&mut |r| hit |= r == Resource::Interior(array));
    hit
}

/// True when `stmt` writes the interior elements of `array`.
pub fn writes_interior(stmt: &Stmt, array: ArrayId) -> bool {
    let mut hit = false;
    stmt.for_each_write(&mut |r| hit |= r == Resource::Interior(array));
    hit
}

/// True when `stmt` *completely* redefines `array` (whole-array write), i.e.
/// kills any earlier definition. Compute statements over partial sections do
/// not kill.
pub fn kills(stmt: &Stmt, array: ArrayId, full_space: &crate::Section) -> bool {
    match stmt {
        Stmt::ShiftAssign { dst, .. } | Stmt::Copy { dst, .. } | Stmt::Rebind { dst, .. } => {
            *dst == array
        }
        Stmt::Compute { lhs, space, .. } => *lhs == array && space == full_space,
        _ => false,
    }
}

/// One use site of a definition inside a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UseSite {
    /// Index of the using statement within the block.
    pub stmt: usize,
    /// True when this use is reached around the loop back-edge (it appears
    /// *before* the definition in the block, which is a time-loop body).
    pub wrapped: bool,
}

/// The uses of array `dst` reached by the definition at `def_idx`.
///
/// Walks forward from the definition; stops at the first statement that
/// kills `dst`. With `wrap` (time-loop bodies) the walk continues from the
/// top of the block up to (but excluding) the definition, again stopping at
/// a kill. Partial writes to `dst` (section computes) conservatively
/// terminate the walk as well — a later use might read a mix of values.
pub fn reached_uses(
    block: &[Stmt],
    def_idx: usize,
    dst: ArrayId,
    full_space: &crate::Section,
    wrap: bool,
) -> Vec<UseSite> {
    let mut out = Vec::new();
    let wrapped = (0..if wrap { def_idx } else { 0 }).map(|i| (i, true));
    for (i, wrapped) in (def_idx + 1..block.len()).map(|i| (i, false)).chain(wrapped) {
        let s = &block[i];
        if reads_interior(s, dst) {
            out.push(UseSite { stmt: i, wrapped });
        }
        if kills(s, dst, full_space) {
            break;
        }
        // A partial write makes further uses see mixed definitions; stop.
        if writes_interior(s, dst) {
            break;
        }
    }
    out
}

/// Index (within the same traversal order as [`reached_uses`]) of the first
/// statement strictly between `def_idx` and `use_site` that writes the
/// interior of `array`, if any. Used to check the offset-array safety
/// criterion "no destructive update of the source between the shift and the
/// use".
pub fn write_between(
    block: &[Stmt],
    def_idx: usize,
    use_site: UseSite,
    array: ArrayId,
) -> Option<usize> {
    let (end, wrapped) =
        if use_site.wrapped { (block.len(), 0..use_site.stmt) } else { (use_site.stmt, 0..0) };
    (def_idx + 1..end).chain(wrapped).find(|&i| writes_interior(&block[i], array))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayId;
    use crate::expr::{Expr, OperandRef};
    use crate::section::Section;
    use crate::stmt::ShiftKind;

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);
    const R: ArrayId = ArrayId(2);

    fn full() -> Section {
        Section::new([(1, 8), (1, 8)])
    }

    fn shift(dst: ArrayId, src: ArrayId) -> Stmt {
        Stmt::ShiftAssign { dst, src, shift: 1, dim: 0, kind: ShiftKind::Circular }
    }

    fn compute_use(lhs: ArrayId, used: ArrayId) -> Stmt {
        Stmt::Compute { lhs, space: full(), rhs: Expr::Ref(OperandRef::aligned(used, 2)) }
    }

    #[test]
    fn reads_and_writes_interior() {
        let s = shift(R, U);
        assert!(reads_interior(&s, U));
        assert!(!reads_interior(&s, R));
        assert!(writes_interior(&s, R));
        assert!(!writes_interior(&s, U));
    }

    #[test]
    fn kills_whole_array_writes_only() {
        assert!(kills(&shift(R, U), R, &full()));
        assert!(!kills(&shift(R, U), U, &full()));
        let partial =
            Stmt::Compute { lhs: R, space: Section::new([(2, 7), (2, 7)]), rhs: Expr::Const(0.0) };
        assert!(!kills(&partial, R, &full()));
        let whole = compute_use(R, U);
        assert!(kills(&whole, R, &full()));
    }

    #[test]
    fn reached_uses_stop_at_kill() {
        let block = vec![
            shift(R, U),       // 0: def of R
            compute_use(T, R), // 1: use
            shift(R, T),       // 2: kill of R
            compute_use(T, R), // 3: use of the *new* R
        ];
        let uses = reached_uses(&block, 0, R, &full(), false);
        assert_eq!(uses, vec![UseSite { stmt: 1, wrapped: false }]);
        // A statement can both use and kill: index 2 reads T, not R.
        let uses2 = reached_uses(&block, 2, R, &full(), false);
        assert_eq!(uses2, vec![UseSite { stmt: 3, wrapped: false }]);
    }

    #[test]
    fn reached_uses_wrap_around_loop() {
        // Loop body: T = R ; R = CSHIFT(U). The def of R at index 1 reaches
        // the use at index 0 of the *next* iteration.
        let block = vec![compute_use(T, R), shift(R, U)];
        let uses = reached_uses(&block, 1, R, &full(), true);
        assert_eq!(uses, vec![UseSite { stmt: 0, wrapped: true }]);
        // Without wrap, no uses.
        assert!(reached_uses(&block, 1, R, &full(), false).is_empty());
    }

    #[test]
    fn partial_write_terminates_walk() {
        let partial =
            Stmt::Compute { lhs: R, space: Section::new([(2, 7), (2, 7)]), rhs: Expr::Const(0.0) };
        let block = vec![shift(R, U), partial, compute_use(T, R)];
        let uses = reached_uses(&block, 0, R, &full(), false);
        assert!(uses.is_empty(), "use after partial redefinition must not be attributed");
    }

    #[test]
    fn write_between_detects_source_update() {
        let block = vec![
            shift(R, U),       // 0: R = cshift(U)
            compute_use(U, T), // 1: U destructively updated
            compute_use(T, R), // 2: use of R
        ];
        let site = UseSite { stmt: 2, wrapped: false };
        assert_eq!(write_between(&block, 0, site, U), Some(1));
        assert_eq!(write_between(&block, 0, site, T), None);
    }

    #[test]
    fn write_between_wrapped_path() {
        // body: T = R (0) ; U = T (1) ; R = cshift(U) (2)
        // def at 2 reaches use at 0 via back edge; U is written at 1 which is
        // NOT between (path is 2 -> end -> 0). T is written at 0 itself —
        // also not between.
        let block = vec![compute_use(T, R), compute_use(U, T), shift(R, U)];
        let site = UseSite { stmt: 0, wrapped: true };
        assert_eq!(write_between(&block, 2, site, U), None);
        // Extend the body: 2 -> 3 writes U -> wraps to 0.
        let block2 = vec![compute_use(T, R), compute_use(U, T), shift(R, U), compute_use(U, T)];
        assert_eq!(write_between(&block2, 2, site, U), Some(3));
    }
}
