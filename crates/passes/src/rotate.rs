//! Storage rotation: the offset-array idea (paper §3.1) applied to
//! whole-array copies.
//!
//! The offset-array pass removes a shift's intraprocessor copy by letting
//! the destination share the source's storage. A zero-offset whole-array
//! copy `A = B` — a time loop's copy-back (`U = T`), a buffer rotation
//! (`UPREV = U; U = UNEXT`) — moves every owned element for no better
//! reason. When nothing reads `B` again before it is next fully redefined,
//! the copy becomes `CALL REBIND(A <- B)`: each PE swaps the two arrays'
//! storage, so `A` holds `B`'s values and `B` holds stale data nobody reads.
//!
//! A copy at position `i` of a block rotates when (checked on the block's
//! def/use chains with [`hpf_ir::defuse`]):
//!
//! * `A` and `B` are distinct arrays of the same shape and distribution;
//! * scanning forward from `i` — to the end of the block, then around the
//!   wrap (the next iteration of a time-loop body, or the program's next
//!   step) — `B` is fully redefined before any statement reads it (a
//!   compute, a communication op, an offset reference into its halo) or
//!   writes part of it (a section compute, a `WHERE`). A nested time loop
//!   that touches `B` at all stops the scan, as does reaching the copy
//!   again;
//! * if that redefinition comes only after the wrap, `B` is dead at the end
//!   of the block and stands for `A`'s value at the step boundary (the
//!   plan's alias map): `A` must then not be written before the step ends,
//!   and, in a time-loop body, no statement outside the loop may read `B`
//!   or write either array after the loop.
//!
//! A copy that fails any of these keeps its physical nest.

use hpf_ir::defuse::{kills, reads_interior, writes_interior};
use hpf_ir::{ArrayId, Expr, Program, Section, Stmt, SymbolTable};

/// Rewrite every legal zero-offset whole-array copy of the program into a
/// [`Stmt::Rebind`]; returns how many were rotated.
pub fn run(program: &mut Program) -> usize {
    let mut legal = Vec::new();
    find(&program.body, program, &mut Vec::new(), &mut legal);
    for (path, i) in &legal {
        let mut block = &mut program.body;
        for &at in path {
            let Stmt::TimeLoop { body, .. } = &mut block[at] else { unreachable!() };
            block = body;
        }
        let (dst, src) = whole_copy(&program.symbols, &block[*i]).expect("found as a copy");
        block[*i] = Stmt::Rebind { dst, src };
    }
    legal.len()
}

/// The zero-offset whole-array copy `dst = src` a statement performs: a
/// [`Stmt::Copy`] without offsets, or a full-space compute whose right-hand
/// side is a bare aligned reference (how a user's `U = T` normalizes).
fn whole_copy(symbols: &SymbolTable, s: &Stmt) -> Option<(ArrayId, ArrayId)> {
    match s {
        Stmt::Copy { dst, src } if src.offsets.is_zero() => Some((*dst, src.array)),
        Stmt::Compute { lhs, space, rhs: Expr::Ref(r) }
            if r.offsets.is_zero() && *space == Section::full(&symbols.array(*lhs).shape) =>
        {
            Some((*lhs, r.array))
        }
        _ => None,
    }
}

/// Collect `(enclosing time-loop indices, position)` of every rotatable copy.
fn find(
    block: &[Stmt],
    program: &Program,
    path: &mut Vec<usize>,
    out: &mut Vec<(Vec<usize>, usize)>,
) {
    for (i, s) in block.iter().enumerate() {
        if let Stmt::TimeLoop { body, .. } = s {
            path.push(i);
            find(body, program, path, out);
            path.pop();
        } else if let Some((a, b)) = whole_copy(&program.symbols, s) {
            if rotatable(program, block, path, i, a, b) {
                out.push((path.clone(), i));
            }
        }
    }
}

/// What a statement does to a dead source, scanning for its next definition.
#[derive(PartialEq)]
enum Next {
    /// Leaves it alone: keep scanning.
    Untouched,
    /// Fully redefines it without reading it: the source is live again.
    Killed,
    /// Reads it, or writes only part of it: the rotation is illegal.
    Blocked,
}

fn next(s: &Stmt, b: ArrayId, full: &Section) -> Next {
    // Every statement that reads an array's halo reads its interior too.
    if reads_interior(s, b) {
        Next::Blocked
    } else if kills(s, b, full) {
        Next::Killed
    } else if writes_interior(s, b) {
        Next::Blocked
    } else {
        Next::Untouched
    }
}

/// The legality rule of the module docs for the copy `a = b` at `block[i]`.
fn rotatable(
    program: &Program,
    block: &[Stmt],
    path: &[usize],
    i: usize,
    a: ArrayId,
    b: ArrayId,
) -> bool {
    let (da, db) = (program.symbols.array(a), program.symbols.array(b));
    if a == b || da.shape != db.shape || da.dist != db.dist {
        return false;
    }
    let full = Section::full(&db.shape);
    let mut a_written = false;
    for s in &block[i + 1..] {
        match next(s, b, &full) {
            Next::Blocked => return false,
            Next::Killed => return true,
            Next::Untouched => a_written |= writes_interior(s, a),
        }
    }
    // `b` is dead at the end of the block, standing for `a`'s value.
    let wrapped = block[..i].iter().map(|s| next(s, b, &full)).find(|n| *n != Next::Untouched);
    !a_written && wrapped == Some(Next::Killed) && unobserved_outside(program, path, a, b)
}

/// For a copy inside time loops whose source stays dead past the loop: no
/// statement outside the innermost loop reads `b`, and none after the loop
/// (at any nesting level) writes `a` or `b` before the step ends.
fn unobserved_outside(program: &Program, path: &[usize], a: ArrayId, b: ArrayId) -> bool {
    let mut block: &[Stmt] = &program.body;
    for &at in path {
        for (j, s) in block.iter().enumerate() {
            let after = j > at && (writes_interior(s, a) || writes_interior(s, b));
            if j != at && (reads_interior(s, b) || after) {
                return false;
            }
        }
        let Stmt::TimeLoop { body, .. } = &block[at] else { unreachable!() };
        block = body;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::offset;
    use hpf_frontend::compile_source;

    /// Normalize, run offset arrays, then rotate; the rotation count and the
    /// paper-notation listing.
    fn rotate(src: &str) -> (usize, String) {
        let checked = compile_source(src).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        let n = run(&mut p);
        hpf_ir::validate::validate(&p, 1).unwrap();
        (n, hpf_ir::pretty::program(&p))
    }

    #[test]
    fn jacobi_copy_back_rotates_in_its_loop() {
        let (n, ir) = rotate(
            "PARAM N = 8\nREAL U(N,N), T(N,N)\nDO 4 TIMES\n\
             T = CSHIFT(U,1,1) + CSHIFT(U,-1,1)\nU = T\nENDDO\n",
        );
        assert_eq!(n, 1, "{ir}");
        assert!(ir.contains("CALL REBIND(U <- T)"), "{ir}");
    }

    #[test]
    fn wave_rotation_is_a_three_cycle() {
        let (n, ir) = rotate(
            "PARAM N = 8\nREAL U(N,N), UP(N,N), UN(N,N)\n\
             UN = 2 * U - UP + CSHIFT(U,1,1)\nUP = U\nU = UN\n",
        );
        assert_eq!(n, 2, "{ir}");
        assert!(ir.contains("CALL REBIND(UP <- U)") && ir.contains("CALL REBIND(U <- UN)"), "{ir}");
    }

    #[test]
    fn source_read_later_keeps_the_copy() {
        let (n, _) =
            rotate("PARAM N = 8\nREAL U(N,N), T(N,N), S(N,N)\nT = U + 1\nU = T\nS = T + 1\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn partial_redefinition_keeps_the_copy() {
        let (n, _) =
            rotate("PARAM N = 8\nREAL U(N,N), T(N,N)\nT(2:7,2:7) = U(2:7,2:7) + 1\nU = T\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn never_redefined_source_keeps_the_copy() {
        let (n, _) = rotate("PARAM N = 8\nREAL U(N,N), T(N,N)\nU = T\n");
        assert_eq!(n, 0, "the copy itself reads T again on the next step");
    }

    #[test]
    fn live_array_written_after_a_dead_alias_keeps_the_copy() {
        // T would stand for U at the step boundary, but U changes after.
        let (n, _) = rotate("PARAM N = 8\nREAL U(N,N), T(N,N)\nT = U + 1\nU = T\nU = U * 2\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn source_read_after_the_loop_keeps_the_copy() {
        let (n, _) = rotate(
            "PARAM N = 8\nREAL U(N,N), T(N,N), S(N,N)\nDO 2 TIMES\nT = U + 1\nU = T\nENDDO\n\
             S = T\n",
        );
        assert_eq!(n, 0);
    }
}
