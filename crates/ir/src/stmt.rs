//! Normalized IR statements.

use crate::array::ArrayId;
use crate::expr::{Expr, OperandRef};
use crate::rsd::Rsd;
use crate::section::{Offsets, Section};
use crate::Dim;

/// Shift semantics: circular (`CSHIFT`) or end-off (`EOSHIFT`) with a
/// boundary fill value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ShiftKind {
    /// `CSHIFT`: elements wrap around circularly.
    Circular,
    /// `EOSHIFT`: elements shifted in from outside the array take the
    /// boundary value.
    EndOff(f64),
}

/// A statement of the normalized IR.
///
/// Programs arrive from normalization containing only [`Stmt::ShiftAssign`],
/// [`Stmt::Compute`] and [`Stmt::TimeLoop`]; the optimization passes
/// introduce [`Stmt::OverlapShift`], (when an offset-array criterion is
/// violated) [`Stmt::Copy`], and (for a whole-array copy whose source dies)
/// [`Stmt::Rebind`].
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `DST = CSHIFT(SRC, SHIFT=k, DIM=d)` on whole arrays — the normal-form
    /// communication statement, performing both the interprocessor and the
    /// intraprocessor component of the shift (paper §2.2).
    ShiftAssign {
        /// Destination array (often a compiler temporary).
        dst: ArrayId,
        /// Source array.
        src: ArrayId,
        /// Shift amount `k`: the result satisfies `dst(i) = src(i + k)`
        /// along `dim` (Fortran `CSHIFT` semantics).
        shift: i64,
        /// Shifted dimension (0-based).
        dim: Dim,
        /// Circular or end-off semantics.
        kind: ShiftKind,
    },

    /// `CALL OVERLAP_SHIFT(BASE<src_offsets>, SHIFT=k, DIM=d [, rsd])` —
    /// moves only off-processor data into the overlap area on the `sign(k)`
    /// side of dimension `d`; `|k|` ghost layers are filled. The optional
    /// RSD widens the transferred section into overlap areas of other
    /// dimensions (corner pickup, §3.3).
    OverlapShift {
        /// Base array whose overlap area is filled.
        array: ArrayId,
        /// Offset annotation of the source operand when it is itself a
        /// multi-offset array (`OVERLAP_SHIFT(U<+1,0>, …)`); all zero for a
        /// plain source. Communication unioning folds these into RSDs.
        src_offsets: Offsets,
        /// Shift amount; its sign selects which side's overlap area fills.
        shift: i64,
        /// Shifted dimension (0-based).
        dim: Dim,
        /// Optional section extension into other dimensions' overlap areas.
        rsd: Option<Rsd>,
        /// Circular or end-off semantics.
        kind: ShiftKind,
    },

    /// An aligned array assignment over a common iteration space: the
    /// compute component of a stencil. Operand references may carry offset
    /// annotations after the offset-array optimization.
    Compute {
        /// Assigned array.
        lhs: ArrayId,
        /// Iteration space (1-based global bounds, also the section of the
        /// left-hand side).
        space: Section,
        /// Right-hand-side expression over aligned operands.
        rhs: Expr,
    },

    /// Whole-array copy `DST = SRC<offsets>` — inserted as a repair when an
    /// offset-array criterion is violated (§3.1), or by the user program
    /// (e.g. the `U = T` step of a Jacobi sweep).
    Copy {
        /// Destination array.
        dst: ArrayId,
        /// Source operand (offsets refer to overlap-area data).
        src: OperandRef,
    },

    /// `CALL REBIND(DST <- SRC)`: a whole-array copy `DST = SRC` executed as
    /// a storage swap — `DST` takes over `SRC`'s storage and `SRC` is left
    /// holding `DST`'s stale values. Legal only where `SRC` is dead: nothing
    /// reads it before its next full definition (the storage-rotation pass
    /// proves this). For dependences it reads `SRC` and writes `DST`,
    /// exactly like the copy it replaces.
    Rebind {
        /// The array that takes the value (and the storage) of `src`.
        dst: ArrayId,
        /// The array whose value moves; dead until its next full definition.
        src: ArrayId,
    },

    /// A counted serial loop around a block of statements (a time-stepping
    /// loop). The body is a basic block as far as the stencil pipeline is
    /// concerned; passes run on it independently.
    TimeLoop {
        /// Number of iterations.
        iters: usize,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

/// A memory resource touched by a statement, at the granularity the
/// dependence graph needs: an array's interior (owned subgrid elements) or
/// one side of its overlap area in one dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Resource {
    /// The owned elements of an array.
    Interior(ArrayId),
    /// The overlap (ghost) area of an array on the `i8` side (+1 high, -1
    /// low) of a dimension.
    Ghost(ArrayId, Dim, i8),
}

/// Visit the ghost resources implied by an offset annotation: a reference
/// `U<a1,…,ar>` reads the overlap area of every dimension with a non-zero
/// offset, on the side of the offset's sign.
fn ghost_resources(array: ArrayId, offsets: &Offsets, f: &mut impl FnMut(Resource)) {
    for (d, &o) in offsets.0.iter().enumerate() {
        if o != 0 {
            f(Resource::Ghost(array, d, o.signum() as i8));
        }
    }
}

impl Stmt {
    /// Call `f` for every resource the statement reads (over-approximate,
    /// for dependence construction), in no particular order and possibly
    /// more than once. [`Stmt::TimeLoop`] visits its whole body.
    pub fn for_each_read(&self, f: &mut impl FnMut(Resource)) {
        match self {
            Stmt::ShiftAssign { src, .. } => f(Resource::Interior(*src)),
            Stmt::OverlapShift { array, src_offsets, rsd, .. } => {
                f(Resource::Interior(*array));
                ghost_resources(*array, src_offsets, f);
                if let Some(rsd) = rsd {
                    for (d, &(lo, hi)) in rsd.ext.iter().enumerate() {
                        if lo > 0 {
                            f(Resource::Ghost(*array, d, -1));
                        }
                        if hi > 0 {
                            f(Resource::Ghost(*array, d, 1));
                        }
                    }
                }
            }
            Stmt::Compute { rhs, .. } => {
                rhs.for_each_ref(&mut |r| {
                    f(Resource::Interior(r.array));
                    ghost_resources(r.array, &r.offsets, f);
                });
            }
            Stmt::Copy { src, .. } => {
                f(Resource::Interior(src.array));
                ghost_resources(src.array, &src.offsets, f);
            }
            Stmt::Rebind { src, .. } => f(Resource::Interior(*src)),
            Stmt::TimeLoop { body, .. } => body.iter().for_each(|s| s.for_each_read(f)),
        }
    }

    /// Call `f` for every resource the statement writes, like
    /// [`Stmt::for_each_read`].
    pub fn for_each_write(&self, f: &mut impl FnMut(Resource)) {
        match self {
            Stmt::ShiftAssign { dst, .. } => f(Resource::Interior(*dst)),
            Stmt::OverlapShift { array, shift, dim, .. } => {
                f(Resource::Ghost(*array, *dim, shift.signum() as i8));
            }
            Stmt::Compute { lhs, .. } => f(Resource::Interior(*lhs)),
            Stmt::Copy { dst, .. } | Stmt::Rebind { dst, .. } => f(Resource::Interior(*dst)),
            Stmt::TimeLoop { body, .. } => body.iter().for_each(|s| s.for_each_write(f)),
        }
    }

    /// The resources [`Stmt::for_each_read`] visits, sorted and distinct.
    pub fn reads(&self) -> Vec<Resource> {
        let mut out = Vec::new();
        self.for_each_read(&mut |r| out.push(r));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The resources [`Stmt::for_each_write`] visits, sorted and distinct.
    pub fn writes(&self) -> Vec<Resource> {
        let mut out = Vec::new();
        self.for_each_write(&mut |r| out.push(r));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True for communication statements (the "communication operations"
    /// congruence class of context partitioning).
    pub fn is_comm(&self) -> bool {
        matches!(self, Stmt::ShiftAssign { .. } | Stmt::OverlapShift { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);

    #[test]
    fn shift_assign_sets() {
        let s = Stmt::ShiftAssign { dst: T, src: U, shift: 1, dim: 0, kind: ShiftKind::Circular };
        assert_eq!(s.reads(), vec![Resource::Interior(U)]);
        assert_eq!(s.writes(), vec![Resource::Interior(T)]);
        assert!(s.is_comm());
    }

    #[test]
    fn overlap_shift_sets() {
        let s = Stmt::OverlapShift {
            array: U,
            src_offsets: Offsets::new([1, 0]),
            shift: -1,
            dim: 1,
            rsd: None,
            kind: ShiftKind::Circular,
        };
        // Reads U's interior plus the +1 ghost of dim 0 (multi-offset source).
        let reads = s.reads();
        assert!(reads.contains(&Resource::Interior(U)));
        assert!(reads.contains(&Resource::Ghost(U, 0, 1)));
        // Writes the low-side ghost of dim 1.
        assert_eq!(s.writes(), vec![Resource::Ghost(U, 1, -1)]);
        assert!(s.is_comm());
    }

    #[test]
    fn overlap_shift_rsd_reads_corner_sources() {
        let mut rsd = Rsd::none(2);
        rsd.extend(0, -1);
        rsd.extend(0, 1);
        let s = Stmt::OverlapShift {
            array: U,
            src_offsets: Offsets::zero(2),
            shift: 1,
            dim: 1,
            rsd: Some(rsd),
            kind: ShiftKind::Circular,
        };
        let reads = s.reads();
        assert!(reads.contains(&Resource::Ghost(U, 0, -1)));
        assert!(reads.contains(&Resource::Ghost(U, 0, 1)));
    }

    #[test]
    fn compute_sets() {
        // T = U<+1,0> + U
        let rhs = Expr::bin(
            BinOp::Add,
            Expr::Ref(OperandRef::offset(U, Offsets::new([1, 0]))),
            Expr::Ref(OperandRef::aligned(U, 2)),
        );
        let s = Stmt::Compute { lhs: T, space: Section::new([(1, 4), (1, 4)]), rhs };
        let reads = s.reads();
        assert!(reads.contains(&Resource::Interior(U)));
        assert!(reads.contains(&Resource::Ghost(U, 0, 1)));
        assert_eq!(s.writes(), vec![Resource::Interior(T)]);
        assert!(!s.is_comm());
    }

    #[test]
    fn rebind_sets_match_the_copy_it_replaces() {
        let copy = Stmt::Copy { dst: U, src: OperandRef::aligned(T, 2) };
        let rebind = Stmt::Rebind { dst: U, src: T };
        assert_eq!(rebind.reads(), copy.reads());
        assert_eq!(rebind.writes(), copy.writes());
        assert!(!rebind.is_comm());
    }

    #[test]
    fn timeloop_unions_body() {
        let body = vec![
            Stmt::ShiftAssign { dst: T, src: U, shift: 1, dim: 0, kind: ShiftKind::Circular },
            Stmt::Copy { dst: U, src: OperandRef::aligned(T, 2) },
        ];
        let s = Stmt::TimeLoop { iters: 3, body };
        let reads = s.reads();
        let writes = s.writes();
        assert!(reads.contains(&Resource::Interior(U)));
        assert!(reads.contains(&Resource::Interior(T)));
        assert!(writes.contains(&Resource::Interior(T)));
        assert!(writes.contains(&Resource::Interior(U)));
    }
}
