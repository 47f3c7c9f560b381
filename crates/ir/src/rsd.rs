//! Regular section descriptors (RSDs) for `OVERLAP_SHIFT`.
//!
//! Communication unioning (paper §3.3) attaches an RSD as an optional fourth
//! argument to `OVERLAP_SHIFT` when the shifted array is a *multi-offset*
//! array. The RSD widens the transferred section into the overlap areas of
//! lower dimensions so that a later shift picks "corner" elements up out of
//! overlap areas already filled by earlier shifts — e.g. the paper's
//! `CALL OVERLAP_SHIFT(U,-1,2,[0:N+1,*])`, whose first dimension has been
//! extended from `1:N` to `0:N+1`.

use crate::dims::Dims;
use std::fmt;

/// Per-dimension extension amounts of the transferred section into the
/// overlap areas: `ext[d] = (lo, hi)` extends dimension `d` by `lo` ghost
/// layers below the subgrid and `hi` layers above it. The shifted dimension
/// itself always has `(0, 0)` (printed `*` like the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rsd {
    /// Extension (below, above) per dimension.
    pub ext: Dims<(u32, u32)>,
}

impl Rsd {
    /// An RSD with no extension anywhere (equivalent to omitting it).
    pub fn none(rank: usize) -> Self {
        Rsd { ext: Dims::filled(rank, (0, 0)) }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.ext.len()
    }

    /// True when no dimension is extended.
    pub fn is_trivial(&self) -> bool {
        self.ext.iter().all(|&(l, h)| l == 0 && h == 0)
    }

    /// Record that the transferred data must include `amount` overlap layers
    /// of dimension `d`: negative amounts extend the lower bound, positive
    /// amounts the upper bound (paper §3.3: "the annotation is added to the
    /// lower bound of the RSD if the shift amount is negative, otherwise it
    /// is added to the upper bound").
    pub fn extend(&mut self, d: usize, amount: i64) {
        if amount < 0 {
            self.ext[d].0 = self.ext[d].0.max((-amount) as u32);
        } else if amount > 0 {
            self.ext[d].1 = self.ext[d].1.max(amount as u32);
        }
    }

    /// Union with another RSD: larger RSDs subsume smaller ones.
    pub fn union(&self, other: &Rsd) -> Rsd {
        assert_eq!(self.rank(), other.rank());
        Rsd {
            ext: Dims::from_fn(self.rank(), |d| {
                let ((al, ah), (bl, bh)) = (self.ext[d], other.ext[d]);
                (al.max(bl), ah.max(bh))
            }),
        }
    }

    /// True when this RSD covers (subsumes) `other` in every dimension.
    pub fn covers(&self, other: &Rsd) -> bool {
        self.rank() == other.rank()
            && self
                .ext
                .iter()
                .zip(other.ext.iter())
                .all(|(&(al, ah), &(bl, bh))| al >= bl && ah >= bh)
    }
}

impl fmt::Debug for Rsd {
    /// Renders in the paper's style for a shift along `*` dimensions:
    /// `[1-lo : n+hi, ...]` is abbreviated as `[-lo:+hi, ...]` extension
    /// amounts; unextended dims print `*`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (lo, hi)) in self.ext.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if *lo == 0 && *hi == 0 {
                write!(f, "*")?;
            } else {
                write!(f, "1-{lo}:n+{hi}")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_tracks_signs() {
        let mut r = Rsd::none(2);
        assert!(r.is_trivial());
        r.extend(0, -1);
        r.extend(0, 1);
        r.extend(0, -1); // repeated, no growth
        assert_eq!(r.ext[0], (1, 1));
        assert_eq!(r.ext[1], (0, 0));
        assert!(!r.is_trivial());
    }

    #[test]
    fn extend_keeps_max() {
        let mut r = Rsd::none(1);
        r.extend(0, -2);
        r.extend(0, -1);
        assert_eq!(r.ext[0], (2, 0));
        r.extend(0, 3);
        r.extend(0, 2);
        assert_eq!(r.ext[0], (2, 3));
    }

    #[test]
    fn union_and_covers() {
        let mut a = Rsd::none(2);
        a.extend(0, -1);
        let mut b = Rsd::none(2);
        b.extend(0, 2);
        b.extend(1, -1);
        let u = a.union(&b);
        assert_eq!(u.ext, vec![(1, 2), (1, 0)]);
        assert!(u.covers(&a));
        assert!(u.covers(&b));
        assert!(!a.covers(&b));
    }

    #[test]
    fn debug_format() {
        let mut r = Rsd::none(2);
        r.extend(0, -1);
        r.extend(0, 1);
        assert_eq!(format!("{r:?}"), "[1-1:n+1,*]");
    }
}
