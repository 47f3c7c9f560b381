//! Iteration spaces (array sections) and offset annotations.

use crate::array::Shape;
use crate::dims::Dims;
use std::fmt;

/// A rectangular array section / iteration space: per-dimension inclusive
/// 1-based bounds, the IR analogue of `A(lo1:hi1, lo2:hi2, ...)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Section(pub Dims<(i64, i64)>);

impl Section {
    /// Section covering a whole array of the given shape: `(1:n1, 1:n2, …)`.
    pub fn full(shape: &Shape) -> Self {
        Section(shape.0.map(|e| (1, e as i64)))
    }

    /// Section from explicit per-dimension bounds.
    pub fn new(bounds: impl Into<Dims<(i64, i64)>>) -> Self {
        Section(bounds.into())
    }

    /// Interior section of a shape, shrunk by `margin` on every side:
    /// `(1+margin : n-margin, …)`.
    pub fn interior(shape: &Shape, margin: i64) -> Self {
        Section(shape.0.map(|e| (1 + margin, e as i64 - margin)))
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Bounds of dimension `d`.
    pub fn dim(&self, d: usize) -> (i64, i64) {
        self.0[d]
    }

    /// Extent of dimension `d` (zero when empty).
    pub fn extent(&self, d: usize) -> i64 {
        let (lo, hi) = self.0[d];
        (hi - lo + 1).max(0)
    }

    /// Number of points in the section.
    pub fn num_points(&self) -> i64 {
        self.0.iter().map(|&(lo, hi)| (hi - lo + 1).max(0)).product()
    }

    /// True when some dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.0.iter().any(|&(lo, hi)| hi < lo)
    }

    /// Section translated by `off` (element-wise).
    pub fn translate(&self, off: &Offsets) -> Section {
        assert_eq!(self.rank(), off.rank());
        Section(Dims::from_fn(self.rank(), |d| (self.0[d].0 + off.0[d], self.0[d].1 + off.0[d])))
    }

    /// Intersection with another section of the same rank.
    pub fn intersect(&self, other: &Section) -> Section {
        assert_eq!(self.rank(), other.rank());
        Section(Dims::from_fn(self.rank(), |d| {
            let ((a, b), (c, e)) = (self.0[d], other.0[d]);
            (a.max(c), b.min(e))
        }))
    }

    /// True when the section lies within the array bounds of `shape`.
    pub fn within(&self, shape: &Shape) -> bool {
        self.rank() == shape.rank()
            && self.0.iter().zip(shape.0.iter()).all(|(&(lo, hi), &e)| lo >= 1 && hi <= e as i64)
    }

    /// True when `point` (1-based per-dim indices) lies inside the section.
    pub fn contains(&self, point: &[i64]) -> bool {
        point.len() == self.rank()
            && point.iter().zip(self.0.iter()).all(|(&p, &(lo, hi))| p >= lo && p <= hi)
    }

    /// Iterate all points of the section in row-major (last dim fastest)
    /// order. Intended for tests and the reference interpreter; the node
    /// executor uses explicit loop nests instead.
    pub fn points(&self) -> SectionPoints {
        SectionPoints { section: *self, cur: self.0.map(|(lo, _)| lo), done: self.is_empty() }
    }
}

impl fmt::Debug for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (lo, hi)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{lo}:{hi}")?;
        }
        write!(f, ")")
    }
}

/// Iterator over the points of a [`Section`].
pub struct SectionPoints {
    section: Section,
    cur: Dims<i64>,
    done: bool,
}

impl Iterator for SectionPoints {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.done {
            return None;
        }
        let out = self.cur.to_vec();
        // Advance row-major: last dimension fastest.
        let rank = self.cur.len();
        let mut d = rank;
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.cur[d] += 1;
            if self.cur[d] <= self.section.0[d].1 {
                break;
            }
            self.cur[d] = self.section.0[d].0;
        }
        Some(out)
    }
}

/// An offset annotation on an array reference — the paper's `U<a1,…,ar>`
/// notation. `U<+1,0>(i,j)` denotes `U(i+1, j)` with off-processor elements
/// found in the overlap area.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Offsets(pub Dims<i64>);

impl Offsets {
    /// All-zero offsets of the given rank (a plain reference).
    pub fn zero(rank: usize) -> Self {
        Offsets(Dims::filled(rank, 0))
    }

    /// Offsets from explicit per-dimension values.
    pub fn new(v: impl Into<Dims<i64>>) -> Self {
        Offsets(v.into())
    }

    /// A unit offset of `amount` in dimension `dim` (0-based), rank `rank`.
    pub fn unit(rank: usize, dim: usize, amount: i64) -> Self {
        let mut v = Dims::filled(rank, 0);
        v[dim] = amount;
        Offsets(v)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Offset in dimension `d`.
    pub fn dim(&self, d: usize) -> i64 {
        self.0[d]
    }

    /// True when every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&o| o == 0)
    }

    /// Component-wise sum — composing two shifts (`CSHIFT` is commutative
    /// and composes additively per dimension, §3.3 of the paper).
    pub fn compose(&self, other: &Offsets) -> Offsets {
        assert_eq!(self.rank(), other.rank());
        Offsets(Dims::from_fn(self.rank(), |d| self.0[d] + other.0[d]))
    }

    /// Largest absolute component — determines the overlap width needed.
    pub fn max_abs(&self) -> i64 {
        self.0.iter().map(|o| o.abs()).max().unwrap_or(0)
    }
}

impl fmt::Debug for Offsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, o) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if *o > 0 {
                write!(f, "+{o}")?;
            } else {
                write!(f, "{o}")?;
            }
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape44() -> Shape {
        Shape::new([4, 4])
    }

    #[test]
    fn full_and_interior() {
        let s = Section::full(&shape44());
        assert_eq!(s.0, vec![(1, 4), (1, 4)]);
        let i = Section::interior(&shape44(), 1);
        assert_eq!(i.0, vec![(2, 3), (2, 3)]);
        assert_eq!(i.num_points(), 4);
    }

    #[test]
    fn translate_and_intersect() {
        let s = Section::new([(2, 3), (2, 3)]);
        let t = s.translate(&Offsets::new([-1, 2]));
        assert_eq!(t.0, vec![(1, 2), (4, 5)]);
        let i = s.intersect(&t);
        assert_eq!(i.0, vec![(2, 2), (4, 3)]);
        assert!(i.is_empty());
        assert_eq!(i.num_points(), 0);
    }

    #[test]
    fn within_and_contains() {
        let s = Section::new([(1, 4), (2, 3)]);
        assert!(s.within(&shape44()));
        assert!(!Section::new([(0, 4), (1, 4)]).within(&shape44()));
        assert!(!Section::new([(1, 5), (1, 4)]).within(&shape44()));
        assert!(s.contains(&[1, 2]));
        assert!(!s.contains(&[1, 1]));
    }

    #[test]
    fn points_row_major() {
        let s = Section::new([(1, 2), (5, 6)]);
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts, vec![vec![1, 5], vec![1, 6], vec![2, 5], vec![2, 6]]);
    }

    #[test]
    fn points_empty() {
        let s = Section::new([(2, 1)]);
        assert_eq!(s.points().count(), 0);
    }

    #[test]
    fn offsets_compose() {
        let a = Offsets::unit(2, 0, 1);
        let b = Offsets::unit(2, 1, -1);
        let c = a.compose(&b);
        assert_eq!(c.0, vec![1, -1]);
        assert_eq!(c.max_abs(), 1);
        assert!(!c.is_zero());
        assert!(Offsets::zero(3).is_zero());
    }

    #[test]
    fn offsets_debug_matches_paper_notation() {
        assert_eq!(format!("{:?}", Offsets::new([1, -1])), "<+1,-1>");
        assert_eq!(format!("{:?}", Offsets::new([0, 0])), "<0,0>");
    }

    #[test]
    fn extent_handles_empty() {
        let s = Section::new([(3, 1)]);
        assert_eq!(s.extent(0), 0);
    }
}
