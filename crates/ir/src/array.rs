//! Array and scalar symbol declarations, shapes, and HPF distributions.

use crate::dims::Dims;
use std::fmt;

/// Identifier of an array in a [`crate::SymbolTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl fmt::Debug for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifier of a scalar in a [`crate::SymbolTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarId(pub u32);

impl fmt::Debug for ScalarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Extents of an array, one per dimension (Fortran-style, indices are
/// 1-based and run to the extent inclusive).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape(pub Dims<usize>);

impl Shape {
    /// A new shape from per-dimension extents.
    pub fn new(extents: impl Into<Dims<usize>>) -> Self {
        Shape(extents.into())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `d` (0-based).
    pub fn extent(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when any extent is zero.
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Per-dimension distribution directive.
///
/// Only the two forms the paper uses: `BLOCK` and `*` (collapsed /
/// replicated along that dimension).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum DimDist {
    /// `BLOCK`: the dimension is split into contiguous blocks, one per
    /// processor along the corresponding axis of the PE grid.
    #[default]
    Block,
    /// `*`: the dimension is not distributed; every PE holds it whole.
    Collapsed,
}

/// An HPF `DISTRIBUTE` descriptor: one [`DimDist`] per array dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Distribution(pub Dims<DimDist>);

impl Distribution {
    /// `(BLOCK,...,BLOCK)` over `rank` dimensions.
    pub fn block(rank: usize) -> Self {
        Distribution(Dims::filled(rank, DimDist::Block))
    }

    /// Fully collapsed (replicated on every PE).
    pub fn replicated(rank: usize) -> Self {
        Distribution(Dims::filled(rank, DimDist::Collapsed))
    }

    /// Number of dimensions covered by the descriptor.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Distribution of dimension `d`.
    pub fn dim(&self, d: usize) -> DimDist {
        self.0[d]
    }

    /// Indices of the distributed (BLOCK) dimensions.
    pub fn block_dims(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().filter(|(_, d)| **d == DimDist::Block).map(|(i, _)| i)
    }
}

impl fmt::Debug for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match d {
                DimDist::Block => write!(f, "BLOCK")?,
                DimDist::Collapsed => write!(f, "*")?,
            }
        }
        write!(f, ")")
    }
}

/// Declaration of a (distributed) array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Source-level name (`U`, `TMP1`, ...).
    pub name: String,
    /// Per-dimension extents.
    pub shape: Shape,
    /// HPF distribution descriptor; must have the same rank as `shape`.
    pub dist: Distribution,
    /// True for compiler-generated temporaries (eligible for elimination
    /// once the offset-array optimization removes their uses).
    pub temp: bool,
}

impl ArrayDecl {
    /// Declare a user array.
    pub fn user(name: impl Into<String>, shape: Shape, dist: Distribution) -> Self {
        assert_eq!(shape.rank(), dist.rank(), "shape/distribution rank mismatch");
        ArrayDecl { name: name.into(), shape, dist, temp: false }
    }

    /// Declare a compiler temporary with the same shape/distribution as a
    /// source array.
    pub fn temp_like(name: impl Into<String>, other: &ArrayDecl) -> Self {
        ArrayDecl { name: name.into(), shape: other.shape, dist: other.dist, temp: true }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }
}

/// Declaration of a scalar coefficient (`C1`, ... in the paper's examples).
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarDecl {
    /// Source-level name.
    pub name: String,
    /// Initial value (set by the program or its runtime environment).
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_basics() {
        let s = Shape::new([4, 6]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.extent(0), 4);
        assert_eq!(s.extent(1), 6);
        assert_eq!(s.len(), 24);
        assert!(!s.is_empty());
        assert!(Shape::new([4, 0]).is_empty());
    }

    #[test]
    fn distribution_block_dims() {
        let d = Distribution([DimDist::Block, DimDist::Collapsed, DimDist::Block].into());
        assert_eq!(d.block_dims().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(format!("{d:?}"), "(BLOCK,*,BLOCK)");
    }

    #[test]
    fn distribution_constructors() {
        assert_eq!(Distribution::block(2).0, vec![DimDist::Block; 2]);
        assert_eq!(Distribution::replicated(3).0, vec![DimDist::Collapsed; 3]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn array_decl_rank_mismatch_panics() {
        ArrayDecl::user("A", Shape::new([4, 4]), Distribution::block(3));
    }

    #[test]
    fn temp_like_copies_shape_and_dist() {
        let u = ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2));
        let t = ArrayDecl::temp_like("TMP1", &u);
        assert!(t.temp);
        assert_eq!(t.shape, u.shape);
        assert_eq!(t.dist, u.dist);
        assert_eq!(t.rank(), 2);
    }
}
