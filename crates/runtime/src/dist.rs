//! HPF `BLOCK` distribution arithmetic and the PE grid.

use hpf_ir::Dims;

/// Block distribution of one dimension of extent `n` over `p` processors:
/// standard HPF `BLOCK` with block size `ceil(n/p)`; trailing processors may
/// own a short or empty range.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockDim {
    /// Global extent.
    pub n: usize,
    /// Number of processors along this axis.
    pub p: usize,
}

impl BlockDim {
    /// Construct; `p >= 1` required.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1, "need at least one processor per axis");
        BlockDim { n, p }
    }

    /// Block size `ceil(n/p)`.
    pub fn block(&self) -> usize {
        self.n.div_ceil(self.p)
    }

    /// Owned global range (1-based inclusive) of processor `k`; empty ranges
    /// are returned as `(lo, lo-1)`.
    pub fn owned(&self, k: usize) -> (i64, i64) {
        let b = self.block() as i64;
        let lo = k as i64 * b + 1;
        let hi = ((k as i64 + 1) * b).min(self.n as i64);
        if hi < lo {
            (lo, lo - 1)
        } else {
            (lo, hi)
        }
    }

    /// Local extent of processor `k`.
    pub fn extent(&self, k: usize) -> usize {
        let (lo, hi) = self.owned(k);
        (hi - lo + 1).max(0) as usize
    }

    /// Owner of global index `i` (1-based); `None` when out of bounds.
    pub fn owner(&self, i: i64) -> Option<usize> {
        if i < 1 || i > self.n as i64 {
            return None;
        }
        Some(((i - 1) as usize / self.block()).min(self.p - 1))
    }

    /// Smallest non-empty local extent over all processors — an upper bound
    /// on usable overlap widths and shift distances through overlap areas.
    pub fn min_extent(&self) -> usize {
        (0..self.p).map(|k| self.extent(k)).filter(|&e| e > 0).min().unwrap_or(0)
    }
}

/// The PE grid: processors arranged in an `r`-dimensional mesh matching the
/// rank of the program's arrays. Axis `d` of the mesh distributes dimension
/// `d` of `BLOCK` dimensions; collapsed (`*`) dimensions require a grid
/// extent of 1 along that axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeGrid {
    /// Processors per axis.
    pub dims: Dims<usize>,
}

impl PeGrid {
    /// Construct a grid; every axis must have at least one processor, and
    /// there are at most [`hpf_ir::MAX_RANK`] axes.
    pub fn new(dims: impl Into<Dims<usize>>) -> Self {
        let dims = dims.into();
        assert!(!dims.is_empty() && dims.iter().all(|&d| d >= 1), "bad PE grid");
        PeGrid { dims }
    }

    /// Rank of the grid.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of PEs.
    pub fn num_pes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of linear PE index `pe` (row-major: last axis fastest).
    pub fn coords(&self, pe: usize) -> Dims<usize> {
        assert!(pe < self.num_pes());
        let mut c = Dims::filled(self.rank(), 0);
        let mut rem = pe;
        for d in (0..self.rank()).rev() {
            c[d] = rem % self.dims[d];
            rem /= self.dims[d];
        }
        c
    }

    /// Linear index of grid coordinates.
    pub fn linear(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.rank());
        let mut idx = 0;
        for d in 0..self.rank() {
            assert!(coords[d] < self.dims[d]);
            idx = idx * self.dims[d] + coords[d];
        }
        idx
    }

    /// Linear index of the PE whose coordinate along `axis` is replaced by
    /// `k`, all other coordinates taken from `pe`.
    pub fn with_coord(&self, pe: usize, axis: usize, k: usize) -> usize {
        let mut c = self.coords(pe);
        c[axis] = k;
        self.linear(&c)
    }

    /// Neighbour of `pe` along `axis` at offset `step` with circular wrap.
    pub fn neighbor(&self, pe: usize, axis: usize, step: i64) -> usize {
        let mut c = self.coords(pe);
        let p = self.dims[axis] as i64;
        c[axis] = (((c[axis] as i64 + step) % p + p) % p) as usize;
        self.linear(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_even_division() {
        let b = BlockDim::new(8, 4);
        assert_eq!(b.block(), 2);
        assert_eq!(b.owned(0), (1, 2));
        assert_eq!(b.owned(3), (7, 8));
        assert_eq!(b.extent(2), 2);
        assert_eq!(b.min_extent(), 2);
    }

    #[test]
    fn block_uneven_division() {
        let b = BlockDim::new(10, 4); // blocks of 3: 1-3,4-6,7-9,10-10
        assert_eq!(b.block(), 3);
        assert_eq!(b.owned(0), (1, 3));
        assert_eq!(b.owned(3), (10, 10));
        assert_eq!(b.extent(3), 1);
        assert_eq!(b.min_extent(), 1);
    }

    #[test]
    fn block_with_empty_processor() {
        let b = BlockDim::new(4, 3); // blocks of 2: 1-2, 3-4, empty
        assert_eq!(b.extent(2), 0);
        assert_eq!(b.min_extent(), 2);
        let (lo, hi) = b.owned(2);
        assert!(hi < lo);
    }

    #[test]
    fn owner_lookup() {
        let b = BlockDim::new(10, 4);
        assert_eq!(b.owner(1), Some(0));
        assert_eq!(b.owner(3), Some(0));
        assert_eq!(b.owner(4), Some(1));
        assert_eq!(b.owner(10), Some(3));
        assert_eq!(b.owner(0), None);
        assert_eq!(b.owner(11), None);
    }

    #[test]
    fn owner_matches_owned() {
        for (n, p) in [(8, 4), (10, 4), (5, 2), (7, 3), (16, 1)] {
            let b = BlockDim::new(n, p);
            for i in 1..=n as i64 {
                let k = b.owner(i).unwrap();
                let (lo, hi) = b.owned(k);
                assert!(i >= lo && i <= hi, "n={n} p={p} i={i} k={k}");
            }
        }
    }

    #[test]
    fn grid_roundtrip() {
        let g = PeGrid::new([2, 3]);
        assert_eq!(g.num_pes(), 6);
        for pe in 0..6 {
            assert_eq!(g.linear(&g.coords(pe)), pe);
        }
        assert_eq!(g.coords(0), vec![0, 0]);
        assert_eq!(g.coords(5), vec![1, 2]);
    }

    #[test]
    fn grid_neighbors_wrap() {
        let g = PeGrid::new([2, 2]);
        // PE 0 = (0,0). +1 along axis 0 -> (1,0) = 2.
        assert_eq!(g.neighbor(0, 0, 1), 2);
        assert_eq!(g.neighbor(2, 0, 1), 0); // wraps
        assert_eq!(g.neighbor(0, 1, -1), 1); // wraps to (0,1)
        assert_eq!(g.neighbor(0, 0, 2), 0); // full cycle
        assert_eq!(g.neighbor(0, 0, -3), 2);
    }

    #[test]
    fn with_coord() {
        let g = PeGrid::new([2, 3]);
        let pe = g.linear(&[1, 2]);
        assert_eq!(g.coords(g.with_coord(pe, 1, 0)), vec![1, 0]);
    }

    #[test]
    fn one_dimensional_grid() {
        let g = PeGrid::new([4]);
        assert_eq!(g.num_pes(), 4);
        assert_eq!(g.neighbor(3, 0, 1), 0);
    }
}
