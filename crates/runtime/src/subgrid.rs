//! Per-PE subgrid storage with overlap areas.

use hpf_ir::Section;

/// The local piece of a distributed array on one PE, stored with `halo`
/// ghost layers on every side of every dimension (the *overlap area* of the
/// paper). Local coordinates are 1-based over the owned extents; ghost cells
/// have local coordinates `1-halo..=0` and `ext+1..=ext+halo`.
#[derive(Clone, Debug, PartialEq)]
pub struct Subgrid {
    /// Global bounds owned by this PE (may be empty).
    pub owned: Section,
    /// Ghost layers per side per dimension.
    pub halo: usize,
    /// Owned extents per dimension.
    pub ext: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl Subgrid {
    /// Allocate a zero-filled subgrid for a global owned range.
    pub fn new(owned: Section, halo: usize) -> Self {
        let ext: Vec<usize> = (0..owned.rank()).map(|d| owned.extent(d) as usize).collect();
        let padded: Vec<usize> = ext.iter().map(|&e| e + 2 * halo).collect();
        let mut strides = vec![1usize; ext.len()];
        for d in (0..ext.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded[d + 1];
        }
        let len: usize = padded.iter().product();
        Subgrid { owned, halo, ext, strides, data: vec![0.0; len] }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.ext.len()
    }

    /// Allocated storage in bytes (including overlap areas).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// True when this PE owns no elements.
    pub fn is_empty(&self) -> bool {
        self.ext.contains(&0)
    }

    #[inline]
    fn index(&self, local: &[i64]) -> usize {
        debug_assert_eq!(local.len(), self.rank());
        let mut idx = 0usize;
        for d in 0..local.len() {
            let l = local[d] + self.halo as i64 - 1;
            debug_assert!(
                l >= 0 && (l as usize) < self.ext[d] + 2 * self.halo,
                "local coordinate {} out of range (dim {d}, ext {}, halo {})",
                local[d],
                self.ext[d],
                self.halo
            );
            idx += l as usize * self.strides[d];
        }
        idx
    }

    /// Read a local coordinate (ghost cells allowed).
    #[inline]
    pub fn get(&self, local: &[i64]) -> f64 {
        self.data[self.index(local)]
    }

    /// Write a local coordinate (ghost cells allowed).
    #[inline]
    pub fn set(&mut self, local: &[i64], v: f64) {
        let i = self.index(local);
        self.data[i] = v;
    }

    /// Per-dimension storage strides (row-major over the padded extents).
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Flat storage index of a local coordinate (ghost cells allowed) — for
    /// executors that precompute access deltas.
    pub fn flat_index(&self, local: &[i64]) -> usize {
        self.index(local)
    }

    /// Raw storage (padded, row-major).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Translate a global coordinate to local (no bounds check on result).
    pub fn to_local(&self, global: &[i64]) -> Vec<i64> {
        global.iter().zip(&self.owned.0).map(|(&g, &(lo, _))| g - lo + 1).collect()
    }

    /// Read a global coordinate owned by (or in the halo of) this PE.
    pub fn get_global(&self, global: &[i64]) -> f64 {
        self.get(&self.to_local(global))
    }

    /// Write a global coordinate.
    pub fn set_global(&mut self, global: &[i64], v: f64) {
        let l = self.to_local(global);
        self.set(&l, v);
    }

    /// A walker over the owned cells, row by row. It copies the geometry it
    /// needs, so the caller may hold `raw_mut()` while it walks.
    pub fn owned_rows(&self) -> OwnedRows {
        OwnedRows {
            first: self.owned.0.iter().map(|&(lo, _)| lo).collect(),
            ext: self.ext.clone(),
            flat0: self.strides.iter().map(|s| s * self.halo).sum(),
            strides: self.strides.clone(),
        }
    }

    /// Gather a rectangular local region into a row-major buffer. Ranges are
    /// local 1-based and may extend into the halo.
    pub fn read_region(&self, ranges: &[(i64, i64)]) -> Vec<f64> {
        let mut out = Vec::with_capacity(region_len(ranges));
        let mut cur: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        if ranges.iter().any(|&(lo, hi)| hi < lo) {
            return out;
        }
        loop {
            out.push(self.get(&cur));
            if !advance(&mut cur, ranges) {
                break;
            }
        }
        out
    }

    /// Scatter a row-major buffer into a rectangular local region.
    pub fn write_region(&mut self, ranges: &[(i64, i64)], buf: &[f64]) {
        assert_eq!(buf.len(), region_len(ranges), "buffer/region size mismatch");
        if buf.is_empty() {
            return;
        }
        let mut cur: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        let mut i = 0;
        loop {
            self.set(&cur, buf[i]);
            i += 1;
            if !advance(&mut cur, ranges) {
                break;
            }
        }
    }

    /// Flat storage indices of a rectangular local region, in the same
    /// row-major order as [`Subgrid::read_region`] / [`Subgrid::write_region`].
    /// This is what persistent communication schedules precompute so that
    /// executing a shift needs no per-step subgrid coordinate math.
    pub fn region_indices(&self, ranges: &[(i64, i64)]) -> Vec<usize> {
        let mut out = Vec::with_capacity(region_len(ranges));
        if ranges.iter().any(|&(lo, hi)| hi < lo) {
            return out;
        }
        let mut cur: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            out.push(self.index(&cur));
            if !advance(&mut cur, ranges) {
                break;
            }
        }
        out
    }

    /// Overwrite every ghost cell with `value`, leaving owned elements
    /// untouched. Test instrumentation: poisoning the overlap areas before a
    /// communication step makes any ghost read the schedules failed to fill
    /// visible in the output.
    pub fn poison_halo(&mut self, value: f64) {
        if self.halo == 0 || self.is_empty() {
            return;
        }
        let owned: Vec<(i64, i64)> = self.ext.iter().map(|&e| (1, e as i64)).collect();
        let saved = self.read_region(&owned);
        self.data.fill(value);
        self.write_region(&owned, &saved);
    }

    /// Fill a rectangular local region with a constant (used for `EOSHIFT`
    /// boundary values).
    pub fn fill_region(&mut self, ranges: &[(i64, i64)], value: f64) {
        if ranges.iter().any(|&(lo, hi)| hi < lo) {
            return;
        }
        let mut cur: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            self.set(&cur, value);
            if !advance(&mut cur, ranges) {
                break;
            }
        }
    }
}

/// The owned cells of a subgrid as runs along the last (storage-contiguous)
/// dimension — see [`Subgrid::owned_rows`]. Whole-array fills, gathers and
/// scatters walk these instead of translating every point on its own.
#[derive(Clone, Debug)]
pub struct OwnedRows {
    /// Global coordinates of the first owned cell.
    first: Vec<i64>,
    ext: Vec<usize>,
    /// Storage index of the first owned cell.
    flat0: usize,
    strides: Vec<usize>,
}

impl OwnedRows {
    /// Call `f(point, flat, len)` for every row, in row-major order of the
    /// global coordinates: `point` is the row's first cell (one buffer,
    /// reused; `f` may advance its last coordinate as it walks the row),
    /// `flat` that cell's storage index, and the row's `len` cells are
    /// contiguous in storage. Every owned cell lies in exactly one row.
    pub fn for_each(self, mut f: impl FnMut(&mut [i64], usize, usize)) {
        let Some(last) = self.ext.len().checked_sub(1) else { return };
        if self.ext.contains(&0) {
            return;
        }
        let mut point = self.first.clone();
        let mut flat = self.flat0;
        loop {
            point[last] = self.first[last];
            f(&mut point, flat, self.ext[last]);
            // Odometer over the outer dimensions, carrying the flat index.
            let mut d = last;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                point[d] += 1;
                flat += self.strides[d];
                if point[d] < self.first[d] + self.ext[d] as i64 {
                    break;
                }
                point[d] = self.first[d];
                flat -= self.strides[d] * self.ext[d];
            }
        }
    }
}

/// Number of points in a local region.
pub fn region_len(ranges: &[(i64, i64)]) -> usize {
    ranges.iter().map(|&(lo, hi)| (hi - lo + 1).max(0) as usize).product()
}

/// Advance a row-major cursor; returns false when exhausted.
fn advance(cur: &mut [i64], ranges: &[(i64, i64)]) -> bool {
    for d in (0..cur.len()).rev() {
        cur[d] += 1;
        if cur[d] <= ranges[d].1 {
            return true;
        }
        cur[d] = ranges[d].0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Subgrid {
        // Owns global (3:4, 5:8), halo 1.
        Subgrid::new(Section::new([(3, 4), (5, 8)]), 1)
    }

    #[test]
    fn geometry() {
        let g = grid();
        assert_eq!(g.ext, vec![2, 4]);
        assert_eq!(g.rank(), 2);
        // (2+2) * (4+2) doubles.
        assert_eq!(g.bytes(), 4 * 6 * 8);
        assert!(!g.is_empty());
    }

    #[test]
    fn empty_subgrid() {
        let g = Subgrid::new(Section::new([(5, 4)]), 1);
        assert!(g.is_empty());
        assert_eq!(g.bytes(), 2 * 8); // just the halo cells
    }

    #[test]
    fn local_get_set_including_halo() {
        let mut g = grid();
        g.set(&[1, 1], 42.0);
        assert_eq!(g.get(&[1, 1]), 42.0);
        g.set(&[0, 0], 7.0); // corner ghost
        assert_eq!(g.get(&[0, 0]), 7.0);
        g.set(&[3, 5], 9.0); // high ghost
        assert_eq!(g.get(&[3, 5]), 9.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_halo_panics_in_debug() {
        let g = grid();
        g.get(&[-1, 1]);
    }

    #[test]
    fn global_translation() {
        let mut g = grid();
        g.set_global(&[3, 5], 1.5);
        assert_eq!(g.get(&[1, 1]), 1.5);
        assert_eq!(g.get_global(&[3, 5]), 1.5);
        assert_eq!(g.to_local(&[4, 8]), vec![2, 4]);
    }

    #[test]
    fn region_roundtrip() {
        let mut g = grid();
        let mut v = 0.0;
        for i in 1..=2i64 {
            for j in 1..=4i64 {
                v += 1.0;
                g.set(&[i, j], v);
            }
        }
        let r = g.read_region(&[(1, 2), (2, 3)]);
        assert_eq!(r, vec![2.0, 3.0, 6.0, 7.0]);
        let mut g2 = grid();
        g2.write_region(&[(1, 2), (2, 3)], &r);
        assert_eq!(g2.get(&[2, 3]), 7.0);
        assert_eq!(g2.get(&[1, 1]), 0.0);
    }

    #[test]
    fn region_into_halo() {
        let mut g = grid();
        g.write_region(&[(0, 0), (1, 4)], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.get(&[0, 3]), 3.0);
        let back = g.read_region(&[(0, 0), (1, 4)]);
        assert_eq!(back, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fill_region_constant() {
        let mut g = grid();
        g.fill_region(&[(3, 3), (0, 5)], -2.5);
        assert_eq!(g.get(&[3, 0]), -2.5);
        assert_eq!(g.get(&[3, 5]), -2.5);
        assert_eq!(g.get(&[2, 3]), 0.0);
    }

    #[test]
    fn empty_region_ops() {
        let mut g = grid();
        assert!(g.read_region(&[(2, 1), (1, 4)]).is_empty());
        g.write_region(&[(2, 1), (1, 4)], &[]);
        g.fill_region(&[(2, 1), (1, 4)], 1.0);
        assert_eq!(region_len(&[(2, 1), (1, 4)]), 0);
    }

    #[test]
    fn region_indices_match_region_order() {
        let mut g = grid();
        let ranges = [(0i64, 2i64), (1, 4)];
        let mut v = 0.0;
        // Distinct values over the region (including a halo row).
        let idx = g.region_indices(&ranges);
        for &i in &idx {
            v += 1.0;
            g.raw_mut()[i] = v;
        }
        // read_region enumerates the same cells in the same order.
        let read = g.read_region(&ranges);
        assert_eq!(read, (1..=idx.len()).map(|i| i as f64).collect::<Vec<_>>());
        assert!(g.region_indices(&[(2, 1), (1, 4)]).is_empty());
    }

    #[test]
    fn poison_halo_spares_owned() {
        let mut g = grid();
        g.set(&[1, 1], 42.0);
        g.set(&[0, 0], 7.0); // ghost corner, should be overwritten
        g.poison_halo(f64::MAX);
        assert_eq!(g.get(&[1, 1]), 42.0);
        assert_eq!(g.get(&[2, 4]), 0.0);
        assert_eq!(g.get(&[0, 0]), f64::MAX);
        assert_eq!(g.get(&[3, 5]), f64::MAX);
        assert_eq!(g.get(&[0, 2]), f64::MAX);
    }

    #[test]
    fn region_len_counts() {
        assert_eq!(region_len(&[(1, 2), (5, 8)]), 8);
        assert_eq!(region_len(&[(0, 0)]), 1);
    }
}
