//! Per-PE subgrid storage with overlap areas.

use crate::schedule::Region;
use hpf_ir::{Dims, Section};

/// An array initializer: the value of the cell at some 1-based global
/// coordinates. A large array's blocks are written on several threads.
pub type CellInit = dyn Fn(&[i64]) -> f64 + Sync;

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
    pub ext: Dims<usize>,
    strides: Dims<usize>,
    data: Vec<f64>,
}

impl Subgrid {
    /// Allocate a zero-filled subgrid for a global owned range.
    pub fn new(owned: Section, halo: usize) -> Self {
        Subgrid::with_storage(owned, halo, Vec::new(), None)
    }

    /// A subgrid for a global owned range in `block`, each of its cells
    /// written once: an owned cell gets `init` of its global coordinates, a
    /// ghost cell `0.0`, and without `init` every cell is `0.0`. A block of
    /// exactly the subgrid's length is taken to be a new all-zero allocation
    /// and, without `init`, left as the allocator handed it out; any other
    /// block is emptied and written (grown first if it has too little room).
    pub(crate) fn with_storage(
        owned: Section,
        halo: usize,
        block: Vec<f64>,
        init: Option<&CellInit>,
    ) -> Self {
        let ext = Dims::from_fn(owned.rank(), |d| owned.extent(d) as usize);
        let strides = layout_strides(&ext, halo);
        let len = Self::storage_bytes(&ext, halo) / std::mem::size_of::<f64>();
        let mut sub = Subgrid { owned, halo, ext, strides, data: Vec::new() };
        let rows = sub.owned_rows();
        let mut data = block;
        match init {
            None if data.len() == len => {}
            None => {
                data.clear();
                data.resize(len, 0.0);
            }
            Some(f) => {
                data.clear();
                data.reserve_exact(len);
                // Rows come in storage order: the ghost cells before each
                // are zeroed as the walk reaches it, the trailing ones last.
                rows.for_each(|point, flat, n| {
                    data.resize(flat, 0.0);
                    data.extend(row_values(point, n, f));
                });
                data.resize(len, 0.0);
            }
        }
        sub.data = data;
        sub
    }

    /// Bytes of storage a subgrid of owned extents `ext` with `halo` ghost
    /// layers takes (saturating at `usize::MAX`).
    pub fn storage_bytes(ext: &[usize], halo: usize) -> usize {
        let padded = ext.iter().map(|&e| e.saturating_add(2 * halo));
        padded.fold(std::mem::size_of::<f64>(), usize::saturating_mul)
    }

    /// Give up the storage, leaving an unusable husk: for a machine being
    /// dropped, which hands its arrays on instead of freeing them.
    pub fn take_storage(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.data)
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

    /// Raw storage (padded, row-major).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Translate a global coordinate to local (no bounds check on result).
    pub fn to_local(&self, global: &[i64]) -> Dims<i64> {
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
            ext: self.ext,
            flat0: self.strides.iter().map(|s| s * self.halo).sum(),
            strides: self.strides,
        }
    }

    /// A rectangular local region resolved against this subgrid's strides:
    /// what a persistent schedule keeps of it, to execute with no index math.
    /// Ranges are local 1-based and may extend into the halo.
    pub fn region_box(&self, ranges: &[(i64, i64)]) -> StridedBox {
        let extents = ranges.iter().map(|&(lo, hi)| (hi - lo + 1).max(0) as usize);
        let empty = region_len(ranges) == 0;
        let dims = kept_dims(extents, &self.strides);
        let at = |end: fn(&(i64, i64)) -> i64| {
            self.index(&ranges.iter().map(end).collect::<Dims<i64>>())
        };
        debug_assert!(empty || at(|r| r.1) < self.data.len(), "region off the subgrid");
        StridedBox { base: if empty { 0 } else { at(|r| r.0) }, dims }
    }

    /// Overwrite every ghost cell with `value`, leaving owned elements
    /// untouched. Test instrumentation: poisoning the overlap areas before a
    /// communication step makes any ghost read the schedules failed to fill
    /// visible in the output.
    pub fn poison_halo(&mut self, value: f64) {
        if self.halo == 0 || self.is_empty() {
            return;
        }
        let owned: Region = self.ext.iter().map(|&e| (1, e as i64)).collect();
        let owned = self.region_box(&owned);
        let mut saved = Vec::new();
        owned.pack(&self.data, &mut saved);
        self.data.fill(value);
        owned.unpack(&mut self.data, &saved);
    }
}

/// The owned cells of a subgrid as runs along the last (storage-contiguous)
/// dimension — see [`Subgrid::owned_rows`]. Whole-array fills, gathers and
/// scatters walk these instead of translating every point on its own.
#[derive(Clone, Debug)]
pub struct OwnedRows {
    /// Global coordinates of the first owned cell.
    first: Dims<i64>,
    ext: Dims<usize>,
    /// Storage index of the first owned cell.
    flat0: usize,
    strides: Dims<usize>,
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
        let mut point = self.first;
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

/// The values `f` gives the `len` cells of a row that starts at `point`,
/// which it advances along the last dimension as it goes.
pub(crate) fn row_values<'a>(
    point: &'a mut [i64],
    len: usize,
    f: impl Fn(&[i64]) -> f64 + 'a,
) -> impl Iterator<Item = f64> + 'a {
    let last = point.len() - 1;
    (0..len).map(move |_| {
        let v = f(point);
        point[last] += 1;
        v
    })
}

/// A rectangular region of one subgrid's storage as an O(rank) descriptor:
/// its first cell's storage index and a `(count, stride)` per dimension,
/// outermost first, extent-1 dimensions dropped. Cells are visited in
/// row-major order, a *run* along the innermost kept dimension at a time (a
/// slice copy at stride 1, a strided scalar loop for a column face); boxes of
/// equal extents walk in lockstep whatever their strides. Counts and strides
/// are `u32`, which keeps a schedule's descriptors small: `Machine::alloc`
/// refuses a subgrid of 2³² cells or more
/// ([`crate::RtError::SubgridTooLarge`]).
#[derive(Clone, Debug, PartialEq)]
pub struct StridedBox {
    base: usize,
    dims: Dims<(u32, u32)>,
}

impl StridedBox {
    /// Kept dimension `d` as `(count, stride)`.
    fn dim(&self, d: usize) -> (usize, usize) {
        let (n, s) = self.dims[d];
        (n as usize, s as usize)
    }

    /// Number of cells.
    pub fn elements(&self) -> usize {
        self.dims.iter().map(|d| d.0 as usize).product()
    }

    /// Do both boxes have the same extents (and so the same runs)?
    pub fn congruent(&self, other: &StridedBox) -> bool {
        self.dims.iter().map(|d| d.0).eq(other.dims.iter().map(|d| d.0))
    }

    /// The local region this box was resolved from on a subgrid of owned
    /// extents `ext` with `halo` ghost layers: the inverse of
    /// [`Subgrid::region_box`], in O(rank), against the layout's own strides.
    /// `None` when no region of that layout resolves to this box (a stride
    /// that is not the layout's, kept dimensions that do not line up, a
    /// region that runs past the storage) and for a box of no cells.
    pub fn section(&self, ext: &[usize], halo: usize) -> Option<Region> {
        let strides = layout_strides(ext, halo);
        // Each kept dimension is the next one of the layout with its stride.
        let (mut count, mut next) = (Dims::filled(ext.len(), 1usize), 0);
        for d in 0..self.dims.len() {
            let (n, s) = self.dim(d);
            next += strides.get(next..)?.iter().position(|&t| t == s)?;
            count[next] = n;
            next += 1;
        }
        let mut rest = self.base;
        let mut region = Region::new();
        for d in 0..ext.len() {
            let at = rest.checked_div(strides[d])?;
            rest %= strides[d];
            if count[d] == 0 || at + count[d] > ext[d] + 2 * halo {
                return None;
            }
            let lo = at as i64 + 1 - halo as i64;
            region.push((lo, lo + count[d] as i64 - 1));
        }
        (kept_dims(count.into_iter(), &strides) == self.dims).then_some(region)
    }

    /// Fault injection for the plan verifier's mutation-kill suite: one more
    /// than the outermost dimension's stride (`stride`) or count.
    #[doc(hidden)]
    pub fn corrupt(&mut self, stride: bool) {
        let d = &mut self.dims[0];
        *(if stride { &mut d.1 } else { &mut d.0 }) += 1;
    }

    /// Call `f(a, b, n, sa, sb)` for every run of `self` and the congruent
    /// `other`: `n` cells from index `a`, `sa` apart, and from `b`, `sb` apart.
    fn runs(&self, other: &StridedBox, mut f: impl FnMut(usize, usize, usize, usize, usize)) {
        debug_assert!(self.congruent(other));
        let last = self.dims.len() - 1;
        let ((n, sa), (_, sb)) = (self.dim(last), other.dim(last));
        if self.elements() > 0 {
            self.walk(other, 0, (self.base, other.base), &mut |a, b| f(a, b, n, sa, sb));
        }
    }

    /// The outer dimensions' odometer behind [`StridedBox::runs`], from `d`.
    fn walk(&self, o: &Self, d: usize, at: (usize, usize), f: &mut impl FnMut(usize, usize)) {
        if d + 1 == self.dims.len() {
            return f(at.0, at.1);
        }
        let ((n, sa), (_, sb)) = (self.dim(d), o.dim(d));
        (0..n).for_each(|i| self.walk(o, d + 1, (at.0 + i * sa, at.1 + i * sb), f));
    }

    /// Append the region's cells of `raw` to `out`.
    pub fn pack(&self, raw: &[f64], out: &mut Vec<f64>) {
        self.runs(self, |a, _, n, s, _| match s {
            1 => out.extend_from_slice(&raw[a..a + n]),
            _ => out.extend(raw[a..].iter().step_by(s).take(n)),
        });
    }

    /// Overwrite the region's cells of `raw` with `buf` (as packed).
    pub fn unpack(&self, raw: &mut [f64], mut buf: &[f64]) {
        assert_eq!(buf.len(), self.elements(), "buffer/region size mismatch");
        self.runs(self, |a, _, n, s, _| {
            let run;
            (run, buf) = buf.split_at(n);
            match s {
                1 => raw[a..a + n].copy_from_slice(run),
                _ => raw[a..].iter_mut().step_by(s).zip(run).for_each(|(c, &v)| *c = v),
            }
        });
    }

    /// Overwrite the region's cells of `raw` with `value`.
    pub fn fill(&self, raw: &mut [f64], value: f64) {
        self.runs(self, |a, _, n, s, _| (0..n).for_each(|i| raw[a + i * s] = value));
    }

    /// Copy the region's cells of `from` to the congruent `dst` in `to`.
    pub fn copy_to(&self, from: &[f64], dst: &StridedBox, to: &mut [f64]) {
        self.runs(dst, |a, b, n, sa, sb| match (sa, sb) {
            (1, 1) => to[b..b + n].copy_from_slice(&from[a..a + n]),
            _ => (0..n).for_each(|i| to[b + i * sb] = from[a + i * sa]),
        });
    }

    /// Copy the region's cells to the congruent `dst` of the same storage. The
    /// regions must be disjoint: a later run would read cells already written.
    pub fn copy_within(&self, dst: &StridedBox, raw: &mut [f64]) {
        self.runs(dst, |a, b, n, sa, sb| match (sa, sb) {
            (1, 1) => raw.copy_within(a..a + n, b),
            _ => (0..n).for_each(|i| raw[b + i * sb] = raw[a + i * sa]),
        });
    }
}

/// Row-major strides of a subgrid of owned extents `ext` with `halo` ghost
/// layers on every side.
fn layout_strides(ext: &[usize], halo: usize) -> Dims<usize> {
    let mut strides = Dims::filled(ext.len(), 1usize);
    for d in (0..ext.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * (ext[d + 1] + 2 * halo);
    }
    strides
}

/// A box's `(count, stride)` list for a region of `counts` cells per
/// dimension on a layout of `strides`: extent-1 dimensions dropped, and one
/// `(1, 1)` standing for a single cell.
fn kept_dims(counts: impl Iterator<Item = usize>, strides: &[usize]) -> Dims<(u32, u32)> {
    let narrow = |x: usize| u32::try_from(x).expect("a subgrid of 2^32 cells or more");
    let kept = counts.zip(strides.iter().copied()).filter(|d| d.0 != 1);
    let mut dims: Dims<(u32, u32)> = kept.map(|(n, s)| (narrow(n), narrow(s))).collect();
    if dims.is_empty() {
        dims.push((1, 1));
    }
    dims
}

/// Number of points in a local region.
pub fn region_len(ranges: &[(i64, i64)]) -> usize {
    ranges.iter().map(|&(lo, hi)| (hi - lo + 1).max(0) as usize).product()
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

    /// A region's cells, packed.
    fn read(g: &Subgrid, ranges: &[(i64, i64)]) -> Vec<f64> {
        let mut out = Vec::new();
        g.region_box(ranges).pack(g.raw(), &mut out);
        out
    }

    /// Overwrite a region's cells with `buf`.
    fn write(g: &mut Subgrid, ranges: &[(i64, i64)], buf: &[f64]) {
        g.region_box(ranges).unpack(g.raw_mut(), buf);
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
        let r = read(&g, &[(1, 2), (2, 3)]);
        assert_eq!(r, vec![2.0, 3.0, 6.0, 7.0]);
        let mut g2 = grid();
        write(&mut g2, &[(1, 2), (2, 3)], &r);
        assert_eq!(g2.get(&[2, 3]), 7.0);
        assert_eq!(g2.get(&[1, 1]), 0.0);
    }

    #[test]
    fn region_into_halo() {
        let mut g = grid();
        write(&mut g, &[(0, 0), (1, 4)], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.get(&[0, 3]), 3.0);
        let back = read(&g, &[(0, 0), (1, 4)]);
        assert_eq!(back, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn box_fill_constant() {
        let mut g = grid();
        g.region_box(&[(3, 3), (0, 5)]).fill(g.raw_mut(), -2.5);
        assert_eq!(g.get(&[3, 0]), -2.5);
        assert_eq!(g.get(&[3, 5]), -2.5);
        assert_eq!(g.get(&[2, 3]), 0.0);
    }

    #[test]
    fn empty_region_ops() {
        let mut g = grid();
        assert!(read(&g, &[(2, 1), (1, 4)]).is_empty());
        write(&mut g, &[(2, 1), (1, 4)], &[]);
        g.region_box(&[(2, 1), (1, 4)]).fill(g.raw_mut(), 1.0);
        assert_eq!(region_len(&[(2, 1), (1, 4)]), 0);
    }

    #[test]
    fn boxes_agree_with_each_other() {
        // The tests above pin pack, unpack and fill to hand-written values;
        // `tests/persistent_schedule` holds every box operation to a
        // point-by-point walk. Here: the direct copies against pack +
        // unpack, between congruent boxes of unlike strides and within one
        // subgrid.
        let mut g = grid();
        for (i, c) in g.raw_mut().iter_mut().enumerate() {
            *c = i as f64;
        }
        let b = g.region_box(&[(0, 2), (1, 4)]);
        let mut packed = vec![-1.0];
        b.pack(g.raw(), &mut packed);
        assert_eq!((b.elements(), packed[0], packed.len()), (12, -1.0, 13), "pack appends");
        assert_eq!(g.region_box(&[(2, 1), (1, 4)]).elements(), 0);
        // A column face onto a column face of a wider subgrid.
        let (from, to) = ([(1, 2), (1, 1)], [(2, 3), (7, 7)]);
        let mut wide = Subgrid::new(Section::new([(1, 3), (1, 6)]), 1);
        let mut staged = wide.clone();
        g.region_box(&from).copy_to(g.raw(), &wide.region_box(&to), wide.raw_mut());
        write(&mut staged, &to, &read(&g, &from));
        assert_eq!(wide, staged);
        assert_eq!(wide.get(&[3, 7]), g.get(&[2, 1]));
        let (src, dst) = (g.region_box(&[(1, 2), (4, 4)]), g.region_box(&[(1, 2), (0, 0)]));
        assert!(src.congruent(&dst) && !src.congruent(&g.region_box(&[(1, 1), (1, 4)])));
        let mut staged = g.clone();
        write(&mut staged, &[(1, 2), (0, 0)], &read(&g, &[(1, 2), (4, 4)]));
        src.copy_within(&dst, g.raw_mut());
        assert_eq!(g, staged);
        assert_eq!(g.get(&[2, 0]), g.get(&[2, 4]));
    }

    #[test]
    fn a_box_decodes_only_against_its_own_layout() {
        // Every padded row (halo 1 over 2 owned), the last two columns.
        let g = grid();
        let region = [(0, 3), (4, 5)];
        let b = g.region_box(&region);
        assert_eq!(b.section(&g.ext, 1), Some(region.into()));
        assert_eq!(b.section(&[2, 5], 1), None, "another layout's strides");
        let (mut longer, mut strided) = (b.clone(), b.clone());
        longer.corrupt(false);
        strided.corrupt(true);
        assert_eq!(longer.section(&g.ext, 1), None, "one row past the storage");
        assert_eq!(strided.section(&g.ext, 1), None, "a stride no dimension has");
        assert_eq!(g.region_box(&[(2, 1), (1, 4)]).section(&g.ext, 1), None, "no cells");
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
