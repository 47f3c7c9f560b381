//! Deterministic communication schedules.
//!
//! Every data-movement operation (full `CSHIFT`, `OVERLAP_SHIFT`) is planned
//! as a list of [`CommAction`]s — rectangular region transfers between PEs
//! plus constant fills for `EOSHIFT` boundaries. The plan is a pure function
//! of the array geometry and the operation, so the sequential executor and
//! every thread of the SPMD executor compute identical schedules, which is
//! what makes threaded runs deterministic and bitwise equal to sequential
//! runs.
//!
//! For time-stepped kernels the plan can further be *compiled* against the
//! allocated subgrids into a [`CompiledComm`]: one O(rank) [`StridedBox`]
//! per region, and nothing else of the plan. Executing it copies run by run
//! — same-PE transfers straight from box to box, messages through a staging
//! buffer — with zero per-step subgrid math or allocation: the persistent
//! halo exchange of GCL-style libraries and persistent MPI, whose requests
//! describe a strided region rather than enumerate it. Whatever reasons
//! about regions (the plan verifier) decodes the boxes back into sections
//! ([`CompiledComm::section`]), so it reads what executes.

use crate::dist::{BlockDim, PeGrid};
use crate::error::RtError;
use crate::machine::MoveKind;
use crate::stats::PeStats;
use crate::subgrid::StridedBox;
use hpf_ir::{ArrayId, Dims, Rsd, ShiftKind};

/// A local region: inclusive 1-based bounds per dimension, which may extend
/// into the halo.
pub type Region = Dims<(i64, i64)>;

/// A rectangular region copy between two PEs (or within one PE when
/// `src_pe == dst_pe`). Ranges are local 1-based per-dimension bounds and
/// may extend into halo cells on either side.
#[derive(Clone, Debug, PartialEq)]
pub struct Transfer {
    /// Sending PE.
    pub src_pe: usize,
    /// Receiving PE.
    pub dst_pe: usize,
    /// Region in the sender's local coordinates.
    pub src_local: Region,
    /// Region in the receiver's local coordinates (same extents).
    pub dst_local: Region,
}

/// One step of a communication plan.
#[derive(Clone, Debug, PartialEq)]
pub enum CommAction {
    /// Copy a region between PEs (a message) or within a PE (a local copy).
    Transfer(Transfer),
    /// Fill a local region of one PE with a constant (`EOSHIFT` boundary).
    Fill {
        /// PE whose subgrid is filled.
        pe: usize,
        /// Region in local coordinates.
        local: Region,
        /// Fill value.
        value: f64,
    },
}

/// One [`Transfer`] compiled against allocated subgrids: both regions
/// resolved into congruent boxes, walked in matching row-major order.
#[derive(Clone, Debug)]
pub struct CompiledTransfer {
    /// Sending PE.
    pub src_pe: usize,
    /// Receiving PE.
    pub dst_pe: usize,
    /// The region in the sender's subgrid of the source array.
    pub src: StridedBox,
    /// The region in the receiver's subgrid of the destination array.
    pub dst: StridedBox,
    /// A same-PE transfer that cannot overwrite what it has yet to read (two
    /// arrays, or disjoint regions of one): copied run to run, never staged.
    pub direct: bool,
}

/// A boundary-value fill compiled to a box.
#[derive(Clone, Debug)]
pub struct CompiledFill {
    /// PE whose subgrid is filled.
    pub pe: usize,
    /// The region in that PE's subgrid of the destination array.
    pub region: StridedBox,
    /// Fill value.
    pub value: f64,
}

/// A communication operation compiled once and executed many times: the
/// persistent-schedule analogue of `MPI_Send_init`/`MPI_Recv_init`. Built by
/// [`crate::Machine::compile_comm`], which keeps its boxes and none of the
/// plan; executed by [`crate::Machine::apply_compiled`], or by the threaded
/// engines' workers through the same boxes. The boxes are the one account
/// of what it moves: the checks that reason about regions decode them
/// against the geometry and halo they were resolved with.
#[derive(Clone, Debug)]
pub struct CompiledComm {
    /// Destination array.
    pub dst: ArrayId,
    /// Source array (equal to `dst` for overlap shifts).
    pub src: ArrayId,
    /// Accounting class of self-transfers.
    pub kind: MoveKind,
    /// Transfers, in plan order.
    pub transfers: Vec<CompiledTransfer>,
    /// Constant fills, in plan order.
    pub fills: Vec<CompiledFill>,
    /// The geometry `src` and `dst` share.
    pub geom: Geometry,
    /// Ghost layers of the subgrids the boxes index.
    pub halo: usize,
}

impl CompiledComm {
    /// Bytes of staging an execution needs: the largest transfer that is
    /// packed and unpacked rather than copied directly.
    pub fn pooled_bytes(&self) -> usize {
        let staged = self.transfers.iter().filter(|t| !t.direct).map(|t| t.src.elements());
        staged.max().unwrap_or(0) * std::mem::size_of::<f64>()
    }

    /// Count one execution of this schedule through `add(pe, counts)`, by
    /// [`credit_transfer`]'s rule. Fills count nothing.
    pub fn credit(&self, mut add: impl FnMut(usize, &PeStats)) {
        for t in &self.transfers {
            credit_transfer(self.kind, (t.src_pe, t.dst_pe), t.src.elements(), &mut add);
        }
    }

    /// Bytes the schedule itself holds, heap included: its boxes and the
    /// geometry they decode against. Independent of how much it moves.
    pub fn descriptor_bytes(&self) -> usize {
        use std::mem::size_of_val as sz;
        sz(self) + sz(&self.transfers[..]) + sz(&self.fills[..])
    }

    /// The local region box `b` covers on `pe`'s subgrid of either array
    /// ([`StridedBox::section`] against that PE's extents); `None` when it
    /// is no section of that subgrid, or `pe` is off the grid.
    pub fn section(&self, pe: usize, b: &StridedBox) -> Option<Region> {
        let on_grid = pe < self.geom.grid.num_pes();
        on_grid.then(|| b.section(&self.geom.extents(pe), self.halo)).flatten()
    }

    /// The regions this schedule writes on `pe`, decoded: its transfers'
    /// destinations there, messages and same-PE copies alike, then its fills.
    pub fn writes(&self, pe: usize) -> impl Iterator<Item = Option<Region>> + '_ {
        let copies = self.transfers.iter().filter(move |t| t.dst_pe == pe).map(|t| &t.dst);
        let fills = self.fills.iter().filter(move |f| f.pe == pe).map(|f| &f.region);
        copies.chain(fills).map(move |b| self.section(pe, b))
    }
}

/// Count one transfer of `elements` from PE `src` to PE `dst` through
/// `add(pe, counts)`: between two PEs, one message of its bytes on each
/// side; within one PE, intraprocessor (full shift) or wrap (overlap) copy
/// bytes.
pub(crate) fn credit_transfer(
    kind: MoveKind,
    (src, dst): (usize, usize),
    elements: usize,
    mut add: impl FnMut(usize, &PeStats),
) {
    let bytes = (elements * std::mem::size_of::<f64>()) as u64;
    if src == dst {
        let local = match kind {
            MoveKind::FullShift => PeStats { intra_bytes: bytes, ..PeStats::default() },
            MoveKind::Overlap => PeStats { wrap_bytes: bytes, ..PeStats::default() },
        };
        add(src, &local);
    } else {
        add(src, &PeStats { msgs_sent: 1, bytes_sent: bytes, ..PeStats::default() });
        add(dst, &PeStats { msgs_recv: 1, bytes_recv: bytes, ..PeStats::default() });
    }
}

/// Do two local regions (inclusive per-dimension ranges) share any point?
pub fn regions_intersect(a: &[(i64, i64)], b: &[(i64, i64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&(alo, ahi), &(blo, bhi))| alo.max(blo) <= ahi.min(bhi))
}

/// Geometry of one distributed array on a machine: a [`BlockDim`] per
/// dimension (collapsed dimensions use `p = 1`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometry {
    /// Per-dimension distribution arithmetic.
    pub dims: Dims<BlockDim>,
    /// The PE grid.
    pub grid: PeGrid,
}

impl Geometry {
    /// Construct; grid rank must equal the number of dimensions.
    pub fn new(dims: impl Into<Dims<BlockDim>>, grid: PeGrid) -> Self {
        let dims = dims.into();
        assert_eq!(dims.len(), grid.rank());
        Geometry { dims, grid }
    }

    /// Owned global section of a PE.
    pub fn owned(&self, pe: usize) -> Region {
        let c = self.grid.coords(pe);
        Dims::from_fn(self.dims.len(), |d| self.dims[d].owned(c[d]))
    }

    /// Local extents of a PE.
    pub fn extents(&self, pe: usize) -> Dims<usize> {
        let c = self.grid.coords(pe);
        Dims::from_fn(self.dims.len(), |d| self.dims[d].extent(c[d]))
    }

    /// True when the PE owns no elements.
    pub fn is_empty(&self, pe: usize) -> bool {
        self.extents(pe).contains(&0)
    }
}

/// Plan an `OVERLAP_SHIFT(A, SHIFT=s, DIM=d [, rsd])`: fill `|s|` ghost
/// layers on the `sign(s)` side of dimension `d` of every PE, transferring
/// from the circular neighbour (or filling the boundary value for
/// [`ShiftKind::EndOff`] at the global edge). The RSD extends the
/// transferred section into other dimensions' overlap areas so corner
/// elements ride along (paper §3.3).
pub fn overlap_shift_plan(
    geom: &Geometry,
    shift: i64,
    dim: usize,
    rsd: Option<&Rsd>,
    kind: ShiftKind,
    halo: usize,
) -> Result<Vec<CommAction>, RtError> {
    let s = shift;
    if s == 0 {
        return Ok(Vec::new());
    }
    let mag = s.unsigned_abs() as usize;
    let limit = halo.min(geom.dims[dim].min_extent());
    if mag > limit {
        return Err(RtError::ShiftTooWide { shift: s, dim, limit });
    }
    let rank = geom.dims.len();
    let mut plan = Vec::new();
    for pe in 0..geom.grid.num_pes() {
        if geom.is_empty(pe) {
            continue;
        }
        let c = geom.grid.coords(pe);
        let ext = geom.extents(pe);
        // Ghost region being filled, in receiver-local coordinates.
        let ghost_d: (i64, i64) =
            if s > 0 { (ext[dim] as i64 + 1, ext[dim] as i64 + s) } else { (1 - mag as i64, 0) };
        // Section in the other dimensions, optionally RSD-extended.
        let mut region = Region::new();
        for e in 0..rank {
            if e == dim {
                region.push(ghost_d);
            } else {
                let (mut lo, mut hi) = (1i64, ext[e] as i64);
                if let Some(r) = rsd {
                    lo -= r.ext[e].0 as i64;
                    hi += r.ext[e].1 as i64;
                }
                region.push((lo, hi));
            }
        }
        // Which PE supplies the data? The circular neighbour along `dim`
        // among non-empty PEs. Because BLOCK owners are contiguous from
        // coordinate 0, the non-empty PEs along the axis are 0..occ.
        let occ = (0..geom.grid.dims[dim]).filter(|&k| geom.dims[dim].extent(k) > 0).count();
        let at_high_edge = c[dim] + 1 == occ;
        let at_low_edge = c[dim] == 0;
        let boundary_side = (s > 0 && at_high_edge) || (s < 0 && at_low_edge);
        if boundary_side {
            if let ShiftKind::EndOff(value) = kind {
                plan.push(CommAction::Fill { pe, local: region, value });
                continue;
            }
        }
        // Circular source coordinate along the axis.
        let src_k = if s > 0 {
            if at_high_edge {
                0
            } else {
                c[dim] + 1
            }
        } else if at_low_edge {
            occ - 1
        } else {
            c[dim] - 1
        };
        let src_pe = geom.grid.with_coord(pe, dim, src_k);
        let src_ext_d = geom.dims[dim].extent(src_k) as i64;
        // Sender-side rows: its first |s| rows for s>0, last |s| for s<0.
        let src_d: (i64, i64) = if s > 0 { (1, s) } else { (src_ext_d + s + 1, src_ext_d) };
        let mut src_local = region;
        src_local[dim] = src_d;
        plan.push(CommAction::Transfer(Transfer {
            src_pe,
            dst_pe: pe,
            src_local,
            dst_local: region,
        }));
    }
    Ok(plan)
}

/// Plan a full `DST = CSHIFT(SRC, SHIFT=s, DIM=d)` / `EOSHIFT`: every owned
/// element of the destination receives `SRC(i + s)` along `d` (circular
/// wrap, or the boundary value when `i + s` falls outside the array for
/// end-off shifts). Transfers with `src_pe == dst_pe` are the shift's
/// *intraprocessor* component — the movement the offset-array optimization
/// eliminates.
pub fn cshift_plan(geom: &Geometry, shift: i64, dim: usize, kind: ShiftKind) -> Vec<CommAction> {
    let n = geom.dims[dim].n as i64;
    let rank = geom.dims.len();
    let mut plan = Vec::new();
    // Normalize circular shifts to [0, n); handle |s| >= n end-off fills.
    let (s, full_fill) = match kind {
        ShiftKind::Circular => (((shift % n) + n) % n, false),
        ShiftKind::EndOff(_) => (shift, shift.abs() >= n),
    };
    for pe in 0..geom.grid.num_pes() {
        if geom.is_empty(pe) {
            continue;
        }
        let c = geom.grid.coords(pe);
        let ext = geom.extents(pe);
        let (dlo, dhi) = geom.dims[dim].owned(c[dim]);
        let full_local = Region::from_fn(rank, |e| (1, ext[e] as i64));
        if full_fill {
            if let ShiftKind::EndOff(value) = kind {
                plan.push(CommAction::Fill { pe, local: full_local, value });
            }
            continue;
        }
        // Needed source rows: [dlo+s, dhi+s]; split into wrap pieces.
        let k_range: &[i64] = match kind {
            ShiftKind::Circular => &[0, 1],
            ShiftKind::EndOff(_) => &[0],
        };
        for &k in k_range {
            let plo = (dlo + s).max(1 + k * n);
            let phi = (dhi + s).min(n + k * n);
            if phi < plo {
                continue;
            }
            // Actual global source rows.
            let (slo_g, shi_g) = (plo - k * n, phi - k * n);
            // Find owning PEs along the axis.
            for src_k in 0..geom.grid.dims[dim] {
                let (olo, ohi) = geom.dims[dim].owned(src_k);
                if ohi < olo {
                    continue;
                }
                let a = slo_g.max(olo);
                let b = shi_g.min(ohi);
                if b < a {
                    continue;
                }
                let src_pe = geom.grid.with_coord(pe, dim, src_k);
                // Destination global rows for this sub-piece.
                let (tlo, thi) = (a + k * n - s, b + k * n - s);
                let (mut src_local, mut dst_local) = (full_local, full_local);
                src_local[dim] = (a - olo + 1, b - olo + 1);
                dst_local[dim] = (tlo - dlo + 1, thi - dlo + 1);
                plan.push(CommAction::Transfer(Transfer {
                    src_pe,
                    dst_pe: pe,
                    src_local,
                    dst_local,
                }));
            }
        }
        // End-off boundary fills: destination rows whose source falls
        // outside [1, n].
        if let ShiftKind::EndOff(value) = kind {
            // dst global rows g in [dlo, dhi] with g+s < 1 or g+s > n.
            let mut fills: Vec<(i64, i64)> = Vec::new();
            if s > 0 {
                let lo = (n - s + 1).max(dlo);
                if lo <= dhi {
                    fills.push((lo, dhi));
                }
            } else if s < 0 {
                let hi = (-s).min(dhi);
                if dlo <= hi {
                    fills.push((dlo, hi));
                }
            }
            for (glo, ghi) in fills {
                let mut local = full_local;
                local[dim] = (glo - dlo + 1, ghi - dlo + 1);
                plan.push(CommAction::Fill { pe, local, value });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgrid::region_len;

    fn geom_2x2_8x8() -> Geometry {
        Geometry::new(vec![BlockDim::new(8, 2), BlockDim::new(8, 2)], PeGrid::new([2, 2]))
    }

    #[test]
    fn geometry_owned_sections() {
        let g = geom_2x2_8x8();
        assert_eq!(g.owned(0), vec![(1, 4), (1, 4)]);
        assert_eq!(g.owned(3), vec![(5, 8), (5, 8)]);
        assert_eq!(g.extents(1), vec![4, 4]);
        assert!(!g.is_empty(2));
    }

    #[test]
    fn overlap_shift_plus_one_dim0() {
        let g = geom_2x2_8x8();
        let plan = overlap_shift_plan(&g, 1, 0, None, ShiftKind::Circular, 1).unwrap();
        // Every PE receives one transfer.
        assert_eq!(plan.len(), 4);
        // PE 0 (coords 0,0) receives from PE (1,0) = 2 into ghost row 5.
        let t = plan
            .iter()
            .find_map(|a| match a {
                CommAction::Transfer(t) if t.dst_pe == 0 => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(t.src_pe, 2);
        assert_eq!(t.dst_local[0], (5, 5));
        assert_eq!(t.src_local[0], (1, 1));
        assert_eq!(t.src_local[1], (1, 4));
        assert_eq!(region_len(&t.src_local) * 8, 4 * 8);
    }

    #[test]
    fn overlap_shift_wraps_at_global_edge() {
        let g = geom_2x2_8x8();
        let plan = overlap_shift_plan(&g, 1, 0, None, ShiftKind::Circular, 1).unwrap();
        // PE 2 (coords 1,0) is at the high edge; circular source is (0,0)=0.
        let t = plan
            .iter()
            .find_map(|a| match a {
                CommAction::Transfer(t) if t.dst_pe == 2 => Some(t),
                _ => None,
            })
            .unwrap();
        assert_eq!(t.src_pe, 0);
    }

    #[test]
    fn overlap_shift_endoff_fills_boundary() {
        let g = geom_2x2_8x8();
        let plan = overlap_shift_plan(&g, -1, 1, None, ShiftKind::EndOff(9.0), 1).unwrap();
        // PEs at the low edge of dim 1 (coords (_,0): PEs 0 and 2) get fills.
        let fills: Vec<_> = plan
            .iter()
            .filter_map(|a| match a {
                CommAction::Fill { pe, local, value } => Some((*pe, *local, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(fills.len(), 2);
        for (pe, local, value) in fills {
            assert!(pe == 0 || pe == 2);
            assert_eq!(local[1], (0, 0));
            assert_eq!(value, 9.0);
        }
    }

    #[test]
    fn overlap_shift_rsd_extends_other_dim() {
        let g = geom_2x2_8x8();
        let mut rsd = Rsd::none(2);
        rsd.extend(0, -1);
        rsd.extend(0, 1);
        let plan = overlap_shift_plan(&g, -1, 1, Some(&rsd), ShiftKind::Circular, 1).unwrap();
        for a in &plan {
            if let CommAction::Transfer(t) = a {
                assert_eq!(t.src_local[0], (0, 5), "extended into dim-0 halo");
                assert_eq!(t.dst_local[0], (0, 5));
            }
        }
    }

    #[test]
    fn overlap_shift_too_wide_fails() {
        let g = geom_2x2_8x8();
        let err = overlap_shift_plan(&g, 2, 0, None, ShiftKind::Circular, 1).unwrap_err();
        assert!(matches!(err, RtError::ShiftTooWide { limit: 1, .. }));
        // Wider halo allows it.
        assert!(overlap_shift_plan(&g, 2, 0, None, ShiftKind::Circular, 2).is_ok());
    }

    #[test]
    fn overlap_shift_single_pe_axis_is_local_wrap() {
        let g = Geometry::new(vec![BlockDim::new(8, 1), BlockDim::new(8, 4)], PeGrid::new([1, 4]));
        let plan = overlap_shift_plan(&g, 1, 0, None, ShiftKind::Circular, 1).unwrap();
        for a in plan {
            match a {
                CommAction::Transfer(t) => {
                    assert_eq!(t.src_pe, t.dst_pe, "wrap within the PE");
                    assert_eq!(t.src_local[0], (1, 1));
                    assert_eq!(t.dst_local[0], (9, 9));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn cshift_unit_shift_splits_intra_and_inter() {
        let g = geom_2x2_8x8();
        let plan = cshift_plan(&g, 1, 0, ShiftKind::Circular);
        let (intra, inter): (Vec<_>, Vec<_>) = plan
            .iter()
            .filter_map(|a| match a {
                CommAction::Transfer(t) => Some(t),
                _ => None,
            })
            .partition(|t| t.src_pe == t.dst_pe);
        // Each PE keeps 3 of its 4 rows locally and receives 1 row.
        assert_eq!(intra.len(), 4);
        assert_eq!(inter.len(), 4);
        for t in intra {
            assert_eq!(region_len(&t.src_local), 3 * 4);
        }
        for t in inter {
            assert_eq!(region_len(&t.src_local), 4);
        }
    }

    #[test]
    fn cshift_covers_all_destination_rows() {
        // Uneven distribution: 10 rows over 4 PEs along dim 0.
        let g = Geometry::new(vec![BlockDim::new(10, 4)], PeGrid::new([4]));
        for s in [-11i64, -3, -1, 0, 1, 2, 5, 9, 10, 23] {
            let plan = cshift_plan(&g, s, 0, ShiftKind::Circular);
            // Collect destination coverage per PE.
            let mut covered = vec![Vec::new(); 4];
            for a in &plan {
                if let CommAction::Transfer(t) = a {
                    covered[t.dst_pe].push(t.dst_local[0]);
                }
            }
            for pe in 0..4 {
                let ext = g.extents(pe)[0] as i64;
                let mut cells = vec![false; ext as usize];
                for (lo, hi) in &covered[pe] {
                    for i in *lo..=*hi {
                        assert!(!cells[(i - 1) as usize], "overlapping transfer s={s}");
                        cells[(i - 1) as usize] = true;
                    }
                }
                assert!(cells.iter().all(|&c| c), "pe {pe} not covered for s={s}");
            }
        }
    }

    #[test]
    fn cshift_endoff_fills_and_covers() {
        let g = Geometry::new(vec![BlockDim::new(8, 2)], PeGrid::new([2]));
        let plan = cshift_plan(&g, 3, 0, ShiftKind::EndOff(5.0));
        // dst rows 6..8 (global) take the boundary: dst(i) = src(i+3).
        let mut filled = 0i64;
        let mut transferred = 0i64;
        for a in &plan {
            match a {
                CommAction::Fill { local, value, .. } => {
                    assert_eq!(*value, 5.0);
                    filled += local[0].1 - local[0].0 + 1;
                }
                CommAction::Transfer(t) => {
                    transferred += t.dst_local[0].1 - t.dst_local[0].0 + 1;
                }
            }
        }
        assert_eq!(filled, 3);
        assert_eq!(transferred, 5);
    }

    #[test]
    fn cshift_endoff_huge_shift_fills_everything() {
        let g = Geometry::new(vec![BlockDim::new(8, 2)], PeGrid::new([2]));
        let plan = cshift_plan(&g, 8, 0, ShiftKind::EndOff(1.0));
        assert!(plan.iter().all(|a| matches!(a, CommAction::Fill { .. })));
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn cshift_zero_is_pure_intra() {
        let g = geom_2x2_8x8();
        let plan = cshift_plan(&g, 0, 0, ShiftKind::Circular);
        for a in plan {
            match a {
                CommAction::Transfer(t) => assert_eq!(t.src_pe, t.dst_pe),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn cshift_full_cycle_equals_zero_shift() {
        let g = geom_2x2_8x8();
        let a = cshift_plan(&g, 8, 0, ShiftKind::Circular);
        let b = cshift_plan(&g, 0, 0, ShiftKind::Circular);
        assert_eq!(a, b);
    }
}
