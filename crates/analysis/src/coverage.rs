//! Ghost-region coverage: which halo offsets of an array hold valid data.
//!
//! This is the static twin of the runtime's overlap-area fill semantics (and
//! of `unioning::covered_one` in `hpf-passes`, which proves the emission of
//! §3.3 covers its requirement set): executing a sequence of
//! `OVERLAP_SHIFT`s *in order* materializes a set of ghost offset vectors,
//! starting from the interior (`<0,…,0>`) and growing as each shift drags
//! previously materialized data — including RSD-widened corner regions —
//! into the overlap areas.
//!
//! The forward dataflow in [`crate::lints`] keeps, per array, the list of
//! fills since the array's interior was last written (a write invalidates
//! every ghost copy of the array, exactly as the runtime's halo poisoning
//! models staleness), and calls [`covered`] at each offset read.

use hpf_ir::{Offsets, Rsd, Stmt};

/// One `OVERLAP_SHIFT` fill event: shift amount and dimension plus the
/// effective RSD widening of the transferred section.
#[derive(Clone, PartialEq, Debug)]
pub struct ShiftRec {
    /// Signed shift amount.
    pub shift: i64,
    /// Shifted dimension (0-based).
    pub dim: usize,
    /// Effective RSD: the explicit one, or the one implied by non-zero
    /// source offsets (exactly the conversion scalarization performs when
    /// lowering to a runtime overlap op).
    pub rsd: Option<Rsd>,
}

impl ShiftRec {
    /// Extract the fill event of an [`Stmt::OverlapShift`]; `None` for any
    /// other statement.
    pub fn from_stmt(s: &Stmt) -> Option<ShiftRec> {
        let Stmt::OverlapShift { src_offsets, shift, dim, rsd, .. } = s else {
            return None;
        };
        let rsd = (*rsd).or_else(|| {
            let mut r = Rsd::none(src_offsets.rank());
            for (e, &o) in src_offsets.0.iter().enumerate() {
                if e != *dim {
                    r.extend(e, o);
                }
            }
            if r.is_trivial() {
                None
            } else {
                Some(r)
            }
        });
        Some(ShiftRec { shift: *shift, dim: *dim, rsd })
    }
}

/// True when executing `fills` in order materializes ghost data at offset
/// `req` (all-zero `req` is trivially covered: it is the interior).
pub fn covered(fills: &[ShiftRec], req: &Offsets) -> bool {
    let rank = req.rank();
    let mut have: Vec<Offsets> = vec![Offsets::zero(rank)];
    let mut new: Vec<Offsets> = Vec::new();
    for f in fills {
        if f.dim >= rank {
            continue; // malformed; validation reports it separately
        }
        for base in &have {
            // The shift moves data whose other-dimension coordinates lie
            // within the RSD extension; `base` qualifies when every
            // non-shift component fits the RSD.
            let fits = (0..rank).all(|e| {
                if e == f.dim {
                    base.dim(e) == 0
                } else {
                    let c = base.dim(e);
                    match &f.rsd {
                        None => c == 0,
                        Some(r) => (-(r.ext[e].0 as i64)..=(r.ext[e].1 as i64)).contains(&c),
                    }
                }
            });
            if fits {
                for k in 1..=f.shift.abs() {
                    let mut v = *base;
                    v.0[f.dim] = f.shift.signum() * k;
                    new.push(v);
                }
            }
        }
        for v in new.drain(..) {
            if !have.contains(&v) {
                have.push(v);
            }
        }
    }
    have.contains(req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::{ArrayId, ShiftKind};

    fn overlap(shift: i64, dim: usize, rsd: Option<Rsd>) -> Stmt {
        Stmt::OverlapShift {
            array: ArrayId(0),
            src_offsets: Offsets::zero(2),
            shift,
            dim,
            rsd,
            kind: ShiftKind::Circular,
        }
    }

    #[test]
    fn single_shift_covers_its_face() {
        let fills = vec![ShiftRec::from_stmt(&overlap(2, 0, None)).unwrap()];
        assert!(covered(&fills, &Offsets::new([1, 0])));
        assert!(covered(&fills, &Offsets::new([2, 0])));
        assert!(!covered(&fills, &Offsets::new([3, 0])));
        assert!(!covered(&fills, &Offsets::new([-1, 0])));
        assert!(!covered(&fills, &Offsets::new([1, 1])));
        assert!(covered(&fills, &Offsets::zero(2)), "interior always valid");
    }

    #[test]
    fn corner_needs_rsd() {
        let plain = [overlap(1, 0, None), overlap(1, 1, None)]
            .iter()
            .filter_map(ShiftRec::from_stmt)
            .collect::<Vec<_>>();
        assert!(!covered(&plain, &Offsets::new([1, 1])));
        let mut rsd = Rsd::none(2);
        rsd.extend(0, 1);
        let with_rsd = [overlap(1, 0, None), overlap(1, 1, Some(rsd))]
            .iter()
            .filter_map(ShiftRec::from_stmt)
            .collect::<Vec<_>>();
        assert!(covered(&with_rsd, &Offsets::new([1, 1])));
    }

    #[test]
    fn src_offsets_imply_rsd() {
        // OVERLAP_SHIFT of U<+1,0> along dim 1 transfers the dim-0-extended
        // region: scalarization converts the annotation to an RSD; the model
        // must agree.
        let s = Stmt::OverlapShift {
            array: ArrayId(0),
            src_offsets: Offsets::new([1, 0]),
            shift: 1,
            dim: 1,
            rsd: None,
            kind: ShiftKind::Circular,
        };
        let rec = ShiftRec::from_stmt(&s).unwrap();
        let fills = vec![ShiftRec::from_stmt(&overlap(1, 0, None)).unwrap(), rec];
        assert!(covered(&fills, &Offsets::new([1, 1])));
    }

    #[test]
    fn order_matters() {
        let mut rsd = Rsd::none(2);
        rsd.extend(0, 1);
        // RSD shift first: dim-0 ghosts not yet filled, corner not covered.
        let wrong = [overlap(1, 1, Some(rsd)), overlap(1, 0, None)]
            .iter()
            .filter_map(ShiftRec::from_stmt)
            .collect::<Vec<_>>();
        assert!(!covered(&wrong, &Offsets::new([1, 1])));
    }
}
