//! Runtime errors.

use std::fmt;

/// Errors raised by the machine simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum RtError {
    /// A PE's memory budget was exceeded — the mechanism behind Figure 11's
    /// missing data points (the single-statement 9-point stencil exhausts
    /// 256 MB/PE through its twelve CSHIFT temporaries).
    MemoryExhausted {
        /// PE that failed the allocation.
        pe: usize,
        /// Bytes the allocation would have brought the PE to.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// A PE's subgrid (halo included) has more cells than a strided box
    /// can address: box counts and strides are `u32`, so a subgrid must
    /// stay under 2^32 cells whatever the memory budget.
    SubgridTooLarge {
        /// PE whose subgrid is too large.
        pe: usize,
        /// Cells of that subgrid, halo included.
        cells: usize,
        /// The largest subgrid a box addresses, in cells.
        limit: usize,
    },
    /// An array operation referenced an unallocated array.
    NotAllocated(String),
    /// An array id was allocated twice without an intervening free.
    AlreadyAllocated(String),
    /// A shift distance does not fit the overlap width or block extents.
    ShiftTooWide {
        /// Offending shift amount.
        shift: i64,
        /// Along dimension.
        dim: usize,
        /// The limiting width (overlap width or minimum block extent).
        limit: usize,
    },
    /// The configured halo depth does not fit a PE's subgrid: a ghost
    /// region deeper than the block extent would wrap past the adjacent
    /// neighbor, silently mis-sizing (and mis-filling) the overlap area.
    /// Raised at allocation time so deep-halo (superstep) configurations
    /// fail loudly instead of corrupting exchanges.
    HaloTooDeep {
        /// The configured halo depth.
        halo: usize,
        /// Dimension whose block extent is too small.
        dim: usize,
        /// The smallest non-empty block extent along that dimension.
        extent: usize,
    },
    /// Array distribution incompatible with the machine (e.g. a collapsed
    /// dimension on a grid axis with more than one PE).
    BadDistribution(String),
    /// Mismatched ranks between machine grid and arrays.
    RankMismatch {
        /// Machine grid rank.
        machine: usize,
        /// Array rank.
        array: usize,
    },
    /// The static verifiers rejected a compiled kernel or execution plan in
    /// a checked build (`BV*` bytecode diagnostics, `PL*` plan-level race
    /// diagnostics). The report carries one line per violated obligation.
    VerificationFailed {
        /// Rendered diagnostics, one `CODE: message` line each.
        report: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::MemoryExhausted { pe, needed, budget } => {
                write!(f, "memory exhausted on PE {pe}: needs {needed} bytes, budget {budget}")
            }
            RtError::SubgridTooLarge { pe, cells, limit } => write!(
                f,
                "subgrid of PE {pe} has {cells} cells; strided boxes (u32 counts and \
                 strides) address at most {limit}"
            ),
            RtError::NotAllocated(name) => write!(f, "array {name} is not allocated"),
            RtError::AlreadyAllocated(name) => write!(f, "array {name} is already allocated"),
            RtError::ShiftTooWide { shift, dim, limit } => {
                write!(f, "shift {shift} along dim {} exceeds limit {limit}", dim + 1)
            }
            RtError::HaloTooDeep { halo, dim, extent } => {
                write!(
                    f,
                    "halo depth {halo} does not fit the per-PE subgrid: \
                     smallest block extent along dim {} is {extent}",
                    dim + 1
                )
            }
            RtError::BadDistribution(msg) => write!(f, "bad distribution: {msg}"),
            RtError::RankMismatch { machine, array } => {
                write!(f, "machine grid rank {machine} != array rank {array}")
            }
            RtError::VerificationFailed { report } => {
                write!(f, "static verification failed:\n{report}")
            }
        }
    }
}

impl std::error::Error for RtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RtError::MemoryExhausted { pe: 2, needed: 1000, budget: 512 };
        assert!(e.to_string().contains("PE 2"));
        assert!(RtError::ShiftTooWide { shift: 3, dim: 1, limit: 1 }.to_string().contains("dim 2"));
        let h = RtError::HaloTooDeep { halo: 4, dim: 0, extent: 2 };
        assert!(h.to_string().contains("halo depth 4"), "{h}");
        assert!(h.to_string().contains("dim 1"), "{h}");
        let s = RtError::SubgridTooLarge { pe: 0, cells: 1 << 33, limit: u32::MAX as usize };
        assert!(s.to_string().contains("u32") && !s.to_string().contains("budget"), "{s}");
    }
}
