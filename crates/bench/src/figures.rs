//! ASCII reproduction of the paper's Figures 7–10: the data movement of the
//! four unioned `OVERLAP_SHIFT`s of the 9-point stencil, drawn on one PE's
//! subgrid and its overlap area.
//!
//! The paper illustrates a 5×5 subgrid (solid) surrounded by its overlap
//! area (dashed): the first two calls fill the North/South overlap rows
//! (Figures 7–8); the last two, thanks to their RSDs, pick up data from the
//! freshly filled overlap rows of the neighbours and populate the East/West
//! overlap columns *including the corners* (Figures 9–10).

use hpf_core::ir::{ArrayDecl, ArrayId, Distribution, Shape};
use hpf_core::passes::loopir::{CommOp, NodeItem};
use hpf_core::passes::{compile, CompileOptions};
use hpf_core::runtime::schedule::{overlap_shift_plan, CommAction};
use hpf_core::runtime::Machine;
use hpf_core::{frontend, presets, MachineConfig};

/// Render the overlap-area fill pattern of each unioned shift of the
/// 9-point stencil, for the PE at the given linear index on a 3×3 grid of
/// 15×15 arrays (5×5 subgrids, like the paper's figures).
pub fn figures_7_to_10(pe: usize) -> String {
    let n = 15usize;
    let checked = frontend::compile_source(&presets::nine_point_cshift(n)).unwrap();
    let compiled = compile(&checked, CompileOptions::full());
    let mut machine = Machine::new(MachineConfig::with_grid([3, 3]));
    const SRC: ArrayId = ArrayId(0);
    machine
        .alloc(SRC, &ArrayDecl::user("SRC", Shape::new([n, n]), Distribution::block(2)))
        .unwrap();
    let geom = machine.meta(SRC).geom;
    let ext = geom.extents(pe);
    let halo = machine.cfg.halo;

    // filled[r][c]: 0 = untouched, k = filled by shift k (1-based).
    let h = ext[0] + 2 * halo;
    let w = ext[1] + 2 * halo;
    let mut filled = vec![vec![0u8; w]; h];
    let mut out = String::new();
    let mut shift_no = 0u8;
    compiled.node.for_each_item(&mut |item| {
        if let NodeItem::Comm(CommOp::Overlap { shift, dim, rsd, kind, .. }) = item {
            shift_no += 1;
            let plan = overlap_shift_plan(&geom, *shift, *dim, rsd.as_ref(), *kind, halo).unwrap();
            for action in &plan {
                if let CommAction::Transfer(t) = action {
                    if t.dst_pe == pe {
                        mark(&mut filled, &t.dst_local, shift_no, halo);
                    }
                }
            }
            out.push_str(&format!(
                "Figure {} — CALL OVERLAP_CSHIFT(SRC,SHIFT={:+},DIM={}{})\n",
                6 + shift_no,
                shift,
                dim + 1,
                match rsd {
                    Some(r) if !r.is_trivial() => format!(",{r:?}"),
                    _ => String::new(),
                }
            ));
            out.push_str(&render(&filled, ext[0], ext[1], halo));
            out.push('\n');
        }
    });
    out.push_str("legend: . subgrid element  | 1-4 overlap cell filled by shift #k\n");
    out.push_str("corners are populated by shifts 3-4 via their RSDs (paper Figures 9-10)\n");
    out
}

fn mark(filled: &mut [Vec<u8>], region: &[(i64, i64)], shift_no: u8, halo: usize) {
    let (r0, r1) = region[0];
    let (c0, c1) = region[1];
    for r in r0..=r1 {
        for c in c0..=c1 {
            let ri = (r - 1 + halo as i64) as usize;
            let ci = (c - 1 + halo as i64) as usize;
            if filled[ri][ci] == 0 {
                filled[ri][ci] = shift_no;
            }
        }
    }
}

fn render(filled: &[Vec<u8>], ext_r: usize, ext_c: usize, halo: usize) -> String {
    let mut s = String::new();
    for (ri, row) in filled.iter().enumerate() {
        s.push_str("  ");
        for (ci, &v) in row.iter().enumerate() {
            let interior = ri >= halo && ri < halo + ext_r && ci >= halo && ci < halo + ext_c;
            let ch = if interior {
                '.'
            } else if v == 0 {
                ' '
            } else {
                (b'0' + v) as char
            };
            s.push(ch);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_pe_gets_all_four_sides_and_corners() {
        // PE 4 = centre of the 3x3 grid: every side of the overlap area is
        // populated, corners included.
        let s = figures_7_to_10(4);
        assert_eq!(s.matches("CALL OVERLAP_CSHIFT").count(), 4);
        // Render of the final state (after shift 4) has no blank overlap
        // cells: count spaces inside the last grid… simpler: corners belong
        // to shifts 3/4.
        let last_grid: Vec<&str> = s.lines().collect();
        let corner_lines: Vec<&&str> =
            last_grid.iter().filter(|l| l.starts_with("  ") && !l.trim().is_empty()).collect();
        assert!(!corner_lines.is_empty());
        // The full text mentions the RSDs on the dim-2 shifts.
        assert!(s.contains("DIM=2,[1-1:n+1,*]"), "{s}");
    }

    #[test]
    fn four_shifts_fill_disjoint_then_corner_regions() {
        let s = figures_7_to_10(4);
        // After all four shifts the corner cells are labelled 3 or 4 (the
        // RSD-carrying dim-2 shifts), never 1 or 2.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with("  ")).collect();
        // The last rendered grid is the final 7 lines of grids.
        let final_grid = &lines[lines.len() - 7..];
        let first = final_grid[0].trim_start();
        let corner = first.chars().next().unwrap();
        assert!(corner == '3' || corner == '4', "corner '{corner}' in\n{s}");
    }
}
