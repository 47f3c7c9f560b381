//! Pretty printer for the node program — the paper's Figure 16 view: the
//! communication calls followed by the scalarized subgrid loop nest, with
//! loop bounds and per-dimension induction variables.

use crate::loopir::{CommOp, Instr, LoopNest, NodeItem, NodeProgram};
use hpf_ir::{ShiftKind, SymbolTable};
use std::fmt::Write;

/// Render a whole node program.
pub fn node_program(p: &NodeProgram) -> String {
    let mut out = String::new();
    items_into(&p.symbols, &p.items, 0, &mut out);
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn items_into(symbols: &SymbolTable, items: &[NodeItem], level: usize, out: &mut String) {
    for item in items {
        match item {
            NodeItem::Comm(CommOp::FullShift { dst, src, shift, dim, kind }) => {
                indent(level, out);
                let intr = match kind {
                    ShiftKind::Circular => "CSHIFT",
                    ShiftKind::EndOff(_) => "EOSHIFT",
                };
                writeln!(
                    out,
                    "{} = {intr}({},SHIFT={:+},DIM={})",
                    symbols.array(*dst).name,
                    symbols.array(*src).name,
                    shift,
                    dim + 1
                )
                .unwrap();
            }
            NodeItem::Comm(CommOp::Overlap { array, shift, dim, rsd, kind }) => {
                indent(level, out);
                let intr = match kind {
                    ShiftKind::Circular => "OVERLAP_CSHIFT",
                    ShiftKind::EndOff(_) => "OVERLAP_EOSHIFT",
                };
                write!(
                    out,
                    "CALL {intr}({},SHIFT={:+},DIM={}",
                    symbols.array(*array).name,
                    shift,
                    dim + 1
                )
                .unwrap();
                if let Some(r) = rsd {
                    if !r.is_trivial() {
                        write!(out, ",{r:?}").unwrap();
                    }
                }
                writeln!(out, ")").unwrap();
            }
            NodeItem::Nest(nest) => nest_into(symbols, nest, level, out),
            NodeItem::Rebind { dst, src } => {
                indent(level, out);
                let (d, s) = (&symbols.array(*dst).name, &symbols.array(*src).name);
                writeln!(out, "CALL REBIND({d} <- {s})").unwrap();
            }
            NodeItem::TimeLoop { iters, body } => {
                indent(level, out);
                writeln!(out, "DO {iters} TIMES").unwrap();
                items_into(symbols, body, level + 1, out);
                indent(level, out);
                writeln!(out, "ENDDO").unwrap();
            }
        }
    }
}

/// Induction-variable name for a dimension.
fn ivar(d: usize) -> String {
    match d {
        0 => "i".to_string(),
        1 => "j".to_string(),
        2 => "k".to_string(),
        other => format!("i{}", other + 1),
    }
}

fn subscript(offsets: &[i64]) -> String {
    let parts: Vec<String> = offsets
        .iter()
        .enumerate()
        .map(|(d, &o)| {
            if o == 0 {
                ivar(d)
            } else if o > 0 {
                format!("{}+{o}", ivar(d))
            } else {
                format!("{}{o}", ivar(d))
            }
        })
        .collect();
    format!("({})", parts.join(","))
}

fn nest_into(symbols: &SymbolTable, nest: &LoopNest, level: usize, out: &mut String) {
    // Loop headers, outermost first (paper Figure 16 prints global bounds;
    // the executor reduces them per PE).
    for (depth, &d) in nest.order.iter().enumerate() {
        indent(level + depth, out);
        let (lo, hi) = nest.space.dim(d);
        let step = match &nest.unroll {
            Some(u) if u.dim == d => format!(", {}", u.factor),
            _ => String::new(),
        };
        writeln!(out, "DO {} = {lo}, {hi}{step}", ivar(d)).unwrap();
    }
    let body_level = level + nest.order.len();
    body_into(symbols, &nest.body, body_level, out);
    if let Some(u) = &nest.unroll {
        indent(body_level, out);
        writeln!(out, "! remainder iterations ({}-unrolled dim {}):", u.factor, ivar(u.dim))
            .unwrap();
        body_into(symbols, &u.unit_body, body_level, out);
    }
    for depth in (0..nest.order.len()).rev() {
        indent(level + depth, out);
        writeln!(out, "ENDDO").unwrap();
    }
}

fn body_into(symbols: &SymbolTable, body: &[Instr], level: usize, out: &mut String) {
    for instr in body {
        indent(level, out);
        match instr {
            Instr::Const { dst, value } => writeln!(out, "r{dst} = {value}").unwrap(),
            Instr::LoadScalar { dst, id } => {
                writeln!(out, "r{dst} = {}", symbols.scalar(*id).name).unwrap();
            }
            Instr::Load { dst, array, offsets } => {
                writeln!(out, "r{dst} = {}{}", symbols.array(*array).name, subscript(offsets))
                    .unwrap();
            }
            Instr::Store { array, offsets, src } => {
                writeln!(out, "{}{} = r{src}", symbols.array(*array).name, subscript(offsets))
                    .unwrap();
            }
            Instr::Bin { op, dst, a, b } => {
                writeln!(out, "r{dst} = r{a} {} r{b}", op.symbol()).unwrap();
            }
            Instr::Neg { dst, src } => writeln!(out, "r{dst} = -r{src}").unwrap(),
            Instr::Copy { dst, src } => writeln!(out, "r{dst} = r{src}").unwrap(),
            Instr::Cmp { op, dst, a, b } => {
                writeln!(out, "r{dst} = (r{a} {} r{b})", op.symbol()).unwrap();
            }
            Instr::Select { dst, c, t, e } => {
                writeln!(out, "r{dst} = MERGE(r{t}, r{e}, r{c})").unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::scalarize::{self, ScalarizeOptions};
    use crate::{memopt, offset, partition, unioning};
    use hpf_frontend::compile_source;

    fn render(src: &str, with_memopt: bool) -> String {
        let checked = compile_source(src).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        partition::run(&mut p);
        unioning::run(&mut p);
        let (mut node, _) = scalarize::run(&p, ScalarizeOptions::default());
        if with_memopt {
            memopt::run(&mut node, memopt::MemOptOptions::default());
        }
        node_program(&node)
    }

    const FIVE_POINT: &str = r#"
PARAM N = 8
REAL SRC(N,N), DST(N,N)
DST(2:N-1,2:N-1) = SRC(1:N-2,2:N-1) + SRC(2:N-1,1:N-2) &
                 + SRC(2:N-1,2:N-1) + SRC(3:N,2:N-1) + SRC(2:N-1,3:N)
"#;

    #[test]
    fn figure_16_shape() {
        let s = render(FIVE_POINT, false);
        assert!(s.contains("CALL OVERLAP_CSHIFT(SRC,SHIFT=-1,DIM=1)"), "{s}");
        assert!(s.contains("DO i = 2, 7"), "{s}");
        assert!(s.contains("DO j = 2, 7"), "{s}");
        assert!(s.contains("r0 = SRC(i-1,j)"), "{s}");
        assert!(s.contains("DST(i,j) ="), "{s}");
        assert_eq!(s.matches("ENDDO").count(), 2);
    }

    #[test]
    fn unrolled_nest_prints_step_and_remainder() {
        let s = render(FIVE_POINT, true);
        assert!(s.contains("DO i = 2, 7, 2"), "{s}");
        assert!(s.contains("remainder iterations"), "{s}");
        assert!(s.contains("SRC(i+1,j)"), "{s}");
    }

    #[test]
    fn time_loop_and_full_shift_print() {
        let s = render(
            "PARAM N = 8\nREAL A(N,N), B(N,N)\nDO 3 TIMES\nB = CSHIFT(A,2,1)\nA = B\nENDDO\n",
            false,
        );
        assert!(s.contains("DO 3 TIMES"), "{s}");
        assert!(s.contains("B = CSHIFT(A,SHIFT=+2,DIM=1)"), "{s}");
        assert!(s.trim_end().ends_with("ENDDO"), "{s}");
    }
}
