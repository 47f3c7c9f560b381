//! Human-readable listing of a compiled nest — what `hpfsc --emit bytecode`
//! prints, so a lowering change can be reviewed without a debugger.

use crate::bytecode::{ChainDst, KernelCode, Op, Operand};
use crate::vm::CompiledNest;
use std::fmt::Write;

impl CompiledNest {
    /// The VM code of this nest: geometry, strip registers, preloads, and
    /// the jammed and unit bodies op by op — each fold with its links and
    /// operand kinds. `array_name` maps a raw `ArrayId` index to its name.
    pub fn listing(&self, array_name: &dyn Fn(u32) -> String) -> String {
        let mut s = String::new();
        if self.empty {
            return "  (this PE owns no part of the iteration space)\n".to_string();
        }
        let bounds: Vec<String> =
            self.lo.iter().zip(&self.hi).map(|(l, h)| format!("{l}:{h}")).collect();
        let _ = writeln!(
            s,
            "  local bounds ({}), loop order {:?}, unroll {}, {} strip registers, {} preloads{}",
            bounds.join(","),
            self.order,
            self.factor,
            self.regs,
            self.preloads.len(),
            if self.strict { ", strict" } else { "" }
        );
        for &(r, v) in &self.preloads {
            let _ = writeln!(s, "    preload r{r} = {v}");
        }
        let slot = |arr: u16| array_name(self.arrays[arr as usize]);
        self.body(&mut s, "jammed", &self.jammed, self.factor, self.jam_vec, &slot);
        if let Some(unit) = &self.unit {
            self.body(&mut s, "unit", unit, 1, self.unit_vec, &slot);
        }
        s
    }

    fn body(
        &self,
        s: &mut String,
        name: &str,
        code: &KernelCode,
        points: i64,
        vec: bool,
        slot: &dyn Fn(u16) -> String,
    ) {
        let how = match (self.strict, vec) {
            (true, _) => "strict",
            (false, true) => "chunked",
            (false, false) => "scalar",
        };
        let _ = writeln!(
            s,
            "  {name} body: {} ops per {points} points, {how}, deltas [{}, {}]",
            code.ops.len(),
            code.min_delta,
            code.max_delta
        );
        let mem = |arr: u16, delta: i32| format!("{}[{delta:+}]", slot(arr));
        let operand = |o: Operand| match o {
            Operand::Tap { arr, delta } => format!("tap {}", mem(arr, delta)),
            Operand::Reg(r) => format!("reg r{r}"),
            Operand::Imm(v) => format!("imm {v}"),
            Operand::ImmTap { v, arr, delta } => format!("imm*tap {v} * {}", mem(arr, delta)),
            Operand::ImmReg { v, r } => format!("imm*reg {v} * r{r}"),
        };
        for (i, op) in code.ops.iter().enumerate() {
            let text = match *op {
                Op::Const { dst, v } => format!("const    r{dst} = {v}"),
                Op::Load { dst, arr, delta } => format!("load     r{dst} = {}", mem(arr, delta)),
                Op::Store { arr, delta, src } => format!("store    {} = r{src}", mem(arr, delta)),
                Op::Chain { first, lo, hi, dst } => {
                    let to = match dst {
                        ChainDst::Reg(r) => format!("r{r}"),
                        ChainDst::Store { arr, delta } => format!("store {}", mem(arr, delta)),
                    };
                    let mut t = format!("chain    {to} = fold of {} links", hi - lo);
                    let _ = write!(t, "\n            acc = {}", operand(first));
                    for l in code.chain_links(lo, hi) {
                        let (sym, x) = (l.op.symbol(), operand(l.x));
                        let (a, b) = if l.rev { (x.as_str(), "acc") } else { ("acc", x.as_str()) };
                        let _ = write!(t, "\n            acc = {a} {sym} {b}");
                    }
                    t
                }
                Op::Neg { dst, src } => format!("neg      r{dst} = -r{src}"),
                Op::Copy { dst, src } => format!("copy     r{dst} = r{src}"),
                Op::Cmp { op, dst, a, b } => format!("cmp      r{dst} = r{a} {op:?} r{b}"),
                Op::CmpImmR { op, dst, a, v } => format!("cmp      r{dst} = r{a} {op:?} {v}"),
                Op::CmpImmL { op, dst, v, b } => format!("cmp      r{dst} = {v} {op:?} r{b}"),
                Op::Select { dst, c, t, e } => format!("select   r{dst} = r{c} ? r{t} : r{e}"),
                Op::SelStore { arr, delta, c, t, e } => {
                    format!("selstore {} = r{c} ? r{t} : r{e}", mem(arr, delta))
                }
            };
            let _ = writeln!(s, "    {i:3}  {text}");
        }
    }
}
