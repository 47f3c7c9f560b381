//! The kernel bytecode and the body compiler.
//!
//! A loop-nest body ([`Instr`] list) is lowered once per (nest, layout)
//! into a flat [`Op`] sequence:
//!
//! - array offsets become precomputed flat-index deltas (like the
//!   interpreter, but resolved to a dense array-slot table);
//! - literal constants and scalar coefficients are constant-folded: an
//!   operation whose operands are all known folds away entirely, and a
//!   known operand becomes an immediate ([`Operand::Imm`], `CmpImm*`);
//! - single-definition constants are hoisted out of the per-point code into
//!   a *preload* list applied once per nest execution;
//! - `Select` feeding a `Store` fuses into a predicated store
//!   ([`Op::SelStore`]) — the WHERE-mask lowering executes without
//!   materializing the selected value in a register;
//! - every arithmetic `Bin` becomes an accumulator fold ([`Op::Chain`]):
//!   `acc = first; acc = acc ∘ x₁; …; dst = acc`. One forward pass grows
//!   the folds: a `Bin` whose operand is the single-use result of an
//!   earlier fold continues that fold (on either side — `acc − x` or
//!   `x − acc`), a single-use `imm × x` product becomes a scaled operand
//!   (product rounded before the link's own operation — never an FMA), a
//!   loaded register read by a fold becomes a memory tap of the fold, and a
//!   `Store` of a single-use fold result becomes the fold's destination. A
//!   statement such as `T = C * (U₁ + … + U₆) + 0.25 * U` is then *one* op
//!   that reads its taps from subgrid memory and writes the result back.
//!
//! Every rewrite preserves the interpreter's evaluation order and rounding
//! exactly; the differential proptests in the workspace root enforce this.

use hpf_ir::expr::CmpOp;
use hpf_ir::hash::{HashMap, HashSet};
use hpf_ir::BinOp;
use hpf_passes::loopir::{regs_named, Instr};

/// Register index in the VM's register file.
pub type Reg = u16;
/// Dense index into a compiled nest's array-slot table.
pub type Slot = u16;

/// One operand of an accumulator fold.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // the per-variant doc comments give each field's role
pub enum Operand {
    /// `arr[base + delta]`, read straight from subgrid memory.
    Tap { arr: Slot, delta: i32 },
    /// `r[reg]`
    Reg(Reg),
    /// The literal `v`.
    Imm(f64),
    /// `v * arr[base + delta]`, rounded before the link's operation.
    ImmTap { v: f64, arr: Slot, delta: i32 },
    /// `v * r[r]`, rounded before the link's operation.
    ImmReg { v: f64, r: Reg },
}

impl Operand {
    /// The memory location this operand reads, if any.
    pub fn tap(&self) -> Option<(Slot, i32)> {
        match *self {
            Operand::Tap { arr, delta } | Operand::ImmTap { arr, delta, .. } => Some((arr, delta)),
            _ => None,
        }
    }

    /// The register this operand reads, if any.
    pub fn reg(&self) -> Option<Reg> {
        match *self {
            Operand::Reg(r) | Operand::ImmReg { r, .. } => Some(r),
            _ => None,
        }
    }

    /// `v * self` for a plain tap or register; `None` for operands that
    /// already carry a value or a scale.
    fn scaled(self, v: f64) -> Option<Operand> {
        match self {
            Operand::Tap { arr, delta } => Some(Operand::ImmTap { v, arr, delta }),
            Operand::Reg(r) => Some(Operand::ImmReg { v, r }),
            _ => None,
        }
    }
}

/// One step of a fold: `acc = acc op x`, or `acc = x op acc` when `rev`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// The operation.
    pub op: BinOp,
    /// The accumulator is the *right* operand (`x − acc`, `x / acc`).
    pub rev: bool,
    /// The other operand.
    pub x: Operand,
}

/// Where a fold leaves its result.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum ChainDst {
    /// `r[reg] = acc`
    Reg(Reg),
    /// `arr[base + delta] = acc`
    Store { arr: Slot, delta: i32 },
}

/// One bytecode operation. Memory operands are flat-index deltas added to
/// the current point's base index; register and slot indices are validated
/// at compile time so the VM may index unchecked.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // the per-variant doc comments give each field's role
pub enum Op {
    /// `r[dst] = v` (a constant that could not be hoisted to a preload).
    Const { dst: Reg, v: f64 },
    /// `r[dst] = arr[base + delta]`
    Load { dst: Reg, arr: Slot, delta: i32 },
    /// `arr[base + delta] = r[src]`
    Store { arr: Slot, delta: i32, src: Reg },
    /// The accumulator fold `acc = first; for l in links[lo..hi] { acc =
    /// l(acc) }; dst = acc`, with `links` the owning [`KernelCode`]'s link
    /// table. The only arithmetic op: a lone `a op b` is a one-link fold, a
    /// whole-array copy a zero-link fold from a tap to a store.
    Chain { first: Operand, lo: u32, hi: u32, dst: ChainDst },
    /// `r[dst] = -r[src]`
    Neg { dst: Reg, src: Reg },
    /// `r[dst] = r[src]`
    Copy { dst: Reg, src: Reg },
    /// `r[dst] = r[a] cmp r[b] ? 1.0 : 0.0`
    Cmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `r[dst] = r[a] cmp v ? 1.0 : 0.0`
    CmpImmR { op: CmpOp, dst: Reg, a: Reg, v: f64 },
    /// `r[dst] = v cmp r[b] ? 1.0 : 0.0`
    CmpImmL { op: CmpOp, dst: Reg, v: f64, b: Reg },
    /// `r[dst] = r[c] != 0 ? r[t] : r[e]`
    Select { dst: Reg, c: Reg, t: Reg, e: Reg },
    /// `arr[base + delta] = r[c] != 0 ? r[t] : r[e]` — the predicated store
    /// a WHERE-masked assignment compiles to.
    SelStore { arr: Slot, delta: i32, c: Reg, t: Reg, e: Reg },
}

impl Op {
    /// Call `f` for every register the op names, read or written.
    fn for_each_reg(&self, links: &[Link], mut f: impl FnMut(Reg)) {
        match *self {
            Op::Const { dst, .. } | Op::Load { dst, .. } => f(dst),
            Op::Store { src, .. } => f(src),
            Op::Chain { first, lo, hi, dst } => {
                let xs = links[lo as usize..hi as usize].iter().map(|l| l.x.reg());
                std::iter::once(first.reg()).chain(xs).flatten().for_each(&mut f);
                if let ChainDst::Reg(r) = dst {
                    f(r);
                }
            }
            Op::Neg { dst, src } | Op::Copy { dst, src } => [dst, src].into_iter().for_each(f),
            Op::Cmp { dst, a, b, .. } => [dst, a, b].into_iter().for_each(f),
            Op::CmpImmR { dst, a: r, .. } | Op::CmpImmL { dst, b: r, .. } => {
                [dst, r].into_iter().for_each(f)
            }
            Op::Select { dst, c, t, e } => [dst, c, t, e].into_iter().for_each(f),
            Op::SelStore { c, t, e, .. } => [c, t, e].into_iter().for_each(f),
        }
    }
}

/// A compiled body: the op sequence plus everything the VM hoists out of
/// the per-point loop.
#[derive(Clone, Debug, Default)]
pub struct KernelCode {
    /// Per-point operations.
    pub ops: Vec<Op>,
    /// Link table the [`Op::Chain`] ranges index.
    pub links: Vec<Link>,
    /// Most negative flat-index delta any memory operand applies.
    pub min_delta: i64,
    /// Most positive flat-index delta any memory operand applies.
    pub max_delta: i64,
}

impl KernelCode {
    /// The links of a chain op. Panics on a range outside the table (BV001
    /// rejects such kernels before they execute).
    pub fn chain_links(&self, lo: u32, hi: u32) -> &[Link] {
        &self.links[lo as usize..hi as usize]
    }

    /// Call `f(slot, delta, is_store)` for every memory operand, in
    /// execution order (a chain reads all its taps before it stores).
    pub(crate) fn for_each_mem(&self, mut f: impl FnMut(Slot, i32, bool)) {
        for op in &self.ops {
            match *op {
                Op::Load { arr, delta, .. } => f(arr, delta, false),
                Op::Store { arr, delta, .. } | Op::SelStore { arr, delta, .. } => {
                    f(arr, delta, true)
                }
                Op::Chain { first, lo, hi, dst } => {
                    let taps = self.chain_links(lo, hi).iter().map(|l| l.x.tap());
                    for (arr, delta) in std::iter::once(first.tap()).chain(taps).flatten() {
                        f(arr, delta, false);
                    }
                    if let ChainDst::Store { arr, delta } = dst {
                        f(arr, delta, true);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Shared state while compiling the bodies of one nest: the dense array
/// table and the constant preloads, merged across the jammed and unit body.
#[derive(Debug, Default)]
pub struct BodyCx {
    /// Slot table: `arrays[slot]` is the `ArrayId` raw index.
    pub arrays: Vec<u32>,
    slot_of: HashMap<u32, Slot>,
    /// `(reg, value)` pairs written once per nest execution.
    pub preloads: Vec<(Reg, f64)>,
    /// Highest register index used (preloads included), for sizing the file.
    pub max_reg: usize,
}

impl BodyCx {
    /// Context whose register file is at least `regs` wide (strict mode
    /// sizes the file like the interpreter even if some registers never
    /// appear in the emitted ops).
    pub fn with_min_regs(regs: usize) -> BodyCx {
        BodyCx { max_reg: regs.saturating_sub(1), ..Default::default() }
    }

    fn slot(&mut self, array: u32) -> Option<Slot> {
        if let Some(&s) = self.slot_of.get(&array) {
            return Some(s);
        }
        let s = Slot::try_from(self.arrays.len()).ok()?;
        self.arrays.push(array);
        self.slot_of.insert(array, s);
        Some(s)
    }

    fn touch(&mut self, r: Reg) -> Reg {
        self.max_reg = self.max_reg.max(r as usize);
        r
    }
}

/// Does the body read any register before defining it? Such a body observes
/// register state left over from previous iteration points (or the other
/// body sharing the file), so the compiler falls back to a strict
/// translation with no hoisting.
pub fn reads_before_def(body: &[Instr]) -> bool {
    let mut defined = vec![false; regs_named(body)];
    for i in body {
        if i.sources().any(|s| !defined[s as usize]) {
            return true;
        }
        if let Some(d) = i.dst() {
            defined[d as usize] = true;
        }
    }
    false
}

/// Per-register definition and read facts of a source body, indexed by
/// source register.
struct RegFacts {
    defs: Vec<usize>,
    /// Body position of the first read (`usize::MAX`: never read).
    first_read: Vec<usize>,
    /// Read occurrences per register (`r + r` counts two).
    reads: Vec<usize>,
}

impl RegFacts {
    fn of(body: &[Instr]) -> RegFacts {
        let n = regs_named(body);
        let (mut defs, mut first_read, mut reads) = (vec![0; n], vec![usize::MAX; n], vec![0; n]);
        for (p, i) in body.iter().enumerate() {
            for s in i.sources().map(usize::from) {
                first_read[s] = first_read[s].min(p);
                reads[s] += 1;
            }
            if let Some(d) = i.dst() {
                defs[d as usize] += 1;
            }
        }
        RegFacts { defs, first_read, reads }
    }

    /// A constant defined at `pos` may move to the preload list iff it is
    /// the register's only definition and nothing reads the register at or
    /// before `pos` — then every iteration point (including the first, where
    /// the interpreter's register file still holds zeros) observes the same
    /// value the interpreter would.
    fn hoistable(&self, r: Reg, pos: usize) -> bool {
        self.single_def(r) && self.first_read[r as usize] > pos
    }

    fn single_def(&self, r: Reg) -> bool {
        self.defs[r as usize] == 1
    }

    fn single_use(&self, r: Reg) -> bool {
        self.single_def(r) && self.reads[r as usize] == 1
    }
}

/// A fold under construction. Its operands were read at body positions
/// from `t0` to its own; it may execute at a later position only while
/// none of them changed in between ([`Lower::movable`]).
#[derive(Debug)]
struct Open {
    first: Operand,
    links: Vec<Link>,
    dst: ChainDst,
    /// Earliest body position any operand was originally read at.
    t0: usize,
    /// Every register operand has a single definition in the body, so its
    /// value at a later position is the value it had here.
    regs_stable: bool,
}

impl Open {
    fn operands(&self) -> impl Iterator<Item = &Operand> {
        std::iter::once(&self.first).chain(self.links.iter().map(|l| &l.x))
    }

    /// `v × x` when the fold *opens* with the product of an immediate and a
    /// plain tap or register (either order: multiplication commutes bit for
    /// bit).
    fn scale_prefix(&self) -> Option<Operand> {
        let Link { op: BinOp::Mul, x, .. } = *self.links.first()? else { return None };
        match (self.first, x) {
            (Operand::Imm(v), x) | (x, Operand::Imm(v)) => x.scaled(v),
            _ => None,
        }
    }

    /// `v × x` when the fold is nothing but that product.
    fn as_scale(&self) -> Option<Operand> {
        self.scale_prefix().filter(|_| self.links.len() == 1)
    }
}

/// A lowered body element before flattening.
#[derive(Debug)]
enum Pre {
    Op(Op),
    Chain(Open),
    /// Absorbed into a later fold, or a load every reader turned into a tap.
    Dead,
}

/// The state of one [`compile_body`] run.
struct Lower<'a> {
    facts: RegFacts,
    /// Flow-sensitive known-constant values per source register.
    konst: Vec<Option<f64>>,
    out: Vec<Pre>,
    /// Source register -> (`out` index, body position) of its definition,
    /// for loads and folds only.
    def_at: Vec<Option<(usize, usize)>>,
    /// Location -> body position of the latest store to it. Within one
    /// iteration point distinct deltas are distinct addresses.
    last_store: HashMap<(Slot, i32), usize>,
    /// `cx.preloads[preloads_from..]` are this body's.
    preloads_from: usize,
    /// Reads of each source register that still go through the register.
    live: Vec<usize>,
    strides: &'a [usize],
    reg_base: usize,
    strict: bool,
    cx: &'a mut BodyCx,
}

impl Lower<'_> {
    fn rb(&self, r: Reg) -> Option<Reg> {
        Reg::try_from(r as usize + self.reg_base).ok()
    }

    fn mem(&mut self, array: u32, offsets: &[i64]) -> Option<(Slot, i32)> {
        let d: i64 = offsets.iter().zip(self.strides).map(|(&o, &s)| o * s as i64).sum();
        Some((self.cx.slot(array)?, i32::try_from(d).ok()?))
    }

    /// A definition whose value is known at compile time: hoist it to a
    /// preload when legal, otherwise keep an inline Const. Either way the
    /// register *does* hold the value at run time, so later ops may keep
    /// referencing it.
    fn const_def(&mut self, dst: Reg, v: f64, pos: usize) -> Option<()> {
        self.konst[dst as usize] = Some(v);
        let d = self.rb(dst)?;
        if !self.strict && self.facts.hoistable(dst, pos) {
            self.cx.preloads.push((d, v));
        } else {
            self.out.push(Pre::Op(Op::Const { dst: d, v }));
        }
        Some(())
    }

    /// Emit the non-constant definition `pre` of `dst`.
    fn def(&mut self, dst: Reg, pos: usize, pre: Pre) {
        self.konst[dst as usize] = None;
        if matches!(pre, Pre::Chain(_) | Pre::Op(Op::Load { .. })) {
            self.def_at[dst as usize] = Some((self.out.len(), pos));
        }
        self.out.push(pre);
    }

    fn stored_since(&self, loc: (Slot, i32), pos: usize) -> bool {
        self.last_store.get(&loc).is_some_and(|&s| s >= pos)
    }

    /// May `c` execute now instead of where it was formed? Its registers
    /// must be single-definition and none of its taps' locations stored to
    /// since the earliest of them was read.
    fn movable(&self, c: &Open) -> bool {
        c.regs_stable && c.operands().filter_map(Operand::tap).all(|t| !self.stored_since(t, c.t0))
    }

    /// The `out` index and body position of the load or fold that is the
    /// only definition of `q` — the candidates for folding into a reader.
    fn pending(&self, q: Reg) -> Option<(usize, usize)> {
        if self.strict || !self.facts.single_def(q) {
            return None;
        }
        self.def_at[q as usize]
    }

    /// Take the fold defining `q` out of the stream so the reader at the
    /// current position continues it: legal when that reader is the only
    /// one and the fold's operands still hold the values it read.
    fn absorb(&mut self, q: Reg) -> Option<Open> {
        let (idx, _) = self.pending(q)?;
        match &self.out[idx] {
            Pre::Chain(c) if self.facts.single_use(q) && self.movable(c) => {}
            _ => return None,
        }
        match std::mem::replace(&mut self.out[idx], Pre::Dead) {
            Pre::Chain(c) => Some(c),
            _ => unreachable!("matched a fold just above"),
        }
    }

    /// The operand reading source register `q` in a fold whose earliest
    /// read position and register stability are `t0` / `stable`: an
    /// immediate when the value is known, a tap when `q` was loaded and the
    /// location not stored to since, a scaled operand when `q` is a single-use
    /// `imm × x` product, otherwise the register.
    fn operand(&mut self, q: Reg, t0: &mut usize, stable: &mut bool) -> Option<Operand> {
        if let Some(v) = self.konst[q as usize] {
            return Some(Operand::Imm(v));
        }
        if let Some((idx, pos)) = self.pending(q) {
            match &self.out[idx] {
                &Pre::Op(Op::Load { arr, delta, .. }) if !self.stored_since((arr, delta), pos) => {
                    *t0 = (*t0).min(pos);
                    self.live[q as usize] -= 1;
                    return Some(Operand::Tap { arr, delta });
                }
                Pre::Chain(c) if self.facts.single_use(q) && self.movable(c) => {
                    if let Some(x) = c.as_scale() {
                        *t0 = (*t0).min(c.t0);
                        self.out[idx] = Pre::Dead;
                        return Some(x);
                    }
                }
                _ => {}
            }
        }
        *stable &= self.facts.single_def(q);
        Some(Operand::Reg(self.rb(q)?))
    }

    /// `dst = a op b` with at least one operand unknown: continue the fold
    /// that produced `a` (or `b`, accumulator on the right), else open one.
    fn bin(&mut self, op: BinOp, dst: Reg, a: Reg, b: Reg, pos: usize) -> Option<()> {
        let d = ChainDst::Reg(self.rb(dst)?);
        let c = if let Some(mut c) = self.absorb(a) {
            let x = self.operand(b, &mut c.t0, &mut c.regs_stable)?;
            c.links.push(Link { op, rev: false, x });
            Open { dst: d, ..c }
        } else if let Some(mut c) = self.absorb(b) {
            let x = self.operand(a, &mut c.t0, &mut c.regs_stable)?;
            c.links.push(Link { op, rev: true, x });
            Open { dst: d, ..c }
        } else {
            let (mut t0, mut regs_stable) = (pos, true);
            let first = self.operand(a, &mut t0, &mut regs_stable)?;
            let x = self.operand(b, &mut t0, &mut regs_stable)?;
            Open { first, links: vec![Link { op, rev: false, x }], dst: d, t0, regs_stable }
        };
        self.def(dst, pos, Pre::Chain(c));
        Some(())
    }

    /// `arr[delta] = src`: the destination of the fold that produced `src`,
    /// a zero-link fold when `src` is a tap (a copy), a predicated store
    /// when `src` is the select just emitted, else a plain store.
    fn store(&mut self, arr: Slot, delta: i32, src: Reg, pos: usize) -> Option<()> {
        let dst = ChainDst::Store { arr, delta };
        let s = self.rb(src)?;
        if let Some(c) = self.absorb(src) {
            self.out.push(Pre::Chain(Open { dst, ..c }));
        } else {
            let (mut t0, mut regs_stable) = (pos, true);
            let first = self.operand(src, &mut t0, &mut regs_stable)?;
            match (first, self.out.last()) {
                (Operand::Tap { .. }, _) => {
                    self.out.push(Pre::Chain(Open { first, links: vec![], dst, t0, regs_stable }))
                }
                (_, Some(&Pre::Op(Op::Select { dst: d, c, t, e })))
                    if !self.strict && d == s && self.facts.single_use(src) =>
                {
                    *self.out.last_mut()? = Pre::Op(Op::SelStore { arr, delta, c, t, e });
                }
                _ => self.out.push(Pre::Op(Op::Store { arr, delta, src: s })),
            }
        }
        self.last_store.insert((arr, delta), pos);
        Some(())
    }

    /// Drop the loads every reader replaced by a tap and the preloads every
    /// reader replaced by an immediate, move the folds' links into one
    /// table, and size the register file by what is still named.
    fn finish(mut self) -> KernelCode {
        for (q, at) in self.def_at.iter().enumerate() {
            let Some((idx, _)) = *at else { continue };
            let all_folded = self.facts.reads[q] > 0 && self.live[q] == 0;
            if all_folded && matches!(self.out[idx], Pre::Op(Op::Load { .. })) {
                self.out[idx] = Pre::Dead;
            }
        }
        let mut code = KernelCode::default();
        for pre in self.out {
            match pre {
                Pre::Dead => {}
                Pre::Op(op) => code.ops.push(op),
                Pre::Chain(mut c) => {
                    let mut links = &c.links[..];
                    if let (false, Some(x)) = (self.strict, c.scale_prefix()) {
                        (c.first, links) = (x, &links[1..]);
                    }
                    let lo = code.links.len() as u32;
                    code.links.extend_from_slice(links);
                    let hi = code.links.len() as u32;
                    code.ops.push(Op::Chain { first: c.first, lo, hi, dst: c.dst });
                }
            }
        }
        let mut named = HashSet::default();
        for op in &code.ops {
            op.for_each_reg(&code.links, |r| {
                named.insert(self.cx.touch(r));
            });
        }
        let mine = self.cx.preloads.split_off(self.preloads_from);
        self.cx.preloads.extend(mine.into_iter().filter(|(r, _)| named.contains(r)));
        let (mut min_delta, mut max_delta) = (0i64, 0i64);
        code.for_each_mem(|_, d, _| {
            min_delta = min_delta.min(d as i64);
            max_delta = max_delta.max(d as i64);
        });
        (code.min_delta, code.max_delta) = (min_delta, max_delta);
        code
    }
}

/// Compile one body. `reg_base` shifts every register index (the unit body
/// gets a disjoint register range so its preloads cannot clash with the
/// jammed body's); `strict` disables hoisting and fold growth — every
/// `Bin` stays a one-link fold over registers and immediates — and must be
/// set when either body reads registers it did not define.
///
/// Returns `None` when the body exceeds the bytecode's index ranges
/// (callers fall back to the interpreter).
pub fn compile_body(
    body: &[Instr],
    strides: &[usize],
    scalars: &[f64],
    reg_base: usize,
    strict: bool,
    cx: &mut BodyCx,
) -> Option<KernelCode> {
    let facts = RegFacts::of(body);
    let regs = facts.reads.len();
    let mut lw = Lower {
        live: facts.reads.clone(),
        facts,
        konst: vec![None; regs],
        out: Vec::with_capacity(body.len()),
        def_at: vec![None; regs],
        last_store: HashMap::default(),
        preloads_from: cx.preloads.len(),
        strides,
        reg_base,
        strict,
        cx,
    };
    let known = |lw: &Lower, r: &Reg| lw.konst[*r as usize];

    for (pos, instr) in body.iter().enumerate() {
        match instr {
            Instr::Const { dst, value } => lw.const_def(*dst, *value, pos)?,
            Instr::LoadScalar { dst, id } => lw.const_def(*dst, scalars[id.0 as usize], pos)?,
            Instr::Load { dst, array, offsets } => {
                let (arr, delta) = lw.mem(array.0, offsets)?;
                let d = lw.rb(*dst)?;
                lw.def(*dst, pos, Pre::Op(Op::Load { dst: d, arr, delta }));
            }
            Instr::Store { array, offsets, src } => {
                let (arr, delta) = lw.mem(array.0, offsets)?;
                lw.store(arr, delta, *src, pos)?;
            }
            Instr::Bin { op, dst, a, b } => match (known(&lw, a), known(&lw, b)) {
                (Some(x), Some(y)) => lw.const_def(*dst, op.apply(x, y), pos)?,
                _ => lw.bin(*op, *dst, *a, *b, pos)?,
            },
            Instr::Neg { dst, src } => match known(&lw, src) {
                Some(x) => lw.const_def(*dst, -x, pos)?,
                None => {
                    let (d, s) = (lw.rb(*dst)?, lw.rb(*src)?);
                    lw.def(*dst, pos, Pre::Op(Op::Neg { dst: d, src: s }));
                }
            },
            Instr::Copy { dst, src } => match known(&lw, src) {
                Some(x) => lw.const_def(*dst, x, pos)?,
                None => {
                    let (d, s) = (lw.rb(*dst)?, lw.rb(*src)?);
                    lw.def(*dst, pos, Pre::Op(Op::Copy { dst: d, src: s }));
                }
            },
            Instr::Cmp { op, dst, a, b } => {
                let d = lw.rb(*dst)?;
                let cmp = match (known(&lw, a), known(&lw, b)) {
                    (Some(x), Some(y)) => {
                        lw.const_def(*dst, op.apply(x, y), pos)?;
                        continue;
                    }
                    (Some(v), None) => Op::CmpImmL { op: *op, dst: d, v, b: lw.rb(*b)? },
                    (None, Some(v)) => Op::CmpImmR { op: *op, dst: d, a: lw.rb(*a)?, v },
                    (None, None) => Op::Cmp { op: *op, dst: d, a: lw.rb(*a)?, b: lw.rb(*b)? },
                };
                lw.def(*dst, pos, Pre::Op(cmp));
            }
            Instr::Select { dst, c, t, e } => match known(&lw, c) {
                // Mask known at compile time: the select is a copy of the
                // chosen side.
                Some(cv) => {
                    let chosen = if cv != 0.0 { *t } else { *e };
                    match known(&lw, &chosen) {
                        Some(x) => lw.const_def(*dst, x, pos)?,
                        None => {
                            let (d, s) = (lw.rb(*dst)?, lw.rb(chosen)?);
                            lw.def(*dst, pos, Pre::Op(Op::Copy { dst: d, src: s }));
                        }
                    }
                }
                None => {
                    let (d, c, t, e) = (lw.rb(*dst)?, lw.rb(*c)?, lw.rb(*t)?, lw.rb(*e)?);
                    lw.def(*dst, pos, Pre::Op(Op::Select { dst: d, c, t, e }));
                }
            },
        }
    }
    Some(lw.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::ArrayId;

    const A: ArrayId = ArrayId(0);
    const B: ArrayId = ArrayId(1);

    fn compile(body: &[Instr], strides: &[usize]) -> (KernelCode, BodyCx) {
        let mut cx = BodyCx::default();
        let k = compile_body(body, strides, &[], 0, false, &mut cx).unwrap();
        (k, cx)
    }

    fn load(dst: Reg, array: ArrayId, off: i64) -> Instr {
        Instr::Load { dst, array, offsets: [off].into() }
    }

    fn bin(op: BinOp, dst: Reg, a: Reg, b: Reg) -> Instr {
        Instr::Bin { op, dst, a, b }
    }

    fn store(array: ArrayId, off: i64, src: Reg) -> Instr {
        Instr::Store { array, offsets: [off].into(), src }
    }

    /// The single chain of a body: first operand, links, destination.
    fn only_chain(k: &KernelCode) -> (Operand, &[Link], ChainDst) {
        match k.ops[..] {
            [Op::Chain { first, lo, hi, dst }] => (first, k.chain_links(lo, hi), dst),
            _ => panic!("expected one chain, got {:?}", k.ops),
        }
    }

    #[test]
    fn constants_hoist_to_preloads() {
        // r0 = 2.5 (single def) is still read through its register by the
        // select: preloaded, not re-written per point. The comparison takes
        // it as an immediate.
        let body = vec![
            Instr::Const { dst: 0, value: 2.5 },
            load(1, A, 0),
            Instr::Cmp { op: CmpOp::Gt, dst: 2, a: 1, b: 0 },
            Instr::Select { dst: 3, c: 2, t: 0, e: 1 },
            store(A, 0, 3),
        ];
        let (k, cx) = compile(&body, &[1]);
        assert_eq!(cx.preloads, vec![(0, 2.5)]);
        assert!(k.ops.iter().any(|o| matches!(o, Op::CmpImmR { v, .. } if *v == 2.5)));
        assert!(!k.ops.iter().any(|o| matches!(o, Op::Const { .. })));
    }

    #[test]
    fn coefficient_times_tap_is_one_scaled_operand() {
        // A = 2.5 * A: the load, the multiply and the store are one fold,
        // and the constant nobody reads through a register is not preloaded.
        let body = vec![
            Instr::Const { dst: 0, value: 2.5 },
            Instr::Load { dst: 1, array: A, offsets: [0, 0].into() },
            bin(BinOp::Mul, 2, 0, 1),
            Instr::Store { array: A, offsets: [0, 0].into(), src: 2 },
        ];
        let (k, cx) = compile(&body, &[10, 1]);
        assert!(cx.preloads.is_empty());
        let (first, links, dst) = only_chain(&k);
        assert_eq!(first, Operand::ImmTap { v: 2.5, arr: 0, delta: 0 });
        assert!(links.is_empty());
        assert_eq!(dst, ChainDst::Store { arr: 0, delta: 0 });
    }

    #[test]
    fn both_const_operands_fold_away() {
        let body = vec![
            Instr::Const { dst: 0, value: 2.0 },
            Instr::Const { dst: 1, value: 3.0 },
            bin(BinOp::Mul, 2, 0, 1),
            store(A, 0, 2),
        ];
        let (k, cx) = compile(&body, &[1]);
        // Everything hoists: the per-point code is a single store.
        assert_eq!(k.ops.len(), 1);
        assert!(matches!(k.ops[0], Op::Store { .. }));
        assert_eq!(cx.preloads, vec![(2, 6.0)]);
    }

    #[test]
    fn select_store_fuses_to_predicated_store() {
        let body = vec![
            load(0, A, 0),
            Instr::Cmp { op: CmpOp::Gt, dst: 1, a: 0, b: 0 },
            Instr::Select { dst: 2, c: 1, t: 0, e: 0 },
            store(A, 0, 2),
        ];
        let (k, _) = compile(&body, &[1]);
        assert!(k.ops.iter().any(|o| matches!(o, Op::SelStore { .. })));
        assert!(!k.ops.iter().any(|o| matches!(o, Op::Select { .. } | Op::Store { .. })));
        // The load feeds a comparison: it stays a load.
        assert!(matches!(k.ops[0], Op::Load { .. }));
    }

    #[test]
    fn sum_of_taps_is_one_fold_in_source_order() {
        // B = 0.25 * (A(-1) + A(+1) - A(0)) + A(0) / A(+1)
        let body = vec![
            Instr::Const { dst: 0, value: 0.25 },
            load(1, A, -1),
            load(2, A, 1),
            bin(BinOp::Add, 3, 1, 2),
            load(4, A, 0),
            bin(BinOp::Sub, 5, 3, 4),
            bin(BinOp::Mul, 6, 0, 5),
            bin(BinOp::Div, 7, 4, 2),
            bin(BinOp::Add, 8, 6, 7),
            store(B, 0, 8),
        ];
        let (k, cx) = compile(&body, &[1]);
        let tap = |delta| Operand::Tap { arr: 0, delta };
        // The quotient is a fold of its own (two folds cannot both be the
        // accumulator); everything else, store included, is the other.
        assert_eq!(
            k.ops,
            vec![
                Op::Chain { first: tap(0), lo: 0, hi: 1, dst: ChainDst::Reg(7) },
                Op::Chain {
                    first: tap(-1),
                    lo: 1,
                    hi: 5,
                    dst: ChainDst::Store { arr: 1, delta: 0 }
                },
            ]
        );
        assert_eq!(
            k.links,
            vec![
                Link { op: BinOp::Div, rev: false, x: tap(1) },
                Link { op: BinOp::Add, rev: false, x: tap(1) },
                Link { op: BinOp::Sub, rev: false, x: tap(0) },
                Link { op: BinOp::Mul, rev: true, x: Operand::Imm(0.25) },
                Link { op: BinOp::Add, rev: false, x: Operand::Reg(7) },
            ]
        );
        assert!(cx.preloads.is_empty());
        assert_eq!((cx.max_reg, k.min_delta, k.max_delta), (7, -1, 1));
    }

    #[test]
    fn product_continues_the_fold_without_fma() {
        // r3 = r0 + r0*r1: the product is the accumulator, the sum a link
        // with the accumulator on the right — two roundings, as written.
        let body = vec![
            load(0, A, 0),
            load(1, A, 1),
            bin(BinOp::Mul, 2, 0, 1),
            bin(BinOp::Add, 3, 0, 2),
            store(A, 0, 3),
        ];
        let (k, _) = compile(&body, &[1]);
        let (first, links, dst) = only_chain(&k);
        assert_eq!(first, Operand::Tap { arr: 0, delta: 0 });
        assert_eq!(
            links,
            [
                Link { op: BinOp::Mul, rev: false, x: Operand::Tap { arr: 0, delta: 1 } },
                Link { op: BinOp::Add, rev: true, x: Operand::Tap { arr: 0, delta: 0 } },
            ]
        );
        assert_eq!(dst, ChainDst::Store { arr: 0, delta: 0 });
    }

    #[test]
    fn wave_update_is_one_fold_with_scaled_operands() {
        // UNEXT = 2*U - UPREV + 0.1*LAP with U, UPREV, LAP, UNEXT = slots 0..4.
        let arr = |i: u32| ArrayId(i);
        let body = vec![
            Instr::Const { dst: 0, value: 2.0 },
            load(1, arr(0), 0),
            bin(BinOp::Mul, 2, 0, 1),
            load(3, arr(1), 0),
            bin(BinOp::Sub, 4, 2, 3),
            Instr::Const { dst: 5, value: 0.1 },
            load(6, arr(2), 0),
            bin(BinOp::Mul, 7, 5, 6),
            bin(BinOp::Add, 8, 4, 7),
            store(arr(3), 0, 8),
        ];
        let (k, _) = compile(&body, &[1]);
        let (first, links, dst) = only_chain(&k);
        assert_eq!(first, Operand::ImmTap { v: 2.0, arr: 0, delta: 0 });
        assert_eq!(
            links,
            [
                Link { op: BinOp::Sub, rev: false, x: Operand::Tap { arr: 1, delta: 0 } },
                Link {
                    op: BinOp::Add,
                    rev: false,
                    x: Operand::ImmTap { v: 0.1, arr: 2, delta: 0 }
                },
            ]
        );
        assert_eq!(dst, ChainDst::Store { arr: 3, delta: 0 });
    }

    #[test]
    fn whole_array_copy_is_a_zero_link_fold() {
        let (k, cx) = compile(&[load(0, A, 0), store(B, 0, 0)], &[1]);
        let (first, links, dst) = only_chain(&k);
        assert_eq!(first, Operand::Tap { arr: 0, delta: 0 });
        assert!(links.is_empty());
        assert_eq!(dst, ChainDst::Store { arr: 1, delta: 0 });
        assert_eq!(cx.max_reg, 0, "no strip register is named");
    }

    #[test]
    fn store_between_load_and_use_refuses_the_fold() {
        // r0 = A(0); A(0) = r1; B(0) = r0 + r1 must add the *old* A(0): the
        // load cannot become a tap of the fold behind the store.
        let body = vec![
            load(0, A, 0),
            load(1, B, 0),
            store(A, 0, 1),
            bin(BinOp::Add, 2, 0, 1),
            store(B, 0, 2),
        ];
        let (k, _) = compile(&body, &[1]);
        assert_eq!(k.ops[0], Op::Load { dst: 0, arr: 0, delta: 0 });
        let Op::Chain { first, lo, hi, .. } = k.ops[2] else { panic!("{:?}", k.ops) };
        assert_eq!(first, Operand::Reg(0), "stale location read through the register");
        assert_eq!(k.chain_links(lo, hi)[0].x, Operand::Tap { arr: 1, delta: 0 });
        // A store to a *different* location of the array does not interfere.
        let body = vec![load(0, A, 0), load(1, B, 0), store(A, 1, 1), bin(BinOp::Add, 2, 0, 1)];
        let (k, _) = compile(&body, &[1]);
        assert!(!k.ops.iter().any(|o| matches!(o, Op::Load { .. })), "{:?}", k.ops);
        // Likewise a fold cannot move past a store to one of its taps.
        let body = vec![
            load(0, A, 0),
            load(1, B, 0),
            bin(BinOp::Add, 2, 0, 1),
            store(A, 0, 1),
            bin(BinOp::Mul, 3, 2, 1),
            store(B, 0, 3),
        ];
        let (k, _) = compile(&body, &[1]);
        assert!(
            matches!(k.ops[0], Op::Chain { dst: ChainDst::Reg(2), .. }),
            "the sum is computed before the store: {:?}",
            k.ops
        );
    }

    #[test]
    fn multiply_used_results_and_redefined_registers_stay_in_registers() {
        // r2 feeds two readers: neither may absorb it.
        let body = vec![
            load(0, A, 0),
            load(1, A, 1),
            bin(BinOp::Add, 2, 0, 1),
            bin(BinOp::Mul, 3, 2, 2),
            store(A, 0, 3),
        ];
        let (k, _) = compile(&body, &[1]);
        assert_eq!(k.ops.len(), 2);
        assert!(matches!(k.ops[0], Op::Chain { dst: ChainDst::Reg(2), .. }));
        assert!(matches!(k.ops[1], Op::Chain { first: Operand::Reg(2), .. }));
        // r0 is written twice: the fold reading its first value cannot move
        // behind the second write.
        let body = vec![
            load(0, A, 0),
            Instr::Neg { dst: 1, src: 0 },
            bin(BinOp::Add, 2, 1, 1),
            Instr::Neg { dst: 1, src: 2 },
            bin(BinOp::Mul, 3, 2, 1),
            store(A, 0, 3),
        ];
        let (k, _) = compile(&body, &[1]);
        assert!(matches!(k.ops[2], Op::Chain { dst: ChainDst::Reg(2), .. }), "{:?}", k.ops);
    }

    #[test]
    fn strict_bodies_take_one_link_folds_over_registers() {
        let body = vec![
            Instr::Const { dst: 0, value: 2.0 },
            load(1, A, 0),
            bin(BinOp::Mul, 2, 0, 1),
            bin(BinOp::Add, 3, 2, 1),
            store(A, 0, 3),
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[1], &[], 0, true, &mut cx).unwrap();
        assert!(cx.preloads.is_empty());
        assert_eq!(
            k.ops[2..],
            [
                Op::Chain { first: Operand::Imm(2.0), lo: 0, hi: 1, dst: ChainDst::Reg(2) },
                Op::Chain { first: Operand::Reg(2), lo: 1, hi: 2, dst: ChainDst::Reg(3) },
                Op::Store { arr: 0, delta: 0, src: 3 },
            ]
        );
    }

    #[test]
    fn multi_def_const_stays_inline() {
        // r0 is written twice: hoisting either write would corrupt the other.
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            store(A, 0, 0),
            Instr::Const { dst: 0, value: 2.0 },
            store(A, 1, 0),
        ];
        let (k, cx) = compile(&body, &[1]);
        assert!(cx.preloads.is_empty());
        assert_eq!(k.ops.iter().filter(|o| matches!(o, Op::Const { .. })).count(), 2);
    }

    #[test]
    fn read_before_def_detected() {
        let carried = vec![bin(BinOp::Add, 0, 0, 0), store(A, 0, 0)];
        assert!(reads_before_def(&carried));
        let clean = vec![load(0, A, 0), store(A, 0, 0)];
        assert!(!reads_before_def(&clean));
    }

    #[test]
    fn deltas_cover_all_memory_operands() {
        let body = vec![
            Instr::Load { dst: 0, array: A, offsets: [-1, 0].into() },
            Instr::Load { dst: 1, array: A, offsets: [1, 1].into() },
            bin(BinOp::Add, 2, 0, 1),
            Instr::Store { array: A, offsets: [0, 0].into(), src: 2 },
        ];
        let (k, _) = compile(&body, &[10, 1]);
        assert_eq!(k.min_delta, -10);
        assert_eq!(k.max_delta, 11);
    }
}
