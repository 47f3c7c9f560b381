//! Loop-level memory optimizations (paper §3.4): scalar replacement,
//! unroll-and-jam, and loop permutation on the node program.
//!
//! Stencil subgrid loops are memory-bound (§2.2); these transformations
//! exploit value reuse. The fused Problem 9 nest stores and reloads `T`
//! seven times per point — scalar replacement collapses that chain to a
//! single store. Unroll-and-jam clones the body across outer-loop
//! iterations so loads shared between neighbouring rows (e.g. `U(i,j)` and
//! `U(i+1,j)` of a 9-point stencil) are fetched once — the counterpart of
//! the CM-2 stencil compiler's "multi-stencil swath" (§6).

use crate::loopir::{regs_named, Instr, LoopNest, NodeItem, NodeProgram, Reg, Unroll};
use hpf_ir::hash::HashMap;
use hpf_ir::Dims;

/// Which memory optimizations to apply.
#[derive(Clone, Copy, Debug)]
pub struct MemOptOptions {
    /// Scalar replacement (CSE of loads, store-to-load forwarding, dead
    /// store elimination).
    pub scalar_replacement: bool,
    /// Unroll-and-jam factor for the outermost loop (1 = off).
    pub unroll_factor: usize,
    /// Permute loops so the storage-contiguous dimension is innermost.
    pub permute: bool,
}

impl Default for MemOptOptions {
    fn default() -> Self {
        MemOptOptions { scalar_replacement: true, unroll_factor: 2, permute: true }
    }
}

/// Per-point instruction counts before/after, summed over all nests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemOptStats {
    /// Loads per point before / after (unit bodies).
    pub loads_before: usize,
    /// Loads after.
    pub loads_after: usize,
    /// Stores before.
    pub stores_before: usize,
    /// Stores after.
    pub stores_after: usize,
    /// Nests unrolled.
    pub unrolled: usize,
    /// Nests permuted (order actually changed).
    pub permuted: usize,
}

/// Run the memory optimizer over every nest of the node program.
pub fn run(node: &mut NodeProgram, opts: MemOptOptions) -> MemOptStats {
    let mut stats = MemOptStats::default();
    fn walk(items: &mut [NodeItem], opts: MemOptOptions, stats: &mut MemOptStats) {
        for it in items {
            match it {
                NodeItem::Nest(nest) => optimize_nest(nest, opts, stats),
                NodeItem::TimeLoop { body, .. } => walk(body, opts, stats),
                NodeItem::Comm(_) | NodeItem::Rebind { .. } => {}
            }
        }
    }
    walk(&mut node.items, opts, &mut stats);
    stats
}

fn optimize_nest(nest: &mut LoopNest, opts: MemOptOptions, stats: &mut MemOptStats) {
    stats.loads_before += nest.loads_per_point();
    stats.stores_before += nest.stores_per_point();
    if opts.permute && permute(nest) {
        stats.permuted += 1;
    }
    if opts.scalar_replacement {
        scalar_replace(nest);
    }
    if opts.unroll_factor > 1 && unroll_and_jam(nest, opts.unroll_factor) {
        stats.unrolled += 1;
        if opts.scalar_replacement {
            // Jam enables cross-iteration reuse; rerun scalar replacement on
            // the jammed body.
            let (body, regs) = scalar_replace_body(&nest.body, nest.regs);
            nest.body = body;
            nest.regs = regs;
        }
    }
    stats.loads_after += nest.loads_per_point();
    stats.stores_after += nest.stores_per_point();
}

/// True when every dependence carried by the body is iteration-local:
/// for each array the body stores into, all of its accesses (loads and
/// stores) use one common offset vector. Under that condition iterations
/// are independent, so the nest is fully permutable and unroll-and-jam's
/// iteration interleaving is legal. Every nest scalarization produces from
/// the pipeline satisfies this (fusion legality forbids write/read pairs at
/// differing offsets), but the check makes the transformations safe to call
/// on arbitrary nests.
pub fn iteration_local(body: &[Instr]) -> bool {
    let mut stored: HashMap<u32, _> = HashMap::default();
    for i in body {
        if let Instr::Store { array, offsets, .. } = i {
            if let Some(prev) = stored.insert(array.0, offsets) {
                if prev != offsets {
                    return false;
                }
            }
        }
    }
    if stored.is_empty() {
        return true;
    }
    body.iter().all(|i| match i {
        Instr::Load { array, offsets, .. } => stored.get(&array.0).is_none_or(|s| *s == offsets),
        _ => true,
    })
}

/// Permute loops into natural (row-major-friendly) order: dimension indices
/// ascending, so the contiguous dimension runs innermost. Only applied when
/// the nest is fully permutable ([`iteration_local`]). Returns true when
/// the order changed.
pub fn permute(nest: &mut LoopNest) -> bool {
    let natural: Vec<usize> = (0..nest.space.rank()).collect();
    if nest.order == natural || !iteration_local(&nest.body) {
        false
    } else {
        nest.order = natural;
        true
    }
}

/// Scalar replacement over a straight-line body.
pub fn scalar_replace(nest: &mut LoopNest) {
    let (body, regs) = scalar_replace_body(&nest.body, nest.regs);
    nest.body = body;
    nest.regs = regs;
}

/// Value-number a body: CSE loads/scalars/constants/arithmetic, forward
/// stores to subsequent loads of the same element, and eliminate stores that
/// are overwritten before any other iteration can observe them (iterations
/// execute sequentially, so a same-iteration overwrite is unobservable).
/// Returns the new body and register count.
pub fn scalar_replace_body(body: &[Instr], regs: usize) -> (Vec<Instr>, usize) {
    let mut alias: Vec<Reg> = (0..regs as Reg).collect();
    let resolve = |alias: &[Reg], mut r: Reg| -> Reg {
        while alias[r as usize] != r {
            r = alias[r as usize];
        }
        r
    };
    let mut avail_mem: HashMap<(u32, Dims<i64>), Reg> = HashMap::default();
    let mut avail_scalar: HashMap<u32, Reg> = HashMap::default();
    let mut avail_const: HashMap<u64, Reg> = HashMap::default();
    let mut avail_expr: HashMap<(u8, Reg, Reg), Reg> = HashMap::default();
    // Pending (possibly dead) store per element: index into `out`.
    let mut pending_store: HashMap<(u32, Dims<i64>), usize> = HashMap::default();
    let mut dead: Vec<bool> = Vec::new();
    let mut out: Vec<Instr> = Vec::new();

    for instr in body {
        let mut instr = instr.clone();
        instr.remap(&mut |r| resolve(&alias, r));
        match &instr {
            Instr::Load { dst, array, offsets } => {
                let key = (array.0, *offsets);
                if let Some(&have) = avail_mem.get(&key) {
                    alias[*dst as usize] = have;
                    continue; // load elided
                }
                avail_mem.insert(key, *dst);
            }
            Instr::LoadScalar { dst, id } => {
                if let Some(&have) = avail_scalar.get(&id.0) {
                    alias[*dst as usize] = have;
                    continue;
                }
                avail_scalar.insert(id.0, *dst);
            }
            Instr::Const { dst, value } => {
                let bits = value.to_bits();
                if let Some(&have) = avail_const.get(&bits) {
                    alias[*dst as usize] = have;
                    continue;
                }
                avail_const.insert(bits, *dst);
            }
            Instr::Bin { op, dst, a, b } => {
                let key = (*op as u8, *a, *b);
                if let Some(&have) = avail_expr.get(&key) {
                    alias[*dst as usize] = have;
                    continue;
                }
                avail_expr.insert(key, *dst);
            }
            Instr::Store { array, offsets, src } => {
                let key = (array.0, *offsets);
                if let Some(&prev) = pending_store.get(&key) {
                    dead[prev] = true; // overwritten within the iteration
                }
                pending_store.insert(key, out.len());
                avail_mem.insert(key, *src);
            }
            Instr::Cmp { op, dst, a, b } => {
                // Comparison opcodes share the expression table with an
                // offset so they never collide with BinOp keys.
                let key = (16 + *op as u8, *a, *b);
                if let Some(&have) = avail_expr.get(&key) {
                    alias[*dst as usize] = have;
                    continue;
                }
                avail_expr.insert(key, *dst);
            }
            Instr::Neg { .. } | Instr::Copy { .. } | Instr::Select { .. } => {}
        }
        dead.push(false);
        out.push(instr);
    }
    let out: Vec<Instr> =
        out.into_iter().zip(dead).filter_map(|(i, d)| if d { None } else { Some(i) }).collect();
    let out = eliminate_dead_defs(out);
    renumber(out)
}

/// Remove instructions whose destination register is never read and which
/// have no memory effect.
fn eliminate_dead_defs(mut body: Vec<Instr>) -> Vec<Instr> {
    let mut used = vec![false; regs_named(&body)];
    for s in body.iter().flat_map(Instr::sources) {
        used[s as usize] = true;
    }
    body.retain(|i| i.dst().is_none_or(|d| used[d as usize]));
    body.shrink_to_fit();
    body
}

/// Compact register numbers.
fn renumber(mut body: Vec<Instr>) -> (Vec<Instr>, usize) {
    let mut map: Vec<Option<Reg>> = vec![None; regs_named(&body)];
    let mut next: Reg = 0;
    for i in &mut body {
        i.remap(&mut |r| {
            *map[r as usize].get_or_insert_with(|| {
                let v = next;
                next += 1;
                v
            })
        });
    }
    (body, next as usize)
}

/// Unroll the outermost loop by `factor` and jam the copies into one body.
/// Jamming interleaves iterations of the outer loop (the body covers
/// `factor` consecutive outer indices per inner-loop trip), which is legal
/// exactly when all dependences are iteration-local ([`iteration_local`]);
/// illegal nests are refused. Returns false (and leaves the nest alone)
/// when refused, for factor < 2, or when the nest is already unrolled.
pub fn unroll_and_jam(nest: &mut LoopNest, factor: usize) -> bool {
    if factor < 2 || nest.unroll.is_some() || nest.space.is_empty() {
        return false;
    }
    if !iteration_local(&nest.body) {
        return false;
    }
    let dim = nest.order[0];
    let unit_body = nest.body.clone();
    let unit_regs = nest.regs;
    let mut jammed = Vec::with_capacity(unit_body.len() * factor);
    for k in 0..factor {
        for instr in &unit_body {
            let mut c = instr.clone();
            c.remap(&mut |r| r + (k * unit_regs) as Reg);
            c.shift_dim(dim, k as i64);
            jammed.push(c);
        }
    }
    nest.body = jammed;
    nest.regs = unit_regs * factor;
    nest.unroll = Some(Unroll { dim, factor, unit_body, unit_regs });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, TempPolicy};
    use crate::scalarize::{self, ScalarizeOptions};
    use crate::{offset, partition, unioning};
    use hpf_frontend::compile_source;
    use hpf_ir::Section;

    const PROBLEM9: &str = r#"
PROGRAM p9
PARAM N = 8
REAL U(N,N), T(N,N), RIP(N,N), RIN(N,N)
RIP = CSHIFT(U,SHIFT=+1,DIM=1)
RIN = CSHIFT(U,SHIFT=-1,DIM=1)
T = U + RIP + RIN
T = T + CSHIFT(U,SHIFT=-1,DIM=2)
T = T + CSHIFT(U,SHIFT=+1,DIM=2)
T = T + CSHIFT(RIP,SHIFT=-1,DIM=2)
T = T + CSHIFT(RIP,SHIFT=+1,DIM=2)
T = T + CSHIFT(RIN,SHIFT=-1,DIM=2)
T = T + CSHIFT(RIN,SHIFT=+1,DIM=2)
END
"#;

    fn problem9_node() -> NodeProgram {
        let checked = compile_source(PROBLEM9).unwrap();
        let (mut p, _) = normalize(&checked, TempPolicy::Reuse);
        offset::run(&mut p, 1);
        partition::run(&mut p);
        unioning::run(&mut p);
        scalarize::run(&p, ScalarizeOptions::default()).0
    }

    fn the_nest(node: &NodeProgram) -> LoopNest {
        let mut nest = None;
        node.for_each_item(&mut |it| {
            if let NodeItem::Nest(n) = it {
                nest = Some(n.clone());
            }
        });
        nest.expect("one nest")
    }

    /// Scalar replacement collapses the fused Problem 9 chain: 7 stores of T
    /// with 6 reloads become a single store, and the 9 distinct U loads stay.
    #[test]
    fn problem9_scalar_replacement_collapses_t_chain() {
        let mut node = problem9_node();
        let before = the_nest(&node);
        assert_eq!(before.stores_per_point(), 7);
        assert_eq!(before.loads_per_point(), 9 + 6, "9 U loads + 6 T reloads");
        run(&mut node, MemOptOptions { scalar_replacement: true, unroll_factor: 1, permute: true });
        let after = the_nest(&node);
        assert_eq!(after.stores_per_point(), 1, "dead stores eliminated");
        assert_eq!(after.loads_per_point(), 9, "T reloads forwarded");
    }

    /// Unroll-and-jam by 2 shares the loads of adjacent rows: a 9-point
    /// stencil re-uses 6 of the 9 loads from the previous row.
    #[test]
    fn problem9_unroll_and_jam_shares_row_loads() {
        let mut node = problem9_node();
        let stats = run(&mut node, MemOptOptions::default());
        assert_eq!(stats.unrolled, 1);
        let nest = the_nest(&node);
        let u = nest.unroll.as_ref().unwrap();
        assert_eq!(u.factor, 2);
        assert_eq!(u.dim, 0);
        // Jammed body covers 2 points: without reuse it would need 18
        // loads; sharing rows i,i+1 of a 3-row stencil leaves 12.
        let jammed_loads = nest.body.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert_eq!(jammed_loads, 12, "6 loads shared between the two copies");
        // The unit body (remainder loop) is the scalar-replaced one.
        assert_eq!(u.unit_body.iter().filter(|i| matches!(i, Instr::Load { .. })).count(), 9);
    }

    #[test]
    fn permute_fixes_fortran_order() {
        let checked = compile_source("PARAM N = 8\nREAL A(N,N), B(N,N)\nA = B\n").unwrap();
        let (p, _) = normalize(&checked, TempPolicy::Reuse);
        let (mut node, _) =
            scalarize::run(&p, ScalarizeOptions { fuse: true, fortran_order: true });
        let stats = run(
            &mut node,
            MemOptOptions { scalar_replacement: false, unroll_factor: 1, permute: true },
        );
        assert_eq!(stats.permuted, 1);
        assert_eq!(the_nest(&node).order, vec![0, 1]);
    }

    #[test]
    fn store_load_forwarding_within_body() {
        use hpf_ir::{ArrayId, BinOp};
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Store { array: ArrayId(0), offsets: [0, 0].into(), src: 0 },
            Instr::Load { dst: 1, array: ArrayId(0), offsets: [0, 0].into() },
            Instr::Bin { op: BinOp::Add, dst: 2, a: 1, b: 1 },
            Instr::Store { array: ArrayId(1), offsets: [0, 0].into(), src: 2 },
        ];
        let (out, _) = scalar_replace_body(&body, 3);
        // The load is forwarded from the store.
        assert!(!out.iter().any(|i| matches!(i, Instr::Load { array: ArrayId(0), .. })));
        // Both stores remain (different arrays).
        assert_eq!(out.iter().filter(|i| matches!(i, Instr::Store { .. })).count(), 2);
    }

    #[test]
    fn dead_store_elimination_same_element() {
        use hpf_ir::ArrayId;
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Store { array: ArrayId(0), offsets: [0].into(), src: 0 },
            Instr::Const { dst: 1, value: 2.0 },
            Instr::Store { array: ArrayId(0), offsets: [0].into(), src: 1 },
        ];
        let (out, _) = scalar_replace_body(&body, 2);
        let stores: Vec<_> = out.iter().filter(|i| matches!(i, Instr::Store { .. })).collect();
        assert_eq!(stores.len(), 1, "first store is dead");
    }

    #[test]
    fn stores_to_different_elements_both_survive() {
        use hpf_ir::ArrayId;
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Store { array: ArrayId(0), offsets: [0].into(), src: 0 },
            Instr::Store { array: ArrayId(0), offsets: [1].into(), src: 0 },
        ];
        let (out, _) = scalar_replace_body(&body, 1);
        assert_eq!(out.iter().filter(|i| matches!(i, Instr::Store { .. })).count(), 2);
    }

    #[test]
    fn cse_of_repeated_loads_and_exprs() {
        use hpf_ir::{ArrayId, BinOp};
        let body = vec![
            Instr::Load { dst: 0, array: ArrayId(0), offsets: [1].into() },
            Instr::Load { dst: 1, array: ArrayId(0), offsets: [1].into() },
            Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 1 },
            Instr::Load { dst: 3, array: ArrayId(0), offsets: [1].into() },
            Instr::Bin { op: BinOp::Add, dst: 4, a: 0, b: 3 },
            Instr::Bin { op: BinOp::Mul, dst: 5, a: 2, b: 4 },
            Instr::Store { array: ArrayId(1), offsets: [0].into(), src: 5 },
        ];
        let (out, regs) = scalar_replace_body(&body, 6);
        assert_eq!(out.iter().filter(|i| matches!(i, Instr::Load { .. })).count(), 1);
        // a+a CSEd once, so: load, add, mul, store.
        assert_eq!(out.len(), 4);
        assert!(regs <= 3);
    }

    #[test]
    fn unroll_respects_remainder_body() {
        let mut nest = LoopNest {
            space: Section::new([(1, 5), (1, 4)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: hpf_ir::ArrayId(0), offsets: [0, 0].into() },
                Instr::Store { array: hpf_ir::ArrayId(1), offsets: [0, 0].into(), src: 0 },
            ],
            regs: 1,
            unroll: None,
        };
        assert!(unroll_and_jam(&mut nest, 3));
        let u = nest.unroll.as_ref().unwrap();
        assert_eq!(u.factor, 3);
        assert_eq!(u.unit_body.len(), 2);
        assert_eq!(nest.body.len(), 6);
        // Copies access rows i, i+1, i+2.
        let row_offsets: Vec<i64> = nest
            .body
            .iter()
            .filter_map(|i| match i {
                Instr::Load { offsets, .. } => Some(offsets[0]),
                _ => None,
            })
            .collect();
        assert_eq!(row_offsets, vec![0, 1, 2]);
        // Second unroll attempt is refused.
        assert!(!unroll_and_jam(&mut nest, 2));
    }

    #[test]
    fn dead_def_elimination() {
        use hpf_ir::ArrayId;
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Const { dst: 1, value: 2.0 }, // never used
            Instr::Store { array: ArrayId(0), offsets: [0].into(), src: 0 },
        ];
        let (out, regs) = scalar_replace_body(&body, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(regs, 1);
    }
}
