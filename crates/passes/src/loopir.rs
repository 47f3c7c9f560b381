//! The node-program (loop) IR produced by scalarization.
//!
//! After the array-level passes, the program is lowered to the form each PE
//! executes: communication operations interleaved with *subgrid loop nests*
//! (paper §2.2, §4.5). A loop nest iterates a global iteration space (each
//! PE intersects it with the region it owns — the SPMD bounds reduction) and
//! executes a register-machine body per point. Memory optimizations
//! (scalar replacement, unroll-and-jam, permutation) rewrite this IR.

use hpf_ir::expr::CmpOp;
use hpf_ir::{ArrayId, BinOp, Dims, Rsd, ScalarId, Section, ShiftKind, SymbolTable};

/// Virtual register index within a loop body.
pub type Reg = u16;

/// One instruction of a loop-nest body, executed per iteration point.
/// `offsets` are added to the current point to form the accessed element
/// (reads may land in overlap areas).
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `r[dst] = value`
    Const {
        /// Destination register.
        dst: Reg,
        /// Literal value.
        value: f64,
    },
    /// `r[dst] = scalars[id]`
    LoadScalar {
        /// Destination register.
        dst: Reg,
        /// Scalar coefficient.
        id: ScalarId,
    },
    /// `r[dst] = array[point + offsets]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Loaded array.
        array: ArrayId,
        /// Per-dimension offsets from the iteration point.
        offsets: Dims<i64>,
    },
    /// `array[point + offsets] = r[src]`
    Store {
        /// Stored array.
        array: ArrayId,
        /// Per-dimension offsets from the iteration point.
        offsets: Dims<i64>,
        /// Source register.
        src: Reg,
    },
    /// `r[dst] = r[a] op r[b]`
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r[dst] = -r[src]`
    Neg {
        /// Destination register.
        dst: Reg,
        /// Operand.
        src: Reg,
    },
    /// `r[dst] = r[src]` (introduced by store-to-load forwarding).
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `r[dst] = r[a] cmp r[b] ? 1.0 : 0.0` (`WHERE` masks).
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `r[dst] = r[c] != 0 ? r[t] : r[e]` (masked assignment lowering).
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        c: Reg,
        /// Value when the condition is non-zero.
        t: Reg,
        /// Value when the condition is zero.
        e: Reg,
    },
}

impl Instr {
    /// Destination register, if the instruction defines one.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::LoadScalar { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Select { dst, .. } => Some(*dst),
            Instr::Store { .. } => None,
        }
    }

    /// The array a load or store accesses.
    pub fn array(&self) -> Option<ArrayId> {
        match self {
            Instr::Load { array, .. } | Instr::Store { array, .. } => Some(*array),
            _ => None,
        }
    }

    /// Registers the instruction reads, in operand order.
    pub fn sources(&self) -> impl Iterator<Item = Reg> {
        let (regs, n) = match *self {
            Instr::Const { .. } | Instr::LoadScalar { .. } | Instr::Load { .. } => ([0; 3], 0),
            Instr::Store { src, .. } | Instr::Neg { src, .. } | Instr::Copy { src, .. } => {
                ([src, 0, 0], 1)
            }
            Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => ([a, b, 0], 2),
            Instr::Select { c, t, e, .. } => ([c, t, e], 3),
        };
        regs.into_iter().take(n)
    }

    /// Remap register operands through `f`.
    pub fn remap(&mut self, f: &mut impl FnMut(Reg) -> Reg) {
        match self {
            Instr::Const { dst, .. } | Instr::LoadScalar { dst, .. } | Instr::Load { dst, .. } => {
                *dst = f(*dst);
            }
            Instr::Store { src, .. } => *src = f(*src),
            Instr::Bin { dst, a, b, .. } | Instr::Cmp { dst, a, b, .. } => {
                *dst = f(*dst);
                *a = f(*a);
                *b = f(*b);
            }
            Instr::Neg { dst, src } | Instr::Copy { dst, src } => {
                *dst = f(*dst);
                *src = f(*src);
            }
            Instr::Select { dst, c, t, e } => {
                *dst = f(*dst);
                *c = f(*c);
                *t = f(*t);
                *e = f(*e);
            }
        }
    }

    /// Shift the array-access offsets of loads/stores along one dimension
    /// (used when unrolling a loop by cloning its body).
    pub fn shift_dim(&mut self, dim: usize, by: i64) {
        match self {
            Instr::Load { offsets, .. } | Instr::Store { offsets, .. } => offsets[dim] += by,
            _ => {}
        }
    }
}

/// One more than the highest register `body` names: the length of a table
/// indexed by register.
pub fn regs_named(body: &[Instr]) -> usize {
    let named = body.iter().flat_map(|i| i.dst().into_iter().chain(i.sources()));
    named.max().map_or(0, |r| r as usize + 1)
}

/// Unroll-and-jam annotation of a loop nest.
#[derive(Clone, Debug, PartialEq)]
pub struct Unroll {
    /// Which loop (a dimension index) is unrolled.
    pub dim: usize,
    /// Unroll factor (≥ 2).
    pub factor: usize,
    /// The original (unit) body, used for remainder iterations on PEs whose
    /// local extent is not a multiple of the factor.
    pub unit_body: Vec<Instr>,
    /// Register count of the unit body.
    pub unit_regs: usize,
}

/// A subgrid loop nest over a global iteration space.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNest {
    /// Global iteration space (1-based, inclusive). Each PE intersects this
    /// with its owned region.
    pub space: Section,
    /// Loop order, outermost first (dimension indices).
    pub order: Vec<usize>,
    /// Body executed per point (jammed body when `unroll` is present).
    pub body: Vec<Instr>,
    /// Number of virtual registers used by `body`.
    pub regs: usize,
    /// Optional unroll-and-jam of one loop.
    pub unroll: Option<Unroll>,
}

impl LoopNest {
    /// The semantic per-point body: an unrolled nest's pre-jam unit body (the
    /// jammed body is `factor` unit iterations interleaved), else the body.
    pub fn unit_body(&self) -> &[Instr] {
        self.unroll.as_ref().map_or(&self.body, |u| &u.unit_body)
    }

    /// Arrays the unit body stores, in first-store order.
    pub fn stored(&self) -> Vec<ArrayId> {
        let mut out = Vec::new();
        for i in self.unit_body() {
            if let Instr::Store { array, .. } = i {
                if !out.contains(array) {
                    out.push(*array);
                }
            }
        }
        out
    }

    /// Arithmetic operations per point of the (unit) body.
    pub fn flops_per_point(&self) -> usize {
        self.unit_body()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Bin { .. }
                        | Instr::Neg { .. }
                        | Instr::Cmp { .. }
                        | Instr::Select { .. }
                )
            })
            .count()
    }

    /// Loads per point of the (unit) body.
    pub fn loads_per_point(&self) -> usize {
        self.unit_body().iter().filter(|i| matches!(i, Instr::Load { .. })).count()
    }

    /// Stores per point of the (unit) body.
    pub fn stores_per_point(&self) -> usize {
        self.unit_body().iter().filter(|i| matches!(i, Instr::Store { .. })).count()
    }
}

/// A communication operation in the node program.
#[derive(Clone, Debug, PartialEq)]
pub enum CommOp {
    /// Full `DST = CSHIFT(SRC, …)`: interprocessor + intraprocessor movement.
    FullShift {
        /// Destination array.
        dst: ArrayId,
        /// Source array.
        src: ArrayId,
        /// Shift amount.
        shift: i64,
        /// Shifted dimension.
        dim: usize,
        /// Circular or end-off.
        kind: ShiftKind,
    },
    /// `CALL OVERLAP_SHIFT(A, …)`: interprocessor only.
    Overlap {
        /// Array whose overlap area is filled.
        array: ArrayId,
        /// Shift amount.
        shift: i64,
        /// Shifted dimension.
        dim: usize,
        /// Optional corner-pickup extension.
        rsd: Option<Rsd>,
        /// Circular or end-off.
        kind: ShiftKind,
    },
}

/// One step of the node program.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeItem {
    /// A communication operation (globally synchronised).
    Comm(CommOp),
    /// A subgrid loop nest (purely local).
    Nest(LoopNest),
    /// `CALL REBIND(DST <- SRC)`: every PE swaps the two arrays' storage
    /// (purely local, O(1) per PE) — the lowered [`hpf_ir::Stmt::Rebind`].
    Rebind {
        /// The array that takes over `src`'s storage.
        dst: ArrayId,
        /// The array left holding `dst`'s stale storage.
        src: ArrayId,
    },
    /// A counted serial loop.
    TimeLoop {
        /// Iterations.
        iters: usize,
        /// Body items.
        body: Vec<NodeItem>,
    },
}

/// The lowered program: what every PE executes.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeProgram {
    /// Symbols (arrays to allocate, scalar values).
    pub symbols: SymbolTable,
    /// Arrays that must be allocated (referenced by the items).
    pub live_arrays: Vec<ArrayId>,
    /// The steps.
    pub items: Vec<NodeItem>,
}

impl NodeProgram {
    /// Visit every item recursively.
    pub fn for_each_item(&self, f: &mut impl FnMut(&NodeItem)) {
        fn walk(items: &[NodeItem], f: &mut impl FnMut(&NodeItem)) {
            for it in items {
                f(it);
                if let NodeItem::TimeLoop { body, .. } = it {
                    walk(body, f);
                }
            }
        }
        walk(&self.items, f);
    }

    /// Count communication operations (statically, not iteration-weighted).
    pub fn comm_count(&self) -> usize {
        let mut n = 0;
        self.for_each_item(&mut |it| {
            if matches!(it, NodeItem::Comm(_)) {
                n += 1;
            }
        });
        n
    }

    /// Count loop nests.
    pub fn nest_count(&self) -> usize {
        let mut n = 0;
        self.for_each_item(&mut |it| {
            if matches!(it, NodeItem::Nest(_)) {
                n += 1;
            }
        });
        n
    }

    /// Distinct arrays whose owned elements one step writes: those a nest
    /// stores or a full shift fills. A rebind moves storage and writes none.
    pub fn arrays_written(&self) -> usize {
        let mut written: Vec<ArrayId> = Vec::new();
        self.for_each_item(&mut |it| match it {
            NodeItem::Nest(nest) => {
                for i in &nest.body {
                    if let Instr::Store { array, .. } = i {
                        if !written.contains(array) {
                            written.push(*array);
                        }
                    }
                }
            }
            NodeItem::Comm(CommOp::FullShift { dst, .. }) if !written.contains(dst) => {
                written.push(*dst);
            }
            _ => {}
        });
        written.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_dst_and_sources() {
        let i = Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 1 };
        assert_eq!(i.dst(), Some(2));
        assert!(i.sources().eq([0, 1]));
        let s = Instr::Store { array: ArrayId(0), offsets: [0, 0].into(), src: 3 };
        assert_eq!(s.dst(), None);
        assert!(s.sources().eq([3]));
    }

    #[test]
    fn instr_remap_and_shift() {
        let mut i = Instr::Load { dst: 1, array: ArrayId(0), offsets: [0, -1].into() };
        i.remap(&mut |r| r + 10);
        assert_eq!(i.dst(), Some(11));
        i.shift_dim(0, 2);
        match i {
            Instr::Load { offsets, .. } => assert_eq!(offsets, vec![2, -1]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nest_per_point_counts() {
        let nest = LoopNest {
            space: Section::new([(1, 4), (1, 4)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: ArrayId(0), offsets: [0, 0].into() },
                Instr::Load { dst: 1, array: ArrayId(0), offsets: [1, 0].into() },
                Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 1 },
                Instr::Store { array: ArrayId(1), offsets: [0, 0].into(), src: 2 },
            ],
            regs: 3,
            unroll: None,
        };
        assert_eq!(nest.loads_per_point(), 2);
        assert_eq!(nest.stores_per_point(), 1);
        assert_eq!(nest.flops_per_point(), 1);
    }

    #[test]
    fn program_counts() {
        let p = NodeProgram {
            symbols: SymbolTable::new(),
            live_arrays: vec![],
            items: vec![
                NodeItem::Comm(CommOp::Overlap {
                    array: ArrayId(0),
                    shift: 1,
                    dim: 0,
                    rsd: None,
                    kind: ShiftKind::Circular,
                }),
                NodeItem::TimeLoop {
                    iters: 3,
                    body: vec![NodeItem::Comm(CommOp::FullShift {
                        dst: ArrayId(1),
                        src: ArrayId(0),
                        shift: 1,
                        dim: 0,
                        kind: ShiftKind::Circular,
                    })],
                },
            ],
        };
        assert_eq!(p.comm_count(), 2);
        assert_eq!(p.nest_count(), 0);
    }
}
