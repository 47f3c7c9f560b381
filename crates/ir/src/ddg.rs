//! Statement-level data dependence graph (DDG) over a basic block.
//!
//! Context partitioning (paper §3.2) runs the Kennedy–McKinley typed-fusion
//! algorithm on this graph. Because the graph is built over the statements
//! of a basic block it contains only loop-independent dependences and is
//! therefore acyclic, which is the precondition the paper notes.

use crate::hash::HashMap;
use crate::stmt::{Resource, Stmt};

/// Dependence classification.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Flow (true) dependence: earlier statement writes, later reads.
    True,
    /// Anti dependence: earlier reads, later writes.
    Anti,
    /// Output dependence: both write.
    Output,
}

/// A dependence edge between two statements of a block, identified by their
/// indices; `src < dst` always holds (program order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DepEdge {
    /// Index of the earlier statement.
    pub src: usize,
    /// Index of the later statement.
    pub dst: usize,
    /// Dependence kind.
    pub kind: DepKind,
}

/// The dependence graph of one basic block.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Number of statements.
    pub n: usize,
    /// All dependence edges.
    pub edges: Vec<DepEdge>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Build the dependence graph of a block from statement read/write sets.
    ///
    /// Overlap-area refills are idempotent: two `OVERLAP_SHIFT`s of the same
    /// array fill overlapping ghost cells with identical values (both derive
    /// them from the array's interior, and interior updates create their own
    /// `Interior` dependences). Following the paper — whose Problem 9 DDG
    /// contains only shift→use true dependences and the T chain (§4.3) —
    /// anti and output conflicts on ghost resources whose writer is an
    /// `OVERLAP_SHIFT` are therefore not edges, *unless* the block mixes
    /// shift kinds (circular vs end-off) on that array, where refills are
    /// not value-identical.
    pub fn build(block: &[Stmt]) -> DepGraph {
        let n = block.len();
        // Arrays whose overlap shifts in this block all share one kind.
        let mut kind_of: HashMap<crate::ArrayId, Option<crate::ShiftKind>> = HashMap::default();
        for s in block {
            if let Stmt::OverlapShift { array, kind, .. } = s {
                match kind_of.entry(*array).or_insert(Some(*kind)) {
                    Some(k) if *k == *kind => {}
                    slot => *slot = None, // mixed kinds: stay conservative
                }
            }
        }
        let idempotent_ghost_write = |stmt: &Stmt, r: &Resource| -> bool {
            match (stmt, r) {
                (Stmt::OverlapShift { array, .. }, Resource::Ghost(a, ..)) => {
                    a == array && matches!(kind_of.get(array), Some(Some(_)))
                }
                _ => false,
            }
        };
        // Resources numbered densely: per array, its interior and then the
        // two sides of each dimension's overlap area.
        let (mut arrays, mut dims) = (0, 0);
        let mut size = |r| match r {
            Resource::Interior(a) => arrays = arrays.max(a.0 as usize + 1),
            Resource::Ghost(a, d, _) => {
                (arrays, dims) = (arrays.max(a.0 as usize + 1), dims.max(d + 1))
            }
        };
        block.iter().for_each(|s| {
            s.for_each_read(&mut size);
            s.for_each_write(&mut size);
        });
        let slots = 1 + 2 * dims;
        let id = |r: Resource| match r {
            Resource::Interior(a) => a.0 as usize * slots,
            Resource::Ghost(a, d, side) => a.0 as usize * slots + 1 + 2 * d + (side > 0) as usize,
        };
        // Per resource, the statements seen so far that write it and that read
        // it, as lists through `links` (newest first): statement j's
        // predecessors are the union of these lists over its own reads and
        // writes, each pair visited once per shared resource instead of once
        // per statement pair.
        const END: usize = usize::MAX;
        let mut heads = vec![[END; 2]; arrays * slots];
        let mut links: Vec<(usize, usize)> = Vec::new();
        fn list(links: &[(usize, usize)], mut at: usize) -> impl Iterator<Item = usize> + '_ {
            std::iter::from_fn(move || {
                let (i, next) = *links.get(at)?;
                at = next;
                Some(i)
            })
        }
        // kinds[i]: the dependence kinds found so far from i to j (bit per
        // `DepKind` in edge order), with `found` the i's it is nonzero for.
        let mut kinds = vec![0u8; n];
        let mut found = Vec::new();
        let mut edges = Vec::new();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for j in 0..n {
            let mut mark = |i: usize, bit: u8| {
                if kinds[i] == 0 {
                    found.push(i);
                }
                kinds[i] |= bit;
            };
            // A resource the statement touches twice marks the same bits twice.
            block[j].for_each_read(&mut |r| list(&links, heads[id(r)][0]).for_each(|i| mark(i, 1)));
            block[j].for_each_write(&mut |r| {
                let [w, rd] = heads[id(r)];
                if !idempotent_ghost_write(&block[j], &r) {
                    list(&links, rd).for_each(|i| mark(i, 2));
                }
                for i in list(&links, w) {
                    if !(idempotent_ghost_write(&block[i], &r)
                        && idempotent_ghost_write(&block[j], &r))
                    {
                        mark(i, 4);
                    }
                }
            });
            found.sort_unstable();
            for i in found.drain(..) {
                for (bit, kind) in [(1, DepKind::True), (2, DepKind::Anti), (4, DepKind::Output)] {
                    if kinds[i] & bit != 0 {
                        edges.push(DepEdge { src: i, dst: j, kind });
                    }
                }
                kinds[i] = 0;
                succ[i].push(j);
                pred[j].push(i);
            }
            let mut note = |r, side: usize| {
                let head = &mut heads[id(r)][side];
                if links.get(*head).is_none_or(|&(i, _)| i != j) {
                    links.push((j, *head));
                    *head = links.len() - 1;
                }
            };
            block[j].for_each_write(&mut |r| note(r, 0));
            block[j].for_each_read(&mut |r| note(r, 1));
        }
        DepGraph { n, edges, succ, pred }
    }

    /// Direct successors of a statement.
    pub fn succ(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// Direct predecessors of a statement.
    pub fn pred(&self, i: usize) -> &[usize] {
        &self.pred[i]
    }

    /// Check whether a permutation of the block preserves every dependence
    /// (each edge's source is placed before its destination).
    pub fn order_is_valid(&self, order: &[usize]) -> bool {
        if order.len() != self.n {
            return false;
        }
        let mut pos = vec![usize::MAX; self.n];
        for (p, &s) in order.iter().enumerate() {
            match pos.get_mut(s) {
                Some(slot) if *slot == usize::MAX => *slot = p,
                _ => return false,
            }
        }
        self.edges.iter().all(|e| pos[e.src] < pos[e.dst])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayId;
    use crate::expr::{BinOp, Expr, OperandRef};
    use crate::section::{Offsets, Section};
    use crate::stmt::ShiftKind;

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);
    const RIP: ArrayId = ArrayId(2);

    fn space() -> Section {
        Section::new([(1, 8), (1, 8)])
    }

    /// RIP = CSHIFT(U,+1,1); T = U + RIP; T = T + CSHIFT-style use.
    fn sample_block() -> Vec<Stmt> {
        vec![
            Stmt::ShiftAssign { dst: RIP, src: U, shift: 1, dim: 0, kind: ShiftKind::Circular },
            Stmt::Compute {
                lhs: T,
                space: space(),
                rhs: Expr::bin(
                    BinOp::Add,
                    Expr::Ref(OperandRef::aligned(U, 2)),
                    Expr::Ref(OperandRef::aligned(RIP, 2)),
                ),
            },
            Stmt::Compute {
                lhs: T,
                space: space(),
                rhs: Expr::bin(
                    BinOp::Add,
                    Expr::Ref(OperandRef::aligned(T, 2)),
                    Expr::Ref(OperandRef::aligned(RIP, 2)),
                ),
            },
        ]
    }

    #[test]
    fn true_anti_output_edges() {
        let g = DepGraph::build(&sample_block());
        // shift -> first compute: true dep on RIP.
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 1 && e.kind == DepKind::True));
        // compute1 -> compute2: true (T), output (T).
        assert!(g.edges.iter().any(|e| e.src == 1 && e.dst == 2 && e.kind == DepKind::True));
        assert!(g.edges.iter().any(|e| e.src == 1 && e.dst == 2 && e.kind == DepKind::Output));
        // Both computes read RIP: the shift reaches the second directly.
        assert_eq!((g.succ(0), g.succ(1), g.succ(2)), (&[1, 2][..], &[2][..], &[][..]));
        assert_eq!((g.pred(0), g.pred(1), g.pred(2)), (&[][..], &[0][..], &[0, 1][..]));
    }

    #[test]
    fn anti_dependence_detected() {
        // T = U ; U = CSHIFT(T): read of U before write of U.
        let block = vec![
            Stmt::Compute { lhs: T, space: space(), rhs: Expr::Ref(OperandRef::aligned(U, 2)) },
            Stmt::ShiftAssign { dst: U, src: T, shift: 1, dim: 0, kind: ShiftKind::Circular },
        ];
        let g = DepGraph::build(&block);
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 1 && e.kind == DepKind::Anti));
        // Also a true dep (T written then read).
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 1 && e.kind == DepKind::True));
    }

    #[test]
    fn independent_statements_have_no_edge() {
        let block = vec![
            Stmt::ShiftAssign { dst: RIP, src: U, shift: 1, dim: 0, kind: ShiftKind::Circular },
            Stmt::ShiftAssign { dst: T, src: U, shift: -1, dim: 0, kind: ShiftKind::Circular },
        ];
        let g = DepGraph::build(&block);
        assert!(g.succ(0).is_empty() && g.pred(1).is_empty());
    }

    #[test]
    fn overlap_shift_then_offset_use_is_true_dep() {
        let block = vec![
            Stmt::OverlapShift {
                array: U,
                src_offsets: Offsets::zero(2),
                shift: 1,
                dim: 0,
                rsd: None,
                kind: ShiftKind::Circular,
            },
            Stmt::Compute {
                lhs: T,
                space: space(),
                rhs: Expr::Ref(OperandRef::offset(U, Offsets::new([1, 0]))),
            },
        ];
        let g = DepGraph::build(&block);
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 1 && e.kind == DepKind::True));
    }

    #[test]
    fn mixed_kind_overlap_shifts_keep_conservative_deps() {
        // Circular and end-off fills of the same ghost region are NOT
        // value-identical: the idempotent-refill exception must not apply.
        let mk = |kind: ShiftKind| Stmt::OverlapShift {
            array: U,
            src_offsets: Offsets::zero(2),
            shift: 1,
            dim: 0,
            rsd: None,
            kind,
        };
        let read = Stmt::Compute {
            lhs: T,
            space: space(),
            rhs: Expr::Ref(OperandRef::offset(U, Offsets::new([1, 0]))),
        };
        let block = vec![mk(ShiftKind::Circular), read, mk(ShiftKind::EndOff(0.0))];
        let g = DepGraph::build(&block);
        // The anti dependence (read of the ghost before the end-off refill)
        // must be present, pinning the refill after the read.
        assert!(g.edges.iter().any(|e| e.src == 1 && e.dst == 2 && e.kind == DepKind::Anti));
        // And the two fills carry an output dependence.
        assert!(g.edges.iter().any(|e| e.src == 0 && e.dst == 2 && e.kind == DepKind::Output));
        // Same-kind refills stay exempt.
        let block2 = vec![mk(ShiftKind::Circular), block[1].clone(), mk(ShiftKind::Circular)];
        let g2 = DepGraph::build(&block2);
        assert!(!g2.edges.iter().any(|e| e.dst == 2 && e.kind != DepKind::True));
    }

    #[test]
    fn overlap_shifts_different_sides_independent() {
        let mk = |shift: i64| Stmt::OverlapShift {
            array: U,
            src_offsets: Offsets::zero(2),
            shift,
            dim: 0,
            rsd: None,
            kind: ShiftKind::Circular,
        };
        let g = DepGraph::build(&[mk(1), mk(-1)]);
        assert!(g.succ(0).is_empty());
    }

    #[test]
    fn edges_point_forward_and_order_validity() {
        let g = DepGraph::build(&sample_block());
        assert!((0..g.n).all(|j| g.pred(j).iter().all(|&i| i < j)));
        assert!((0..g.n).all(|i| g.succ(i).iter().all(|&j| i < j)));
        assert!(g.order_is_valid(&[0, 1, 2]));
        assert!(!g.order_is_valid(&[1, 0, 2])); // violates shift->use
        assert!(!g.order_is_valid(&[0, 2, 1])); // violates T chain
        assert!(!g.order_is_valid(&[0, 0, 1])); // duplicate
        assert!(!g.order_is_valid(&[0, 1])); // wrong length
    }
}
