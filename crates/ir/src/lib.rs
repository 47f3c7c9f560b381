#![warn(missing_docs)]

//! # hpf-ir — normalized stencil intermediate representation
//!
//! This crate defines the intermediate representation used by the SC'97
//! stencil compilation pipeline (Roth, Mellor-Crummey, Kennedy, Brickner:
//! *Compiling Stencils in High Performance Fortran*).
//!
//! The IR models programs in the paper's *normal form* (§2.1):
//!
//! * every `CSHIFT`/`EOSHIFT` occurs as a singleton operation on the
//!   right-hand side of an array assignment applied to a whole array
//!   ([`Stmt::ShiftAssign`]);
//! * compute statements ([`Stmt::Compute`]) operate on perfectly aligned
//!   operands over a common iteration space, so they need no communication;
//! * after the offset-array optimization, shift assignments become
//!   [`Stmt::OverlapShift`] operations that move only off-processor data into
//!   overlap areas, and operand references carry *offset annotations*
//!   (`U<+1,0>` in the paper's notation, [`Offsets`] here).
//!
//! The crate also provides:
//!
//! * array/scalar symbol tables with HPF `BLOCK` distribution descriptors
//!   ([`ArrayDecl`], [`Distribution`]);
//! * regular section descriptors ([`rsd::Rsd`]) used as the optional fourth
//!   argument of `OVERLAP_SHIFT` to pick up stencil corner elements;
//! * a statement-level data dependence graph ([`ddg`]) over which the
//!   context-partitioning pass runs its typed fusion;
//! * reaching-definition / def-use analysis ([`defuse`]) used by the
//!   offset-array optimization;
//! * [`Dims`], the inline per-dimension value every offset, coordinate and
//!   box is made of, and the workspace's one hasher ([`hash`]);
//! * an IR validator ([`validate`]) and a pretty printer ([`pretty`]) that
//!   renders programs in the paper's surface notation.

pub mod array;
pub mod ddg;
pub mod defuse;
pub mod diag;
pub mod dims;
pub mod expr;
pub mod hash;
pub mod pretty;
pub mod program;
pub mod rsd;
pub mod section;
pub mod span;
pub mod stmt;
pub mod validate;

pub use array::{ArrayDecl, ArrayId, DimDist, Distribution, ScalarDecl, ScalarId, Shape};
pub use ddg::{DepGraph, DepKind};
pub use diag::{Diagnostic, Severity};
pub use dims::{Dims, MAX_RANK};
pub use expr::{BinOp, Expr, OperandRef};
pub use program::{Program, SymbolTable};
pub use rsd::Rsd;
pub use section::{Offsets, Section};
pub use span::Span;
pub use stmt::{ShiftKind, Stmt};

/// Dimension index (0-based internally; printed 1-based like Fortran).
pub type Dim = usize;
