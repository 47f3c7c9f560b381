#![allow(clippy::needless_range_loop)] // index-based dimension math reads clearer here
#![warn(missing_docs)]

//! # hpf-passes — the SC'97 stencil compilation pipeline
//!
//! Implements the four orchestrated optimizations of Roth et al. plus the
//! normalization front and the scalarization back:
//!
//! 1. [`mod@normalize`] — translate any stencil specification (array syntax,
//!    `CSHIFT` intrinsics, single- or multi-statement) into the paper's
//!    normal form (§2.1): every shift a singleton whole-array assignment,
//!    compute statements over perfectly aligned operands.
//! 2. [`offset`] — the *offset array* optimization (§3.1): eliminate the
//!    intraprocessor component of shifts by letting source and destination
//!    share storage, moving off-processor data into overlap areas
//!    (`OVERLAP_SHIFT`) and rewriting uses as annotated offset references.
//!    [`rotate`] extends the same storage sharing to whole-array copies
//!    whose source dies: the copy becomes a per-PE storage swap.
//! 3. [`partition`] — *context partitioning* (§3.2): Kennedy–McKinley typed
//!    fusion over the statement dependence graph groups congruent array
//!    statements (enabling maximal legal loop fusion) and groups
//!    communication operations (enabling unioning).
//! 4. [`unioning`] — *communication unioning* (§3.3): commutativity
//!    reordering + subsumption reduce the overlap shifts to at most one
//!    message per direction per dimension, with RSD extensions picking up
//!    stencil corner elements from already-filled overlap areas.
//! 5. [`scalarize`] — scalarization + loop fusion (§3.4/§4.5): lower each
//!    congruent compute group to a single SPMD subgrid loop nest in the
//!    [`loopir`] node-program representation.
//! 6. [`memopt`] — loop-level memory optimizations (§3.4): scalar
//!    replacement, unroll-and-jam, and loop permutation on the node program.
//!
//! [`pipeline`] drives the whole thing with per-stage toggles, which is how
//! the benches regenerate the paper's staged Figure 17.

pub mod loopir;
pub mod memopt;
pub mod nodepretty;
pub mod normalize;
pub mod offset;
pub mod partition;
pub mod pipeline;
pub mod rotate;
pub mod scalarize;
pub mod unioning;

pub use loopir::{Instr, LoopNest, NodeItem, NodeProgram, Reg};
pub use normalize::{normalize, TempPolicy};
pub use pipeline::{
    compile, CompileOptions, Compiled, PassTiming, PipelineStats, Stage, NUM_PASSES, PASS_NAMES,
};
