#![allow(clippy::needless_range_loop)] // index-based dimension math reads clearer here
#![warn(missing_docs)]
// One `unsafe` block lives here: the worker pool's job hand-off (`par`).
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! # hpf-exec — executors for the lowered node program
//!
//! Two ways to run a stencil kernel, agreeing bit-for-bit:
//!
//! * [`mod@reference`] — the correctness oracle: a direct sequential interpreter
//!   of the checked source program on dense global arrays, implementing
//!   Fortran90 array-statement semantics (`CSHIFT`/`EOSHIFT`, sections,
//!   full-RHS-before-assignment);
//! * [`plan`] — the machine executor: an [`ExecPlan`] allocates the arrays,
//!   compiles every communication operation once against the allocated
//!   subgrids (one strided box per region, copied run by run), and then
//!   steps the node program any number of times on the `hpf-runtime`
//!   machine simulator with zero per-step setup.
//!
//! Plans are described by one [`ExecConfig`] — engine ([`Engine`]), nest
//! backend ([`Backend`]), per-PE event tracing, invariant checking — built
//! with [`ExecPlan::build`] and stepped with [`ExecPlan::step`]. One step
//! walker serves every engine: the sequential engine visits every PE on the
//! calling thread and moves messages by direct copy; the threaded engine
//! runs one OS thread per PE over channels, through the *same* compiled
//! schedules — threads the plan starts on its first step and keeps,
//! parked between steps, until it drops. Orthogonally, loop nests are evaluated by the tree
//! interpreter or by compiled bytecode kernels ([`Backend`]). Every
//! engine × backend combination is bitwise identical.

pub mod backend;
pub mod config;
pub(crate) mod metrics;
pub mod nest;
mod par;
pub mod plan;
pub mod plan_verify;
pub mod reference;
pub mod superstep;
mod validate;
pub mod verify;

pub use backend::Backend;
pub use config::{Engine, ExecConfig};
pub use plan::ExecPlan;
pub use reference::{DenseArray, Reference};
pub use superstep::{superstep_diags, superstep_halo};
pub use validate::allocate;
pub use verify::{assert_close, max_abs_diff};
