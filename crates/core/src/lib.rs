#![warn(missing_docs)]

//! # hpf-core — public API of the SC'97 stencil-compilation reproduction
//!
//! Reproduces Roth, Mellor-Crummey, Kennedy & Brickner, *Compiling Stencils
//! in High Performance Fortran* (SC'97): a general stencil compilation
//! strategy for Fortran90/HPF built from four orchestrated optimizations —
//! offset arrays, context partitioning, communication unioning, and
//! loop-level memory optimization — over a normal form every stencil
//! specification can be translated into.
//!
//! ```
//! use hpf_core::{Kernel, CompileOptions, MachineConfig, Engine};
//!
//! let source = hpf_core::presets::problem9(64);
//! let kernel = Kernel::compile(&source, CompileOptions::full()).unwrap();
//! let plan = kernel
//!     .plan(MachineConfig::sp2_2x2())
//!     .init("U", |p| (p[0] + p[1]) as f64)
//!     .engine(Engine::Sequential)
//!     .run()
//!     .unwrap();
//! let t = plan.gather("T").unwrap();
//! assert_eq!(t.len(), 64 * 64);
//! println!("messages: {}", plan.stats().total_messages());
//! println!("modeled:  {:.3} ms", plan.modeled_ms());
//! ```
//!
//! The crate re-exports the whole stack: the frontend (`hpf-frontend`), the
//! IR (`hpf-ir`), the pass pipeline (`hpf-passes`), the static analyzer
//! (`hpf-analysis`, see [`Kernel::lint`]), the machine simulator
//! (`hpf-runtime`), the executors and the reference oracle (`hpf-exec`),
//! and the baseline compilers (`hpf-baselines`).

pub mod api;
pub mod presets;

pub use api::{CoreError, Kernel, OracleRunner, Plan, Planner};

pub use hpf_analysis as analysis;
pub use hpf_baselines as baselines;
pub use hpf_codegen as codegen;
pub use hpf_exec as exec;
pub use hpf_frontend as frontend;
pub use hpf_ir as ir;
pub use hpf_passes as passes;
pub use hpf_runtime as runtime;
pub use hpf_trace as trace;
pub use hpf_tune as tune;

pub use hpf_analysis::{Diagnostic, Severity};
pub use hpf_exec::{max_abs_diff, Backend, Engine, ExecConfig, Reference};
pub use hpf_ir::pretty;
pub use hpf_passes::{CompileOptions, PipelineStats, Stage, TempPolicy};
pub use hpf_runtime::{AggStats, CostModel, Machine, MachineConfig, PeGrid, RtError};
pub use hpf_trace::{DriftReport, MetricsSnapshot, TraceSummary};
pub use hpf_tune::{TuneOutcome, Tuner};
