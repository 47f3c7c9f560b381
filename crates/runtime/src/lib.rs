#![allow(clippy::needless_range_loop)] // index-based dimension math reads clearer here
#![warn(missing_docs)]

//! # hpf-runtime — a distributed-memory machine simulator
//!
//! The substrate the paper's evaluation ran on was a 4-processor IBM SP-2
//! with MPI. This crate provides the equivalent machine as a simulator:
//!
//! * a processing-element (PE) grid ([`dist::PeGrid`]) with HPF `BLOCK`
//!   distribution arithmetic ([`dist::BlockDim`]);
//! * per-PE subgrids with *overlap areas* (ghost layers) on every side
//!   ([`subgrid::Subgrid`]), the paper's mechanism for receiving
//!   off-processor data (§3.1, after Gerndt);
//! * the two data-movement operations of stencil execution (§2.2):
//!   full shifts ([`schedule::cshift_plan`]: interprocessor messages
//!   **plus** the intraprocessor copy) and overlap shifts
//!   ([`schedule::overlap_shift_plan`]: interprocessor only, into the
//!   overlap area, with optional RSD corner extension), each compiled once
//!   into a persistent schedule ([`Machine::compile_comm`]);
//! * message/byte/copy counters and an SP-2-flavoured analytical cost model
//!   ([`stats`], [`cost`]);
//! * per-PE memory accounting with an optional budget, reproducing the
//!   memory-exhaustion behaviour of Figure 11 ([`RtError::MemoryExhausted`]);
//! * deterministic communication schedules ([`schedule`]) shared by the
//!   sequential executor and the threaded SPMD executor in `hpf-exec`.

pub mod cost;
pub mod dist;
pub mod error;
pub mod machine;
pub mod schedule;
pub mod stats;
pub mod subgrid;

pub use cost::{CostModel, HostProfile};
pub use dist::{BlockDim, PeGrid};
pub use error::RtError;
pub use machine::{ArrayMeta, Machine, MachineConfig, MoveKind, PeState, VmScratch};
pub use schedule::{CommAction, CompiledComm, CompiledFill, CompiledTransfer, Transfer};
pub use stats::{AggStats, PeStats};
pub use subgrid::{StridedBox, Subgrid};
