#![warn(missing_docs)]

//! # hpf-bench — experiment harness regenerating the paper's evaluation
//!
//! Every table and figure of the paper's evaluation section has a
//! corresponding experiment here, on counters and modeled SP-2 time; the
//! `experiments` binary prints them as tables, and `--exp history` +
//! `benchdiff` gate CI on a small canonical suite of those counters. See
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured numbers;
//! wall-clock performance is measured by `benchmark/`, not here — except
//! for [`tune_check`], which times candidates to validate the tuner's
//! host pricing.

pub mod experiments;
pub mod figures;
pub mod report;
pub mod table;
pub mod tune_check;
pub mod workload;

pub use experiments::*;
