#![warn(missing_docs)]

//! # hpf-trace — per-PE recording: one recorder, one fold, three views
//!
//! The simulator's evaluation layer reasons from aggregate counters
//! ([`hpf-runtime`'s `AggStats`]), but attributing a step's wall time on
//! each PE — how long packs took, how long a PE waited in a drain — needs
//! measurement. This crate is that observability layer:
//!
//! * [`Tracer`] — a per-PE span recorder. Each worker thread owns exactly
//!   one tracer (single writer), so recording is lock-free by construction:
//!   an enabled-flag branch, a monotonic clock read, an add into the
//!   per-kind [`Fold`], and — only when a timeline was asked for — a write
//!   into a **preallocated ring** ([`RING_CAPACITY`] events, no allocation
//!   on the hot path, newest events dropped on overflow). When disabled,
//!   [`Tracer::now`] and [`Tracer::record`] reduce to a single predictable
//!   branch — no clock read, no write — so instrumented code paths cost
//!   nothing measurable.
//! * [`SpanKind`] — the span taxonomy: compile passes, schedule builds,
//!   kernel compiles, pack/unpack, comm post/drain, whole compute sweeps,
//!   supersteps, and step envelopes.
//! * [`Fold`] — one wall [`Histogram`] per kind: the one aggregation of
//!   span events, updated online by the tracer and replayed offline by
//!   [`Trace::summary`].
//! * [`Trace`] / [`Track`] — the collected timeline: one track per PE plus
//!   driver/compile tracks, all sharing one process-wide epoch
//!   ([`now_ns`]) so cross-thread timestamps line up.
//!   [`Trace::to_chrome_json`] exports it for `chrome://tracing` /
//!   Perfetto, hand-rolled (the container has no serde) and validated by
//!   the bundled mini JSON parser ([`json`]) — which doubles as the
//!   workspace's shared JSON module (`hpf-tune` reads and writes its
//!   on-disk tuning cache through it). [`TraceSummary`] is its per-track
//!   aggregate view.
//! * [`MetricsSnapshot`] — the folds of a run frozen for export with its
//!   [`StepSeries`] (JSON `hpf-metrics/v1`, Prometheus text, tables), and
//!   [`DriftReport`] — the cost model's components joined against the
//!   folds' measured walls. This crate knows nothing about machines,
//!   plans, or cost models: `hpf-exec` brackets each step and prices the
//!   counters, and hands the plain numbers down to the types here.

pub mod chrome;
pub mod drift;
pub mod fold;
pub mod histogram;
pub mod json;
pub mod sample;
pub mod snapshot;
pub mod span;
pub mod summary;
pub mod table;

pub use drift::{DriftComponent, DriftReport};
pub use fold::Fold;
pub use histogram::Histogram;
pub use sample::{StepSample, StepSeries};
pub use snapshot::MetricsSnapshot;
pub use span::{now_ns, Event, SpanKind, Tracer, NUM_KINDS, RING_CAPACITY};
pub use summary::{Trace, TraceSummary, Track, TrackSummary};
pub use table::{Align, TextTable};
