//! Per-step metrics sampling and the cost-model drift join.
//!
//! `hpf-trace` owns the data types and the per-PE [`Fold`]s the recorders
//! keep up to date; this module owns the part that knows machines and the
//! cost model. [`MetricsState::begin`] reads each PE fold's per-kind wall
//! sums before the engines run a step and [`MetricsState::end`] reads
//! them again: the difference is the step's [`StepSample`]. Nothing is
//! copied or re-aggregated — the per-PE histograms of a
//! [`MetricsSnapshot`] *are* the folds.
//!
//! The drift join ([`MetricsState::drift_report`]) prices the run's
//! aggregate counters with the machine's [`hpf_runtime::CostModel`] component by
//! component and pairs each term with the measured wall time of the span
//! kinds that perform that work. PE-track spans never nest (each engine
//! records disjoint phases), so per-kind sums partition the busy time.

use hpf_runtime::{Machine, PeState};
use hpf_trace::{
    now_ns, DriftComponent, DriftReport, Fold, MetricsSnapshot, SpanKind, StepSample, NUM_KINDS,
};

/// Collection state owned by an [`crate::ExecPlan`] built with
/// [`crate::ExecConfig::metrics`]: the driver-side half of the snapshot
/// (`per_pe` stays empty here — the folds live on the machine).
#[derive(Debug)]
pub(crate) struct MetricsState(MetricsSnapshot);

/// Readings taken at the top of one plan step.
pub(crate) struct StepBegin {
    t0: u64,
    bytes0: u64,
    walls: Vec<[u64; NUM_KINDS]>,
}

fn bytes_sent(machine: &Machine) -> u64 {
    machine.pes.iter().map(|p| p.stats.bytes_sent).sum()
}

/// A PE fold's per-kind wall sums (zeros for a recorder that is off).
fn pe_walls(p: &PeState) -> [u64; NUM_KINDS] {
    p.tracer.fold().map(Fold::wall_sums).unwrap_or_default()
}

impl MetricsState {
    pub(crate) fn new(label: String, pes: usize) -> Self {
        MetricsState(MetricsSnapshot { config: label, pes, ..MetricsSnapshot::default() })
    }

    /// Read the fold wall sums and byte counters before the engine runs
    /// a step.
    pub(crate) fn begin(&self, machine: &Machine) -> StepBegin {
        let walls = machine.pes.iter().map(pe_walls).collect();
        StepBegin { t0: now_ns(), bytes0: bytes_sent(machine), walls }
    }

    /// Record the step's [`StepSample`]: what every PE fold gained since
    /// `begin`.
    pub(crate) fn end(&mut self, machine: &Machine, begin: StepBegin, logical_steps: usize) {
        let snap = &mut self.0;
        let mut sample = StepSample {
            step: snap.steps,
            wall_ns: now_ns().saturating_sub(begin.t0),
            bytes_moved: bytes_sent(machine).saturating_sub(begin.bytes0),
            ..StepSample::default()
        };
        for (p, before) in machine.pes.iter().zip(&begin.walls) {
            let after = pe_walls(p);
            sample.add_pe(&std::array::from_fn(|k| after[k].saturating_sub(before[k])));
        }
        sample.imbalance = StepSample::imbalance_of(&sample.busy);
        snap.steps += 1;
        snap.logical_steps += logical_steps as u64;
        snap.bytes_moved += sample.bytes_moved;
        snap.step_wall.record(sample.wall_ns);
        snap.series.push(sample);
    }

    /// Freeze the collected metrics for export.
    pub(crate) fn snapshot(&self, machine: &Machine) -> MetricsSnapshot {
        let per_pe = machine.pes.iter().map(|p| p.tracer.fold().cloned().unwrap_or_default());
        MetricsSnapshot { per_pe: per_pe.collect(), ..self.0.clone() }
    }

    /// Join the machine's aggregate counters, priced by its cost model,
    /// against the measured per-kind wall sums. The report's
    /// `modeled_time_ns` is taken straight from
    /// [`hpf_runtime::CostModel::modeled_time_ns`], so it reconciles with it
    /// exactly.
    pub(crate) fn drift_report(&self, machine: &Machine) -> DriftReport {
        use SpanKind::*;
        let agg = machine.stats();
        let cost = &machine.cfg.cost;
        let t = agg.total();
        let measured = |kinds: &[SpanKind]| -> f64 {
            machine
                .pes
                .iter()
                .filter_map(|p| p.tracer.fold())
                .map(|f| f.wall_ns(kinds) as f64)
                .sum()
        };
        let components = vec![
            DriftComponent {
                name: "compute",
                modeled_ns: cost.compute_ns(&t),
                measured_ns: measured(&[KernelExec, Superstep]),
            },
            DriftComponent {
                name: "msg-latency",
                modeled_ns: (t.msgs_sent + t.msgs_recv) as f64 * cost.alpha_ns,
                measured_ns: measured(&[CommPost, CommDrain]),
            },
            DriftComponent {
                name: "bandwidth",
                modeled_ns: (t.bytes_sent + t.bytes_recv) as f64 * cost.beta_ns_per_byte
                    + (t.intra_bytes + t.wrap_bytes) as f64 * cost.copy_ns_per_byte,
                measured_ns: measured(&[Pack, Unpack]),
            },
        ];
        DriftReport {
            components,
            modeled_time_ns: cost.modeled_time_ns(&agg),
            measured_wall_ns: self.0.series.total_wall_ns(),
        }
    }
}
