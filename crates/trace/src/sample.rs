//! Per-step time series.
//!
//! The executor records one [`StepSample`] per plan step: where the
//! step's wall time went (phase sums, each the difference of two
//! [`Fold::wall_sums`](crate::Fold::wall_sums) readings), how many bytes
//! moved, and how evenly the PEs were loaded. The series is a bounded
//! drop-newest buffer like the timeline rings — long runs keep the first
//! [`STEP_CAPACITY`] steps and count the rest, so memory stays flat and
//! the retained prefix is still a faithful record of start-up behavior.

use crate::span::{SpanKind, NUM_KINDS};

/// One plan step's measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepSample {
    /// Zero-based step index.
    pub step: u64,
    /// Wall nanoseconds for the whole step (driver view).
    pub wall_ns: u64,
    /// Wall ns in compute spans (interpreter sweeps, kernel executions,
    /// interior and boundary sweeps), summed over PEs.
    pub compute_ns: u64,
    /// Wall ns packing and unpacking halo buffers, summed over PEs.
    pub pack_ns: u64,
    /// Wall ns posting sends/receives, summed over PEs.
    pub send_ns: u64,
    /// Wall ns draining receives, summed over PEs.
    pub drain_ns: u64,
    /// Wall ns in boundary-strip sweeps alone (also included in
    /// `compute_ns`; split out because overlap quality is about this).
    pub boundary_ns: u64,
    /// Wall ns inside superstep envelopes, summed over PEs.
    pub superstep_ns: u64,
    /// Bytes sent between PEs during the step.
    pub bytes_moved: u64,
    /// Per-PE busy fraction: that PE's leaf-span wall time over the step
    /// wall time. Can exceed 1.0 only by timer jitter.
    pub busy: Vec<f64>,
    /// Load imbalance: max busy fraction over mean busy fraction; 1.0
    /// is perfectly balanced, 0.0 when no PE was busy.
    pub imbalance: f64,
}

impl StepSample {
    /// Account one PE's share of the step: `wall` is what the PE's fold
    /// gained per kind while the step ran. PE-track spans never nest
    /// (each engine records disjoint phases), so the phase sums partition
    /// the PE's busy time. Call once per PE, in PE order, after `wall_ns`
    /// is set; finish with [`StepSample::imbalance_of`].
    pub fn add_pe(&mut self, wall: &[u64; NUM_KINDS]) {
        use SpanKind::*;
        let w = |k: SpanKind| wall[k as usize];
        let compute = w(Compute) + w(KernelExec) + w(Interior) + w(Boundary);
        let pack = w(Pack) + w(Unpack);
        self.compute_ns += compute;
        self.boundary_ns += w(Boundary);
        self.pack_ns += pack;
        self.send_ns += w(CommPost);
        self.drain_ns += w(CommDrain);
        self.superstep_ns += w(Superstep);
        let busy = compute + pack + w(CommPost) + w(CommDrain) + w(Superstep);
        self.busy.push(busy as f64 / self.wall_ns.max(1) as f64);
    }

    /// Imbalance from a busy vector: max/mean, 0.0 for empty/idle.
    pub fn imbalance_of(busy: &[f64]) -> f64 {
        let n = busy.len();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = busy.iter().sum();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        if sum <= 0.0 {
            0.0
        } else {
            max / (sum / n as f64)
        }
    }
}

/// [`StepSample`]s a [`StepSeries`] retains before it starts counting
/// drops.
pub const STEP_CAPACITY: usize = 4096;

/// A bounded, drop-newest sequence of [`StepSample`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepSeries {
    samples: Vec<StepSample>,
    dropped: u64,
}

impl StepSeries {
    /// Append a sample, or count it as dropped when the series is full.
    pub fn push(&mut self, s: StepSample) {
        if self.samples.len() < STEP_CAPACITY {
            self.samples.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained samples, in step order.
    pub fn samples(&self) -> &[StepSample] {
        &self.samples
    }

    /// Samples lost to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total step wall nanoseconds over the retained samples.
    pub fn total_wall_ns(&self) -> u64 {
        self.samples.iter().map(|s| s.wall_ns).sum()
    }

    /// Mean per-PE busy fraction over the retained samples (empty when
    /// the series is).
    pub fn mean_busy(&self) -> Vec<f64> {
        let Some(first) = self.samples.first() else { return Vec::new() };
        let mut acc = vec![0.0; first.busy.len()];
        for s in &self.samples {
            for (a, b) in acc.iter_mut().zip(s.busy.iter()) {
                *a += b;
            }
        }
        let n = self.samples.len() as f64;
        acc.iter_mut().for_each(|a| *a /= n);
        acc
    }

    /// Mean load-imbalance ratio over the retained samples.
    pub fn mean_imbalance(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.imbalance).sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(StepSample::imbalance_of(&[]), 0.0);
        assert_eq!(StepSample::imbalance_of(&[0.0, 0.0]), 0.0);
        assert_eq!(StepSample::imbalance_of(&[0.5, 0.5]), 1.0);
        let r = StepSample::imbalance_of(&[0.9, 0.3]);
        assert!((r - 1.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn add_pe_partitions_a_pes_wall_into_phases_and_busy() {
        let mut wall = [0u64; NUM_KINDS];
        for (k, ns) in [
            (SpanKind::KernelExec, 300),
            (SpanKind::Boundary, 100),
            (SpanKind::Pack, 40),
            (SpanKind::Unpack, 10),
            (SpanKind::CommPost, 20),
            (SpanKind::CommDrain, 30),
            (SpanKind::Step, 999), // driver-side kinds never count as PE busy time
        ] {
            wall[k as usize] = ns;
        }
        let mut s = StepSample { wall_ns: 1000, ..Default::default() };
        s.add_pe(&wall);
        s.add_pe(&[0; NUM_KINDS]);
        assert_eq!((s.compute_ns, s.boundary_ns, s.pack_ns), (400, 100, 50));
        assert_eq!((s.send_ns, s.drain_ns, s.superstep_ns), (20, 30, 0));
        assert_eq!(s.busy, vec![0.5, 0.0]);
    }

    #[test]
    fn series_drops_newest_past_capacity() {
        let mut s = StepSeries::default();
        for i in 0..STEP_CAPACITY as u64 + 3 {
            s.push(StepSample { step: i, wall_ns: 10, ..Default::default() });
        }
        assert_eq!(s.len(), STEP_CAPACITY);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.samples()[1].step, 1, "keeps the earliest samples");
        assert_eq!(s.total_wall_ns(), 10 * STEP_CAPACITY as u64);
    }

    #[test]
    fn means_average_over_retained_samples() {
        let mut s = StepSeries::default();
        s.push(StepSample { busy: vec![1.0, 0.0], imbalance: 2.0, ..Default::default() });
        s.push(StepSample { busy: vec![0.0, 1.0], imbalance: 2.0, ..Default::default() });
        assert_eq!(s.mean_busy(), vec![0.5, 0.5]);
        assert_eq!(s.mean_imbalance(), 2.0);
        assert!(StepSeries::default().mean_busy().is_empty());
    }
}
