//! Log2-bucket latency histograms.
//!
//! Durations land in power-of-two buckets: bucket 0 holds exact zeros,
//! bucket `i` (i ≥ 1) holds `[2^(i-1), 2^i)` nanoseconds. Recording is a
//! leading-zeros computation plus two adds — cheap enough to sit on the
//! per-span metrics path — and quantiles come back as bucket upper
//! bounds, which is the usual trade: ≤ 2× relative error, zero
//! allocation, mergeable across PEs.

/// Number of buckets. The last bucket upper bound is `2^(BUCKETS-1)` ns
/// (≈ 2.4 hours), far beyond any span this simulator records.
pub const BUCKETS: usize = 44;

/// A fixed-size log2-bucket histogram of nanosecond durations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2 v) + 1`, clamped.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`0` for the zero bucket).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i.min(63)).saturating_sub(1).max(1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`, clamped to the
    /// exact observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn records_accumulate_and_summarize() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 100, 100, 4000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 4206);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 4000);
        assert!((h.mean() - 701.0).abs() < 1e-9);
        assert!(!h.is_empty());
    }

    #[test]
    fn quantiles_bound_the_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket upper bounds: within 2x of the true quantile, never past max.
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3, 9, 1_000_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [0, 77] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
