//! The kind-indexed fold: the workspace's one per-kind aggregation of
//! span events.
//!
//! A [`Tracer`](crate::Tracer) that is on feeds every span it records
//! through [`Fold::add`] at record time, and
//! [`Trace::summary`](crate::Trace::summary) replays a drained timeline
//! through the same function — so the online aggregates (metrics snapshot,
//! drift report) and the offline ones (trace summary) cannot disagree
//! about what a span contributes. A fold is a fixed 4 KiB of counters: it
//! never drops and never allocates, however long the run.

use crate::histogram::Histogram;
use crate::span::{Event, SpanKind, NUM_KINDS};

/// Per-[`SpanKind`] wall-duration histograms (count, sum, min/max, log2
/// buckets) of every span one recorder has seen.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fold {
    kinds: [Histogram; NUM_KINDS],
}

impl Fold {
    /// Fold one span in.
    #[inline]
    pub fn add(&mut self, e: &Event) {
        self.kinds[e.kind as usize].record(e.dur_ns);
    }

    /// The wall histogram of one kind.
    pub fn kind(&self, k: SpanKind) -> &Histogram {
        &self.kinds[k as usize]
    }

    /// Fold another recorder's aggregates into this one.
    pub fn merge(&mut self, other: &Fold) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.merge(b);
        }
    }

    /// The wall histograms of the kinds seen at least once, labelled, in
    /// `repr` order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        SpanKind::ALL.iter().map(|&k| (k.label(), self.kind(k))).filter(|(_, h)| !h.is_empty())
    }

    /// Total wall nanoseconds per kind (indexed by `kind as usize`). The
    /// difference of two of these brackets what one plan step recorded.
    pub fn wall_sums(&self) -> [u64; NUM_KINDS] {
        std::array::from_fn(|k| self.kinds[k].sum())
    }

    /// Total wall nanoseconds over the given kinds.
    pub fn wall_ns(&self, kinds: &[SpanKind]) -> u64 {
        kinds.iter().map(|&k| self.kind(k).sum()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, dur_ns: u64) -> Event {
        Event { kind, start_ns: 0, dur_ns }
    }

    #[test]
    fn add_aggregates_by_kind() {
        let mut f = Fold::default();
        f.add(&ev(SpanKind::Pack, 30));
        f.add(&ev(SpanKind::Pack, 50));
        f.add(&ev(SpanKind::CommDrain, 40));
        assert_eq!(f.kind(SpanKind::Pack).count(), 2);
        assert_eq!(f.kind(SpanKind::Pack).sum(), 80);
        assert_eq!(f.wall_ns(&[SpanKind::Pack, SpanKind::CommDrain]), 120);
        assert_eq!(f.wall_sums()[SpanKind::Pack as usize], 80);
        let labels: Vec<&str> = f.hists().map(|(n, _)| n).collect();
        assert_eq!(labels, ["pack", "comm-drain"], "only kinds seen, in repr order");
    }

    #[test]
    fn merge_matches_folding_everything_into_one() {
        let (mut a, mut b, mut whole) = (Fold::default(), Fold::default(), Fold::default());
        for e in [ev(SpanKind::KernelExec, 100), ev(SpanKind::CommDrain, 9)] {
            a.add(&e);
            whole.add(&e);
        }
        for e in [ev(SpanKind::KernelExec, 200), ev(SpanKind::Unpack, 0)] {
            b.add(&e);
            whole.add(&e);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
