//! The kind-indexed fold: the workspace's one per-kind aggregation of
//! span events.
//!
//! A [`Tracer`](crate::Tracer) that is on feeds every span it records
//! through [`Fold::add`] at record time, and
//! [`Trace::summary`](crate::Trace::summary) replays a drained timeline
//! through the same function — so the online aggregates (metrics snapshot,
//! drift report) and the offline ones (trace summary) cannot disagree
//! about what a span contributes. A fold is a fixed 5 KiB of counters: it
//! never drops and never allocates, however long the run.

use crate::histogram::Histogram;
use crate::span::{Event, SpanKind, NUM_KINDS};

/// Aggregates of one span kind.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KindStats {
    /// Wall durations: count, sum, min/max, and log2 buckets.
    pub wall: Histogram,
    /// Total modeled nanoseconds attributed by the cost model.
    pub modeled_ns: f64,
    /// Total hidden-communication nanoseconds (nonzero only for
    /// [`SpanKind::CommDrain`]).
    pub hidden_ns: f64,
}

/// Per-[`SpanKind`] aggregates of every span one recorder has seen.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fold {
    kinds: [KindStats; NUM_KINDS],
}

impl Fold {
    /// Fold one span in.
    #[inline]
    pub fn add(&mut self, e: &Event) {
        let k = &mut self.kinds[e.kind as usize];
        k.wall.record(e.dur_ns);
        k.modeled_ns += e.modeled_ns;
        k.hidden_ns += e.hidden_ns;
    }

    /// The aggregates of one kind.
    pub fn kind(&self, k: SpanKind) -> &KindStats {
        &self.kinds[k as usize]
    }

    /// Fold another recorder's aggregates into this one.
    pub fn merge(&mut self, other: &Fold) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.wall.merge(&b.wall);
            a.modeled_ns += b.modeled_ns;
            a.hidden_ns += b.hidden_ns;
        }
    }

    /// The wall histograms of the kinds seen at least once, labelled, in
    /// `repr` order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        SpanKind::ALL
            .iter()
            .map(|&k| (k.label(), &self.kind(k).wall))
            .filter(|(_, h)| !h.is_empty())
    }

    /// Total wall nanoseconds per kind (indexed by `kind as usize`). The
    /// difference of two of these brackets what one plan step recorded.
    pub fn wall_sums(&self) -> [u64; NUM_KINDS] {
        std::array::from_fn(|k| self.kinds[k].wall.sum())
    }

    /// Total wall nanoseconds over the given kinds.
    pub fn wall_ns(&self, kinds: &[SpanKind]) -> u64 {
        kinds.iter().map(|&k| self.kind(k).wall.sum()).sum()
    }

    /// Total hidden-communication nanoseconds over all kinds.
    pub fn hidden_ns(&self) -> f64 {
        self.kinds.iter().map(|k| k.hidden_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, dur_ns: u64, modeled_ns: f64, hidden_ns: f64) -> Event {
        Event { kind, start_ns: 0, dur_ns, modeled_ns, hidden_ns }
    }

    #[test]
    fn add_aggregates_by_kind() {
        let mut f = Fold::default();
        f.add(&ev(SpanKind::Pack, 30, 0.0, 0.0));
        f.add(&ev(SpanKind::Pack, 50, 0.0, 0.0));
        f.add(&ev(SpanKind::CommDrain, 40, 400.0, 250.0));
        assert_eq!(f.kind(SpanKind::Pack).wall.count(), 2);
        assert_eq!(f.kind(SpanKind::Pack).wall.sum(), 80);
        assert_eq!(f.kind(SpanKind::CommDrain).modeled_ns, 400.0);
        assert_eq!(f.hidden_ns(), 250.0);
        assert_eq!(f.wall_ns(&[SpanKind::Pack, SpanKind::CommDrain]), 120);
        assert_eq!(f.wall_sums()[SpanKind::Pack as usize], 80);
        let labels: Vec<&str> = f.hists().map(|(n, _)| n).collect();
        assert_eq!(labels, ["pack", "comm-drain"], "only kinds seen, in repr order");
    }

    #[test]
    fn merge_matches_folding_everything_into_one() {
        let (mut a, mut b, mut whole) = (Fold::default(), Fold::default(), Fold::default());
        for e in [ev(SpanKind::Compute, 100, 7.0, 0.0), ev(SpanKind::CommDrain, 9, 5.0, 2.0)] {
            a.add(&e);
            whole.add(&e);
        }
        for e in [ev(SpanKind::Compute, 200, 1.0, 0.0), ev(SpanKind::Unpack, 0, 0.0, 0.0)] {
            b.add(&e);
            whole.add(&e);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
