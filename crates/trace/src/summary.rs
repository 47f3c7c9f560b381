//! Collected timelines and their aggregate views.

use crate::fold::Fold;
use crate::span::{Event, SpanKind, RING_CAPACITY};
use crate::table::{Align, TextTable};

/// One timeline: all spans recorded by one tracer (one PE worker thread,
/// or a driver/compile-side tracer).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Track {
    /// Display name ("PE 0", "driver", "compile-passes").
    pub name: String,
    /// Spans, sorted by start time.
    pub events: Vec<Event>,
    /// Spans lost to ring overflow on this track.
    pub dropped: u64,
}

/// A complete collected trace: one [`Track`] per tracer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Tracks, driver/compile first, then one per PE in PE order.
    pub tracks: Vec<Track>,
}

impl Trace {
    /// Per-track per-kind aggregates: each track's events replayed
    /// through the same [`Fold`] the recorder updates online.
    pub fn summary(&self) -> TraceSummary {
        let track = |t: &Track| {
            let mut fold = Fold::default();
            t.events.iter().for_each(|e| fold.add(e));
            TrackSummary { name: t.name.clone(), dropped: t.dropped, fold }
        };
        TraceSummary { tracks: self.tracks.iter().map(track).collect() }
    }

    /// Total number of spans across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

/// Per-kind aggregates for one track.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrackSummary {
    /// Track display name.
    pub name: String,
    /// Spans lost to ring overflow.
    pub dropped: u64,
    /// The track's per-kind aggregates.
    pub fold: Fold,
}

impl TrackSummary {
    /// Span count for one kind.
    pub fn count(&self, k: SpanKind) -> u64 {
        self.fold.kind(k).wall.count()
    }

    /// Total wall nanoseconds for one kind.
    pub fn wall_ns(&self, k: SpanKind) -> u64 {
        self.fold.kind(k).wall.sum()
    }

    /// Total modeled nanoseconds for one kind.
    pub fn modeled_ns(&self, k: SpanKind) -> f64 {
        self.fold.kind(k).modeled_ns
    }

    /// Total hidden nanoseconds for one kind.
    pub fn hidden_ns(&self, k: SpanKind) -> f64 {
        self.fold.kind(k).hidden_ns
    }

    /// Is this a per-PE track (vs driver/compile)?
    pub fn is_pe(&self) -> bool {
        self.name.starts_with("PE ")
    }
}

/// Aggregate view of a [`Trace`], consumable from tests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// One entry per track, same order as [`Trace::tracks`].
    pub tracks: Vec<TrackSummary>,
}

impl TraceSummary {
    /// Look up a track by name.
    pub fn track(&self, name: &str) -> Option<&TrackSummary> {
        self.tracks.iter().find(|t| t.name == name)
    }

    /// The per-PE tracks, in PE order.
    pub fn pe_tracks(&self) -> Vec<&TrackSummary> {
        self.tracks.iter().filter(|t| t.is_pe()).collect()
    }

    /// The trace-derived hidden-communication view: per PE, the hidden
    /// credit carried by that PE's overlap-window drain spans. With
    /// tracing on, this reproduces `AggStats::hidden_comm_ns` exactly —
    /// both are sums of the same per-window `min(recv_ns, interior_ns)`
    /// values, one accumulated in a counter, one read back off the spans.
    pub fn hidden_comm_ns(&self) -> Vec<f64> {
        self.pe_tracks().iter().map(|t| t.hidden_ns(SpanKind::CommDrain)).collect()
    }

    /// Total wall nanoseconds for one kind across all tracks.
    pub fn total_wall_ns(&self, k: SpanKind) -> u64 {
        self.tracks.iter().map(|t| t.wall_ns(k)).sum()
    }

    /// Total span count for one kind across all tracks.
    pub fn total_count(&self, k: SpanKind) -> u64 {
        self.tracks.iter().map(|t| t.count(k)).sum()
    }

    /// Total spans lost to ring overflow, across every track (driver
    /// tracks included — a PE-only count would hide driver drops).
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Plain-text per-step summary table: for each per-PE track, wall
    /// microseconds per step in each execution-phase column. `steps`
    /// clamps to at least 1. Tracks that overflowed their ring get an
    /// inline note, and any overflow at all appends a closing warning so
    /// drops are never silent in the rendered view.
    pub fn render_table(&self, steps: u64) -> String {
        let steps = steps.max(1) as f64;
        const COLS: [SpanKind; 8] = [
            SpanKind::Compute,
            SpanKind::KernelExec,
            SpanKind::Interior,
            SpanKind::Boundary,
            SpanKind::Pack,
            SpanKind::Unpack,
            SpanKind::CommPost,
            SpanKind::CommDrain,
        ];
        let mut columns: Vec<(&str, Align)> =
            vec![("track", Align::Left), ("events", Align::Right)];
        for k in COLS {
            columns.push((k.label(), Align::Right));
        }
        columns.push(("hidden", Align::Right));
        let mut table = TextTable::new(&columns);
        for t in self.pe_tracks() {
            let events: u64 = t.fold.hists().map(|(_, h)| h.count()).sum();
            let mut row = vec![t.name.clone(), events.to_string()];
            for k in COLS {
                row.push(format!("{:.1}", t.wall_ns(k) as f64 / steps / 1e3));
            }
            row.push(format!("{:.1}", t.hidden_ns(SpanKind::CommDrain) / steps / 1e3));
            table.row(row);
            if t.dropped > 0 {
                table.line(format!("  ({} spans dropped: ring full)", t.dropped));
            }
        }
        table.line(
            "(per-PE wall microseconds per step; hidden = modeled comm hidden behind interior compute)",
        );
        let dropped = self.total_dropped();
        if dropped > 0 {
            table.line(format!(
                "warning: {dropped} spans lost to ring overflow — the timeline is truncated at \
                 {RING_CAPACITY} events per track; --report/--metrics totals are complete"
            ));
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, start: u64, dur: u64) -> Event {
        Event { kind, start_ns: start, dur_ns: dur, modeled_ns: 0.0, hidden_ns: 0.0 }
    }

    fn sample() -> Trace {
        Trace {
            tracks: vec![
                Track {
                    name: "driver".into(),
                    events: vec![ev(SpanKind::ScheduleBuild, 0, 100), ev(SpanKind::Step, 100, 900)],
                    dropped: 0,
                },
                Track {
                    name: "PE 0".into(),
                    events: vec![
                        ev(SpanKind::Pack, 120, 30),
                        ev(SpanKind::Interior, 160, 200),
                        Event {
                            kind: SpanKind::CommDrain,
                            start_ns: 360,
                            dur_ns: 50,
                            modeled_ns: 400.0,
                            hidden_ns: 250.0,
                        },
                        ev(SpanKind::Boundary, 420, 60),
                    ],
                    dropped: 2,
                },
                Track {
                    name: "PE 1".into(),
                    events: vec![Event {
                        kind: SpanKind::CommDrain,
                        start_ns: 300,
                        dur_ns: 40,
                        modeled_ns: 100.0,
                        hidden_ns: 100.0,
                    }],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn summary_aggregates_by_kind_and_track() {
        let s = sample().summary();
        assert_eq!(s.tracks.len(), 3);
        let pe0 = s.track("PE 0").unwrap();
        assert_eq!(pe0.count(SpanKind::Pack), 1);
        assert_eq!(pe0.wall_ns(SpanKind::Interior), 200);
        assert_eq!(pe0.modeled_ns(SpanKind::CommDrain), 400.0);
        assert_eq!(pe0.dropped, 2);
        assert_eq!(s.total_wall_ns(SpanKind::CommDrain), 90);
        assert_eq!(s.total_count(SpanKind::CommDrain), 2);
    }

    #[test]
    fn hidden_view_is_per_pe_drain_credit() {
        let s = sample().summary();
        assert_eq!(s.hidden_comm_ns(), vec![250.0, 100.0]);
    }

    #[test]
    fn pe_tracks_exclude_driver() {
        let s = sample().summary();
        let pes = s.pe_tracks();
        assert_eq!(pes.len(), 2);
        assert!(pes.iter().all(|t| t.is_pe()));
    }

    #[test]
    fn table_mentions_every_pe_and_reports_drops() {
        let s = sample().summary();
        let table = s.render_table(2);
        assert!(table.contains("PE 0"));
        assert!(table.contains("PE 1"));
        assert!(table.contains("dropped"));
        assert!(table.contains("interior"));
        assert!(table.contains("warning: 2 spans lost"), "{table}");
        assert!(table.contains("truncated at 65536 events per track"), "{table}");
        assert!(!table.contains("TraceConfig"), "{table}");
    }

    #[test]
    fn table_omits_the_overflow_warning_when_nothing_dropped() {
        let mut trace = sample();
        trace.tracks[1].dropped = 0;
        let s = trace.summary();
        assert_eq!(s.total_dropped(), 0);
        assert!(!s.render_table(1).contains("warning:"));
    }
}
