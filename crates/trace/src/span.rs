//! Span taxonomy, the process-wide clock, and the per-PE recorder.

use crate::fold::Fold;
use std::sync::OnceLock;
use std::time::Instant;

/// What a recorded span measured. One variant per instrumentation point in
/// the compiler and the machine simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// One compile-pipeline pass (normalize, offset, …) — compile track.
    Pass = 0,
    /// Building one persistent communication schedule (one strided box per
    /// region) — driver track.
    ScheduleBuild = 1,
    /// Compiling one loop nest to bytecode kernels across PEs — driver
    /// track.
    KernelCompile = 2,
    /// One full subgrid sweep of a nest by a compiled bytecode kernel.
    KernelExec = 3,
    /// Packing one message's source box into the staging buffer (sender
    /// side) — or, alone, one same-PE transfer copied from box to box.
    Pack = 4,
    /// Unpacking one message from the staging buffer into its destination
    /// box (receiver side).
    Unpack = 5,
    /// Posting a comm op's sends (pack + enqueue, no wait).
    CommPost = 6,
    /// Draining a comm op's receives (the blocking half of an exchange).
    CommDrain = 7,
    /// One whole plan step — driver track envelope.
    Step = 8,
    /// One communication-avoiding superstep: the deep halo exchange plus
    /// the `k` trapezoid sub-step sweeps it amortizes (per-PE tracks).
    Superstep = 9,
}

/// Number of span kinds (array-index bound for per-kind aggregates).
pub const NUM_KINDS: usize = 10;

impl SpanKind {
    /// Every kind, in `repr` order.
    pub const ALL: [SpanKind; NUM_KINDS] = [
        SpanKind::Pass,
        SpanKind::ScheduleBuild,
        SpanKind::KernelCompile,
        SpanKind::KernelExec,
        SpanKind::Pack,
        SpanKind::Unpack,
        SpanKind::CommPost,
        SpanKind::CommDrain,
        SpanKind::Step,
        SpanKind::Superstep,
    ];

    /// Short name used in exports and tables.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Pass => "pass",
            SpanKind::ScheduleBuild => "schedule-build",
            SpanKind::KernelCompile => "kernel-compile",
            SpanKind::KernelExec => "kernel-exec",
            SpanKind::Pack => "pack",
            SpanKind::Unpack => "unpack",
            SpanKind::CommPost => "comm-post",
            SpanKind::CommDrain => "comm-drain",
            SpanKind::Step => "step",
            SpanKind::Superstep => "superstep",
        }
    }

    /// Chrome trace-event category (colour group in the viewer).
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Pass | SpanKind::ScheduleBuild | SpanKind::KernelCompile => "compile",
            SpanKind::Pack | SpanKind::Unpack | SpanKind::CommPost | SpanKind::CommDrain => "comm",
            SpanKind::KernelExec => "compute",
            SpanKind::Step | SpanKind::Superstep => "step",
        }
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// What was measured.
    pub kind: SpanKind,
    /// Start, nanoseconds since the process-wide epoch ([`now_ns`]).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (lazily pinned to the
/// first call). All tracers share this epoch so spans recorded on
/// different worker threads land on one consistent timeline.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Events a tracer's timeline ring holds. The ring is preallocated when
/// a timeline is requested; once full, new events are dropped from the
/// timeline (and counted) so the hot path never reallocates. The
/// [`Fold`] keeps counting regardless.
pub const RING_CAPACITY: usize = 1 << 16;

/// A single-writer span recorder. Each PE's worker thread (and the driver
/// thread) owns one tracer exclusively, so recording needs no locks or
/// atomics: check the enabled flag, read the clock, add the span to the
/// per-kind [`Fold`], and — only when the caller asked for a timeline —
/// write it into the preallocated ring.
///
/// Disabled (the default), every method is a branch that does nothing:
/// [`Tracer::now`] returns 0 without reading the clock and
/// [`Tracer::record`] returns without writing, which is what makes
/// leaving the instrumentation compiled-in free. Fold and ring are
/// allocated by [`Tracer::enable`], never inline in the tracer.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    /// `Some` exactly when recording is on.
    fold: Option<Box<Fold>>,
    /// The timeline sink, kept only when one was asked for.
    ring: Option<Vec<Event>>,
    dropped: u64,
}

impl Tracer {
    /// A disabled tracer: no fold, no buffer, every record call a no-op.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Turn recording on with an empty fold and, when `timeline` is set,
    /// a freshly preallocated event ring.
    pub fn enable(&mut self, timeline: bool) {
        self.fold = Some(Box::default());
        self.ring = timeline.then(|| Vec::with_capacity(RING_CAPACITY));
        self.dropped = 0;
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.fold.is_some()
    }

    /// Whether recorded spans are also kept as a timeline.
    pub fn has_timeline(&self) -> bool {
        self.ring.is_some()
    }

    /// Timestamp for a span about to start, or 0 when disabled (the
    /// matching `record` call will ignore it). Skipping the clock read
    /// when disabled is the zero-overhead guarantee.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.is_enabled() {
            now_ns()
        } else {
            0
        }
    }

    /// Close a span opened at `start_ns` (a [`Tracer::now`] value).
    #[inline]
    pub fn record(&mut self, kind: SpanKind, start_ns: u64) {
        let Some(fold) = self.fold.as_deref_mut() else { return };
        let dur_ns = now_ns().saturating_sub(start_ns);
        let ev = Event { kind, start_ns, dur_ns };
        fold.add(&ev);
        if let Some(ring) = &mut self.ring {
            if ring.len() < RING_CAPACITY {
                ring.push(ev);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// The per-kind aggregates of every span recorded since
    /// [`Tracer::enable`]; `None` while disabled. Unlike the timeline it
    /// is never drained and never drops.
    pub fn fold(&self) -> Option<&Fold> {
        self.fold.as_deref()
    }

    /// True when the timeline ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.as_ref().is_none_or(Vec::is_empty)
    }

    /// Events dropped from the timeline because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take the timeline (sorted by start time — spans are pushed at
    /// completion, so nested spans complete before their parents) and
    /// reset the ring. The tracer stays enabled and its fold untouched.
    pub fn drain(&mut self) -> (Vec<Event>, u64) {
        let mut evs = match &mut self.ring {
            Some(ring) => std::mem::replace(ring, Vec::with_capacity(RING_CAPACITY)),
            None => Vec::new(),
        };
        evs.sort_by_key(|e| (e.start_ns, e.dur_ns));
        (evs, std::mem::take(&mut self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now(), 0);
        t.record(SpanKind::Pack, 0);
        t.record(SpanKind::CommDrain, 0);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.fold().is_none() && !t.has_timeline());
        // No larger than the ring-only recorder it replaced (flag + Vec +
        // capacity + drop count): the fold sits behind a pointer.
        assert!(std::mem::size_of::<Tracer>() <= 48);
    }

    #[test]
    fn enabled_tracer_records_and_drains_sorted() {
        let mut t = Tracer::disabled();
        t.enable(true);
        let a = t.now();
        t.record(SpanKind::Pack, a);
        let b = t.now();
        t.record(SpanKind::CommDrain, b);
        assert_eq!(t.ring.as_ref().unwrap().len(), 2);
        let (evs, dropped) = t.drain();
        assert_eq!(dropped, 0);
        assert_eq!(evs.len(), 2);
        assert!(evs.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(evs[1].kind, SpanKind::CommDrain);
        assert!(t.is_empty());
        assert!(t.is_enabled());
        // Draining the timeline leaves the fold alone.
        assert_eq!(t.fold().unwrap().kind(SpanKind::CommDrain).count(), 1);
    }

    #[test]
    fn full_ring_drops_newest_without_reallocating() {
        let mut t = Tracer::disabled();
        t.enable(true);
        let cap_before = t.ring.as_ref().unwrap().capacity();
        for _ in 0..RING_CAPACITY + 3 {
            t.record(SpanKind::KernelExec, now_ns());
        }
        assert_eq!(t.ring.as_ref().unwrap().len(), RING_CAPACITY);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.ring.as_ref().unwrap().capacity(), cap_before);
        // The fold saw every span, dropped from the timeline or not.
        let seen = t.fold().unwrap().kind(SpanKind::KernelExec).count();
        assert_eq!(seen, RING_CAPACITY as u64 + 3);
    }

    #[test]
    fn fold_only_tracer_counts_without_a_ring() {
        let mut t = Tracer::disabled();
        t.enable(false);
        for _ in 0..RING_CAPACITY + 3 {
            t.record(SpanKind::Pack, 0);
        }
        assert!(t.is_enabled() && !t.has_timeline());
        assert!(t.is_empty() && t.dropped() == 0);
        assert_eq!(t.drain(), (Vec::new(), 0));
        let pack = &t.fold().unwrap().kind(SpanKind::Pack);
        assert_eq!(pack.count(), RING_CAPACITY as u64 + 3);
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn kind_labels_are_unique() {
        let mut labels: Vec<&str> = SpanKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_KINDS);
    }
}
