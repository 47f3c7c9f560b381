//! Execution counters, per PE and aggregated.

/// Counters for one PE. The executors and the machine's data-movement
/// operations increment these; the cost model converts them to modeled time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PeStats {
    /// Messages sent to another PE.
    pub msgs_sent: u64,
    /// Messages received from another PE.
    pub msgs_recv: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_recv: u64,
    /// Bytes copied within the PE by the intraprocessor component of full
    /// `CSHIFT`s (the cost the offset-array optimization eliminates).
    pub intra_bytes: u64,
    /// Bytes of local wrap-around halo copies (grid extent 1 along an axis).
    pub wrap_bytes: u64,
    /// Array-element loads executed by subgrid loops.
    pub loads: u64,
    /// Loads issued while the innermost loop did not run over the
    /// storage-contiguous dimension (pay a stride penalty in the model).
    pub strided_loads: u64,
    /// Array-element stores executed by subgrid loops.
    pub stores: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Loop iterations executed (loop overhead proxy).
    pub iters: u64,
    /// Array allocations performed.
    pub allocs: u64,
}

impl PeStats {
    /// Counter deltas since an earlier snapshot. All counters are
    /// monotonically increasing, so this isolates the work done between two
    /// snapshots of the same PE — the split-phase executor uses it to
    /// attribute modeled time to the interior sweep vs the receive drain.
    pub fn delta_since(&self, base: &PeStats) -> PeStats {
        PeStats {
            msgs_sent: self.msgs_sent - base.msgs_sent,
            msgs_recv: self.msgs_recv - base.msgs_recv,
            bytes_sent: self.bytes_sent - base.bytes_sent,
            bytes_recv: self.bytes_recv - base.bytes_recv,
            intra_bytes: self.intra_bytes - base.intra_bytes,
            wrap_bytes: self.wrap_bytes - base.wrap_bytes,
            loads: self.loads - base.loads,
            strided_loads: self.strided_loads - base.strided_loads,
            stores: self.stores - base.stores,
            flops: self.flops - base.flops,
            iters: self.iters - base.iters,
            allocs: self.allocs - base.allocs,
        }
    }

    /// Add another PE's counters into this one.
    pub fn merge(&mut self, other: &PeStats) {
        self.msgs_sent += other.msgs_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
        self.intra_bytes += other.intra_bytes;
        self.wrap_bytes += other.wrap_bytes;
        self.loads += other.loads;
        self.strided_loads += other.strided_loads;
        self.stores += other.stores;
        self.flops += other.flops;
        self.iters += other.iters;
        self.allocs += other.allocs;
    }
}

/// Aggregated statistics across the machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AggStats {
    /// Per-PE counters.
    pub per_pe: Vec<PeStats>,
    /// Peak memory use per PE in bytes.
    pub peak_bytes: Vec<usize>,
    /// Persistent communication schedules compiled (a strided box per
    /// region). Machine-wide, incremented once per comm op at plan time.
    pub schedules_built: u64,
    /// Executions of an already-compiled schedule — each one is a shift that
    /// paid zero subgrid math and zero buffer allocation. After `n` steps of
    /// a plan with `c` comm ops, this reads `n * c`.
    pub schedule_reuses: u64,
    /// Bytecode kernels compiled: one per (nest, subgrid layout), shared by
    /// the PEs with that layout. Machine-wide, incremented at backend compile
    /// time; zero under the interpreter backend.
    pub kernels_compiled: u64,
    /// Executions of an already-compiled bytecode kernel (one nest sweep on
    /// one PE). Plans compile once and grow only this counter per step.
    pub kernel_execs: u64,
    /// Split-phase exchange windows executed with interior/boundary overlap
    /// (sends posted, interior computed while messages were in flight,
    /// receives drained, boundary strips computed). Machine-wide; zero on
    /// the blocking engines and on the conservative-fallback path.
    pub overlapped_steps: u64,
    /// Points computed in interior regions (before receives were drained)
    /// across all overlapped windows and PEs.
    pub interior_cells: u64,
    /// Points computed in boundary strips (after receives were drained)
    /// across all overlapped windows and PEs.
    pub boundary_cells: u64,
    /// Per-PE modeled receive nanoseconds hidden behind interior compute by
    /// split-phase exchange windows: per window, `min(recv_ns, interior_ns)`
    /// where both terms come from the cost model applied to exact counter
    /// deltas around the interior sweep and the drain. This value is
    /// trace-derived: the overlap engine computes the per-window credit at
    /// the span-recording boundary of the window's drain, accumulates it
    /// here, and (with tracing on) attaches the same number to the drain's
    /// `hpf_trace` span — so `TraceSummary::hidden_comm_ns()` reproduces
    /// this vector exactly and the counter is just the always-on aggregate
    /// view of the span data. Zero on the blocking engines; the per-PE
    /// `PeStats` themselves stay engine-independent. Empty when no machine
    /// has run (e.g. hand-built aggregates).
    pub hidden_comm_ns: Vec<f64>,
    /// Auto-tuner lookups answered from the persistent on-disk tuning
    /// cache (no candidate enumerated or timed). Machine-wide; zero unless
    /// the plan was resolved through `ExecConfig::auto()` / `Tuner::best`.
    pub tune_cache_hits: u64,
    /// Auto-tuner lookups that missed the cache and ran the full
    /// cost-model-pruned candidate search.
    pub tune_cache_misses: u64,
    /// Wall nanoseconds the auto-tuner spent resolving the configuration
    /// (cache probe, candidate enumeration, model pruning, empirical
    /// timing). On a cache hit this is just the probe time.
    pub tune_search_ns: u64,
    /// Halo exchanges the superstep schedule did *not* perform: for each
    /// executed superstep of depth `k`, the `(k-1) * comms_per_step`
    /// exchanges the classic schedule would have issued. Machine-wide;
    /// zero at depth 1 and on non-superstep plans.
    pub exchanges_elided: u64,
    /// Points computed redundantly (outside the owning PE's region) by
    /// trapezoid sub-step sweeps, summed over all PEs and supersteps —
    /// the compute price paid for the elided exchanges.
    pub redundant_cells: u64,
}

impl AggStats {
    /// Sum of all PE counters.
    pub fn total(&self) -> PeStats {
        let mut t = PeStats::default();
        for s in &self.per_pe {
            t.merge(s);
        }
        t
    }

    /// Total messages (each message counted once, on the sending side).
    pub fn total_messages(&self) -> u64 {
        self.per_pe.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total bytes moved between PEs.
    pub fn total_comm_bytes(&self) -> u64 {
        self.per_pe.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total intraprocessor copy bytes.
    pub fn total_intra_bytes(&self) -> u64 {
        self.per_pe.iter().map(|s| s.intra_bytes).sum()
    }

    /// Largest peak memory over PEs.
    pub fn max_peak_bytes(&self) -> usize {
        self.peak_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// The per-PE summary table (`--trace` text output): one row per PE with
/// its message/byte/compute counters and the hidden-communication credit.
/// Rendered through the shared [`hpf_trace::table::TextTable`] helper.
impl std::fmt::Display for AggStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use hpf_trace::{Align, TextTable};
        let mut t = TextTable::new(&[
            ("pe", Align::Left),
            ("msg-s", Align::Right),
            ("msg-r", Align::Right),
            ("KB-sent", Align::Right),
            ("KB-recv", Align::Right),
            ("KB-intra", Align::Right),
            ("loads", Align::Right),
            ("stores", Align::Right),
            ("flops", Align::Right),
            ("hidden-ms", Align::Right),
        ]);
        for (pe, s) in self.per_pe.iter().enumerate() {
            let hidden_ms = self.hidden_comm_ns.get(pe).copied().unwrap_or(0.0) / 1e6;
            t.row([
                pe.to_string(),
                s.msgs_sent.to_string(),
                s.msgs_recv.to_string(),
                format!("{:.1}", s.bytes_sent as f64 / 1024.0),
                format!("{:.1}", s.bytes_recv as f64 / 1024.0),
                format!("{:.1}", s.intra_bytes as f64 / 1024.0),
                s.loads.to_string(),
                s.stores.to_string(),
                s.flops.to_string(),
                format!("{hidden_ms:.3}"),
            ]);
        }
        f.write_str(&t.render())?;
        write!(
            f,
            "schedules: {} built, {} reused | kernels: {} compiled, {} execs | \
             overlap: {} windows, {} interior / {} boundary cells",
            self.schedules_built,
            self.schedule_reuses,
            self.kernels_compiled,
            self.kernel_execs,
            self.overlapped_steps,
            self.interior_cells,
            self.boundary_cells
        )?;
        // Superstep and tune counters join the footer line only when their
        // feature ran, keeping classic output (and its line count) unchanged.
        if self.exchanges_elided + self.redundant_cells > 0 {
            write!(
                f,
                " | superstep: {} exchanges elided, {} redundant cells",
                self.exchanges_elided, self.redundant_cells
            )?;
        }
        if self.tune_cache_hits + self.tune_cache_misses > 0 {
            write!(
                f,
                " | tune: {} hits, {} misses, {:.1} ms search",
                self.tune_cache_hits,
                self.tune_cache_misses,
                self.tune_search_ns as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PeStats { msgs_sent: 1, bytes_sent: 100, loads: 5, ..Default::default() };
        let b = PeStats { msgs_sent: 2, bytes_sent: 50, flops: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 3);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.loads, 5);
        assert_eq!(a.flops, 7);
    }

    #[test]
    fn aggregate_totals() {
        let agg = AggStats {
            per_pe: vec![
                PeStats { msgs_sent: 2, bytes_sent: 10, intra_bytes: 4, ..Default::default() },
                PeStats { msgs_sent: 1, bytes_sent: 20, intra_bytes: 6, ..Default::default() },
            ],
            peak_bytes: vec![100, 300],
            ..Default::default()
        };
        assert_eq!(agg.total_messages(), 3);
        assert_eq!(agg.total_comm_bytes(), 30);
        assert_eq!(agg.total_intra_bytes(), 10);
        assert_eq!(agg.max_peak_bytes(), 300);
        assert_eq!(agg.total().msgs_sent, 3);
    }

    #[test]
    fn display_renders_one_row_per_pe() {
        let agg = AggStats {
            per_pe: vec![
                PeStats { msgs_sent: 2, bytes_sent: 2048, loads: 7, ..Default::default() },
                PeStats { msgs_recv: 1, bytes_recv: 1024, ..Default::default() },
            ],
            peak_bytes: vec![0, 0],
            hidden_comm_ns: vec![1_500_000.0, 0.0],
            schedules_built: 3,
            ..Default::default()
        };
        let table = agg.to_string();
        assert!(table.contains("hidden-ms"));
        assert!(table.contains("1.500"), "hidden credit in ms: {table}");
        assert!(table.contains("schedules: 3 built"));
        assert_eq!(table.lines().count(), 1 + 2 + 1, "header + 2 PEs + footer");
        assert!(!table.contains("tune:"), "untuned runs keep the old footer");
    }

    #[test]
    fn display_appends_tune_counters_when_tuner_ran() {
        let agg = AggStats {
            per_pe: vec![PeStats::default()],
            peak_bytes: vec![0],
            tune_cache_misses: 1,
            tune_search_ns: 2_500_000,
            ..Default::default()
        };
        let table = agg.to_string();
        assert!(table.contains("tune: 0 hits, 1 misses, 2.5 ms search"), "{table}");
        assert_eq!(table.lines().count(), 1 + 1 + 1, "tune joins the footer line");
    }

    #[test]
    fn display_appends_superstep_counters_when_supersteps_ran() {
        let agg = AggStats {
            per_pe: vec![PeStats::default()],
            peak_bytes: vec![0],
            exchanges_elided: 12,
            redundant_cells: 480,
            ..Default::default()
        };
        let table = agg.to_string();
        assert!(table.contains("superstep: 12 exchanges elided, 480 redundant cells"), "{table}");
        assert_eq!(table.lines().count(), 1 + 1 + 1, "superstep joins the footer line");
    }
}
