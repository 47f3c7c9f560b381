//! Execution counters, per PE and aggregated.

/// Counters for one PE; the cost model converts them to modeled time.
/// Three things credit them: `Machine::alloc`, a plan step (the plan counts
/// what one step does when it is built and credits that once per step),
/// and `Machine::apply_compiled`, which counts the schedule it runs.
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
    /// Add another PE's counters into this one.
    pub fn merge(&mut self, other: &PeStats) {
        self.merge_times(other, 1);
    }

    /// Add `times` copies of another PE's counters into this one.
    pub fn merge_times(&mut self, other: &PeStats, times: u64) {
        self.msgs_sent += times * other.msgs_sent;
        self.msgs_recv += times * other.msgs_recv;
        self.bytes_sent += times * other.bytes_sent;
        self.bytes_recv += times * other.bytes_recv;
        self.intra_bytes += times * other.intra_bytes;
        self.wrap_bytes += times * other.wrap_bytes;
        self.loads += times * other.loads;
        self.strided_loads += times * other.strided_loads;
        self.stores += times * other.stores;
        self.flops += times * other.flops;
        self.iters += times * other.iters;
        self.allocs += times * other.allocs;
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
    /// the PEs with that layout. Machine-wide, incremented when a plan is
    /// built, under either backend (both run compiled kernels).
    pub kernels_compiled: u64,
    /// Executions of an already-compiled bytecode kernel (one nest sweep on
    /// one PE). Plans compile once and grow only this counter per step.
    pub kernel_execs: u64,
    /// Auto-tuner lookups answered from the persistent on-disk tuning
    /// cache (no candidate enumerated or priced). Machine-wide; zero unless
    /// the plan was resolved through `ExecConfig::auto()` / `Tuner::best`.
    pub tune_cache_hits: u64,
    /// Auto-tuner lookups that missed the cache and ran the full
    /// candidate search.
    pub tune_cache_misses: u64,
    /// Wall nanoseconds the auto-tuner spent resolving the configuration
    /// (cache probe, host calibration, candidate enumeration, probes and
    /// pricing). On a cache hit this is just the probe time.
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
/// its message/byte/compute counters.
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
        ]);
        for (pe, s) in self.per_pe.iter().enumerate() {
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
            ]);
        }
        f.write_str(&t.render())?;
        write!(
            f,
            "schedules: {} built, {} reused | kernels: {} compiled, {} execs",
            self.schedules_built, self.schedule_reuses, self.kernels_compiled, self.kernel_execs,
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
            schedules_built: 3,
            ..Default::default()
        };
        let table = agg.to_string();
        assert!(table.contains("KB-sent"));
        assert!(table.contains("2.0"), "bytes sent in KB: {table}");
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
