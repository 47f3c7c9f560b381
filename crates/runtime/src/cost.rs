//! Analytical cost model.
//!
//! The paper reports wall-clock seconds on a 4-processor IBM SP-2. We cannot
//! rerun that machine, so alongside real wall-clock of the simulated
//! execution we compute a *modeled time* from the counters, with constants
//! flavoured after 1997-era SP-2 characteristics: large per-message software
//! overhead (MPI + strided pack/unpack), moderate memory-copy bandwidth, and
//! cheap flops relative to memory accesses (stencil subgrid loops are
//! memory-bound, paper §2.2).
//!
//! The modeled time of a run is `max` over PEs of each PE's accumulated
//! nanoseconds — the SPMD critical path under barrier-synchronised steps.
//!
//! [`HostProfile`] fits the same counters to the machine the simulator runs
//! on, for ranking execution configurations rather than reproducing the
//! paper: one more term (how many PEs share a core) and the engine in the
//! formula, since on a host the PEs are threads, not processors.

use crate::stats::{AggStats, PeStats};

/// Per-operation costs in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed cost per message (software overhead + latency), each side.
    pub alpha_ns: f64,
    /// Per-byte transfer cost (pack + wire + unpack), each side.
    pub beta_ns_per_byte: f64,
    /// Per-byte cost of intraprocessor copies (local memcpy through memory).
    pub copy_ns_per_byte: f64,
    /// Cost of one array-element load in a subgrid loop.
    pub load_ns: f64,
    /// Extra cost per load when the innermost loop is not stride-1 (cache
    /// lines wasted; what loop permutation removes).
    pub strided_load_extra_ns: f64,
    /// Cost of one array-element store.
    pub store_ns: f64,
    /// Cost of one floating-point operation.
    pub flop_ns: f64,
    /// Loop-iteration overhead (index updates, branch).
    pub iter_ns: f64,
    /// Cost of allocating a distributed temporary (per PE, per array).
    pub alloc_ns: f64,
}

impl CostModel {
    /// SP-2-flavoured defaults. With these constants communication and
    /// computation are of comparable magnitude for mid-size problems on a
    /// 2×2 grid, which is the regime the paper's Figure 17 percentages come
    /// from (each pipeline stage visibly reduces total time).
    pub fn sp2() -> Self {
        CostModel {
            alpha_ns: 300_000.0,    // ~300 µs per message incl. library overhead
            beta_ns_per_byte: 60.0, // ~16 MB/s effective strided pack+send
            copy_ns_per_byte: 10.0, // ~100 MB/s local copy
            load_ns: 20.0,
            strided_load_extra_ns: 60.0,
            store_ns: 20.0,
            flop_ns: 5.0,
            iter_ns: 5.0,
            alloc_ns: 50_000.0, // temp allocation + page touch
        }
    }

    /// A model where communication is free — isolates computation effects
    /// (used by ablation benches).
    pub fn compute_only() -> Self {
        CostModel {
            alpha_ns: 0.0,
            beta_ns_per_byte: 0.0,
            copy_ns_per_byte: 0.0,
            alloc_ns: 0.0,
            ..Self::sp2()
        }
    }

    /// Modeled nanoseconds attributable to one PE's counters.
    pub fn pe_time_ns(&self, s: &PeStats) -> f64 {
        (s.msgs_sent + s.msgs_recv) as f64 * self.alpha_ns
            + (s.bytes_sent + s.bytes_recv) as f64 * self.beta_ns_per_byte
            + (s.intra_bytes + s.wrap_bytes) as f64 * self.copy_ns_per_byte
            + s.loads as f64 * self.load_ns
            + s.strided_loads as f64 * self.strided_load_extra_ns
            + s.stores as f64 * self.store_ns
            + s.flops as f64 * self.flop_ns
            + s.iters as f64 * self.iter_ns
            + s.allocs as f64 * self.alloc_ns
    }

    /// Modeled time of a run: the slowest PE (critical path).
    ///
    /// `pe_time_ns` charges every counter serially, which matches the
    /// engines' blocking exchange: a PE that posts a receive stalls until
    /// the message arrives.
    pub fn modeled_time_ns(&self, agg: &AggStats) -> f64 {
        agg.per_pe.iter().map(|s| self.pe_time_ns(s)).fold(0.0, f64::max)
    }

    /// Modeled time in milliseconds.
    pub fn modeled_time_ms(&self, agg: &AggStats) -> f64 {
        self.modeled_time_ns(agg) / 1e6
    }

    /// Modeled nanoseconds of computing one stencil point given the nest's
    /// per-point load/store/flop counts (one loop iteration of overhead).
    /// Prices the redundant trapezoid recompute a superstep schedule pays.
    pub fn point_ns(&self, loads: u64, stores: u64, flops: u64) -> f64 {
        loads as f64 * self.load_ns
            + stores as f64 * self.store_ns
            + flops as f64 * self.flop_ns
            + self.iter_ns
    }

    /// Predicted modeled-time gain, in nanoseconds per superstep on the
    /// critical-path PE, of one depth-`k` superstep over `k` classic steps:
    /// the `k-1` elided exchange phases (message endpoints × latency plus
    /// bytes × bandwidth, both as seen by one PE per classic step) minus the
    /// price of the `redundant_points` the trapezoid sweeps recompute
    /// (`point_ns` from [`CostModel::point_ns`]). Positive predicts the
    /// superstep schedule wins; the tuner uses this to keep or prune deep-k
    /// candidates without running them.
    pub fn superstep_gain_ns(
        &self,
        k: usize,
        msgs: u64,
        bytes: u64,
        redundant_points: u64,
        point_ns: f64,
    ) -> f64 {
        let per_exchange = msgs as f64 * self.alpha_ns + bytes as f64 * self.beta_ns_per_byte;
        k.saturating_sub(1) as f64 * per_exchange - redundant_points as f64 * point_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::sp2()
    }
}

/// Per-operation costs of *this* host running the simulator, fitted by a
/// calibration (the tuner's), in nanoseconds — the paper's model form
/// ([`CostModel`]) plus what a host adds: the VM's start-up per row, the
/// core count the PEs share, and a message cost that depends on whether
/// a waiting PE spins (every PE has a core) or parks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostProfile {
    /// Cores the threads of a plan can run on at once.
    pub cores: usize,
    /// VM cost of one array-element load.
    pub load_ns: f64,
    /// VM cost of one array-element store.
    pub store_ns: f64,
    /// VM cost of one floating-point operation.
    pub flop_ns: f64,
    /// VM cost of one loop-body execution.
    pub iter_ns: f64,
    /// VM start-up cost of one row (a run of the innermost loop).
    pub row_ns: f64,
    /// Cost per byte of a copy: pack, unpack, local and wrap copies.
    pub copy_ns_per_byte: f64,
    /// Cost per message endpoint of a threaded exchange whose waits spin
    /// (no more PEs than cores), the step's hand-off included.
    pub msg_spin_ns: f64,
    /// The same when the waits park (more PEs than cores): a parked wait
    /// lasts until the PE it waits for gets a core back.
    pub msg_park_ns: f64,
}

impl HostProfile {
    /// One PE's work in a step: its nest counters and rows at VM prices
    /// plus every byte it copies (a message is packed by its sender and
    /// unpacked by its receiver on both engines).
    fn pe_work_ns(&self, s: &PeStats, rows: u64) -> f64 {
        s.loads as f64 * self.load_ns
            + s.stores as f64 * self.store_ns
            + s.flops as f64 * self.flop_ns
            + s.iters as f64 * self.iter_ns
            + rows as f64 * self.row_ns
            + (s.bytes_sent + s.bytes_recv + s.intra_bytes + s.wrap_bytes) as f64
                * self.copy_ns_per_byte
    }

    /// Price one step of per-PE `counts` and `rows` on this host. The
    /// sequential engine (`threaded == false`) runs every PE's work on one
    /// core, one PE after another. The threaded engine spreads it over
    /// `min(PEs, cores)` cores — no faster than its busiest PE — and pays
    /// the busiest PE's message endpoints at the spinning or the parked
    /// cost, by the engine's own rule: waits spin only when every PE has a
    /// core.
    pub fn step_ns(&self, counts: &[PeStats], rows: &[u64], threaded: bool) -> f64 {
        let work = counts.iter().zip(rows).map(|(s, &r)| self.pe_work_ns(s, r));
        if !threaded {
            return work.sum();
        }
        let (total, busiest) = work.fold((0.0, 0.0f64), |(t, m), w| (t + w, m.max(w)));
        let pes = counts.len();
        let msg_ns = if pes <= self.cores { self.msg_spin_ns } else { self.msg_park_ns };
        let endpoints = counts.iter().map(|s| s.msgs_sent + s.msgs_recv).max().unwrap_or(0);
        busiest.max(total / pes.min(self.cores).max(1) as f64) + endpoints as f64 * msg_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_time_combines_terms() {
        let m = CostModel {
            alpha_ns: 100.0,
            beta_ns_per_byte: 1.0,
            copy_ns_per_byte: 2.0,
            load_ns: 3.0,
            strided_load_extra_ns: 0.0,
            store_ns: 4.0,
            flop_ns: 5.0,
            iter_ns: 6.0,
            alloc_ns: 7.0,
        };
        let s = PeStats {
            msgs_sent: 1,
            msgs_recv: 1,
            bytes_sent: 10,
            bytes_recv: 10,
            intra_bytes: 5,
            wrap_bytes: 5,
            loads: 2,
            strided_loads: 0,
            stores: 2,
            flops: 2,
            iters: 2,
            allocs: 1,
        };
        let t = m.pe_time_ns(&s);
        assert_eq!(t, 200.0 + 20.0 + 20.0 + 6.0 + 8.0 + 10.0 + 12.0 + 7.0);
    }

    #[test]
    fn modeled_time_is_max_over_pes() {
        let m = CostModel::sp2();
        let slow = PeStats { loads: 1_000_000, ..Default::default() };
        let fast = PeStats { loads: 10, ..Default::default() };
        let agg =
            AggStats { per_pe: vec![fast, slow, fast], peak_bytes: vec![], ..Default::default() };
        assert_eq!(m.modeled_time_ns(&agg), m.pe_time_ns(&slow));
    }

    #[test]
    fn compute_only_zeroes_comm() {
        let m = CostModel::compute_only();
        let s = PeStats {
            msgs_sent: 100,
            bytes_sent: 1 << 20,
            intra_bytes: 1 << 20,
            ..Default::default()
        };
        assert_eq!(m.pe_time_ns(&s), 0.0);
    }

    #[test]
    fn superstep_gain_trades_messages_for_redundant_compute() {
        let m = CostModel::sp2();
        let point = m.point_ns(5, 1, 6);
        assert_eq!(point, 5.0 * m.load_ns + m.store_ns + 6.0 * m.flop_ns + m.iter_ns);
        // Depth 1 elides nothing and recomputes nothing: zero gain.
        assert_eq!(m.superstep_gain_ns(1, 8, 4096, 0, point), 0.0);
        // Message latency dominates small redundant regions: depth 4 wins.
        assert!(m.superstep_gain_ns(4, 8, 4096, 1_000, point) > 0.0);
        // A huge redundant region swamps the saved latency: depth 4 loses.
        assert!(m.superstep_gain_ns(4, 8, 4096, 100_000_000, point) < 0.0);
        // compute_only: messages are free, so any redundancy is a loss.
        assert!(CostModel::compute_only().superstep_gain_ns(4, 8, 4096, 1, point) < 0.0);
    }

    fn profile(cores: usize) -> HostProfile {
        HostProfile {
            cores,
            load_ns: 1.0,
            store_ns: 2.0,
            flop_ns: 0.5,
            iter_ns: 1.0,
            row_ns: 10.0,
            copy_ns_per_byte: 0.25,
            msg_spin_ns: 100.0,
            msg_park_ns: 1_000.0,
        }
    }

    #[test]
    fn host_work_prices_nest_counters_rows_and_copied_bytes() {
        let s = PeStats {
            loads: 4,
            stores: 2,
            flops: 2,
            iters: 1,
            bytes_sent: 8,
            bytes_recv: 8,
            intra_bytes: 8,
            wrap_bytes: 8,
            msgs_sent: 1,
            ..Default::default()
        };
        assert_eq!(profile(2).pe_work_ns(&s, 3), 4.0 + 4.0 + 1.0 + 1.0 + 30.0 + 8.0);
    }

    #[test]
    fn host_step_puts_the_engine_in_the_formula() {
        let pe = PeStats { loads: 1_000, msgs_sent: 2, msgs_recv: 2, ..Default::default() };
        let (counts, rows) = ([pe; 4], [0u64; 4]);
        // Sequential: every PE's work, one after another, no message cost.
        assert_eq!(profile(2).step_ns(&counts, &rows, false), 4_000.0);
        // Two cores for four PEs: half the work each, and parked waits.
        assert_eq!(profile(2).step_ns(&counts, &rows, true), 2_000.0 + 4.0 * 1_000.0);
        // A core per PE: the busiest PE, and spinning waits.
        assert_eq!(profile(4).step_ns(&counts, &rows, true), 1_000.0 + 4.0 * 100.0);
        // One core: the threads share it and every wait parks.
        assert_eq!(profile(1).step_ns(&counts, &rows, true), 4_000.0 + 4.0 * 1_000.0);
        // The busiest PE bounds a skewed step from below.
        let skewed = [PeStats { loads: 3_000, ..Default::default() }, PeStats::default()];
        assert_eq!(profile(2).step_ns(&skewed, &[0, 0], true), 3_000.0);
    }

    #[test]
    fn sp2_message_dominates_small_transfers() {
        let m = CostModel::sp2();
        // One 2 KB message: latency term should dominate the byte term.
        let s = PeStats { msgs_sent: 1, bytes_sent: 2048, ..Default::default() };
        assert!(m.alpha_ns > 2048.0 * m.beta_ns_per_byte);
        assert!(m.pe_time_ns(&s) > m.alpha_ns);
    }
}
