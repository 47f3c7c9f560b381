//! The channel fabric: one PE's end of the message-passing protocol the
//! threaded engines run, one OS thread per PE, over the same deterministic
//! compiled schedules as the direct-copy fabric — results are bitwise
//! identical.
//!
//! Protocol: for every communication operation, each PE (1) posts all its
//! sends (channels are unbounded, so sends never block — no deadlock
//! regardless of plan order), (2) applies local fills and self-transfers,
//! (3) blocks receiving its incoming transfers in plan order, matching
//! messages by `(sequence number, sender)` tags with a stash for
//! out-of-order arrivals.

use hpf_runtime::schedule::{split_halves, CommAction};
use hpf_runtime::{CompiledComm, MachineConfig, PeState};
use hpf_trace::SpanKind;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};

pub(crate) type Msg = (u64, usize, Vec<f64>);

/// One PE's worker: its state, its channel ends, and the plan tables it
/// reads. Lives for one step on that PE's thread.
pub(crate) struct Worker<'a> {
    pub(crate) state: &'a mut PeState,
    pub(crate) rx: Receiver<Msg>,
    pub(crate) txs: Vec<Sender<Msg>>,
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) scheds: &'a [CompiledComm],
    pub(crate) scalars: &'a [f64],
    /// Whether overlap windows run split-phase (the plan was built for
    /// `Engine::ThreadedOverlap`) or as their unfused blocking sequence.
    pub(crate) split_phase: bool,
    pub(crate) seq: u64,
    pub(crate) stash: HashMap<(u64, usize), Vec<f64>>,
}

impl Worker<'_> {
    /// Split-phase first half: post all sends (phase 1), then apply local
    /// fills and self-transfers (phase 2). Channels are unbounded, so this
    /// never blocks. Returns the sequence number the sends were tagged
    /// with; pass it to [`Worker::comm_finish`] to drain the receives.
    pub(crate) fn comm_post(
        &mut self,
        dst: hpf_ir::ArrayId,
        src: hpf_ir::ArrayId,
        plan: &[CommAction],
        full_shift: bool,
    ) -> u64 {
        let t0 = self.state.tracer.now();
        let seq = self.seq;
        self.seq += 1;
        let halves = split_halves(plan, self.state.pe);
        // Phase 1: all sends.
        for t in &halves.sends {
            let buf = self.state.subgrid(src).read_region(&t.src_local);
            let bytes = (buf.len() * 8) as u64;
            self.txs[t.dst_pe].send((seq, self.state.pe, buf)).expect("peer alive");
            self.state.stats.msgs_sent += 1;
            self.state.stats.bytes_sent += bytes;
        }
        // Phase 2: local fills and self-transfers.
        for action in &halves.locals {
            match action {
                CommAction::Fill { local, value, .. } => {
                    self.state.subgrid_mut(dst).fill_region(local, *value);
                }
                CommAction::Transfer(t) => {
                    let buf = self.state.subgrid(src).read_region(&t.src_local);
                    let bytes = (buf.len() * 8) as u64;
                    self.state.subgrid_mut(dst).write_region(&t.dst_local, &buf);
                    if full_shift {
                        self.state.stats.intra_bytes += bytes;
                    } else {
                        self.state.stats.wrap_bytes += bytes;
                    }
                }
            }
        }
        self.state.tracer.record(SpanKind::CommPost, t0);
        seq
    }

    /// Split-phase second half: block receiving this PE's incoming
    /// transfers, in plan order (phase 3), matching messages by
    /// `(seq, sender)` with a stash for out-of-order arrivals. Records one
    /// [`SpanKind::CommDrain`] span for the whole drain.
    pub(crate) fn comm_finish(&mut self, dst: hpf_ir::ArrayId, plan: &[CommAction], seq: u64) {
        let t0 = self.state.tracer.now();
        self.comm_finish_quiet(dst, plan, seq);
        self.state.tracer.record(SpanKind::CommDrain, t0);
    }

    /// [`Worker::comm_finish`] without the span: the overlap engine drains
    /// a whole window under a single drain span carrying the cost-model
    /// attribution, so its per-comm drains must not record their own.
    pub(crate) fn comm_finish_quiet(
        &mut self,
        dst: hpf_ir::ArrayId,
        plan: &[CommAction],
        seq: u64,
    ) {
        for t in &split_halves(plan, self.state.pe).recvs {
            let buf = self.recv_tagged(seq, t.src_pe);
            let bytes = (buf.len() * 8) as u64;
            self.state.subgrid_mut(dst).write_region(&t.dst_local, &buf);
            self.state.stats.msgs_recv += 1;
            self.state.stats.bytes_recv += bytes;
        }
    }

    fn recv_tagged(&mut self, seq: u64, from: usize) -> Vec<f64> {
        if let Some(buf) = self.stash.remove(&(seq, from)) {
            return buf;
        }
        loop {
            let (s, f, buf) = self.rx.recv().expect("peer alive");
            if s == seq && f == from {
                return buf;
            }
            self.stash.insert((s, f), buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_runtime::Machine;

    #[test]
    fn stash_applies_permuted_deliveries_in_plan_order() {
        use hpf_ir::{ArrayDecl, ArrayId, Distribution, Shape};
        use hpf_runtime::schedule::Transfer;

        const U: ArrayId = ArrayId(0);
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        let recv = |from: usize, dst_local: Vec<(i64, i64)>| {
            CommAction::Transfer(Transfer {
                src_pe: from,
                dst_pe: 0,
                src_local: dst_local.clone(),
                dst_local,
            })
        };
        // Op 0: PE 0 receives its right ghost column from PE 1, then its
        // bottom ghost row from PE 2, in that plan order.
        let plan0 = vec![recv(1, vec![(1, 4), (5, 5)]), recv(2, vec![(5, 5), (1, 4)])];
        // Op 1: PE 0 receives its top ghost row from PE 1.
        let plan1 = vec![recv(1, vec![(0, 0), (1, 4)])];
        let (tx, rx) = std::sync::mpsc::channel();
        // Deliver everything out of order: op 0's PE-2 message first, then
        // a message for the *later* op 1, then op 0's PE-1 message.
        let buf_a = vec![1.0, 2.0, 3.0, 4.0];
        let buf_b = vec![5.0, 6.0, 7.0, 8.0];
        let buf_c = vec![9.0, 10.0, 11.0, 12.0];
        tx.send((0, 2, buf_b.clone())).unwrap();
        tx.send((1, 1, buf_c.clone())).unwrap();
        tx.send((0, 1, buf_a.clone())).unwrap();
        // Closing the channel makes any recv beyond the injected messages
        // fail loudly instead of hanging the test.
        drop(tx);
        let mut w = Worker {
            state: &mut m.pes[0],
            rx,
            txs: Vec::new(),
            cfg: &m.cfg,
            scheds: &[],
            scalars: &[],
            split_phase: false,
            seq: 0,
            stash: HashMap::new(),
        };
        w.comm_finish(U, &plan0, 0);
        // (seq, sender) matching applied each buffer to its own plan entry
        // and stashed the future-op message.
        assert!(w.stash.contains_key(&(1, 1)), "future-op message stashed");
        assert_eq!(w.stash.len(), 1);
        assert_eq!(w.state.subgrid(U).read_region(&[(1, 4), (5, 5)]), buf_a);
        assert_eq!(w.state.subgrid(U).read_region(&[(5, 5), (1, 4)]), buf_b);
        // Op 1 drains from the stash without touching the closed channel.
        w.comm_finish(U, &plan1, 1);
        assert!(w.stash.is_empty());
        assert_eq!(w.state.subgrid(U).read_region(&[(0, 0), (1, 4)]), buf_c);
        assert_eq!(w.state.stats.msgs_recv, 3);
    }
}
