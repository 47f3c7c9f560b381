//! The channel fabric: the message-passing protocol the threaded engine
//! runs, one OS thread per PE, over the same deterministic compiled
//! schedules as the direct-copy fabric — results are bitwise identical —
//! and the persistent worker pool that runs it.
//!
//! **Protocol.** For every communication operation, each PE (1) posts all
//! its sends (channels are unbounded, so sends never block — no deadlock
//! regardless of plan order), (2) applies self-transfers and local fills,
//! (3) blocks receiving its incoming transfers in plan order, matching
//! messages by `(sequence number, sender)` tags with a stash for
//! out-of-order arrivals. Which transfers of a schedule are a PE's sends,
//! locals and receives is worked out once per PE ([`Halves`]), as indices
//! into [`CompiledComm::transfers`]. A message is packed from its source box
//! into a buffer off the sender's free list and unpacked into its
//! destination box (both inside the post and drain spans, with no span of
//! their own), and the spent buffer travels back to its sender; a
//! self-transfer is copied from box to box and borrows no buffer, unless it
//! would overwrite its own source: that one is staged like a message. A
//! steady-state step allocates nothing.
//!
//! **Pool.** A plan built for the threaded engine owns a [`Pool`]: PEs − 1
//! worker threads started on its first step and joined when it drops, each
//! holding its PE's [`Endpoint`] for the plan's lifetime. A step hands
//! every worker one [`Job`] (its `&mut PeState` plus the shared step
//! tables), runs PE 0 on the calling thread through the same walker, and
//! returns once every worker has acknowledged. A worker whose step panics
//! poisons its peers' inboxes so no one waits for a message that will
//! never come; the step then re-raises the panic on the calling thread and
//! the pool stays poisoned.
//!
//! **Waiting.** Every blocking wait on this path — a worker for its next
//! job, a receive for its message, the caller for the acks — spins for at
//! most [`SPIN`] before it parks, and only when every PE can have a CPU of
//! its own. On the reference host a park/unpark round trip costs about
//! 30 µs, and Problem 9 has four of them per step.

use crate::plan::{step_items, PlanItem};
use hpf_ir::hash::HashMap;
use hpf_runtime::{CompiledComm, PeState};
use hpf_trace::SpanKind;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a wait spins before it parks: about one park/unpark round
/// trip, so a wait that would have been woken within that time never pays
/// for the wake-up, and one that would not wastes at most as much again.
const SPIN: Duration = Duration::from_micros(50);

/// Receive from `rx`, spinning for at most [`SPIN`] first when `spin`.
fn recv_spin<T>(rx: &Receiver<T>, spin: bool) -> Result<T, RecvError> {
    if spin {
        let deadline = Instant::now() + SPIN;
        loop {
            match rx.try_recv() {
                Ok(v) => return Ok(v),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            if Instant::now() >= deadline {
                break;
            }
            std::hint::spin_loop();
        }
    }
    rx.recv()
}

pub(crate) enum Msg {
    /// One packed transfer, tagged with the sender's sequence number.
    Data { seq: u64, from: usize, buf: Vec<f64> },
    /// The sender's step panicked: abandon yours.
    Poison,
}

/// Unwind payload of a step abandoned because a peer's panicked.
struct Abandoned;

/// One PE's part of a compiled schedule, in plan order, as indices into
/// [`CompiledComm::transfers`] (`fills`: into [`CompiledComm::fills`]).
#[derive(Debug, Default)]
pub(crate) struct Halves {
    /// Outgoing messages (this PE sends, another receives).
    sends: Vec<usize>,
    /// Self-transfers: copies within this PE.
    locals: Vec<usize>,
    /// Constant fills on this PE.
    fills: Vec<usize>,
    /// Incoming messages (another PE sends, this one receives).
    recvs: Vec<usize>,
}

impl Halves {
    fn of(sched: &CompiledComm, pe: usize) -> Halves {
        let mut h = Halves::default();
        for (i, t) in sched.transfers.iter().enumerate() {
            match (t.src_pe == pe, t.dst_pe == pe) {
                (true, true) => h.locals.push(i),
                (true, false) => h.sends.push(i),
                (false, true) => h.recvs.push(i),
                (false, false) => {}
            }
        }
        h.fills.extend(sched.fills.iter().enumerate().filter(|(_, f)| f.pe == pe).map(|(i, _)| i));
        h
    }
}

/// One PE's end of the fabric, alive as long as the pool: its inbox, the
/// senders to every inbox, its sequence counter and its stash.
#[derive(Debug)]
pub(crate) struct Endpoint {
    pe: usize,
    rx: Receiver<Msg>,
    /// Inbox senders, indexed by PE.
    txs: Vec<Sender<Msg>>,
    /// Spent buffers of messages this PE sent, returned by their
    /// receivers: its free list. No one ever blocks on it.
    spent: Receiver<Vec<f64>>,
    /// Free-list senders, indexed by PE.
    homes: Vec<Sender<Vec<f64>>>,
    /// Sequence number of the next communication operation.
    seq: u64,
    /// Messages that arrived before their receive was posted.
    stash: HashMap<(u64, usize), Vec<f64>>,
    /// Message buffers the fabric's free lists have had to make so far.
    made: Arc<AtomicUsize>,
    spin: bool,
}

impl Endpoint {
    /// The endpoints of a `pes`-PE fabric, fully connected.
    fn fabric(pes: usize, spin: bool) -> Vec<Endpoint> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..pes).map(|_| channel()).unzip();
        let (homes, spents): (Vec<_>, Vec<_>) = (0..pes).map(|_| channel()).unzip();
        let made = Arc::new(AtomicUsize::new(0));
        rxs.into_iter()
            .zip(spents)
            .enumerate()
            .map(|(pe, (rx, spent))| Endpoint {
                pe,
                rx,
                txs: txs.clone(),
                spent,
                homes: homes.clone(),
                seq: 0,
                stash: HashMap::default(),
                made: made.clone(),
                spin,
            })
            .collect()
    }

    /// An empty message buffer: a spent one if any has come home.
    fn take_buf(&mut self) -> Vec<f64> {
        let mut buf = self.spent.try_recv().unwrap_or_else(|_| {
            // A statistic: it publishes nothing.
            self.made.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        });
        buf.clear();
        buf
    }

    /// Return a spent buffer to the free list of the PE that sent it (a
    /// PE whose endpoint is already gone no longer needs it).
    fn give_back(&self, to: usize, buf: Vec<f64>) {
        let _ = self.homes[to].send(buf);
    }

    fn recv_tagged(&mut self, seq: u64, from: usize) -> Vec<f64> {
        if let Some(buf) = self.stash.remove(&(seq, from)) {
            return buf;
        }
        loop {
            match recv_spin(&self.rx, self.spin) {
                Ok(Msg::Data { seq: s, from: f, buf }) if s == seq && f == from => return buf,
                Ok(Msg::Data { seq: s, from: f, buf }) => {
                    self.stash.insert((s, f), buf);
                }
                // The message will never come. `resume_unwind` leaves the
                // walker without running the panic hook: the peer that
                // panicked has already reported.
                Ok(Msg::Poison) => resume_unwind(Box::new(Abandoned)),
                Err(RecvError) => panic!("PE {}: inbox closed during a receive", self.pe),
            }
        }
    }

    fn poison_peers(&self) {
        for (pe, tx) in self.txs.iter().enumerate() {
            if pe != self.pe {
                let _ = tx.send(Msg::Poison);
            }
        }
    }
}

/// What every PE reads during one step; shared by all workers.
pub(crate) struct StepCtx<'a> {
    pub(crate) items: &'a [PlanItem],
    pub(crate) scheds: &'a [CompiledComm],
}

/// One PE's walker over the step program: its state and the step tables
/// for one step, its [`Endpoint`] and [`Halves`] for the plan's lifetime.
pub(crate) struct Worker<'a> {
    pub(crate) state: &'a mut PeState,
    pub(crate) ctx: &'a StepCtx<'a>,
    ep: &'a mut Endpoint,
    halves: &'a [Halves],
}

impl Worker<'_> {
    /// First half of the schedule at `slot`: post all sends (phase 1),
    /// then apply self-transfers and local fills (phase 2).
    /// Channels are unbounded, so this never blocks. Returns the sequence
    /// number the sends were tagged with; pass it to
    /// [`Worker::comm_finish`] to drain the receives.
    pub(crate) fn comm_post(&mut self, slot: usize) -> u64 {
        let t0 = self.state.tracer.now();
        let sched = &self.ctx.scheds[slot];
        let h = &self.halves[slot];
        let seq = self.ep.seq;
        self.ep.seq += 1;
        for t in h.sends.iter().map(|&i| &sched.transfers[i]) {
            let mut buf = self.ep.take_buf();
            t.src.pack(self.state.subgrid(sched.src).raw(), &mut buf);
            self.ep.txs[t.dst_pe]
                .send(Msg::Data { seq, from: self.ep.pe, buf })
                .expect("every inbox lives as long as the pool");
        }
        for t in h.locals.iter().map(|&i| &sched.transfers[i]) {
            // Staged only if it overwrites its own source, and then through
            // a free-list buffer as a message is.
            let mut stage = if t.direct { Vec::new() } else { self.ep.take_buf() };
            self.state.copy_local(sched, t, &mut stage);
            if !t.direct {
                self.ep.give_back(self.ep.pe, stage);
            }
        }
        for f in h.fills.iter().map(|&i| &sched.fills[i]) {
            f.region.fill(self.state.subgrid_mut(sched.dst).raw_mut(), f.value);
        }
        self.state.tracer.record(SpanKind::CommPost, t0);
        seq
    }

    /// Second half: block receiving this PE's incoming transfers, in plan
    /// order (phase 3), matching messages by `(seq, sender)` with a stash
    /// for out-of-order arrivals — a peer that has finished this exchange
    /// may already have posted the next one's. Records one
    /// [`SpanKind::CommDrain`] span for the whole drain.
    pub(crate) fn comm_finish(&mut self, slot: usize, seq: u64) {
        let t0 = self.state.tracer.now();
        let sched = &self.ctx.scheds[slot];
        for t in self.halves[slot].recvs.iter().map(|&i| &sched.transfers[i]) {
            let buf = self.ep.recv_tagged(seq, t.src_pe);
            t.dst.unpack(self.state.subgrid_mut(sched.dst).raw_mut(), &buf);
            self.ep.give_back(t.src_pe, buf);
        }
        self.state.tracer.record(SpanKind::CommDrain, t0);
    }
}

/// Why a PE's step did not complete.
enum Failure {
    /// It panicked, with this message.
    Panicked(String),
    /// A peer's did, and it gave up waiting for that peer's messages.
    Abandoned,
}

/// A PE's report at the end of its step: its sequence counter, or why it
/// has none.
type Ack = (usize, Result<u64, Failure>);

/// Everything one PE keeps for the plan's lifetime.
#[derive(Debug)]
struct Seat {
    ep: Endpoint,
    /// Per schedule slot.
    halves: Vec<Halves>,
}

impl Seat {
    /// Walk one step for this seat's PE. A panic inside it stops here:
    /// the peers are poisoned and the failure is returned, so the thread
    /// running the seat always gets to report.
    fn run(&mut self, state: &mut PeState, ctx: &StepCtx<'_>) -> Result<u64, Failure> {
        // Unwind safety: a step that unwound poisons the pool, which
        // never steps again; the machine's arrays are then unspecified.
        let walked = catch_unwind(AssertUnwindSafe(|| {
            let mut w = Worker { state, ctx, ep: &mut self.ep, halves: &self.halves };
            step_items(&mut w, ctx.items);
            debug_assert!(w.ep.stash.is_empty(), "stash not empty at a step boundary");
        }));
        match walked {
            Ok(()) => Ok(self.ep.seq),
            Err(payload) if payload.is::<Abandoned>() => Err(Failure::Abandoned),
            Err(payload) => {
                self.ep.poison_peers();
                Err(Failure::Panicked(panic_message(payload.as_ref())))
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "a non-string panic payload".to_string(),
    }
}

/// One worker's work for one step. The lifetime is that of the
/// [`Pool::step`] call that made it, erased to `'static` for the trip
/// through the channel.
struct Job<'a> {
    state: &'a mut PeState,
    ctx: &'a StepCtx<'a>,
}

fn worker_main(mut seat: Seat, jobs: Receiver<Job<'static>>, acks: Sender<Ack>) {
    // The job channel closes when the pool drops.
    while let Ok(Job { state, ctx }) = recv_spin(&jobs, seat.ep.spin) {
        let outcome = seat.run(state, ctx);
        // Nothing of the job is touched past this point: the ack is what
        // lets `Pool::step` return and the borrows behind the job end.
        if acks.send((seat.ep.pe, outcome)).is_err() {
            break;
        }
    }
}

/// Acks still owed to the step in flight. Dropping it waits for them, so
/// no path out of [`Pool::step`] — return or unwind — leaves a worker
/// holding a job.
struct Owed<'p> {
    acks: &'p Receiver<Ack>,
    n: usize,
    spin: bool,
}

impl Owed<'_> {
    fn next(&mut self) -> Option<Ack> {
        if self.n == 0 {
            return None;
        }
        self.n -= 1;
        // An error means every worker thread is gone, and with them
        // everything that could still touch a job.
        recv_spin(self.acks, self.spin).ok()
    }
}

impl Drop for Owed<'_> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

/// The persistent workers of one threaded plan; see the module docs.
#[derive(Debug)]
pub(crate) struct Pool {
    /// PE 0's seat: the calling thread runs it, so a step costs one
    /// hand-off less and the caller computes instead of waiting.
    seat0: Seat,
    /// PEs 1.., in order: the job hand-off and the thread.
    workers: Vec<(Sender<Job<'static>>, JoinHandle<()>)>,
    acks: Receiver<Ack>,
    /// The panic of the step that poisoned the pool, re-raised by every
    /// later step.
    poisoned: Option<String>,
}

impl Pool {
    /// Start the workers of a `pes`-PE plan over `scheds`.
    pub(crate) fn start(pes: usize, scheds: &[CompiledComm]) -> Pool {
        // Spinning helps only when the thread being waited for is running:
        // with more PEs than CPUs it would burn the CPU that thread needs.
        let spin = std::thread::available_parallelism().is_ok_and(|cpus| pes <= cpus.get());
        let mut seats = Endpoint::fabric(pes, spin).into_iter().map(|ep| {
            let halves = scheds.iter().map(|s| Halves::of(s, ep.pe)).collect();
            Seat { ep, halves }
        });
        let seat0 = seats.next().expect("a machine has at least one PE");
        let (ack_tx, acks) = channel();
        let workers = seats
            .map(|seat| {
                let (job_tx, jobs) = channel();
                let ack_tx = ack_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("hpf-pe-{}", seat.ep.pe))
                    .spawn(move || worker_main(seat, jobs, ack_tx))
                    .expect("spawn a PE worker thread");
                (job_tx, handle)
            })
            .collect();
        Pool { seat0, workers, acks, poisoned: None }
    }

    /// Message buffers this pool's free lists have had to make so far.
    pub(crate) fn buffers_made(&self) -> usize {
        self.seat0.ep.made.load(Ordering::Relaxed)
    }

    /// Run one step: `pes[0]` on the calling thread, every other PE on
    /// its worker. Panics, naming the PE, if any PE's step panicked — and
    /// at once on every later call.
    pub(crate) fn step(&mut self, pes: &mut [PeState], ctx: &StepCtx<'_>) {
        if let Some(msg) = &self.poisoned {
            panic!("{msg}");
        }
        let (first, rest) = pes.split_first_mut().expect("a machine has at least one PE");
        assert_eq!(rest.len(), self.workers.len(), "the pool was started for another PE count");
        let mut owed = Owed { acks: &self.acks, n: 0, spin: self.seat0.ep.spin };
        for ((jobs, _), state) in self.workers.iter().zip(rest) {
            // SAFETY: only lifetimes change. `state` and `ctx` outlive
            // this call, and the worker is done with both before it
            // acknowledges (`worker_main`: the ack is sent after
            // `Seat::run` returned, which catches every unwind). This
            // call neither returns nor unwinds before one ack per job
            // sent has arrived: the loop below takes them on the normal
            // path, `Owed::drop` on every other.
            let job = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(Job { state, ctx }) };
            jobs.send(job).expect("a worker exits only when the pool drops");
            owed.n += 1;
        }
        let mine = self.seat0.run(first, ctx);
        let mut panicked = None;
        let mut seq = None;
        for (pe, outcome) in std::iter::once((0, mine)).chain(std::iter::from_fn(|| owed.next())) {
            match outcome {
                Ok(s) => debug_assert!(
                    seq.replace(s).is_none_or(|prev| prev == s),
                    "PE {pe} ended the step at sequence number {s}, a peer elsewhere"
                ),
                Err(Failure::Panicked(msg)) => {
                    panicked.get_or_insert(format!("PE {pe} panicked during a step: {msg}"));
                }
                Err(Failure::Abandoned) => {}
            }
        }
        if let Some(msg) = panicked {
            self.poisoned = Some(msg.clone());
            panic!("{msg}");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for (jobs, handle) in self.workers.drain(..) {
            drop(jobs);
            // A worker catches its step's panics and has nothing else to
            // fail with; a drop must not panic either way.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::{ArrayDecl, ArrayId, Distribution, Shape, ShiftKind};
    use hpf_runtime::schedule::{overlap_shift_plan, CommAction, Transfer};
    use hpf_runtime::{Machine, MachineConfig, MoveKind};

    const U: ArrayId = ArrayId(0);

    /// The cells of a local region of `sub`, packed.
    fn region(sub: &hpf_runtime::Subgrid, ranges: &[(i64, i64)]) -> Vec<f64> {
        let mut out = Vec::new();
        sub.region_box(ranges).pack(sub.raw(), &mut out);
        out
    }

    #[test]
    fn stash_applies_permuted_deliveries_in_plan_order() {
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        let recv = |from: usize, dst_local: Vec<(i64, i64)>| {
            let dst_local = dst_local.into();
            CommAction::Transfer(Transfer {
                src_pe: from,
                dst_pe: 0,
                src_local: dst_local,
                dst_local,
            })
        };
        // Op 0: PE 0 receives its right ghost column from PE 1, then its
        // bottom ghost row from PE 2, in that plan order.
        let plan0 = vec![recv(1, vec![(1, 4), (5, 5)]), recv(2, vec![(5, 5), (1, 4)])];
        // Op 1: PE 0 receives its top ghost row from PE 1.
        let plan1 = vec![recv(1, vec![(0, 0), (1, 4)])];
        let scheds = [
            m.compile_comm(U, U, plan0, MoveKind::Overlap),
            m.compile_comm(U, U, plan1, MoveKind::Overlap),
        ];
        let mut ep = Endpoint::fabric(1, false).remove(0);
        // Deliver everything out of order: op 0's PE-2 message first, then
        // a message for the *later* op 1, then op 0's PE-1 message.
        let buf_a = vec![1.0, 2.0, 3.0, 4.0];
        let buf_b = vec![5.0, 6.0, 7.0, 8.0];
        let buf_c = vec![9.0, 10.0, 11.0, 12.0];
        for (seq, from, buf) in [(0, 2, &buf_b), (1, 1, &buf_c), (0, 1, &buf_a)] {
            ep.txs[0].send(Msg::Data { seq, from, buf: buf.clone() }).unwrap();
        }
        // Closing the channel makes any recv beyond the injected messages
        // fail loudly instead of hanging the test; the senders spent
        // buffers go home to are not there either.
        ep.txs.clear();
        ep.homes = (0..3).map(|_| channel().0).collect();
        let halves: Vec<Halves> = scheds.iter().map(|s| Halves::of(s, 0)).collect();
        let ctx = StepCtx { items: &[], scheds: &scheds };
        let mut w = Worker { state: &mut m.pes[0], ctx: &ctx, ep: &mut ep, halves: &halves };
        w.comm_finish(0, 0);
        // (seq, sender) matching applied each buffer to its own plan entry
        // and stashed the future-op message.
        assert!(w.ep.stash.contains_key(&(1, 1)), "future-op message stashed");
        assert_eq!(w.ep.stash.len(), 1);
        assert_eq!(region(w.state.subgrid(U), &[(1, 4), (5, 5)]), buf_a);
        assert_eq!(region(w.state.subgrid(U), &[(5, 5), (1, 4)]), buf_b);
        // Op 1 drains from the stash without touching the closed channel.
        w.comm_finish(1, 1);
        assert!(w.ep.stash.is_empty());
        assert_eq!(region(w.state.subgrid(U), &[(0, 0), (1, 4)]), buf_c);
    }

    #[test]
    fn a_self_overwriting_local_is_staged_through_the_free_list() {
        let mut m = Machine::new(MachineConfig::grid([1, 1]));
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(U, |p| (p[0] * 10 + p[1]) as f64);
        // Rows 1..=3 onto rows 2..=4 of the same array: run by run it would
        // read row 2 after writing it.
        let (from, to) = (vec![(1, 3), (1, 8)], vec![(2, 4), (1, 8)]);
        let mut want = m.pes[0].subgrid(U).clone();
        let moved = region(&want, &from);
        want.region_box(&to).unpack(want.raw_mut(), &moved);
        let plan = vec![CommAction::Transfer(Transfer {
            src_pe: 0,
            dst_pe: 0,
            src_local: from.into(),
            dst_local: to.into(),
        })];
        let scheds = [m.compile_comm(U, U, plan, MoveKind::Overlap)];
        assert!(!scheds[0].transfers[0].direct);
        let mut ep = Endpoint::fabric(1, false).remove(0);
        let halves = [Halves::of(&scheds[0], 0)];
        let ctx = StepCtx { items: &[], scheds: &scheds };
        let mut w = Worker { state: &mut m.pes[0], ctx: &ctx, ep: &mut ep, halves: &halves };
        w.comm_post(0);
        assert_eq!(*w.state.subgrid(U), want);
        // The buffer went home; the next post takes it back and makes none.
        w.comm_post(0);
        assert_eq!(w.ep.made.load(Ordering::Relaxed), 1);
    }

    /// An 8x8 array over 2x1 PEs and the two halo exchanges along the
    /// distributed dimension — small enough for Miri, which CI runs over
    /// the `miri_` tests: they are what exercises the job hand-off's
    /// erased lifetimes.
    fn two_pes() -> (Machine, Vec<CompiledComm>, Vec<PlanItem>) {
        let mut m = Machine::new(MachineConfig::grid([2, 1]));
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(U, |p| (p[0] * 10 + p[1]) as f64);
        let geom = m.meta(U).geom;
        let scheds: Vec<CompiledComm> = [1, -1]
            .into_iter()
            .map(|s| {
                let plan = overlap_shift_plan(&geom, s, 0, None, ShiftKind::Circular, 1).unwrap();
                m.compile_comm(U, U, plan, MoveKind::Overlap)
            })
            .collect();
        (m, scheds, vec![PlanItem::Comm(0), PlanItem::Comm(1)])
    }

    fn step(pool: &mut Pool, m: &mut Machine, scheds: &[CompiledComm], items: &[PlanItem]) {
        let ctx = StepCtx { items, scheds };
        pool.step(&mut m.pes, &ctx);
    }

    #[test]
    fn miri_pool_steps_three_times_and_joins() {
        let (mut m, scheds, items) = two_pes();
        let mut pool = Pool::start(2, &scheds);
        for _ in 0..3 {
            step(&mut pool, &mut m, &scheds, &items);
        }
        drop(pool);
        // PE 0 owns rows 1..=4: its high ghost row is global row 5, its
        // low one wraps to row 8. PE 1's are row 4 and, wrapping, row 1.
        let (sub0, sub1) = (m.pes[0].subgrid(U), m.pes[1].subgrid(U));
        for j in 1..=8i64 {
            assert_eq!(sub0.get(&[5, j]), (50 + j) as f64);
            assert_eq!(sub0.get(&[0, j]), (80 + j) as f64);
            assert_eq!(sub1.get(&[0, j]), (40 + j) as f64);
            assert_eq!(sub1.get(&[5, j]), (10 + j) as f64);
        }
    }

    #[test]
    fn miri_worker_panic_poisons_the_pool() {
        let (mut m, scheds, items) = two_pes();
        // PE 1 has lost the array: its worker panics in the first post
        // while PE 0 waits for its message.
        m.pes[1].subgrids[0] = None;
        let mut pool = Pool::start(2, &scheds);
        for _ in 0..2 {
            let err = catch_unwind(AssertUnwindSafe(|| step(&mut pool, &mut m, &scheds, &items)))
                .unwrap_err();
            let msg = panic_message(err.as_ref());
            assert!(msg.starts_with("PE 1 panicked during a step"), "{msg}");
        }
        drop(pool);
    }
}
