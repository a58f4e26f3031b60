//! The per-rank handle rank programs are written against.
//!
//! A `SimProc` is what a rank program steps against: its identity, the
//! machine topology, and the virtual-time operations, each posted to the
//! rank's queue in the kernel (see [`crate::kernel`]). Higher-level
//! communication APIs (ARMCI-style RMA, MPI-style messaging) are built
//! on these primitives in `srumma-comm`.

use crate::kernel::{Kernel, Msg, Op, Reply, SimConfig, Status, TransferId, TransferSpec};
use srumma_model::Topology;
use std::rc::Rc;

/// Handle to the simulation for one rank, on the host thread that steps
/// it ([`crate::runner::PolledSim`]). Every operation posts and returns
/// at once; what comes back from the kernel is read at the top of the
/// rank's next step.
#[derive(Clone)]
pub struct SimProc {
    kernel: Rc<Kernel>,
    rank: usize,
}

impl SimProc {
    pub(crate) fn new(kernel: Rc<Kernel>, rank: usize) -> Self {
        SimProc { kernel, rank }
    }

    /// This rank's id, `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.kernel.nranks()
    }

    /// Rank→node placement.
    pub fn topology(&self) -> Topology {
        self.kernel.config().topology
    }

    /// Kernel configuration.
    pub fn config(&self) -> &SimConfig {
        self.kernel.config()
    }

    fn post(&self, op: Op) {
        self.kernel.post(self.rank, op);
    }

    /// Current virtual time (seconds), read at the top of a step: the
    /// queue must be empty, or the clock would not yet include what the
    /// rank posted. Panics otherwise.
    pub fn now(&self) -> f64 {
        let st = self.kernel.lock();
        let (rank, r) = (self.rank, &st.ranks[self.rank]);
        assert!(
            r.queue.is_empty() && r.status == Status::Active,
            "rank {rank}: a simulated rank reads `now` only at the top of a step, \
             before it posts an operation; a span takes its ends from posted marks \
             (`Comm::task_begin`)"
        );
        r.clock
    }

    /// Charge `dt` seconds of non-compute CPU work (protocol handling,
    /// packing, etc.).
    pub fn advance(&self, dt: f64) {
        self.charge(dt, false, "");
    }

    /// Charge `dt` seconds of *computation* (counted in the statistics
    /// and traced with `label`).
    pub fn charge_compute(&self, dt: f64, label: &str) {
        self.charge(dt, true, label);
    }

    /// CPU work that respects CPU time stolen by remote non-zero-copy
    /// operations; the label is kept only when the run is traced.
    fn charge(&self, dt: f64, compute: bool, label: &str) {
        let rank = self.rank;
        assert!(
            dt >= 0.0 && dt.is_finite(),
            "rank {rank}: bad advance dt={dt}"
        );
        let label = (self.config().trace && compute && dt > 0.0).then(|| label.to_string());
        self.post(Op::Advance { dt, compute, label });
    }

    /// Issue a data movement described by `spec`; returns at once. Its
    /// completion time is fixed when the kernel applies the issue, and
    /// [`SimProc::wait_transfer`] advances the clock to it.
    pub fn issue_transfer(&self, spec: TransferSpec) -> TransferId {
        let (rank, n) = (self.rank, self.nranks());
        assert!(
            spec.src_rank < n && spec.dst_rank < n,
            "rank {rank}: transfer {} -> {} outside {n} ranks",
            spec.src_rank,
            spec.dst_rank
        );
        let c = &spec.cost;
        let parts = [c.latency, c.initiator_cpu, c.remote_cpu, c.wire, c.membw];
        assert!(
            parts.iter().all(|t| t.is_finite() && *t >= 0.0) && c.async_fraction.is_finite(),
            "rank {rank}: bad transfer cost {c:?}"
        );
        let mut st = self.kernel.post(rank, Op::Issue(spec));
        let r = &mut st.ranks[rank];
        r.issued += 1;
        TransferId(r.issued - 1)
    }

    /// Advance the clock to the transfer's completion, accounting the
    /// wait.
    pub fn wait_transfer(&self, id: TransferId) {
        self.post(Op::Wait(id));
    }

    /// Deposit a message for `dst` that is available when this rank's
    /// transfer `id` completes (`msg.avail_at` is ignored).
    pub fn post_msg_after(&self, id: TransferId, dst: usize, tag: u64, msg: Msg) {
        let after = id;
        self.post(Op::Post {
            dst,
            tag,
            msg,
            after,
        });
    }

    /// Two-party rendezvous with whichever rank posts the same `key`:
    /// both clocks advance to the later arrival.
    pub fn pair(&self, key: u64) {
        self.post(Op::Pair(key));
    }

    /// Post a receive from `src` with `tag`: the rank is blocked from when
    /// the kernel applies it until a message is there. Take the message
    /// with [`SimProc::recv_take`] when the host steps the rank again.
    pub fn recv_post(&self, src: usize, tag: u64) {
        self.post(Op::Recv { src, tag });
    }

    /// The message of the receive posted with [`SimProc::recv_post`].
    pub fn recv_take(&self) -> Msg {
        match self.kernel.lock().ranks[self.rank].reply.take() {
            Some(Reply::Msg(msg)) => msg,
            _ => panic!("rank {}: a receive taken before it was applied", self.rank),
        }
    }

    /// Arrive at the full barrier across all ranks, which releases
    /// everyone at `max(arrival clocks) + barrier_latency`.
    pub fn barrier_post(&self) {
        self.post(Op::Barrier);
    }

    /// Whether the barrier arrived at with [`SimProc::barrier_post`] has
    /// released this rank (`true` consumes the release).
    pub fn barrier_test(&self) -> bool {
        match self.kernel.lock().ranks[self.rank].reply.take() {
            Some(Reply::Unit) => true,
            Some(_) => unreachable!("a barrier replies with nothing"),
            None => false,
        }
    }

    /// Post a zero-cost mark; returns its index. The kernel stamps it
    /// with this rank's clock when it applies it ([`SimProc::mark_time`]).
    pub fn mark(&self) -> usize {
        let mut st = self.kernel.post(self.rank, Op::Mark);
        let r = &mut st.ranks[self.rank];
        r.marked += 1;
        r.marked - 1
    }

    /// The clock mark `i` was stamped with; the mark must have been
    /// applied (every mark has, once the run is over).
    pub fn mark_time(&self, i: usize) -> f64 {
        self.kernel.lock().ranks[self.rank].marks[i]
    }
}
