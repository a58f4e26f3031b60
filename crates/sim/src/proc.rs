//! The per-rank handle rank programs are written against.
//!
//! A `SimProc` is what a rank closure receives: its identity, the
//! machine topology, and the virtual-time operations. Higher-level
//! communication APIs (ARMCI-style RMA, MPI-style messaging) are built
//! on these primitives in `srumma-comm`.

use crate::kernel::{Kernel, Msg, SimConfig, TransferId, TransferSpec};
use srumma_model::Topology;
use std::sync::Arc;

/// Handle to the simulation for one rank. Cheap to clone within the
/// rank's thread; do not share across rank threads. Calls that return
/// nothing post their operation and return at once; calls that return
/// a value wait for the kernel (see [`crate::kernel`]) — and panic on a
/// polled rank ([`crate::runner::PolledSim`]), which nothing could wake.
#[derive(Clone)]
pub struct SimProc {
    kernel: Arc<Kernel>,
    rank: usize,
}

impl SimProc {
    pub(crate) fn new(kernel: Arc<Kernel>, rank: usize) -> Self {
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

    /// Current virtual time (seconds). Waits until the kernel has
    /// applied every operation this rank posted before.
    pub fn now(&self) -> f64 {
        self.kernel.now(self.rank)
    }

    /// Charge `dt` seconds of non-compute CPU work (protocol handling,
    /// packing, etc.).
    pub fn advance(&self, dt: f64) {
        self.kernel.advance(self.rank, dt, false, "");
    }

    /// Charge `dt` seconds of *computation* (counted in the statistics
    /// and traced with `label`).
    pub fn charge_compute(&self, dt: f64, label: &str) {
        self.kernel.advance(self.rank, dt, true, label);
    }

    /// Issue a data movement described by `spec`; returns immediately
    /// (in virtual time, after the initiator-busy portion).
    pub fn issue_transfer(&self, spec: TransferSpec) -> TransferId {
        self.kernel.issue_transfer(self.rank, spec)
    }

    /// Advance the clock to the transfer's completion.
    pub fn wait_transfer(&self, id: TransferId) {
        self.kernel.wait_transfer(self.rank, id);
    }

    /// Deposit a message for `dst` that is available when this rank's
    /// transfer `id` completes (`msg.avail_at` is ignored). Returns at
    /// once.
    pub fn post_msg_after(&self, id: TransferId, dst: usize, tag: u64, msg: Msg) {
        self.kernel.post_msg_after(self.rank, id, dst, tag, msg);
    }

    /// Receive the next message from `src` with `tag` (blocking until
    /// the kernel applies the receive in its turn).
    pub fn recv_msg(&self, src: usize, tag: u64) -> Msg {
        self.kernel.recv_msg(self.rank, src, tag)
    }

    /// Two-party rendezvous; returns the pairing time.
    pub fn pair_sync(&self, key: u64) -> f64 {
        self.kernel.pair_sync(self.rank, key)
    }

    /// Full barrier across all ranks.
    pub fn barrier(&self) {
        self.kernel.barrier(self.rank);
    }

    /// Whether this rank is stepped by a polled host, so may not block.
    pub fn is_polled(&self) -> bool {
        self.kernel.is_polled()
    }

    /// Arrive at the barrier without waiting.
    pub fn barrier_post(&self) {
        self.kernel.barrier_post(self.rank);
    }

    /// Whether the barrier arrived at with [`SimProc::barrier_post`] has
    /// released this rank (`true` consumes the release).
    pub fn barrier_test(&self) -> bool {
        self.kernel.barrier_test(self.rank)
    }
}
