//! The backend-independent communication interface.
//!
//! Every parallel algorithm in `srumma-core` (SRUMMA itself, Cannon,
//! SUMMA/pdgemm) is written once against this trait and runs unchanged
//! under the virtual-time simulator ([`crate::simbackend::SimComm`]) or
//! on real host threads ([`crate::threadbackend::ThreadComm`]).
//!
//! The surface deliberately mirrors what the paper's implementation
//! used from ARMCI and MPI:
//!
//! * **one-sided**: nonblocking block get (`nbget`/`wait`), the
//!   locality query (`same_domain`, `prefer_direct_access`);
//! * **two-sided**: `send`/`recv`/`sendrecv` for the message-passing
//!   baselines;
//! * **compute**: `gemm` charges the serial-kernel time (and executes
//!   it when real data is present), because on the simulated machines
//!   compute cost comes from the machine model, not the host.

use crate::dist::DistMatrix;
use srumma_dense::{GemmConfig, MatMut, MatRef, Op};
use srumma_model::Topology;
use srumma_trace::Recorder;

/// Completion handle for a nonblocking get.
#[derive(Debug)]
pub enum GetHandle {
    /// Operation already complete (thread backend, or intra-domain
    /// blocking copies).
    Ready,
    /// Pending simulated transfer.
    Sim(srumma_sim::TransferId),
    /// Pending transfer on the per-rank virtual-clock backend
    /// ([`crate::virt::VirtualComm`]); the index keys its internal
    /// completion-time table.
    Virt(usize),
}

/// A fetched (or directly accessible) operand block: dimensions always,
/// element data only when the run carries real matrices.
#[derive(Clone, Copy)]
pub struct BlockRef<'a> {
    /// Block rows.
    pub rows: usize,
    /// Block cols.
    pub cols: usize,
    /// Dense row-major view, if real.
    pub data: Option<MatRef<'a>>,
}

impl<'a> BlockRef<'a> {
    /// View over a fetch buffer filled by `nbget` (empty buffer ⇒
    /// virtual).
    pub fn from_buffer(buf: &'a [f64], rows: usize, cols: usize) -> Self {
        if buf.is_empty() {
            BlockRef {
                rows,
                cols,
                data: None,
            }
        } else {
            BlockRef {
                rows,
                cols,
                data: Some(MatRef::new(rows, cols, cols, buf)),
            }
        }
    }
}

/// The C block being accumulated into (owner-computes).
pub struct BlockMut<'a> {
    /// Block rows.
    pub rows: usize,
    /// Block cols.
    pub cols: usize,
    /// Mutable dense view, if real.
    pub data: Option<MatMut<'a>>,
}

/// Backend-independent rank communicator.
pub trait Comm {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Total ranks.
    fn nranks(&self) -> usize;

    /// Rank→node placement.
    fn topology(&self) -> Topology;

    /// Whether `other` shares this rank's shared-memory domain.
    fn same_domain(&self, other: usize) -> bool {
        self.topology().same_domain(self.rank(), other)
    }

    /// Whether `owner`'s block should be passed *directly* to the
    /// serial kernel (cacheable shared memory — the Altix flavor)
    /// rather than copied first.
    fn prefer_direct_access(&self, owner: usize) -> bool;

    /// Current time (virtual seconds under simulation, wall seconds on
    /// the thread backend).
    fn now(&self) -> f64;

    /// This rank's trace recorder. One implementation serves every
    /// backend: the algorithm layer records task-level spans (against
    /// [`Comm::now`], so the same instrumentation yields virtual times
    /// under the simulator and wall times on threads) and bumps the
    /// always-on fetch/direct/task counters through this handle.
    /// Recording spans is a no-op (one branch, label unevaluated) when
    /// the run was started without tracing.
    fn recorder(&mut self) -> &mut Recorder;

    /// Full barrier.
    fn barrier(&mut self);

    /// How many times this rank's reusable gemm packing workspace has
    /// grown (0 on backends without one). Buffer demand depends only on
    /// the kernel's cache block sizes, so a healthy rank grows at most
    /// once — the batched driver asserts this holds across *whole
    /// batches*, not just single multiplies.
    fn ws_grow_count(&self) -> u64 {
        0
    }

    /// Reconfigure this rank's serial-kernel workspace (micro-kernel,
    /// cache blocks). Idempotent: a config equal to the one already in
    /// effect must keep the existing workspace (and its buffers)
    /// untouched, so repeated machine
    /// setups preserve the grow-at-most-once guarantee tracked by
    /// [`Comm::ws_grow_count`]. Backends without a real workspace
    /// (modeled compute) may ignore it.
    fn configure_gemm(&mut self, _cfg: &GemmConfig) {}

    /// Back a prefetch-pipeline slot's fetch buffer for one multiply:
    /// a backend that pools buffers swaps a free one (capacity kept,
    /// contents unspecified) into `buf`. It then stays with the rank —
    /// fetched panels are live between polls — until
    /// [`Comm::return_buf`]. The default leaves `buf` alone: where
    /// every rank owns a thread there is nothing to share, and the
    /// rank simply keeps its buffers.
    fn lease_buf(&mut self, _buf: &mut Vec<f64>) {}

    /// Hand a leased buffer back at the end of the multiply, to
    /// whichever thread runs this rank now.
    fn return_buf(&mut self, _buf: &mut Vec<f64>) {}

    /// Nonblocking one-sided fetch of `owner`'s block of `mat` into
    /// `buf` (cleared/filled as appropriate). The *data* lands
    /// immediately (operands are immutable during an operation, so
    /// eager copying is indistinguishable); the returned handle carries
    /// the *timing*.
    fn nbget(&mut self, mat: &DistMatrix, owner: usize, buf: &mut Vec<f64>) -> GetHandle;

    /// Block until a nonblocking get completes (in model time).
    fn wait(&mut self, h: GetHandle);

    /// Blocking get.
    fn get(&mut self, mat: &DistMatrix, owner: usize, buf: &mut Vec<f64>) {
        let h = self.nbget(mat, owner, buf);
        self.wait(h);
    }

    /// Nonblocking one-sided **put**: overwrite `owner`'s block of
    /// `mat` with `data` (which must hold the whole block row-major, or
    /// be empty in modeled runs). Data lands immediately; the handle
    /// carries the timing. The caller is responsible for the ARMCI
    /// access discipline (no concurrent access to the target block).
    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle;

    /// Blocking put.
    fn put(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) {
        let h = self.nbput(mat, owner, data);
        self.wait(h);
    }

    /// One-sided **accumulate**: `owner`'s block += `scale · data`
    /// (ARMCI_Acc). Blocking; the target-side addition costs the
    /// owner's CPU in the model, exactly like LAPI/ARMCI accumulate
    /// handlers did.
    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: &[f64]);

    /// `ARMCI_Fence`-style completion: block until every one-sided
    /// operation this rank has issued is complete at its target. (The
    /// thread backend completes operations eagerly, so this is a no-op
    /// there; under the simulator it advances the clock past all
    /// outstanding transfers.)
    fn fence(&mut self);

    /// Charge (and, when data is present, execute) a serial block
    /// dgemm `C += α·op(A)·op(B)` of logical shape `m × n × k`.
    /// `direct` marks operands read in place from shared memory, which
    /// on non-cacheable machines (Cray X1) runs far below the copied
    /// kernel's rate.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &mut self,
        ta: Op,
        tb: Op,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: Option<MatRef<'_>>,
        b: Option<MatRef<'_>>,
        c: Option<MatMut<'_>>,
        direct: bool,
        label: &str,
    );

    /// Blocking tagged send of `bytes` logical bytes (payload `data`
    /// may be empty in modeled runs).
    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64);

    /// Blocking tagged receive into `buf` (cleared/filled); `bytes` is
    /// the expected logical size (drives the eager/rendezvous choice).
    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64);

    /// Deadlock-free simultaneous exchange (the `MPI_Sendrecv` of the
    /// baselines' shift steps): send to `dst` while receiving from
    /// `src`.
    #[allow(clippy::too_many_arguments)]
    fn sendrecv(
        &mut self,
        dst: usize,
        tag: u64,
        send_data: &[f64],
        send_bytes: u64,
        src: usize,
        recv_buf: &mut Vec<f64>,
        recv_bytes: u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ref_from_real_buffer() {
        let buf = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = BlockRef::from_buffer(&buf, 2, 3);
        assert_eq!(b.rows, 2);
        assert_eq!(b.cols, 3);
        let m = b.data.unwrap();
        assert_eq!(m.at(1, 2), 6.0);
    }

    #[test]
    fn block_ref_from_empty_buffer_is_virtual() {
        let buf: Vec<f64> = vec![];
        let b = BlockRef::from_buffer(&buf, 100, 200);
        assert_eq!(b.rows, 100);
        assert!(b.data.is_none());
    }
}
