//! The backend-independent communication interface.
//!
//! Every parallel algorithm in `srumma-core` (SRUMMA itself, Cannon,
//! SUMMA/pdgemm) is written once against this trait and runs unchanged
//! on all three backends: the discrete-event simulator
//! ([`crate::simbackend::SimComm`]), per-rank virtual clocks
//! ([`crate::virt::VirtualComm`]) and the host's executor
//! ([`crate::exec::ExecComm`], polled or blocking) — bare or behind the
//! [`crate::subcomm::SubComm`] decorator.
//!
//! The surface deliberately mirrors what the paper's implementation
//! used from ARMCI and MPI:
//!
//! * **one-sided**: nonblocking block get (`nbget`/`wait`) — one
//!   method, whose [`Landing`] says whether the block arrives as a
//!   row-major matrix or already packed for the serial kernel, so every
//!   backend keeps one body for its counters, cost model and trace span
//!   and a decorator has one method to forward — and the locality query
//!   (`same_domain`, `prefer_direct_access`);
//! * **two-sided**: `send`/`recv`/`sendrecv` for the message-passing
//!   baselines;
//! * **compute**: `gemm` charges the serial-kernel time (and executes
//!   it when real data is present, each factor a stored matrix or a
//!   fetched panel — [`Operand`]), because on the simulated machines
//!   compute cost comes from the machine model, not the host;
//! * **synchronisation**: `barrier`, and its split form `barrier_try`
//!   (the `MPI_Ibarrier` / `MPI_Test` pair in one call).
//!
//! # Split calls, and programs written over them
//!
//! A rank that must not block its thread (thousands of ranks polled on
//! a few executor workers, every simulated rank stepped on one host
//! thread) reaches the barrier and its receives in split form
//! ([`Comm::barrier_try`], [`Comm::recv_try`], [`Comm::sendrecv_try`]):
//! a `false` call has registered the rank as a waiter — yield the thread
//! and call again when stepped. The trait's defaults make that protocol
//! correct on every backend whose calls simply block: **the first call
//! does it all and returns `true`**. `SimComm` splits all three,
//! `ExecComm` the barrier of its polled ranks, and `SubComm` forwards.
//!
//! That is what lets a schedule be written once: a [`RankProgram`] is a
//! resumable state machine whose `step` takes whatever communicator
//! hosts it. The executor polls it ([`crate::exec::ProgramTask`]), the
//! simulator steps it in virtual-time order
//! ([`crate::simbackend::sim_run_programs`]); everywhere else [`drive`]
//! loops it to completion, and it never parks because the calls never
//! fail.

use crate::dist::{DistMatrix, Landing};
use srumma_dense::{MatMut, MatRef, Operand, PackedPanel};
use srumma_model::protocol::Served;
use srumma_model::Topology;
use srumma_trace::{Recorder, TraceKind};

/// Completion handle for a nonblocking get.
#[derive(Debug)]
pub enum GetHandle {
    /// Operation already complete (thread backend, or intra-domain
    /// blocking copies).
    Ready,
    /// Pending simulated transfer.
    Sim(srumma_sim::TransferId),
    /// Pending transfer on the per-rank virtual-clock backend
    /// ([`crate::virt::VirtualComm`]): the virtual time it completes.
    Virt(f64),
}

/// Where a traced task span began ([`Comm::task_begin`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskSpan {
    /// At this time, read off the rank's clock.
    At(f64),
    /// At the clock the kernel stamps on the simulated rank's mark
    /// number `.0` when it applies it.
    Mark(usize),
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

    /// The full barrier in split form: arrives on the first call, then
    /// tests that arrival; call again after every [`Step::Park`] until
    /// it returns `true` — on `false` this rank has been registered as
    /// a waiter. Where waiting blocks the thread anyway there is nothing
    /// to split: the default blocks in [`Comm::barrier`].
    fn barrier_try(&mut self) -> bool {
        self.barrier();
        true
    }

    /// Open a traced task span here; `None` when the run is untraced.
    /// Close it with [`Comm::task_end`]. The default reads
    /// [`Comm::now`]; a simulated rank, whose clock is known only once
    /// the kernel has applied what it posted, posts a mark instead.
    fn task_begin(&mut self) -> Option<TaskSpan> {
        if !self.recorder().is_enabled() {
            return None;
        }
        Some(TaskSpan::At(self.now()))
    }

    /// Close `span` (from [`Comm::task_begin`]) here: record it as a
    /// [`TraceKind::Task`] event labelled `label`, which is evaluated
    /// only when there is a span.
    fn task_end(&mut self, span: Option<TaskSpan>, label: impl FnOnce() -> String) {
        match span {
            None => {}
            Some(TaskSpan::At(t0)) => {
                let t1 = self.now();
                self.recorder().span(TraceKind::Task, t0, t1, 0, label);
            }
            Some(TaskSpan::Mark(_)) => unreachable!("only a simulated rank posts marks"),
        }
    }

    /// How many times this rank's reusable gemm packing workspace has
    /// grown (0 on backends without one). Buffer demand depends only on
    /// the kernel's cache block sizes, so a healthy rank grows at most
    /// once — the batched driver asserts this holds across *whole
    /// batches*, not just single multiplies.
    fn ws_grow_count(&self) -> u64 {
        0
    }

    /// Back a prefetch-pipeline slot's panel for one multiply: a backend
    /// that pools panels swaps a free one (capacity kept, contents
    /// unspecified) into `panel`. It then stays with the rank — fetched
    /// panels are live between polls — until [`Comm::return_buf`]. The
    /// default leaves `panel` alone: where every rank owns a thread
    /// there is nothing to share, and the rank simply keeps its panels.
    fn lease_buf(&mut self, _panel: &mut PackedPanel) {}

    /// Hand a leased panel back at the end of the multiply, to
    /// whichever thread runs this rank now.
    fn return_buf(&mut self, _panel: &mut PackedPanel) {}

    /// Nonblocking one-sided fetch of `owner`'s block of `mat` to where
    /// `into` says ([`DistMatrix::land_block`]): row-major for a caller
    /// that forwards or inspects the block, or already packed for the
    /// serial kernel — the same get either way, with the same bytes,
    /// counters and cost. The *data* lands immediately (operands are
    /// immutable during an operation, so eager copying is
    /// indistinguishable); the returned handle carries the *timing*.
    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle;

    /// Block until a nonblocking get completes (in model time).
    fn wait(&mut self, h: GetHandle);

    /// Blocking get of the block as a row-major matrix in `buf`.
    fn get(&mut self, mat: &DistMatrix, owner: usize, buf: &mut Vec<f64>) {
        let h = self.nbget(mat, owner, Landing::Rows(buf));
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
    /// (ARMCI_Acc). `data` is shaped like the block, at any leading
    /// dimension — a block of another distributed matrix is passed where
    /// it lies — or `None` in modeled runs. Blocking; the target-side
    /// addition costs the owner's CPU in the model, exactly like
    /// LAPI/ARMCI accumulate handlers did.
    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>);

    /// `ARMCI_Fence`-style completion: block until every one-sided
    /// operation this rank has issued is complete at its target. (The
    /// thread backend completes operations eagerly, so this is a no-op
    /// there; under the simulator it advances the clock past all
    /// outstanding transfers.)
    fn fence(&mut self);

    /// Charge (and, when data is present, execute) a serial block
    /// dgemm `C ← α·op(A)·op(B) + β·C` of logical shape `m × n × k`,
    /// `β` ∈ {0, 1}: at 1 the product accumulates into C; at 0 C need
    /// not be set on input and is only written (BLAS), provided `k > 0`
    /// — a zero-depth call may leave C as it was. Each factor is a
    /// stored matrix with its transpose flag or a fetched panel already
    /// in sliver order ([`Operand`]); the time charged depends on `m`,
    /// `n`, `k` and `direct` only, whatever `β`. `direct` marks operands
    /// read in place from shared memory, which on non-cacheable machines
    /// (Cray X1) runs far below the copied kernel's rate.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: Option<Operand<'_>>,
        b: Option<Operand<'_>>,
        beta: f64,
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

    /// [`Comm::recv`] in split form, shaped like [`Comm::barrier_try`]:
    /// a call that cannot complete posts the receive and returns
    /// `false` — return [`Step::Park`] and call again, with the same
    /// arguments, when the rank is stepped next; a call that completes
    /// fills `buf` and returns `true`. The default blocks in
    /// [`Comm::recv`].
    fn recv_try(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) -> bool {
        self.recv(src, tag, buf, bytes);
        true
    }

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

    /// [`Comm::sendrecv`] in split form, as [`Comm::recv_try`] splits
    /// `recv`: the first call sends; `false` means the receive is posted
    /// and the call must be repeated, same arguments, on the next step.
    /// The default blocks in [`Comm::sendrecv`].
    #[allow(clippy::too_many_arguments)]
    fn sendrecv_try(
        &mut self,
        dst: usize,
        tag: u64,
        send_data: &[f64],
        send_bytes: u64,
        src: usize,
        recv_buf: &mut Vec<f64>,
        recv_bytes: u64,
    ) -> bool {
        self.sendrecv(dst, tag, send_data, send_bytes, src, recv_buf, recv_bytes);
        true
    }
}

/// Count a one-sided transfer's `bytes` against the level of the
/// hierarchy that served it — every backend's one classification.
pub(crate) fn count_served(recorder: &mut Recorder, served: Served, bytes: u64) {
    match served {
        Served::Own => {}
        Served::Domain => recorder.count_intragroup(bytes),
        Served::Network => recorder.count_internode(bytes),
    }
}

/// What one `step` of a resumable rank reports back to its host.
pub enum Step<T> {
    /// The rank finished; `T` is its output.
    Done(T),
    /// More work immediately available: step again (on the executor the
    /// worker that ran it runs it again next).
    Yield,
    /// Blocked on a barrier or a message this rank has already registered
    /// as a waiter for; the matching wake-up makes it runnable again.
    Park,
}

/// One rank's share of a collective schedule as a resumable state
/// machine over whatever communicator hosts it. Written once; polled on
/// the executor's workers ([`crate::exec::ProgramTask`]), stepped by the
/// simulator's polled host ([`crate::simbackend::sim_run_programs`]), or
/// looped to completion by [`drive`] on a thread of its own.
pub trait RankProgram {
    /// The rank's output.
    type Out;

    /// Advance until done, a natural yield point, or a barrier test
    /// that failed.
    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<Self::Out>;
}

/// A borrowed program steps the one it borrows: [`drive`] it and keep
/// the program, for what it leaves behind.
impl<P: RankProgram> RankProgram for &mut P {
    type Out = P::Out;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<P::Out> {
        (**self).step(comm)
    }
}

/// Run `program` to completion on a communicator whose barrier blocks —
/// the simulator, the virtual clocks, or a *blocking* executor rank.
/// Such a communicator never fails a barrier test, so a [`Step::Park`]
/// here is a bug in the program (it parked on something no one will
/// wake it for) and panics rather than spin.
pub fn drive<C: Comm, P: RankProgram>(comm: &mut C, mut program: P) -> P::Out {
    loop {
        match program.step(comm) {
            Step::Done(out) => return out,
            Step::Yield => {}
            Step::Park => panic!(
                "a rank program parked on a communicator whose fences block: \
                 only a polled executor rank may be told to wait"
            ),
        }
    }
}
