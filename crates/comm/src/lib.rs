//! # srumma-comm — the communication substrate (ARMCI & MPI stand-ins)
//!
//! The paper's implementation sits on ARMCI: a collective shared-memory
//! allocator (`ARMCI_Malloc`), one-sided nonblocking get/put, and a
//! cluster-locality query that tells each process which peers it can
//! reach through plain load/store. This crate rebuilds that layer — and
//! the MPI-style two-sided operations the baselines (Cannon,
//! SUMMA/pdgemm) need — over three interchangeable backends:
//!
//! * [`SimComm`](simbackend::SimComm) — runs under the virtual-time
//!   simulator (`srumma-sim`) with costs from `srumma-model`. Data
//!   movement is *real* when matrices carry real backing (tests verify
//!   numerics end-to-end) and elided for paper-scale modeled runs.
//! * [`VirtualComm`](virt::VirtualComm) — one uncontended LogGP clock
//!   per rank, recombined at barriers: the same machines at 64k ranks.
//! * [`ExecComm`](exec::ExecComm) — the host: one shared-memory domain,
//!   real memcpys, wall-clock timing — the "SGI Altix flavor" made
//!   concrete on today's hardware. Ranks are polled on W workers, or
//!   block on threads of their own under W permits; thread-per-rank is
//!   W = N ([`thread_run`]).
//!
//! Algorithms in `srumma-core` are generic over the [`Comm`] trait, so
//! the *same* SRUMMA/Cannon/SUMMA code runs on all three — and behind
//! the two decorators ([`ChaosComm`], [`SubComm`]) that wrap any of
//! them.
//!
//! ## Module map
//!
//! * [`arena`] — the shared-memory discipline and its access checker.
//! * [`dist`] — [`dist::DistMatrix`]: 2-D block-distributed matrices
//!   over a process grid: shape-only, a read-only view of a host operand,
//!   or a writable row-major window — of the caller's product, lent in
//!   place, or of an allocation the matrix owns (the `ARMCI_Malloc`
//!   stand-in).
//! * [`comm`] — the [`Comm`] trait and block handle types; the split
//!   fence, [`RankProgram`] and [`drive`].
//! * [`simbackend`] / [`virt`] / [`exec`] — the three implementations
//!   (discrete-event virtual time, per-rank virtual clocks, the host's
//!   executor).
//! * [`subcomm`] — [`SubComm`], a rank window presented as a machine.
//! * [`deque`] — the Chase–Lev work-stealing deque under the executor.
//! * [`mpi`] — two-sided collectives (broadcast, shift, allgather) built
//!   on `Comm::send`/`Comm::recv`, used by the baselines.
//! * [`fault`] — seeded fault injection ([`FaultPlan`]) and the
//!   [`ChaosComm`] decorator for wall-clock backends.

pub mod arena;
pub mod comm;
pub mod deque;
pub mod dist;
pub mod exec;
pub mod fault;
pub mod mpi;
pub mod simbackend;
pub mod subcomm;
pub mod virt;

pub use comm::{drive, Comm, GetHandle, RankProgram, Step};
pub use dist::{CostMap, DistMatrix, Landing};
pub use exec::{
    exec_launch, exec_run, exec_run_tasks, resolve_workers, thread_run, ExecComm, ExecRunResult,
    ProgramTask, RankTask,
};
pub use fault::{ChaosComm, FaultPlan, FaultPlanError, RankDeath};
pub use simbackend::{sim_run, SimComm, SimOptions};
pub use subcomm::SubComm;
pub use virt::{virtual_run, VirtualComm, VirtualRunResult};
