//! # srumma-comm — the communication substrate (ARMCI & MPI stand-ins)
//!
//! The paper's implementation sits on ARMCI: a collective shared-memory
//! allocator (`ARMCI_Malloc`), one-sided nonblocking get/put, and a
//! cluster-locality query that tells each process which peers it can
//! reach through plain load/store. This crate rebuilds that layer — and
//! the MPI-style two-sided operations the baselines (Cannon,
//! SUMMA/pdgemm) need — over three interchangeable backends:
//!
//! * [`SimComm`] — runs under the virtual-time
//!   simulator (`srumma-sim`) with costs from `srumma-model`. Data
//!   movement is *real* when matrices carry real backing (tests verify
//!   numerics end-to-end) and elided for paper-scale modeled runs. Every
//!   rank is a [`RankProgram`], stepped on the calling thread
//!   ([`sim_run_programs`]).
//! * [`VirtualComm`] — one uncontended LogGP clock
//!   per rank, recombined at barriers: the same machines at 64k ranks,
//!   each rank one iteration of a parallel-for.
//! * [`ExecComm`] — the host: one shared-memory domain,
//!   real memcpys, wall-clock timing — the "SGI Altix flavor" made
//!   concrete on today's hardware. Ranks are polled on W workers, or
//!   block on threads of their own under W permits; thread-per-rank is
//!   W = N ([`thread_run`]).
//!
//! Algorithms in `srumma-core` are generic over the [`Comm`] trait, so
//! the *same* SRUMMA/Cannon/SUMMA code runs on all three — and behind
//! the one decorator, [`SubComm`], that wraps any of them. A
//! [`FaultPlan`] is the communicator's own to apply, on either clock:
//! `SimComm` in virtual time, `ExecComm` with real sleeps.
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
//!   barrier, [`RankProgram`] and [`drive`].
//! * [`simbackend`] / [`virt`] / [`exec`] — the three implementations
//!   (discrete-event virtual time, per-rank virtual clocks, the host's
//!   executor).
//! * [`subcomm`] — [`SubComm`], a rank window presented as a machine.
//! * [`mpi`] — two-sided collectives (tree and ring broadcast, shift) built
//!   on `Comm::send`/`Comm::recv`, used by the baselines.
//! * [`fault`] — seeded fault injection ([`FaultPlan`]): which ranks
//!   straggle, which gets spike, which rank dies.

pub mod arena;
pub mod comm;
pub mod dist;
pub mod exec;
pub mod fault;
pub mod mpi;
pub mod simbackend;
pub mod subcomm;
pub mod virt;

pub use comm::{drive, Comm, GetHandle, RankProgram, Step, TaskSpan};
pub use dist::{CostMap, DistMatrix, Landing};
pub use exec::{
    exec_launch, exec_run, exec_run_tasks, thread_run, ExecComm, ExecRunResult, ProgramTask,
    RankTask,
};
pub use fault::{FaultPlan, FaultPlanError, RankDeath};
pub use simbackend::{sim_run_programs, sim_run_steps, SimComm, SimOptions};
pub use subcomm::SubComm;
pub use virt::{virtual_run, VirtualComm};
