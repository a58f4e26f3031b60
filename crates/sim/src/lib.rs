//! # srumma-sim — deterministic virtual-time execution of rank programs
//!
//! The SRUMMA paper evaluates parallel algorithms on four machines we do
//! not have. This crate provides the substitute: a **conservative,
//! sequential discrete-event simulator** that runs *real rank programs*
//! (ordinary blocking Rust closures, one per process) against a virtual
//! clock driven by the cost model in `srumma-model`.
//!
//! ## Execution model
//!
//! * Each rank runs the *actual algorithm implementation* against the
//!   [`proc::SimProc`] handle, hosted one of two ways: as an ordinary
//!   blocking closure on an OS thread of its own ([`runner::run_sim`]),
//!   or as a resumable program that one host thread steps
//!   ([`runner::PolledSim`]), so a rank costs its operations and no
//!   thread.
//! * Ranks **run ahead** of virtual time: a timed operation (compute
//!   charge, transfer issue or wait, message post) is posted to the
//!   rank's queue in the kernel and the rank carries on. The kernel
//!   applies posted operations one at a time, always the next one of
//!   the active rank with the lowest virtual clock (ties broken by rank
//!   id, kept in a binary heap), so no rank's operation takes effect
//!   before an earlier-clocked one's. A threaded rank waits only where
//!   it reads a value — its clock, a message, a rendezvous time, a
//!   barrier release — until the kernel has caught up with it; a polled
//!   rank reads none but the barrier's, in split form, and is stepped
//!   when the order reaches it. Every simulation is bit-for-bit
//!   deterministic, independent of host scheduling, and the two
//!   hostings of one program agree to the bit.
//! * Time costs come from [`srumma_model::TransferCost`] decompositions
//!   and the analytic dgemm efficiency model; *data movement is real*
//!   when callers choose to move real data (so numerics can be verified
//!   end-to-end in tests) and elided in "modeled compute" runs at
//!   paper-scale sizes.
//!
//! ## Resources and contention
//!
//! FIFO busy-until resources capture the contention effects the paper
//! manipulates:
//!
//! * one **NIC channel pair** (in/out) per node — four ranks of one SMP
//!   node pulling blocks from the same remote node serialize on that
//!   node's NIC, which is exactly the contention SRUMMA's diagonal-shift
//!   task ordering avoids (paper Figure 4);
//! * one **memory-bandwidth group** per brick/node — concurrent
//!   intra-domain copies and memory-bound compute share it (the Altix
//!   N=12000 saturation in Figure 10);
//! * one **CPU** per rank — non-zero-copy RMA (IBM LAPI) steals remote
//!   CPU time from whatever that rank was computing (Figure 9's
//!   zero-copy ablation).
//!
//! ## Entry point
//!
//! [`runner::run_sim`] launches the rank threads, runs the simulation to
//! completion and returns per-rank outputs, final virtual times and
//! aggregated [`stats::RunStats`]; [`runner::PolledSim`] hands the
//! stepping loop to its caller and returns the same.

pub mod kernel;
pub mod proc;
pub mod resource;
pub mod runner;
pub mod stats;
pub mod trace;

pub use kernel::{SimConfig, TransferId, TransferSpec};
pub use proc::SimProc;
pub use runner::{run_sim, PolledSim, SimResult};
pub use stats::{RankStats, RunStats};
pub use trace::{TraceEvent, TraceKind};
