//! # srumma-sim — deterministic virtual-time execution of rank programs
//!
//! The SRUMMA paper evaluates parallel algorithms on four machines we do
//! not have. This crate provides the substitute: a **conservative,
//! sequential discrete-event simulator** that runs *real rank programs*
//! (resumable state machines, one per process) against a virtual clock
//! driven by the cost model in `srumma-model`.
//!
//! ## Execution model
//!
//! * Each rank runs the *actual algorithm implementation* against the
//!   [`proc::SimProc`] handle, as a resumable program that one host
//!   thread steps ([`runner::PolledSim`]): a rank costs its operations,
//!   and no thread.
//! * Ranks **run ahead** of virtual time: a timed operation (compute
//!   charge, transfer issue or wait, message post or receive, rendezvous,
//!   barrier arrival, mark) is posted to the rank's queue in the kernel
//!   and the rank carries on to the end of its step. The kernel applies
//!   posted operations one at a time, always the next one of the active
//!   rank with the lowest virtual clock (ties broken by rank id, kept in
//!   a binary heap), so no rank's operation takes effect before an
//!   earlier-clocked one's, and it hands the host the rank the order
//!   waits on. A rank reads what the kernel computed — its clock, a
//!   message, a barrier release — at the top of its next step, when its
//!   queue is empty. Every simulation is bit-for-bit deterministic and
//!   independent of how the programs split their work into steps.
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
//! [`runner::PolledSim`] hands the stepping loop to its caller and, once
//! every rank has finished, returns per-rank outputs, final virtual times
//! and aggregated [`RunStats`] — the statistics and trace event types
//! are `srumma-trace`'s, shared with the wall-clock backends; under the
//! simulator all times are *virtual* seconds.

#![warn(unreachable_pub)]

pub mod kernel;
pub mod proc;
pub mod resource;
pub mod runner;

pub use kernel::{SimConfig, TransferId, TransferSpec};
pub use proc::SimProc;
pub use runner::{PolledSim, SimResult};
pub use srumma_trace::{RankStats, RunStats, TraceEvent, TraceKind};
