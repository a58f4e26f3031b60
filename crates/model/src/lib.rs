//! # srumma-model — machine, network and protocol cost models
//!
//! The SRUMMA paper's experiments ran on four 2003/2004 machines (a
//! dual-Xeon Linux cluster with Myrinet-2000, a 16-way-node IBM SP with
//! the Colony switch, a Cray X1, and a 128-CPU SGI Altix 3000). None of
//! that hardware is available, so this crate captures what the paper's
//! *claims* actually depend on — protocol latency and bandwidth,
//! eager/rendezvous switching in MPI, zero-copy vs remote-CPU-assisted
//! RMA, shared-memory domains, cacheable vs non-cacheable remote memory,
//! and per-node resource contention — as an explicit, documented cost
//! model with one calibrated profile per platform.
//!
//! The discrete-event simulator (`srumma-sim`) consumes these costs to
//! run the *actual algorithm implementations* in virtual time; the
//! analytic modules ([`bandwidth`], [`overlap`]) evaluate the same
//! formulas directly for the pure protocol figures (Figures 6–8).
//!
//! ## Module map
//!
//! * [`machine`] — [`machine::Machine`] profiles for the four platforms.
//! * [`network`] — raw parameter structs and the [`network::TransferCost`]
//!   decomposition every protocol reduces to.
//! * [`protocol`] — cost functions for each communication protocol
//!   (RMA get/put, MPI send/recv, shared-memory copy, direct load/store).
//! * [`topology`] — SMP-node topology and 2-D process grids.
//! * [`bandwidth`] — analytic bandwidth curves (Figures 6 and 8).
//! * [`overlap`] — analytic communication/computation overlap potential
//!   (Figure 7).
//! * [`isoeff`] — the paper's §2.1 cost/efficiency formulas
//!   (Equations (1)–(3), isoefficiency).

#![warn(unreachable_pub)]

pub mod bandwidth;
pub mod isoeff;
pub mod machine;
pub mod network;
pub mod overlap;
pub mod protocol;
pub mod topology;

pub use machine::{Machine, Platform};
pub use network::{membw_group, CpuParams, NetParams, ShmParams, TransferCost};
pub use topology::{ProcGrid, Topology};
