//! # srumma-core — SRUMMA and its baselines
//!
//! This crate implements the primary contribution of Krishnan &
//! Nieplocha, *"SRUMMA: A Matrix Multiplication Algorithm Suitable for
//! Clusters and Scalable Shared Memory Systems"* (IPDPS 2004), together
//! with the two classic algorithms it is evaluated against:
//!
//! * [`srumma`] — the paper's algorithm: owner-computes over C,
//!   one-sided nonblocking gets of A/B blocks, locality-aware task
//!   ordering (SMP-first + diagonal shift), B1/B2 double buffering, and
//!   the two shared-memory flavors (direct access vs copy-based);
//! * [`summa`] — SUMMA, the algorithm inside ScaLAPACK/PBLAS
//!   `pdgemm`, on message-passing broadcasts;
//! * [`cannon`] — Cannon's systolic algorithm on ring shifts.
//!
//! All three are generic over [`srumma_comm::Comm`], so they run
//! unchanged under the virtual-time machine simulator (paper-scale
//! experiments on the four modeled platforms) and on real host threads
//! (genuine parallel speedup; see the `quickstart` example). One value,
//! [`run::Run`], says which: backend, tracing, faults, masks, staging
//! and replication are its fields, and [`run::Run::validate`] names the
//! combinations that cannot work.
//!
//! ## Quick start
//!
//! ```
//! use srumma_core::{Algorithm, Backend, GemmSpec, Run};
//! use srumma_core::driver::serial_reference;
//! use srumma_dense::Matrix;
//!
//! let spec = GemmSpec::square(64);
//! let (a, b) = (Matrix::random(64, 64, 1), Matrix::random(64, 64, 2));
//! // Four ranks, a worker each: the paper's process per rank.
//! let run = Run::new(spec, 4, Algorithm::srumma_default(), Backend::Exec { workers: 4 });
//! let out = Run { operands: Some((&a, &b)), ..run }.execute().unwrap();
//! let expect = serial_reference(&spec, &a, &b);
//! assert!(srumma_dense::max_abs_diff(&out.c.unwrap(), &expect) < 1e-9);
//! ```

#![warn(unreachable_pub)]

pub mod api;
pub mod batch;
pub mod cannon;
pub mod chaos;
pub mod driver;
pub mod hier;
pub mod layout;
pub mod memory;
pub mod options;
pub mod repl;
pub mod run;
pub mod srumma;
pub mod summa;
pub mod taskorder;

pub use api::{Algorithm, GemmProgram};
pub use batch::{
    batch_serial_reference, multiply_batch_exec, multiply_batch_on, multiply_batch_traced,
    BatchEntry, BatchResult, BatchSpec,
};
pub use driver::SparseMasks;
pub use hier::HierStageSet;
pub use options::{GemmSpec, ReplicationFactor, ShmemFlavor, SrummaOptions};
pub use run::{Backend, RankReport, Run, RunError, RunOutput};
pub use srumma::{SrummaProgram, SrummaReport};
pub use summa::SummaOptions;
