//! # srumma-dense — serial dense linear-algebra substrate
//!
//! This crate plays the role of the *vendor math library* in the SRUMMA
//! paper (`-lsci` on the Cray X1, `-lessl` on the IBM SP, `-lscs` on the
//! SGI Altix, `-lmkl` on the Linux/Xeon cluster): a serial, cache-blocked
//! double-precision matrix multiplication used identically by **all** the
//! parallel algorithms under study (SRUMMA, Cannon, SUMMA/pdgemm), so that
//! parallel-algorithm comparisons are never confounded by kernel choice.
//!
//! ## Contents
//!
//! * [`Matrix`] — an owned row-major `f64` matrix with view types
//!   ([`MatRef`], [`MatMut`]) that carry an explicit leading dimension, so
//!   sub-blocks of larger buffers (the common case in distributed matrix
//!   code) can be addressed without copying.
//! * [`gemm`] — the public BLAS-style entry point
//!   `C ← α·op(A)·op(B) + β·C` supporting all four transpose combinations
//!   (`NN`, `TN`, `NT`, `TT`) and arbitrary strides.
//! * [`blocked`] — the cache-blocked implementation (GotoBLAS-style
//!   `NC/KC/MC` loop nest around a packed micro-kernel).
//! * [`naive`] — a straightforward reference implementation used as the
//!   test oracle.
//! * [`effmodel`] — an analytic efficiency model `eff(m, n, k) ∈ (0, 1]`
//!   describing how far below peak a serial dgemm of a given shape runs.
//!   The discrete-event simulator uses it to charge virtual compute time
//!   without executing the kernel ("modeled compute"), which is what makes
//!   paper-scale experiments (N up to 16000, P up to 256) tractable.
//! * [`verify`] — numeric comparison helpers shared by tests everywhere.
//!
//! ## Conventions
//!
//! All matrices are **row-major**. The leading dimension `ld` of a matrix
//! is the distance in elements between the starts of consecutive rows
//! (`ld >= cols`). `Op::N`/`Op::T` select whether a factor enters the
//! product transposed; `op(A)` always has shape `m × k` and `op(B)` shape
//! `k × n`.

#![warn(unreachable_pub)]

pub mod aligned;
pub mod blocked;
pub mod effmodel;
pub mod gemm;
pub mod kernel;
pub mod mask;
pub mod matrix;
pub mod naive;
pub mod pack;
pub mod prop;
pub mod rng;
#[cfg(target_arch = "x86_64")]
pub mod simd;
#[cfg(target_arch = "aarch64")]
pub mod simd_neon;
pub mod verify;

pub use blocked::{dgemm_operands, dgemm_ws, BlockSizes, GemmWorkspace, Operand};
pub use effmodel::EffModel;
pub use gemm::{dgemm, Op};
pub use kernel::{active_kernel, Microkernel};
pub use mask::BlockMask;
pub use matrix::{MatMut, MatRef, Matrix};
pub use pack::{PackedPanel, PackedView, Side};
pub use prop::{prop_rerun, prop_seeds};
pub use rng::Rng;
pub use verify::{max_abs_diff, rel_fro_error};
