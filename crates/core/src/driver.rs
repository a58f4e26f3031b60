//! The pinned one-call drivers, the block-sparsity masks and the serial
//! references.
//!
//! Every multiply is one [`crate::run::Run`] plan. The four drivers
//! here are that plan with all but a backend's worth of fields left at
//! their defaults, kept under their historical signatures because the
//! benchmark harness (`benchmark/src/adapter.rs`) calls them by name.

use crate::api::Algorithm;
use crate::options::GemmSpec;
use crate::run::{Backend, Run};
use crate::srumma::SrummaReport;
use srumma_comm::ExecRunResult;
use srumma_dense::{BlockMask, Matrix};
use srumma_model::{Machine, ProcGrid};
use srumma_sim::RunStats;
use srumma_trace::TraceEvent;

/// Pick the process grid for `nranks` (most-square factorization —
/// the ScaLAPACK default and the paper's analysis assumption).
pub fn default_grid(nranks: usize) -> ProcGrid {
    ProcGrid::near_square(nranks)
}

/// Run `alg` on virtual matrices at paper scale; returns run statistics
/// (timings, bytes, overlap) only.
pub fn measure_modeled(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
) -> RunStats {
    Run::new(*spec, nranks, *alg, Backend::Sim(machine))
        .execute_or_panic()
        .stats
}

/// A run that kept its event timeline: the statistics plus the raw
/// per-rank trace events (virtual-time under the simulator, wall-clock
/// on threads), ready for `srumma_trace::chrome_trace_json` /
/// `ascii_gantt` / `bench_report_json`.
#[derive(Debug)]
pub struct TracedRun {
    /// Derived per-rank and aggregate metrics.
    pub stats: RunStats,
    /// Merged event timeline, sorted by start time.
    pub trace: Vec<TraceEvent>,
}

/// GFLOP/s of a modeled run (the unit of the paper's figures).
pub fn measure_gflops(machine: &Machine, nranks: usize, alg: &Algorithm, spec: &GemmSpec) -> f64 {
    measure_modeled(machine, nranks, alg, spec).gflops(spec.flops())
}

/// Run `alg` on real data with a host thread per rank (one shared-memory
/// domain — the Altix configuration on today's hardware): the executor
/// with a worker per rank. Returns `(C, wall seconds)`.
pub fn multiply_threads(
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, f64) {
    let run = Run::new(*spec, nranks, *alg, Backend::Exec { workers: nranks });
    let out = Run {
        operands: Some((a, b)),
        ..run
    }
    .execute_or_panic();
    (out.c.expect("real operands gather a C"), out.wall_seconds)
}

/// Run `alg` on real data on the **work-stealing executor**: `nranks`
/// logical ranks multiplexed onto `workers` worker threads. Every rank,
/// SRUMMA, SUMMA or Cannon, is a polled [`crate::api::GemmProgram`] —
/// zero OS threads per rank: a SUMMA or Cannon rank parks on an empty
/// mailbox as a SRUMMA rank parks at the barrier. Returns the numeric
/// result and the full run result — `stats.exec` carries the
/// steal-rate/occupancy counters.
pub fn multiply_exec(
    nranks: usize,
    workers: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, ExecRunResult<Option<SrummaReport>>) {
    multiply_exec_inner(nranks, workers, false, alg, spec, a, b)
}

/// [`multiply_exec`] with wall-clock event tracing on (including the
/// scheduler's steal/park/resume markers).
pub fn multiply_exec_traced(
    nranks: usize,
    workers: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, ExecRunResult<Option<SrummaReport>>) {
    multiply_exec_inner(nranks, workers, true, alg, spec, a, b)
}

fn multiply_exec_inner(
    nranks: usize,
    workers: usize,
    trace: bool,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, ExecRunResult<Option<SrummaReport>>) {
    let run = Run::new(*spec, nranks, *alg, Backend::Exec { workers });
    let out = Run {
        operands: Some((a, b)),
        trace,
        ..run
    }
    .execute_or_panic();
    let res = ExecRunResult {
        outputs: out.reports.iter().map(|r| r.srumma).collect(),
        wall_seconds: out.wall_seconds,
        trace: out.trace,
        stats: out.stats,
    };
    (out.c.expect("real operands gather a C"), res)
}

/// Logical block masks for a sparse multiply. `a` is `grid.p × kparts`
/// over the logical `m × k` operand, `b` is `kparts × grid.q` over the
/// logical `k × n` operand — both shaped like the C grid, and attached
/// to the distributed `op(A)` / `op(B)` as they are. `None` means dense.
#[derive(Clone, Debug, Default)]
pub struct SparseMasks {
    /// Logical mask for A, or `None` for a dense operand.
    pub a: Option<BlockMask>,
    /// Logical mask for B, or `None` for a dense operand.
    pub b: Option<BlockMask>,
}

impl SparseMasks {
    /// Mask both operands.
    pub fn new(a: BlockMask, b: BlockMask) -> Self {
        Self {
            a: Some(a),
            b: Some(b),
        }
    }

    /// Mask only A (B dense).
    pub fn a_only(a: BlockMask) -> Self {
        Self {
            a: Some(a),
            b: None,
        }
    }
}

/// The serial reference for a block-sparse multiply: zero out the
/// masked blocks of the logical operands, then run the dense serial
/// kernel. Matches the pruned parallel paths exactly — a pruned task
/// is one whose A or B block is numerically zero here, so its
/// contribution to `C` is zero.
pub fn sparse_serial_reference(
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> Matrix {
    let am = masks.a.as_ref().map(|m| m.masked_copy(a));
    let bm = masks.b.as_ref().map(|m| m.masked_copy(b));
    serial_reference(spec, am.as_ref().unwrap_or(a), bm.as_ref().unwrap_or(b))
}

/// The serial reference result for verification. `a` and `b` are the
/// *logical* operands (`m × k` and `k × n`, transposition already
/// resolved — the same convention as
/// [`crate::layout::scatter_operands`]), so the reference is simply
/// `A·B` computed by the serial kernel.
pub fn serial_reference(spec: &GemmSpec, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (spec.m, spec.k));
    assert_eq!((b.rows(), b.cols()), (spec.k, spec.n));
    let mut c = Matrix::zeros(spec.m, spec.n);
    srumma_dense::dgemm(
        srumma_dense::Op::N,
        srumma_dense::Op::N,
        1.0,
        a.as_ref(),
        b.as_ref(),
        0.0,
        c.as_mut(),
    );
    c
}
