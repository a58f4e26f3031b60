//! One-call drivers: allocate, scatter, run, gather.
//!
//! These wrap the collective algorithms for the two common usages:
//!
//! * [`multiply_verified`] — real data under the simulator (or on
//!   threads via [`multiply_threads`]): returns the numeric result so
//!   callers can check it against the serial kernel;
//! * [`measure_modeled`] — virtual (shape-only) matrices at paper
//!   scale: returns only timing/statistics.

use crate::api::{parallel_gemm, Algorithm};
use crate::chaos::{ChaosRecovery, ChaosSrummaRankTask};
use crate::layout::{dist_a, dist_b, fresh_c, scatter_operands, set_a_mask, set_b_mask};
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{srumma, SrummaRankTask, SrummaReport};
use srumma_comm::{
    exec_run, exec_run_tasks, exec_run_traced, sim_run, thread_run, thread_run_traced, ChaosComm,
    ExecRunResult, FaultPlan, SimOptions,
};
use srumma_dense::{BlockMask, Matrix};
use srumma_model::{Machine, ProcGrid};
use srumma_sim::RunStats;
use srumma_trace::TraceEvent;

/// Pick the process grid for `nranks` (most-square factorization —
/// the ScaLAPACK default and the paper's analysis assumption).
pub fn default_grid(nranks: usize) -> ProcGrid {
    ProcGrid::near_square(nranks)
}

/// Run `alg` on real data under the simulated `machine` and return
/// `(C, stats)`; `a` is logical `m × k`, `b` logical `k × n`.
pub fn multiply_verified(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, RunStats) {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let opts = SimOptions::new(machine.clone(), nranks);
    let res = sim_run(&opts, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    });
    (dc.gather(), res.stats)
}

/// Run `alg` on virtual matrices at paper scale; returns run statistics
/// (timings, bytes, overlap) only.
pub fn measure_modeled(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
) -> RunStats {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, false);
    let db = dist_b(spec, grid, false);
    let (spec, dc) = &fresh_c(spec, grid, false);
    let opts = SimOptions::new(machine.clone(), nranks);
    sim_run(&opts, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    })
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

/// [`measure_modeled`] with event tracing on: virtual matrices at paper
/// scale, returning the statistics *and* the full simulator timeline.
pub fn measure_traced(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
) -> TracedRun {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, false);
    let db = dist_b(spec, grid, false);
    let (spec, dc) = &fresh_c(spec, grid, false);
    let opts = SimOptions::traced(machine.clone(), nranks);
    let res = sim_run(&opts, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    });
    TracedRun {
        stats: res.stats,
        trace: res.trace,
    }
}

/// GFLOP/s of a modeled run (the unit of the paper's figures).
pub fn measure_gflops(machine: &Machine, nranks: usize, alg: &Algorithm, spec: &GemmSpec) -> f64 {
    measure_modeled(machine, nranks, alg, spec).gflops(spec.flops())
}

/// Run `alg` on real data with real host threads (one shared-memory
/// domain — the Altix configuration on today's hardware). Returns
/// `(C, wall seconds)`.
pub fn multiply_threads(
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, f64) {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let res = thread_run(nranks, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    });
    (dc.gather(), res.wall_seconds)
}

/// [`multiply_threads`] with wall-clock event tracing on. Returns the
/// numeric result and the traced run (barriers, copies, kernel calls
/// and task envelopes, timestamped with real elapsed seconds).
pub fn multiply_threads_traced(
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, TracedRun) {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let res = thread_run_traced(nranks, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    });
    (
        dc.gather(),
        TracedRun {
            stats: res.stats,
            trace: res.trace,
        },
    )
}

/// Run `alg` on real data on the **work-stealing executor**: `nranks`
/// logical ranks multiplexed onto `workers` worker threads. SRUMMA
/// ranks run as polled state machines ([`crate::srumma::SrummaRankTask`]
/// — zero OS threads per rank); SUMMA and Cannon run their unmodified
/// blocking code on loan-gated threads. Returns the numeric result and
/// the full run result — `stats.exec` carries the steal-rate/occupancy
/// counters.
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
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let res = match alg {
        Algorithm::Srumma(opts) => {
            let r = exec_run_tasks(nranks, workers, trace, |comm| {
                Box::new(SrummaRankTask::new(comm, spec, &da, &db, dc, opts))
            });
            ExecRunResult {
                outputs: r.outputs.into_iter().map(Some).collect(),
                wall_seconds: r.wall_seconds,
                trace: r.trace,
                stats: r.stats,
            }
        }
        _ => {
            let run =
                |comm: &mut srumma_comm::ExecComm| parallel_gemm(comm, alg, spec, &da, &db, dc);
            if trace {
                exec_run_traced(nranks, workers, run)
            } else {
                exec_run(nranks, workers, run)
            }
        }
    };
    (dc.gather(), res)
}

/// [`multiply_verified`] under a [`FaultPlan`]: real data under the
/// simulated `machine` with stragglers and get spikes applied in
/// virtual time. Deterministic — the same plan yields bit-identical
/// stats and C on every run. Plans with a rank death are rejected
/// (death needs the executor's re-execution machinery).
pub fn multiply_verified_chaos(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    plan: &FaultPlan,
) -> (Matrix, RunStats) {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let opts = SimOptions::new(machine.clone(), nranks).with_faults(plan.clone());
    let res = sim_run(&opts, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    });
    (dc.gather(), res.stats)
}

/// [`measure_modeled`] under a [`FaultPlan`]: virtual matrices at paper
/// scale with injected stragglers/spikes, returning statistics only —
/// the degradation benchmark's workhorse.
pub fn measure_chaos(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    plan: &FaultPlan,
) -> RunStats {
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, false);
    let db = dist_b(spec, grid, false);
    let (spec, dc) = &fresh_c(spec, grid, false);
    let opts = SimOptions::new(machine.clone(), nranks).with_faults(plan.clone());
    sim_run(&opts, |comm| {
        parallel_gemm(comm, alg, spec, &da, &db, dc);
    })
    .stats
}

/// [`multiply_threads`] (SRUMMA only) under a [`FaultPlan`]: each rank
/// thread wraps its communicator in a [`ChaosComm`], so stragglers and
/// spiked gets become real sleeps. Wall timing is noisy but the fault
/// *schedule* is deterministic. Plans with a rank death are rejected.
pub fn multiply_threads_chaos(
    nranks: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    plan: &FaultPlan,
) -> (Matrix, f64) {
    assert!(
        plan.death.is_none(),
        "rank death needs the executor backend (multiply_exec_chaos)"
    );
    plan.validate(nranks);
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    let res = thread_run(nranks, |comm| {
        let mut chaos = ChaosComm::new(&mut *comm, plan.clone());
        srumma(&mut chaos, spec, &da, &db, dc, opts);
    });
    (dc.gather(), res.wall_seconds)
}

/// [`multiply_exec`] (SRUMMA only) under a full [`FaultPlan`] —
/// including fail-stop rank death with task re-execution: the dying
/// rank publishes its machine to a [`ChaosRecovery`] queue, a survivor
/// drives it to completion and discharges the dead rank's barrier
/// obligation by proxy. The gathered C is exactly the healthy result.
/// Per-rank reports are partial for the dead rank; the claimant's
/// trace counters carry `tasks_reexecuted`.
pub fn multiply_exec_chaos(
    nranks: usize,
    workers: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    plan: &FaultPlan,
) -> (Matrix, ExecRunResult<SrummaReport>) {
    plan.validate(nranks);
    let grid = default_grid(nranks);
    let da = dist_a(spec, grid, true);
    let db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    // Declared after the matrices: any unclaimed machine (borrowing
    // them) drops with the queue first.
    let recovery = ChaosRecovery::new();
    let res = exec_run_tasks(nranks, workers, false, |comm| {
        Box::new(ChaosSrummaRankTask::new(
            comm,
            spec,
            &da,
            &db,
            dc,
            opts,
            plan.clone(),
            &recovery,
        ))
    });
    (dc.gather(), res)
}

/// Logical block masks for a sparse multiply. `a` is `grid.p × kparts`
/// over the logical `m × k` operand, `b` is `kparts × grid.q` over the
/// logical `k × n` operand ([`crate::layout::set_a_mask`] resolves the
/// transpose to stored coordinates). `None` means dense.
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

    /// Mask only B (A dense).
    pub fn b_only(b: BlockMask) -> Self {
        Self {
            a: None,
            b: Some(b),
        }
    }

    fn apply(
        &self,
        spec: &GemmSpec,
        da: &mut srumma_comm::DistMatrix,
        db: &mut srumma_comm::DistMatrix,
    ) {
        if let Some(m) = &self.a {
            set_a_mask(spec, da, m.clone());
        }
        if let Some(m) = &self.b {
            set_b_mask(spec, db, m.clone());
        }
    }
}

/// Block-sparse [`multiply_threads`]: SRUMMA on real host threads with
/// masked task generation. Blocks of `a`/`b` flagged zero by `masks`
/// contribute nothing — their gets, packing and kernel calls are
/// pruned before ordering, so whatever data sits inside them is
/// ignored. Returns `(C, wall seconds)`.
pub fn multiply_threads_sparse(
    nranks: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> (Matrix, f64) {
    let grid = default_grid(nranks);
    let mut da = dist_a(spec, grid, true);
    let mut db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    masks.apply(spec, &mut da, &mut db);
    let res = thread_run(nranks, |comm| {
        srumma(comm, spec, &da, &db, dc, opts);
    });
    (dc.gather(), res.wall_seconds)
}

/// Block-sparse [`multiply_verified`]: SRUMMA on real data under the
/// simulated `machine` with masked task generation. Returns
/// `(C, stats)` — `stats` carries the per-rank surviving-task counts
/// and skipped-flop totals.
pub fn multiply_verified_sparse(
    machine: &Machine,
    nranks: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> (Matrix, RunStats) {
    let grid = default_grid(nranks);
    let mut da = dist_a(spec, grid, true);
    let mut db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    masks.apply(spec, &mut da, &mut db);
    let sim_opts = SimOptions::new(machine.clone(), nranks);
    let res = sim_run(&sim_opts, |comm| {
        srumma(comm, spec, &da, &db, dc, opts);
    });
    (dc.gather(), res.stats)
}

/// Block-sparse [`multiply_verified_chaos`]: masked task generation
/// *and* injected stragglers/spikes under the simulator. The pruning
/// edge this exercises: a rank whose every task is masked still holds
/// every fence, even when a straggler plan delays the ranks it waits
/// on. Plans with a rank death are rejected by `with_faults`.
#[allow(clippy::too_many_arguments)]
pub fn multiply_verified_sparse_chaos(
    machine: &Machine,
    nranks: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
    plan: &FaultPlan,
) -> (Matrix, RunStats) {
    let grid = default_grid(nranks);
    let mut da = dist_a(spec, grid, true);
    let mut db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    masks.apply(spec, &mut da, &mut db);
    let sim_opts = SimOptions::new(machine.clone(), nranks).with_faults(plan.clone());
    let res = sim_run(&sim_opts, |comm| {
        srumma(comm, spec, &da, &db, dc, opts);
    });
    (dc.gather(), res.stats)
}

/// Block-sparse [`multiply_exec`]: SRUMMA rank state machines on the
/// work-stealing executor with masked task generation. A rank whose
/// every block is masked still participates in every barrier and
/// β-scales its C tiles. Returns the numeric result and the full run
/// result (per-rank [`SrummaReport`]s include `masked_tasks` /
/// `skipped_flops`).
pub fn multiply_exec_sparse(
    nranks: usize,
    workers: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> (Matrix, ExecRunResult<SrummaReport>) {
    let grid = default_grid(nranks);
    let mut da = dist_a(spec, grid, true);
    let mut db = dist_b(spec, grid, true);
    let (spec, dc) = &fresh_c(spec, grid, true);
    scatter_operands(spec, &da, &db, a, b);
    masks.apply(spec, &mut da, &mut db);
    let res = exec_run_tasks(nranks, workers, false, |comm| {
        Box::new(SrummaRankTask::new(comm, spec, &da, &db, dc, opts))
    });
    (dc.gather(), res)
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
