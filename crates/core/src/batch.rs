//! Batched multi-GEMM driver: a stream of multiplies on one worker pool,
//! every operand and product distributed in place.
//!
//! SRUMMA's per-multiply fixed costs — rank spawn, the closing barrier,
//! a fresh workspace and fresh fetch buffers — are negligible for one
//! large product but dominate a *stream* of small-to-medium tiles (the
//! chemistry-style workloads behind task-based SUMMA descendants). This
//! module runs a whole [`BatchSpec`] with those costs paid once, and
//! with nothing copied that a single [`crate::run::Run`] would not copy:
//!
//! * **every matrix in place** — all entries' logical `a` and `b` are
//!   lent to the ranks as read-only views for the whole launch
//!   ([`with_host_operand_sets`]: transposes normalised to `N`, logical
//!   masks unflipped, exactly as a `Run` reads its operands), and every
//!   entry's output as a writable view
//!   ([`DistMatrix::with_host_views_mut`]): the owner of a tile computes
//!   it where the caller reads it. The one copy left is an entry's `c0`:
//!   its owner copies its block into the output window before the `β`
//!   pre-pass, in parallel, as that tile's first touch. An entry without
//!   `c0` runs with `β` normalised to 0, as [`fresh_c`] does, so the
//!   pre-pass fill is the first touch;
//! * **one worker pool** — [`multiply_batch_exec`] keeps a single
//!   `ExecComm` executor (each worker's gemm workspace and fetch
//!   buffers, each rank's [`MachineScratch`]) alive across every entry,
//!   so `ws_grow_count() ≤ 1` holds for the whole stream.
//!
//! Per rank, with `n` entries:
//!
//! ```text
//! for e in 0..n:
//!     copy c0(e)'s block into the output (if any)
//!     build e's SrummaMachine; run it STRIDE tasks per step; finish
//! ```
//!
//! Nothing in that loop waits for another rank, and nothing needs to:
//! the operands are read-only for the whole launch, each output tile is
//! written by its owner only, and no storage is reused from one entry to
//! the next — so there is nothing a rank could read before it is ready
//! or overwrite while a peer still reads it. A fast rank simply runs
//! ahead into later entries; the pool's join is the only
//! synchronisation, on all three backends. Each entry's
//! [`EntryRankSample::fence_s`] therefore reads 0.
//!
//! That loop is one [`RankProgram`], [`BatchProgram`], which never
//! parks: the executor polls it, the blocking backends (threads,
//! simulator) [`drive`] the same value — which is what makes the
//! three-backend correctness matrix possible.

use crate::driver::{default_grid, TracedRun};
use crate::layout::{fresh_c, with_host_operand_sets};
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{MachineScratch, SrummaMachine, SrummaReport, STRIDE};
use srumma_comm::{
    drive, exec_run_tasks, sim_run, thread_run, Comm, CostMap, DistMatrix, ProgramTask,
    RankProgram, SimOptions, Step,
};
use srumma_dense::{BlockMask, Matrix, Op};
use srumma_model::Machine;
use srumma_trace::{BatchStats, EntryRankSample, EntryStats};

/// One multiply of a batch: a spec, its logical operands (`a` is
/// `m × k`, `b` is `k × n` — `op(A)` and `op(B)` as handed, read in
/// place whatever the transposes say), an optional initial C (`m × n`,
/// scaled by `spec.beta`) and an optional per-entry options override.
#[derive(Clone)]
pub struct BatchEntry {
    /// The multiply.
    pub spec: GemmSpec,
    /// Logical `m × k` A.
    pub a: Matrix,
    /// Logical `k × n` B.
    pub b: Matrix,
    /// Initial C for `β`-accumulation (zeros when absent).
    pub c0: Option<Matrix>,
    /// Per-entry override of the batch's default options.
    pub opts: Option<SrummaOptions>,
    /// Logical block-sparsity mask of A (`p` C-row blocks × `q`
    /// k-panels of the run grid). Masked blocks are declared zero:
    /// their gets and gemm segments are skipped entirely.
    pub mask_a: Option<BlockMask>,
    /// Logical mask of B (`p` k-panels × `q` C-column blocks).
    pub mask_b: Option<BlockMask>,
}

impl BatchEntry {
    /// An entry with zero initial C and the batch's default options.
    pub fn new(spec: GemmSpec, a: Matrix, b: Matrix) -> Self {
        assert_eq!((a.rows(), a.cols()), (spec.m, spec.k), "A must be m x k");
        assert_eq!((b.rows(), b.cols()), (spec.k, spec.n), "B must be k x n");
        BatchEntry {
            spec,
            a,
            b,
            c0: None,
            opts: None,
            mask_a: None,
            mask_b: None,
        }
    }

    /// Accumulate onto `c0` (scaled by `spec.beta`).
    pub fn with_c0(mut self, c0: Matrix) -> Self {
        assert_eq!((c0.rows(), c0.cols()), (self.spec.m, self.spec.n));
        self.c0 = Some(c0);
        self
    }

    /// Override the batch's default SRUMMA options for this entry.
    pub fn with_opts(mut self, opts: SrummaOptions) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Declare block-sparsity structure for the operands (either mask
    /// may be `None` ≡ dense). Masks are **logical**: shaped by the run
    /// grid's blocking (`p × q`), with A's columns and B's rows indexing
    /// k-panels — the blocks of the logical operands the ranks read, in
    /// every transpose case. Whatever data sits inside a masked block is
    /// ignored.
    pub fn with_masks(mut self, mask_a: Option<BlockMask>, mask_b: Option<BlockMask>) -> Self {
        self.mask_a = mask_a;
        self.mask_b = mask_b;
        self
    }
}

/// A stream of multiplies to run on one worker pool.
#[derive(Clone)]
pub struct BatchSpec {
    /// The entries, executed in order (results are order-stable).
    pub entries: Vec<BatchEntry>,
    /// Default options for entries without an override.
    pub opts: SrummaOptions,
}

impl Default for BatchSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchSpec {
    /// An empty batch with default options.
    pub fn new() -> Self {
        BatchSpec {
            entries: Vec::new(),
            opts: SrummaOptions::default(),
        }
    }

    /// Set the default options for all entries.
    pub fn with_opts(mut self, opts: SrummaOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Append an entry.
    pub fn push(&mut self, entry: BatchEntry) {
        self.entries.push(entry);
    }

    /// Effective options of entry `e`.
    pub fn entry_opts(&self, e: usize) -> SrummaOptions {
        self.entries[e].opts.unwrap_or(self.opts)
    }

    /// Total useful flops of the stream.
    pub fn flops(&self) -> f64 {
        self.entries.iter().map(|e| e.spec.flops()).sum()
    }
}

/// What a rank needs of one entry: the spec to run (transposes
/// normalised to `N`; `β` to 0 when there is no `c0`), the options, the
/// `c0` to seed the output from, and the entry's three views.
struct EntryPlan<'v> {
    spec: GemmSpec,
    opts: SrummaOptions,
    c0: Option<&'v Matrix>,
    a: &'v DistMatrix,
    b: &'v DistMatrix,
    c: &'v DistMatrix,
}

/// Copy `rank`'s block of `c0` into its tile of the output `c` — the one
/// copy a batch makes, by the owner, as the tile's first touch.
fn seed_c(c: &DistMatrix, rank: usize, c0: &Matrix) {
    let (r0, col0) = c.block_origin(rank);
    let mut w = c.write_block(rank);
    if let Some(mut dst) = w.mat_mut() {
        dst.copy_from(c0.block(r0, col0, dst.rows(), dst.cols()));
    }
}

/// One rank's results for the whole stream.
pub struct BatchRankOut {
    /// Per-entry SRUMMA reports (tasks, fetched/direct blocks).
    pub reports: Vec<SrummaReport>,
    /// Per-entry timing samples for the [`BatchStats`] rollup.
    pub samples: Vec<EntryRankSample>,
    /// Final gemm-workspace grow count — the grow-at-most-once
    /// regression asserts this stays `≤ 1` across the whole batch.
    pub ws_grow_count: u64,
}

/// One rank's whole batch as **one** [`RankProgram`]: its entries back
/// to back, each a [`SrummaMachine`] run `STRIDE` tasks per step. It
/// never parks — there is nothing to wait for — so on the executor a
/// worker only leaves it for another rank at a yield.
pub struct BatchProgram<'a> {
    plans: &'a [EntryPlan<'a>],
    /// The entry this rank is on.
    e: usize,
    machine: Option<SrummaMachine<'a>>,
    scratch: MachineScratch,
    samples: Vec<EntryRankSample>,
    reports: Vec<SrummaReport>,
}

impl<'a> BatchProgram<'a> {
    fn new(plans: &'a [EntryPlan<'a>]) -> Self {
        BatchProgram {
            plans,
            e: 0,
            machine: None,
            scratch: MachineScratch::default(),
            samples: vec![EntryRankSample::default(); plans.len()],
            reports: Vec::with_capacity(plans.len()),
        }
    }

    fn take_out<C: Comm>(&mut self, comm: &C) -> BatchRankOut {
        BatchRankOut {
            reports: std::mem::take(&mut self.reports),
            samples: std::mem::take(&mut self.samples),
            ws_grow_count: comm.ws_grow_count(),
        }
    }
}

impl RankProgram for BatchProgram<'_> {
    type Out = BatchRankOut;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<BatchRankOut> {
        let Some(plan) = self.plans.get(self.e) else {
            return Step::Done(self.take_out(comm));
        };
        let sample = &mut self.samples[self.e];
        let mut t0 = comm.now();
        let machine = self.machine.get_or_insert_with(|| {
            sample.t_start = t0;
            if let Some(c0) = plan.c0 {
                seed_c(plan.c, comm.rank(), c0);
                let t1 = comm.now();
                sample.stage_s = t1 - t0;
                t0 = t1;
            }
            let scratch = std::mem::take(&mut self.scratch);
            SrummaMachine::new(
                comm, &plan.spec, plan.a, plan.b, plan.c, &plan.opts, scratch,
            )
        });
        if machine.run(comm, STRIDE) {
            sample.compute_s += comm.now() - t0;
            return Step::Yield;
        }
        let machine = self.machine.take().expect("machine exists");
        let (report, scratch) = machine.finish(comm);
        self.scratch = scratch;
        let t1 = comm.now();
        sample.compute_s += t1 - t0;
        sample.t_end = t1;
        sample.tasks_run = report.tasks as u64;
        sample.tasks_masked = report.masked_tasks as u64;
        sample.flops_skipped = report.skipped_flops;
        self.reports.push(report);
        self.e += 1;
        Step::Yield
    }
}

/// Results of a batched run.
pub struct BatchResult {
    /// Per-entry numeric results, in batch order.
    pub outputs: Vec<Matrix>,
    /// Per-entry SRUMMA reports summed across ranks.
    pub reports: Vec<SrummaReport>,
    /// Per rank, the grow count of the gemm workspace it last computed
    /// in — its worker's on the executor (each must stay `≤ 1`).
    pub ws_grow_counts: Vec<u64>,
    /// The per-entry / whole-stream metrics rollup.
    pub stats: BatchStats,
}

fn entry_label(spec: &GemmSpec) -> String {
    format!("{} {}x{}x{}", spec.case_label(), spec.m, spec.n, spec.k)
}

fn assemble_batch(
    batch: &BatchSpec,
    outputs: Vec<Matrix>,
    rank_outs: Vec<BatchRankOut>,
    wall_s: f64,
) -> BatchResult {
    let n = batch.entries.len();
    let mut reports = vec![SrummaReport::default(); n];
    let mut entries = Vec::with_capacity(n);
    for (e, entry) in batch.entries.iter().enumerate() {
        let mut samples = Vec::with_capacity(rank_outs.len());
        for ro in &rank_outs {
            samples.push(ro.samples[e]);
            reports[e].tasks += ro.reports[e].tasks;
            reports[e].fetched_blocks += ro.reports[e].fetched_blocks;
            reports[e].direct_blocks += ro.reports[e].direct_blocks;
            reports[e].masked_tasks += ro.reports[e].masked_tasks;
            reports[e].skipped_flops += ro.reports[e].skipped_flops;
        }
        entries.push(EntryStats {
            index: e,
            label: entry_label(&entry.spec),
            flops: entry.spec.flops(),
            samples,
        });
    }
    BatchResult {
        outputs,
        reports,
        ws_grow_counts: rank_outs.iter().map(|ro| ro.ws_grow_count).collect(),
        stats: BatchStats::from_entries(entries, wall_s),
    }
}

/// What [`run_batch`] hands a backend: the constructor of one rank's
/// program over the views it lent.
type NewProgram<'p> = dyn Fn() -> BatchProgram<'p> + Sync + 'p;

/// What the backend hands back: each rank's results, the run's wall (or
/// modeled) seconds, and whatever else it reports.
type Launched<X> = (Vec<BatchRankOut>, f64, X);

/// Everything a batched run does that does not depend on the backend:
/// allocate the outputs, lend every entry's operands and output to the
/// ranks in place, let `launch` run one [`BatchProgram`] per rank (it is
/// handed the constructor), and roll the per-rank results up. An empty
/// batch launches nothing.
fn run_batch<X>(
    batch: &BatchSpec,
    nranks: usize,
    launch: impl for<'p> FnOnce(&'p NewProgram<'p>) -> Launched<X>,
) -> (BatchResult, Option<X>) {
    if batch.entries.is_empty() {
        return (assemble_batch(batch, Vec::new(), Vec::new(), 0.0), None);
    }
    let grid = default_grid(nranks);
    // Untouched until each owner's `c0` copy or pre-pass fills its tile.
    let mut outputs: Vec<Matrix> = (batch.entries.iter())
        .map(|e| Matrix::zeros(e.spec.m, e.spec.n))
        .collect();
    let operands = batch.entries.iter().map(|e| {
        let masks = (e.mask_a.as_ref(), e.mask_b.as_ref());
        (&e.spec, e.a.as_ref(), e.b.as_ref(), masks)
    });
    let products = outputs.iter_mut().map(Matrix::as_mut).collect();
    let (rank_outs, wall_s, extra) =
        with_host_operand_sets(grid, operands, CostMap::Identity, |specs, ab| {
            DistMatrix::with_host_views_mut(grid, products, |cs| {
                let plans: Vec<EntryPlan> = (batch.entries.iter().enumerate())
                    .map(|(e, entry)| EntryPlan {
                        spec: match entry.c0 {
                            Some(_) => specs[e],
                            None => fresh_c(&specs[e], grid, false).0,
                        },
                        opts: batch.entry_opts(e),
                        c0: entry.c0.as_ref(),
                        a: &ab[2 * e],
                        b: &ab[2 * e + 1],
                        c: &cs[e],
                    })
                    .collect();
                launch(&|| BatchProgram::new(&plans))
            })
        });
    (
        assemble_batch(batch, outputs, rank_outs, wall_s),
        Some(extra),
    )
}

/// The executor launcher of [`multiply_batch_exec`] and
/// [`multiply_batch_traced`]: a [`ProgramTask`] per rank polls the
/// program.
fn launch_exec<'p>(
    nranks: usize,
    workers: usize,
    trace: bool,
    program: &'p NewProgram<'p>,
) -> Launched<TracedRun> {
    let res = exec_run_tasks(nranks, workers, trace, None, |comm| {
        Box::new(ProgramTask::new(comm, program()))
    });
    let traced = TracedRun {
        stats: res.stats,
        trace: res.trace,
    };
    (res.outputs, res.wall_seconds, traced)
}

/// Run the batch on real host threads (one thread per rank). The
/// correctness baseline for the executor path — the same program over
/// the same views.
pub fn multiply_batch(batch: &BatchSpec, nranks: usize) -> BatchResult {
    run_batch(batch, nranks, |program| {
        let res = thread_run(nranks, |comm| drive(comm, program()));
        (res.outputs, res.wall_seconds, ())
    })
    .0
}

/// Run the batch under the virtual-time simulator (real data, modeled
/// time) — the third leg of the correctness matrix.
pub fn multiply_batch_sim(batch: &BatchSpec, machine: &Machine, nranks: usize) -> BatchResult {
    run_batch(batch, nranks, |program| {
        let opts = SimOptions::new(machine.clone(), nranks);
        let res = sim_run(&opts, |comm| drive(comm, program()));
        (res.outputs, res.stats.makespan, ())
    })
    .0
}

/// Run the batch on the work-stealing executor: `nranks` logical ranks
/// on `workers` worker threads, **one** pool for the whole stream, every
/// matrix read and written in place, and no rank ever waiting for
/// another. This is the tentpole path — ranks run ahead into later
/// entries while stragglers finish earlier ones.
pub fn multiply_batch_exec(batch: &BatchSpec, nranks: usize, workers: usize) -> BatchResult {
    run_batch(batch, nranks, |p| launch_exec(nranks, workers, false, p)).0
}

/// [`multiply_batch_exec`] with wall-clock event tracing on: returns
/// the batch result plus the merged scheduler/kernel timeline and
/// executor statistics.
pub fn multiply_batch_traced(
    batch: &BatchSpec,
    nranks: usize,
    workers: usize,
) -> (BatchResult, TracedRun) {
    let (res, traced) = run_batch(batch, nranks, |p| launch_exec(nranks, workers, true, p));
    (res, traced.expect("a traced run needs at least one entry"))
}

/// Serial reference for every entry: `C_e = α·A_e·B_e + β·C0_e` (zeros
/// when `c0` is absent) — operands logical, exactly as the batch reads
/// them. Entries with block-sparsity masks multiply the **masked
/// copies** (masked blocks zeroed), enforcing the semantics that data
/// inside a masked block is ignored.
pub fn batch_serial_reference(batch: &BatchSpec) -> Vec<Matrix> {
    batch
        .entries
        .iter()
        .map(|e| {
            let mut c = match &e.c0 {
                Some(c0) => c0.clone(),
                None => Matrix::zeros(e.spec.m, e.spec.n),
            };
            c.as_mut().scale(e.spec.beta);
            if e.spec.k > 0 {
                let am = e.mask_a.as_ref().map(|m| m.masked_copy(&e.a));
                let bm = e.mask_b.as_ref().map(|m| m.masked_copy(&e.b));
                srumma_dense::dgemm(
                    Op::N,
                    Op::N,
                    e.spec.alpha,
                    am.as_ref().unwrap_or(&e.a).as_ref(),
                    bm.as_ref().unwrap_or(&e.b).as_ref(),
                    1.0,
                    c.as_mut(),
                );
            }
            c
        })
        .collect()
}
