//! Batched multi-GEMM driver: one executor, one arena, amortized
//! synchronization across a stream of multiplies.
//!
//! SRUMMA's per-multiply fixed costs — arena allocation, rank spawn,
//! and the open/close barrier pair — are negligible for one large
//! product but dominate a *stream* of small-to-medium tiles (the
//! chemistry-style workloads behind task-based SUMMA descendants).
//! This module runs a whole [`BatchSpec`] with those costs paid once:
//!
//! * **one arena** — a ring of `window` slots, each holding one A, B
//!   and C region per rank, sized up front to the batch high-water
//!   mark ([`crate::memory::batch_region_elems`]); entry `e` lives in
//!   slot `e % window`;
//! * **one worker pool** — [`multiply_batch_exec`] keeps a single
//!   `ExecComm` executor (each worker's gemm workspace and fetch
//!   buffers, each rank's [`MachineScratch`]) alive across every entry,
//!   so `ws_grow_count() ≤ 1` holds for the whole stream;
//! * **epoch fences instead of barriers** — each entry has a *staged*
//!   fence (all ranks loaded its operands) and a *done* fence (all
//!   ranks computed and extracted it), on the split fence of
//!   [`Comm`] ([`Comm::fence_arrive`] / [`Comm::fence_try`]), which
//!   never blocks on the executor. A rank that finishes entry `i`
//!   immediately stages entry `i+1` while stragglers finish `i` — the
//!   paper's communication/computation overlap lifted from the task
//!   level to the batch level.
//!
//! Per rank, with `n` entries and a `window ≥ 2` slot ring:
//!
//! ```text
//! stage(0); arrive staged(0)
//! for e in 0..n:
//!     if e+1 < n:
//!         if e+1 ≥ window: wait done(e+1−window)   # slot must be free
//!         stage(e+1); arrive staged(e+1)
//!     wait staged(e); compute(e); extract(e); arrive done(e)
//! ```
//!
//! `window == 1` degenerates to the serialized variant (stage gated on
//! the previous entry's done fence) — the loop-of-multiplies shape,
//! still on one arena and one pool. The ring size *is* the look-ahead,
//! and every entry runs at the prefetch depth its options say: nothing
//! adjusts either while the stream runs, and neither changes a bit of
//! any output (`batch_multiply.rs`, the depth × window grid).
//!
//! That text is one [`RankProgram`], [`BatchProgram`]: the executor
//! polls it, with the fence waits as park points; the blocking backends
//! (threads, simulator) [`drive`] the same value, where the trait's
//! defaults make every `arrive` a full barrier and every `wait` a
//! no-op — which is what makes the three-backend correctness matrix
//! possible. Time inside `arrive` is charged to the entry's `fence_s`
//! like time parked in a `wait`, so [`BatchStats`] reads the same
//! whichever of the two blocks.

use crate::driver::{default_grid, TracedRun};
use crate::layout::{dist_a_in_arena, dist_b_in_arena, dist_c_in_arena};
use crate::memory::batch_region_elems;
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{MachineScratch, SrummaMachine, SrummaReport, STRIDE};
use srumma_comm::{
    drive, exec_run_tasks, sim_run, thread_run, Comm, DistMatrix, ProgramTask, RankProgram,
    SharedArena, SimOptions, Step,
};
use srumma_dense::{BlockMask, Matrix, Op};
use srumma_model::Machine;
use srumma_trace::{BatchStats, EntryRankSample, EntryStats};
use std::sync::{Arc, Mutex};

/// One multiply of a batch: a spec, its logical operands (`a` is
/// `m × k`, `b` is `k × n`, transposition resolved by the layout layer
/// exactly as in [`crate::layout::scatter_operands`]), an optional
/// initial C (`m × n`, scaled by `spec.beta`) and an optional per-entry
/// options override.
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
    /// their staging, gets and gemm segments are skipped entirely.
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
    /// k-panels — the layout layer transposes them to stored
    /// coordinates for the `T` cases. Whatever data sits inside a
    /// masked block is ignored.
    pub fn with_masks(mut self, mask_a: Option<BlockMask>, mask_b: Option<BlockMask>) -> Self {
        self.mask_a = mask_a;
        self.mask_b = mask_b;
        self
    }
}

/// A stream of multiplies to run on one executor and one arena.
#[derive(Clone)]
pub struct BatchSpec {
    /// The entries, executed in order (results are order-stable).
    pub entries: Vec<BatchEntry>,
    /// Default options for entries without an override.
    pub opts: SrummaOptions,
    /// Slot-ring size: how many entries may be resident at once.
    /// `1` serializes entries (the loop-of-multiplies shape); the
    /// default `3` lets a rank stage entry `e+1` while it computes `e`
    /// and stragglers still read `e−1`.
    pub window: usize,
}

impl Default for BatchSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchSpec {
    /// An empty batch with default options and a 3-slot ring.
    pub fn new() -> Self {
        BatchSpec {
            entries: Vec::new(),
            opts: SrummaOptions::default(),
            window: 3,
        }
    }

    /// Set the default options for all entries.
    pub fn with_opts(mut self, opts: SrummaOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the slot-ring size (clamped to `[1, entries]` at run time).
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "batch window must be at least 1");
        self.window = window;
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

/// Per-entry layout over the shared slot ring.
struct EntryPlan {
    spec: GemmSpec,
    opts: SrummaOptions,
    da: DistMatrix,
    db: DistMatrix,
    dc: DistMatrix,
}

/// Build the one shared arena (slot ring sized to the batch high-water
/// mark) and the per-entry distributed views into it. Region id of rank
/// `r`'s role-`o` block in slot `s` is `s·nranks·3 + 3r + o` — i.e.
/// each entry's `DistMatrix` uses `base = slot·nranks·3 + role`,
/// `stride = 3`.
fn build_storage(
    batch: &BatchSpec,
    grid: srumma_model::ProcGrid,
    window: usize,
) -> (Arc<SharedArena>, Vec<EntryPlan>) {
    let n = grid.nranks();
    let specs: Vec<GemmSpec> = batch.entries.iter().map(|e| e.spec).collect();
    let (ea, eb, ec) = batch_region_elems(&specs, grid);
    let mut lens = Vec::with_capacity(window * n * 3);
    for _slot in 0..window {
        for r in 0..n {
            lens.push(ea[r]);
            lens.push(eb[r]);
            lens.push(ec[r]);
        }
    }
    let (arena, _offsets) = SharedArena::new(&lens);
    let plans = batch
        .entries
        .iter()
        .enumerate()
        .map(|(e, entry)| {
            let slot = e % window;
            let base = slot * n * 3;
            let mut da = dist_a_in_arena(&entry.spec, grid, Arc::clone(&arena), base, 3);
            let mut db = dist_b_in_arena(&entry.spec, grid, Arc::clone(&arena), base + 1, 3);
            if let Some(m) = &entry.mask_a {
                crate::layout::set_a_mask(&entry.spec, &mut da, m.clone());
            }
            if let Some(m) = &entry.mask_b {
                crate::layout::set_b_mask(&entry.spec, &mut db, m.clone());
            }
            EntryPlan {
                spec: entry.spec,
                opts: batch.entry_opts(e),
                da,
                db,
                dc: dist_c_in_arena(&entry.spec, grid, Arc::clone(&arena), base + 2, 3),
            }
        })
        .collect();
    (arena, plans)
}

/// Stage this rank's stored blocks of entry `e` into its slot: A and B
/// in stored orientation (element-transposed in place for the `T`
/// cases, mirroring [`crate::layout::scatter_operands`] without
/// materializing a transposed copy), C from `c0` or zeros. Writes only
/// this rank's own regions — no synchronization needed beyond the slot
/// being free.
fn stage_entry(entry: &BatchEntry, plan: &EntryPlan, rank: usize) {
    // Masked-out operand blocks are never read (their tasks are pruned
    // before the machine runs), so their staging copy is skipped too —
    // the slot region keeps whatever stale data it held. C staging
    // stays unconditional: every rank's C tile must be β-initialized
    // even when its entire k-row of tasks vanished.
    if plan.da.block_nonzero(rank) {
        let (r0, c0) = plan.da.block_origin(rank);
        let mut w = plan.da.write_block(rank);
        if let Some(mut dst) = w.mat_mut() {
            match plan.spec.transa {
                Op::N => dst.copy_from(entry.a.block(r0, c0, dst.rows(), dst.cols())),
                Op::T => dst.copy_transposed_from(entry.a.block(c0, r0, dst.cols(), dst.rows())),
            }
        }
    }
    if plan.db.block_nonzero(rank) {
        let (r0, c0) = plan.db.block_origin(rank);
        let mut w = plan.db.write_block(rank);
        if let Some(mut dst) = w.mat_mut() {
            match plan.spec.transb {
                Op::N => dst.copy_from(entry.b.block(r0, c0, dst.rows(), dst.cols())),
                Op::T => dst.copy_transposed_from(entry.b.block(c0, r0, dst.cols(), dst.rows())),
            }
        }
    }
    {
        let (r0, c0) = plan.dc.block_origin(rank);
        let mut w = plan.dc.write_block(rank);
        if let Some(mut dst) = w.mat_mut() {
            // A slot's C region holds a previous entry's stale result —
            // zeros must be written explicitly.
            match &entry.c0 {
                Some(c) => dst.copy_from(c.block(r0, c0, dst.rows(), dst.cols())),
                None => dst.fill(0.0),
            }
        }
    }
}

/// Copy this rank's finished C block of entry `e` into the per-entry
/// output (disjoint blocks; the lock only serializes the bookkeeping).
fn extract_entry(plan: &EntryPlan, rank: usize, out: &Mutex<Matrix>) {
    let blk = plan.dc.read_block(rank);
    let Some(src) = blk.mat() else {
        return;
    };
    let (r0, c0) = plan.dc.block_origin(rank);
    let mut out = out.lock().expect("output lock");
    out.block_mut(r0, c0, src.rows(), src.cols()).copy_from(src);
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

/// Where a [`BatchProgram`] resumes on its next step.
enum BatchState {
    /// Head of iteration `e`: stage what is not staged yet up to the
    /// look-ahead — `e+1` on a ring of two or more slots, `e` itself on
    /// the serialized ring of one — each entry once its slot is free
    /// (its previous occupant's done fence); then wait for `e`'s staged
    /// fence.
    Head { e: usize },
    /// Driving entry `e`'s [`SrummaMachine`], a stride per step.
    Compute { e: usize },
}

/// One rank's whole batch as **one** [`RankProgram`]. On the
/// work-stealing executor the per-entry epoch fences are park points,
/// so a rank blocked on a straggler costs a deque entry, not an OS
/// thread, and the worker slot immediately runs another rank's staging
/// or compute for a different entry.
pub struct BatchProgram<'a> {
    batch: &'a BatchSpec,
    plans: &'a [EntryPlan],
    outputs: &'a [Mutex<Matrix>],
    window: usize,
    state: BatchState,
    machine: Option<SrummaMachine<'a>>,
    scratch: MachineScratch,
    /// Fence indices of this rank's staged/done arrivals, by entry.
    sf: Vec<u64>,
    df: Vec<u64>,
    /// Time the current fence wait began (None when not waiting).
    wait_t0: Option<f64>,
    samples: Vec<EntryRankSample>,
    reports: Vec<SrummaReport>,
}

impl<'a> BatchProgram<'a> {
    fn new(
        batch: &'a BatchSpec,
        plans: &'a [EntryPlan],
        outputs: &'a [Mutex<Matrix>],
        window: usize,
    ) -> Self {
        let n = plans.len();
        BatchProgram {
            batch,
            plans,
            outputs,
            window,
            state: BatchState::Head { e: 0 },
            machine: None,
            scratch: MachineScratch::default(),
            sf: Vec::with_capacity(n),
            df: Vec::with_capacity(n),
            wait_t0: None,
            samples: vec![EntryRankSample::default(); n],
            reports: Vec::with_capacity(n),
        }
    }

    /// Arrive at this rank's next fence on `entry`'s account, the clock
    /// having just read `t0`; returns the fence and the time after.
    fn arrive<C: Comm>(&mut self, comm: &mut C, entry: usize, t0: f64) -> (u64, f64) {
        let f = comm.fence_arrive();
        let t1 = comm.now();
        self.samples[entry].fence_s += t1 - t0;
        (f, t1)
    }

    fn stage<C: Comm>(&mut self, comm: &mut C, e: usize) {
        let t0 = comm.now();
        self.samples[e].t_start = t0;
        stage_entry(&self.batch.entries[e], &self.plans[e], comm.rank());
        let t1 = comm.now();
        self.samples[e].stage_s += t1 - t0;
        debug_assert_eq!(self.sf.len(), e);
        let (f, _) = self.arrive(comm, e, t1);
        self.sf.push(f);
    }

    /// Test fence `f`; on failure remember when the wait began (the
    /// rank is now registered as a waiter and should park), on success
    /// charge the elapsed wait to `samples[entry].fence_s`.
    fn fence_poll<C: Comm>(&mut self, comm: &mut C, f: u64, entry: usize) -> bool {
        if comm.fence_try(f) {
            if let Some(t0) = self.wait_t0.take() {
                self.samples[entry].fence_s += comm.now() - t0;
            }
            true
        } else {
            if self.wait_t0.is_none() {
                self.wait_t0 = Some(comm.now());
            }
            false
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
        match self.state {
            BatchState::Head { e } => {
                let Some(last) = self.plans.len().checked_sub(1) else {
                    return Step::Done(self.take_out(comm));
                };
                let ahead = (e + usize::from(self.window >= 2)).min(last);
                while self.sf.len() <= ahead {
                    let s = self.sf.len();
                    let w = self.window;
                    // Entry `s` reuses the slot of entry `s − w`.
                    if s >= w && !self.fence_poll(comm, self.df[s - w], s) {
                        return Step::Park;
                    }
                    self.stage(comm, s);
                }
                if !self.fence_poll(comm, self.sf[e], e) {
                    return Step::Park;
                }
                self.state = BatchState::Compute { e };
                Step::Yield
            }
            BatchState::Compute { e } => {
                let t0 = comm.now();
                let machine = self.machine.get_or_insert_with(|| {
                    let plan = &self.plans[e];
                    let scratch = std::mem::take(&mut self.scratch);
                    SrummaMachine::new(
                        comm, &plan.spec, &plan.da, &plan.db, &plan.dc, &plan.opts, scratch,
                    )
                });
                if machine.run(comm, STRIDE) {
                    self.samples[e].compute_s += comm.now() - t0;
                    return Step::Yield;
                }
                // Release the C write guard (finish) before arriving
                // at the done fence — peers passing it may restage this
                // slot.
                let machine = self.machine.take().expect("machine exists");
                let (report, scratch) = machine.finish(comm);
                self.scratch = scratch;
                self.samples[e].tasks_run = report.tasks as u64;
                self.samples[e].tasks_masked = report.masked_tasks as u64;
                self.samples[e].flops_skipped = report.skipped_flops;
                self.reports.push(report);
                extract_entry(&self.plans[e], comm.rank(), &self.outputs[e]);
                let t1 = comm.now();
                self.samples[e].compute_s += t1 - t0;
                debug_assert_eq!(self.df.len(), e);
                let (f, t2) = self.arrive(comm, e, t1);
                self.df.push(f);
                self.samples[e].t_end = t2;
                if e + 1 == self.plans.len() {
                    return Step::Done(self.take_out(comm));
                }
                self.state = BatchState::Head { e: e + 1 };
                Step::Yield
            }
        }
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
    outputs: Vec<Mutex<Matrix>>,
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
        outputs: outputs
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
            .collect(),
        reports,
        ws_grow_counts: rank_outs.iter().map(|ro| ro.ws_grow_count).collect(),
        stats: BatchStats::from_entries(entries, wall_s),
    }
}

/// What [`run_batch`] hands a backend: the constructor of one rank's
/// program over the storage it laid out.
type NewProgram<'p> = dyn Fn() -> BatchProgram<'p> + Sync + 'p;

/// What the backend hands back: each rank's results, the run's wall (or
/// modeled) seconds, and whatever else it reports.
type Launched<X> = (Vec<BatchRankOut>, f64, X);

/// Everything a batched run does that does not depend on the backend:
/// lay the stream out over one slot-ring arena, let `launch` run one
/// [`BatchProgram`] per rank (it is handed the constructor), and roll
/// the per-rank results up. An empty batch launches nothing.
fn run_batch<X>(
    batch: &BatchSpec,
    nranks: usize,
    launch: impl for<'p> FnOnce(&'p NewProgram<'p>) -> Launched<X>,
) -> (BatchResult, Option<X>) {
    if batch.entries.is_empty() {
        return (assemble_batch(batch, Vec::new(), Vec::new(), 0.0), None);
    }
    let grid = default_grid(nranks);
    let window = batch.window.clamp(1, batch.entries.len());
    let (_arena, plans) = build_storage(batch, grid, window);
    let outputs: Vec<Mutex<Matrix>> = batch
        .entries
        .iter()
        .map(|e| Mutex::new(Matrix::zeros(e.spec.m, e.spec.n)))
        .collect();
    let (rank_outs, wall_s, extra) = launch(&|| BatchProgram::new(batch, &plans, &outputs, window));
    (
        assemble_batch(batch, outputs, rank_outs, wall_s),
        Some(extra),
    )
}

/// The executor launcher of [`multiply_batch_exec`] and
/// [`multiply_batch_traced`]: a [`ProgramTask`] per rank polls the
/// program, with the fence waits as park points.
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

/// Run the batch on real host threads (one thread per rank, blocking
/// barriers at the fence points). The correctness baseline for the
/// executor path — same staging, same slot ring, same arena.
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
/// on `workers` worker threads, **one** pool and **one** arena for the
/// whole stream, per-entry epoch fences instead of open/close barrier
/// pairs. This is the tentpole path — independent entries overlap.
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
/// when `c0` is absent) — operands logical, exactly as the batch stages
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
