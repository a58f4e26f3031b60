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
//!   (`with_host_operand_sets`: transposes normalised to `N`, logical
//!   masks unflipped, exactly as a `Run` reads its operands), and every
//!   entry's output as a writable view
//!   ([`DistMatrix::with_host_views_mut`]): the owner of a tile computes
//!   it where the caller reads it. Nothing zeroes an output
//!   (`with_fresh_outputs` allocates it with capacity only), so each
//!   tile's first write is its owner's, in parallel. The one copy left
//!   is an entry's `c0`: its owner copies its block into the output
//!   window before the `β` pre-pass. An entry without `c0` runs with `β`
//!   normalised to 0, as [`fresh_c`] does, so its owner's first task
//!   *stores* the product into the tile — no pre-pass, no read of C —
//!   and only a rank left with no task fills its tile instead;
//! * **one worker pool** — [`multiply_batch_exec`] keeps a single
//!   `ExecComm` executor (each worker's gemm workspace and fetch
//!   buffers, each rank's `MachineScratch`) alive across every entry,
//!   so `ws_grow_count() ≤ 1` holds for the whole stream;
//! * **a team per entry** — entry `e` runs on the ranks
//!   `[base, base + s)`, which run the ordinary SRUMMA machine on
//!   `default_grid(s)` through a [`SubComm`] as if they were the whole
//!   machine (the mechanism of [`crate::repl`]); its views carry
//!   [`CostMap::Base`]`(base)`, so a modeled run still prices every
//!   transfer against global ranks. `s` is what the entry's share of the
//!   stream's flops pays for (`team_size`) and `deal` places the
//!   teams, so small entries stop being cut into tiles too small for the
//!   kernel. An entry without `c0` is bit for bit its `Run` on `s` ranks.
//!
//! Per rank:
//!
//! ```text
//! for e in the entries whose team holds this rank, in deal order:
//!     as rank (me − base) of e's team:
//!         copy c0(e)'s block into the output (if any)
//!         build e's SrummaMachine; run it STRIDE tasks per step; finish
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
//! That loop is one [`RankProgram`], `BatchProgram`, which never
//! parks: the executor polls it, the simulator steps it, the threads
//! [`drive`] the same value — which is what makes the three-backend
//! correctness matrix possible.

use crate::driver::{default_grid, TracedRun};
use crate::layout::{fresh_c, with_host_operand_sets, HostOperands};
use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{MachineScratch, SrummaMachine, SrummaReport, STRIDE};
use srumma_comm::{
    drive, exec_run_tasks, sim_run_programs, thread_run, Comm, CostMap, DistMatrix, ProgramTask,
    RankProgram, SimOptions, Step, SubComm,
};
use srumma_dense::{BlockMask, MatMut, Matrix, Op};
use srumma_model::{Machine, ProcGrid, Topology};
use srumma_trace::{BatchStats, EntryRankSample, EntryStats};
use std::ops::Range;

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
    pub(crate) opts: Option<SrummaOptions>,
    /// Logical block-sparsity mask of A (`p` C-row blocks × `q`
    /// k-panels of `default_grid(nranks)`, which is why a masked entry
    /// runs on the whole machine). Masked blocks are declared zero:
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
    /// may be `None` ≡ dense). Masks are **logical**: shaped by the
    /// blocking of `default_grid(nranks)` (`p × q`), with A's columns and
    /// B's rows indexing k-panels — the blocks of the logical operands
    /// the ranks read, in every transpose case. Whatever data sits inside
    /// a masked block is ignored. A batch with a mask of another shape
    /// panics before any rank runs, naming the entry.
    pub fn with_masks(mut self, mask_a: Option<BlockMask>, mask_b: Option<BlockMask>) -> Self {
        self.mask_a = mask_a;
        self.mask_b = mask_b;
        self
    }
}

/// A stream of multiplies to run on one worker pool.
#[derive(Clone)]
pub struct BatchSpec {
    /// The entries. Results come back in this order, whatever order
    /// the ranks run them in (largest first).
    pub entries: Vec<BatchEntry>,
    /// Default options for entries without an override.
    pub(crate) opts: SrummaOptions,
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

/// What a rank needs of one entry: its index, the spec to run
/// (transposes normalised to `N`; `β` to 0 when there is no `c0`), the
/// options, the `c0` to seed the output from, the entry's three views
/// (over its team's grid), and its team: the global ranks that run it
/// and the machine they see.
struct EntryPlan<'v> {
    index: usize,
    spec: GemmSpec,
    opts: SrummaOptions,
    c0: Option<&'v Matrix>,
    a: &'v DistMatrix,
    b: &'v DistMatrix,
    c: &'v DistMatrix,
    team: Range<usize>,
    topo: Topology,
}

/// How many of `topo`'s ranks an entry runs on, in a stream of `total`
/// flops. A masked entry gets the whole machine: its masks are drawn on
/// `default_grid(nranks)`. Any other entry gets the largest divisor `s`
/// of the rank count with `s ≤ max(1, ⌊nranks · flops / total⌋)` — the
/// ranks its share of the stream pays for — that, on a machine of
/// several nodes, divides a node or is whole nodes, so that a team on a
/// multiple of `s` never splits one (the whole machine always
/// qualifies). A one-entry stream, or one with no flops at all, keeps
/// the whole machine.
fn team_size(entry: &BatchEntry, total: f64, topo: Topology) -> usize {
    let (nranks, rpn) = (topo.nranks(), topo.ranks_per_node());
    if entry.mask_a.is_some() || entry.mask_b.is_some() || total <= 0.0 {
        return nranks;
    }
    let paid = ((nranks as f64 * entry.spec.flops() / total) as usize).max(1);
    let whole_nodes =
        |s: usize| topo.nnodes() == 1 || rpn.is_multiple_of(s) || s.is_multiple_of(rpn);
    (1..=paid.min(nranks))
        .rev()
        .find(|&s| nranks.is_multiple_of(s) && (s == nranks || whole_nodes(s)))
        .expect("one rank is always a team")
}

/// Each entry's team, and the order the entries were dealt in — the
/// order every rank runs its own. Entries are dealt by flops, largest
/// first (ties by index); each goes to the aligned window of its
/// `team_size` `s` (a `base` that is a multiple of `s`) whose
/// most-loaded rank is least loaded (the lowest such `base`), and adds
/// `flops / s` to every rank of that window.
fn deal(batch: &BatchSpec, topo: Topology) -> (Vec<Range<usize>>, Vec<usize>) {
    let total = batch.flops();
    let flops: Vec<f64> = batch.entries.iter().map(|e| e.spec.flops()).collect();
    let mut order: Vec<usize> = (0..flops.len()).collect();
    order.sort_by(|&x, &y| flops[y].total_cmp(&flops[x]));
    let mut load = vec![0.0; topo.nranks()];
    let mut teams = vec![0..0; flops.len()];
    for &e in &order {
        let s = team_size(&batch.entries[e], total, topo);
        let busiest = |base: usize| load[base..base + s].iter().copied().fold(0.0, f64::max);
        let base = (0..topo.nranks())
            .step_by(s)
            .min_by(|&x, &y| busiest(x).total_cmp(&busiest(y)))
            .expect("a machine has a rank");
        load[base..base + s]
            .iter_mut()
            .for_each(|l| *l += flops[e] / s as f64);
        teams[e] = base..base + s;
    }
    (teams, order)
}

/// Fail, naming the entry, on a mask that is not shaped for
/// `default_grid(nranks)` — the grid a masked entry's team runs on —
/// before any rank runs.
fn check_masks(batch: &BatchSpec, nranks: usize) {
    let grid = default_grid(nranks);
    for (e, entry) in batch.entries.iter().enumerate() {
        for (what, mask) in [("A", &entry.mask_a), ("B", &entry.mask_b)] {
            if let Some(mask) = mask {
                assert!(
                    (mask.rows(), mask.cols()) == (grid.p, grid.q),
                    "batch entry {e}: mask {what} is {}x{}, want {}x{} \
                     (the blocks of default_grid({nranks}))",
                    mask.rows(),
                    mask.cols(),
                    grid.p,
                    grid.q
                );
            }
        }
    }
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

/// One rank's results for the whole stream, in batch order (default
/// values for the entries whose team does not hold the rank).
pub(crate) struct BatchRankOut {
    /// Per-entry SRUMMA reports (tasks, fetched/direct blocks).
    pub(crate) reports: Vec<SrummaReport>,
    /// Per-entry timing samples for the [`BatchStats`] rollup.
    pub(crate) samples: Vec<EntryRankSample>,
    /// Final gemm-workspace grow count — the grow-at-most-once
    /// regression asserts this stays `≤ 1` across the whole batch.
    pub(crate) ws_grow_count: u64,
}

/// One rank's whole batch as **one** [`RankProgram`]: the entries of
/// its teams back to back, in deal order, each a [`SrummaMachine`] run
/// `STRIDE` tasks per step through its team's [`SubComm`]. It never
/// parks — there is nothing to wait for — so on the executor a worker
/// only leaves it for another rank at a yield.
pub(crate) struct BatchProgram<'a> {
    /// Every entry's plan, in deal order.
    plans: &'a [EntryPlan<'a>],
    /// The plan this rank is on.
    e: usize,
    machine: Option<SrummaMachine<'a>>,
    scratch: MachineScratch,
    /// The entry the last step ran tasks of, and the clock it started
    /// them at: the next step's first clock read closes that interval
    /// (and the entry, if the step finished it).
    ran: Option<(usize, f64)>,
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
            ran: None,
            samples: vec![EntryRankSample::default(); plans.len()],
            reports: vec![SrummaReport::default(); plans.len()],
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

    /// The clock is read at the top of a step, before the step posts
    /// anything — a simulated rank's is known only there — and again
    /// after a `c0` copy, which costs the model nothing. What the last
    /// step ran is timed up to that first read.
    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<BatchRankOut> {
        let mut t0 = comm.now();
        if let Some((e, since)) = self.ran.take() {
            let sample = &mut self.samples[e];
            sample.compute_s += t0 - since;
            if self.machine.is_none() {
                sample.t_end = t0;
            }
        }
        let me = comm.rank();
        while (self.plans.get(self.e)).is_some_and(|plan| !plan.team.contains(&me)) {
            self.e += 1;
        }
        let Some(plan) = self.plans.get(self.e) else {
            return Step::Done(self.take_out(comm));
        };
        let comm = &mut SubComm::new(comm, plan.team.start, plan.team.len(), plan.topo);
        let sample = &mut self.samples[plan.index];
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
        self.ran = Some((plan.index, t0));
        if machine.run(comm, STRIDE) {
            return Step::Yield;
        }
        let machine = self.machine.take().expect("machine exists");
        let (report, scratch) = machine.finish(comm);
        self.scratch = scratch;
        sample.tasks_run = report.tasks as u64;
        sample.tasks_masked = report.masked_tasks as u64;
        sample.flops_skipped = report.skipped_flops;
        self.reports[plan.index] = report;
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

/// Roll each entry up over the ranks of its team (`teams[e]`).
fn assemble_batch(
    batch: &BatchSpec,
    outputs: Vec<Matrix>,
    rank_outs: Vec<BatchRankOut>,
    wall_s: f64,
    teams: &[Range<usize>],
) -> BatchResult {
    let n = batch.entries.len();
    let mut reports = vec![SrummaReport::default(); n];
    let mut entries = Vec::with_capacity(n);
    for (e, entry) in batch.entries.iter().enumerate() {
        let mut samples = Vec::with_capacity(teams[e].len());
        for ro in &rank_outs[teams[e].clone()] {
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
            base: teams[e].start,
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

/// Lend `f` a writable view of a fresh `rows × cols` output per
/// `(rows, cols, grid, cost)` of `windows`, paired with its `grid` and
/// `cost` — what [`DistMatrix::with_host_views_mut`] takes — and hand the
/// outputs back, in order, once `f` has returned. An output is allocated
/// with capacity only — nothing zeroes it, serially or otherwise — so
/// the first write of each element is its owner's: a `c0` copy, the
/// pre-pass fill, or the first task's store under `β = 0`. Debug builds
/// fill every output with NaN first, so an element no owner wrote fails
/// any check against a reference rather than reading uninitialised
/// memory.
///
/// # Safety
/// If `f` returns normally, it must have written every element of every
/// view it was lent: the outputs are handed back as initialised.
unsafe fn with_fresh_outputs<R>(
    windows: impl IntoIterator<Item = (usize, usize, ProcGrid, CostMap)>,
    f: impl for<'c> FnOnce(Vec<(MatMut<'c>, ProcGrid, CostMap)>) -> R,
) -> (Vec<Matrix>, R) {
    let mut bufs: Vec<_> = (windows.into_iter())
        .map(|(rows, cols, grid, cost)| (Vec::with_capacity(rows * cols), rows, cols, grid, cost))
        .collect();
    #[cfg(debug_assertions)]
    for (buf, ..) in &mut bufs {
        buf.spare_capacity_mut()
            .fill(std::mem::MaybeUninit::new(f64::NAN));
    }
    let lent = (bufs.iter_mut())
        .map(|(buf, rows, cols, grid, cost)| {
            // SAFETY: a `rows × cols` view at `ld = cols` spans exactly the
            // buffer's `rows · cols` allocated elements, which nothing
            // else reaches while `f` runs; `f` cannot keep the view, whose
            // lifetime it does not choose. The elements may be
            // uninitialised: the ranks only write through it.
            let view = unsafe { MatMut::from_raw(buf.as_mut_ptr(), *rows, *cols, *cols) };
            (view, *grid, *cost)
        })
        .collect();
    let r = f(lent);
    let outputs = (bufs.into_iter())
        .map(|(mut buf, rows, cols, ..)| {
            // SAFETY: `f` returned normally, so by this function's contract
            // every element of the buffer is initialised. Had `f` unwound,
            // the buffers would have been dropped unread, at length 0.
            unsafe { buf.set_len(rows * cols) };
            Matrix::from_vec(rows, cols, buf)
        })
        .collect();
    (outputs, r)
}

/// Everything a batched run does that does not depend on the backend:
/// check the masks, deal the entries to teams of `topo`'s ranks,
/// allocate the outputs ([`with_fresh_outputs`]), lend every entry's
/// operands and output to its team in place, let `launch` run one
/// `BatchProgram` per rank (it is handed the constructor), and roll the
/// per-rank results up. An empty batch launches nothing.
fn run_batch<X>(
    batch: &BatchSpec,
    topo: Topology,
    launch: impl for<'p> FnOnce(&'p NewProgram<'p>) -> Launched<X>,
) -> (BatchResult, Option<X>) {
    check_masks(batch, topo.nranks());
    if batch.entries.is_empty() {
        return (
            assemble_batch(batch, Vec::new(), Vec::new(), 0.0, &[]),
            None,
        );
    }
    let (teams, order) = deal(batch, topo);
    let place = |e: usize| (default_grid(teams[e].len()), CostMap::Base(teams[e].start));
    let operands = batch.entries.iter().enumerate().map(|(e, entry)| {
        let (grid, cost) = place(e);
        HostOperands {
            spec: &entry.spec,
            a: entry.a.as_ref(),
            b: entry.b.as_ref(),
            masks: (entry.mask_a.as_ref(), entry.mask_b.as_ref()),
            grid,
            cost,
        }
    });
    let products = batch.entries.iter().enumerate().map(|(e, entry)| {
        let (grid, cost) = place(e);
        (entry.spec.m, entry.spec.n, grid, cost)
    });
    let run = |products: Vec<(MatMut<'_>, ProcGrid, CostMap)>| {
        with_host_operand_sets(operands, |specs, ab| {
            DistMatrix::with_host_views_mut(products, |cs| {
                let plans: Vec<EntryPlan> = (order.iter())
                    .map(|&e| EntryPlan {
                        index: e,
                        spec: match batch.entries[e].c0 {
                            Some(_) => specs[e],
                            None => fresh_c(&specs[e], cs[e].grid(), false).0,
                        },
                        opts: batch.entry_opts(e),
                        c0: batch.entries[e].c0.as_ref(),
                        a: &ab[2 * e],
                        b: &ab[2 * e + 1],
                        c: &cs[e],
                        team: teams[e].clone(),
                        topo: topo.team(teams[e].len()),
                    })
                    .collect();
                launch(&|| BatchProgram::new(&plans))
            })
        })
    };
    // SAFETY: `launch` returns normally only once every rank has run each
    // of its entries to the end, and for each entry the tiles of its
    // team's grid cover the output, each written whole by its owner: the
    // `c0` copy, the pre-pass fill of a rank with no task, or the first
    // task's store.
    let (outputs, (rank_outs, wall_s, extra)) = unsafe { with_fresh_outputs(products, run) };
    let res = assemble_batch(batch, outputs, rank_outs, wall_s, &teams);
    (res, Some(extra))
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
    let res = exec_run_tasks(nranks, workers, trace, None, None, |comm| {
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
    run_batch(batch, Topology::single_domain(nranks), |program| {
        let res = thread_run(nranks, |comm| drive(comm, program()));
        (res.outputs, res.wall_seconds, ())
    })
    .0
}

/// Run the batch under the virtual-time simulator (real data, modeled
/// time) — the third leg of the correctness matrix.
pub fn multiply_batch_sim(batch: &BatchSpec, machine: &Machine, nranks: usize) -> BatchResult {
    run_batch(batch, machine.topology(nranks), |program| {
        let opts = SimOptions::new(machine.clone(), nranks);
        let res = sim_run_programs(&opts, |_| program());
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
    let topo = Topology::single_domain(nranks);
    run_batch(batch, topo, |p| launch_exec(nranks, workers, false, p)).0
}

/// [`multiply_batch_exec`] with wall-clock event tracing on: returns
/// the batch result plus the merged scheduler/kernel timeline and
/// executor statistics.
pub fn multiply_batch_traced(
    batch: &BatchSpec,
    nranks: usize,
    workers: usize,
) -> (BatchResult, TracedRun) {
    let topo = Topology::single_domain(nranks);
    let (res, traced) = run_batch(batch, topo, |p| launch_exec(nranks, workers, true, p));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream of square entries of the given sizes, cycling through
    /// NN, TN and NT; the operands are never read.
    fn stream(sizes: impl IntoIterator<Item = usize>) -> BatchSpec {
        let trans = [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)];
        let mut batch = BatchSpec::new();
        for (i, n) in sizes.into_iter().enumerate() {
            let (ta, tb) = trans[(i / 3) % 3];
            let (a, b) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
            batch.push(BatchEntry::new(GemmSpec::new(ta, tb, n, n, n), a, b));
        }
        batch
    }

    /// The benchmark's stream — 64 entries, `n` ∈ {64, 96, 128}, on 16
    /// ranks: its largest entry is 3.1 % of the flops, so every team is
    /// one rank, and the largest-first deal leaves the ranks' flops
    /// within one largest entry of each other.
    #[test]
    fn the_benchmark_stream_deals_one_entry_per_rank() {
        let batch = stream((0..64).map(|i| [64, 96, 128][i % 3]));
        let (teams, order) = deal(&batch, Topology::single_domain(16));
        assert!(teams.iter().all(|t| t.len() == 1), "{teams:?}");
        let mut load = [0.0; 16];
        for (team, entry) in teams.iter().zip(&batch.entries) {
            load[team.start] += entry.spec.flops();
        }
        let lo = load.iter().copied().fold(f64::MAX, f64::min);
        let hi = load.iter().copied().fold(0.0, f64::max);
        assert!(hi - lo <= GemmSpec::square(128).flops(), "{load:?}");
        // Largest first, ties by index.
        let flops = |e: usize| batch.entries[e].spec.flops();
        let dealt_before =
            |x: usize, y: usize| flops(x) > flops(y) || (flops(x) == flops(y) && x < y);
        assert!(order.windows(2).all(|w| dealt_before(w[0], w[1])));
    }

    /// Four equal entries on 16 ranks are each paid four ranks, in four
    /// disjoint windows; a lone entry and a masked one keep the whole
    /// machine.
    #[test]
    fn equal_entries_get_disjoint_windows_and_masks_keep_the_machine() {
        let topo = Topology::single_domain(16);
        let (teams, _) = deal(&stream([128; 4]), topo);
        assert_eq!(teams, [0..4, 4..8, 8..12, 12..16]);
        assert_eq!(deal(&stream([128]), topo).0[0], 0..16);
        // Half the flops pays for 8 ranks; the masked half takes all 16.
        let mut masked = stream([128, 128]);
        masked.entries[1].mask_a = Some(BlockMask::random(4, 4, 0.5, 1));
        assert_eq!(deal(&masked, topo).0, [0..8, 0..16]);
    }

    /// On nodes of 4 ranks a team divides a node or is whole nodes: the
    /// 6 ranks half a stream's flops pays for on 12 ranks would split a
    /// node, so that entry gets 4.
    #[test]
    fn a_team_never_splits_a_node() {
        let batch = stream([128, 128]);
        assert_eq!(deal(&batch, Topology::single_domain(12)).0, [0..6, 6..12]);
        assert_eq!(deal(&batch, Topology::new(12, 4)).0, [0..4, 4..8]);
    }
}
