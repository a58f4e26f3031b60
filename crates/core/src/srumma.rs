//! SRUMMA — the paper's algorithm (§3.1 cluster version, §3.2
//! shared-memory flavors).
//!
//! Per rank, for its own C block:
//!
//! 1. build the task list `C_ij += op(A)_i[seg] · op(B)[seg]_j`
//!    ([`crate::taskorder::build_tasks`]);
//! 2. reorder it — SMP-domain tasks first, remote sweep diagonally
//!    shifted ([`crate::taskorder::order_tasks`]);
//! 3. run the prefetch pipeline: while the serial kernel chews on the
//!    blocks of task *t* (buffer B1), nonblocking gets fill further
//!    buffers with the blocks of tasks *t+1 … t+depth* (the paper's
//!    B1/B2 scheme is `prefetch_depth = 1`; deeper pipelines are an
//!    extension this crate exposes for ablation). A buffer is a
//!    [`PackedPanel`]: the get lands the block in it once, in the order
//!    the micro-kernel reads it and at its full k-depth
//!    ([`Landing::Packed`]), and the kernel runs on a k-range of the
//!    panel as it lies — the buffer the paper hands to `dgemm`, not a
//!    stop-over that `dgemm` would copy again;
//! 4. blocks reachable through cacheable shared memory skip the fetch
//!    entirely and are passed to the kernel *in place* (direct access —
//!    profitable on the Altix, catastrophic on the X1, Figure 5); the
//!    kernel packs those itself, and one task may have one operand of
//!    each kind ([`Operand`]).
//!
//! No rank ever synchronizes with another during the multiply — the
//! only barrier is the closing one that makes C globally visible,
//! which is what makes SRUMMA "more asynchronous" than Cannon/SUMMA.
//!
//! The rank's whole share — optional node-group staging
//! ([`crate::hier`]), the task loop, the closing fence — is one
//! [`SrummaProgram`]: polled on the executor and stepped by the
//! simulator on one thread, [`drive`](srumma_comm::drive)n where fences
//! block.

use crate::hier::{stage_panels, HierStageSet, HierStages};
use crate::layout::{a_owner, a_seg_view, b_owner, b_seg_view};
use crate::options::{GemmSpec, ShmemFlavor, SrummaOptions};
use crate::run::RankReport;
use crate::taskorder::{build_tasks_into, diagonal_shift_origin, order_tasks_into, Task};
use srumma_comm::{Comm, DistMatrix, GetHandle, Landing, RankProgram, Step};
use srumma_dense::{Operand, PackedPanel, PackedView, Side};

/// Per-rank execution summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrummaReport {
    /// Segment tasks executed.
    pub tasks: usize,
    /// Blocks fetched with (possibly nonblocking) gets.
    pub(crate) fetched_blocks: usize,
    /// Blocks passed to the kernel directly from shared memory.
    pub(crate) direct_blocks: usize,
    /// Segment tasks pruned by block-sparsity masks — their gets,
    /// packing and gemm never ran.
    pub masked_tasks: usize,
    /// Flops the pruned tasks would have cost this rank
    /// (`2 · c_rows · c_cols · skipped_k`).
    pub skipped_flops: u64,
}

/// How one operand block reaches the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// Read in place from the owner's block of the matrix's window.
    Direct { owner: usize },
    /// Fetched (shm memcpy or RMA get) into a pipeline panel, where it
    /// lands already packed for the kernel.
    Fetch { owner: usize },
}

/// One operand's prefetch pipeline: `depth + 1` reusable packed panels
/// (the paper's B1/B2 at depth 1). A get lands its block in a slot in
/// the order the micro-kernel reads it, at the block's full k-depth, so
/// every task that uses the panel — any k-segment of it — multiplies
/// straight out of the slot.
#[derive(Default)]
struct Pipeline {
    slots: Vec<Slot>,
}

#[derive(Default)]
struct Slot {
    panel: Option<usize>,
    buf: PackedPanel,
    pending: Option<GetHandle>,
}

impl Pipeline {
    #[cfg(test)]
    fn new(depth: usize) -> Self {
        let mut p = Pipeline::default();
        p.reset(depth);
        p
    }

    /// Re-arm for a new multiply at pipeline depth `depth`, keeping
    /// whatever slot panels the previous one left here (all of them
    /// unless the backend pools panels per worker, see
    /// [`Comm::lease_buf`]) — a batch must not reallocate them per entry.
    fn reset(&mut self, depth: usize) {
        for s in &self.slots {
            assert!(s.pending.is_none(), "pipeline reset with a get in flight");
        }
        self.slots.resize_with(depth + 1, Slot::default);
        for s in &mut self.slots {
            s.panel = None;
        }
    }

    fn bufs(&mut self) -> impl Iterator<Item = &mut PackedPanel> {
        self.slots.iter_mut().map(|s| &mut s.buf)
    }

    fn find(&self, panel: usize) -> Option<usize> {
        self.slots.iter().position(|s| s.panel == Some(panel))
    }

    /// Ensure a get has been issued for `panel`, to land packed as
    /// `side` of the product. `window` holds the panels of the tasks
    /// currently in flight (the running task plus the prefetch
    /// lookahead); a slot holding a window panel is never evicted. With
    /// `depth + 1` slots a victim always exists.
    #[allow(clippy::too_many_arguments)]
    fn ensure_issued<C: Comm>(
        &mut self,
        comm: &mut C,
        mat: &DistMatrix,
        owner: usize,
        panel: usize,
        side: Side,
        window: &[usize],
        fetched: &mut usize,
    ) -> usize {
        if let Some(i) = self.find(panel) {
            return i;
        }
        let victim = self
            .slots
            .iter()
            .position(|s| match s.panel {
                None => true,
                Some(p) => !window.contains(&p),
            })
            .expect("pipeline window larger than slot count");
        let slot = &mut self.slots[victim];
        // The window invariant makes a pending get on the victim
        // unlikely (`depth + 1` slots cover the whole in-flight
        // window), but reusing a panel that a nonblocking get is still
        // filling would corrupt data silently — so drain any pending
        // transfer before the panel is overwritten.
        if let Some(h) = slot.pending.take() {
            comm.wait(h);
        }
        slot.panel = Some(panel);
        let into = Landing::Packed(&mut slot.buf, side);
        slot.pending = Some(comm.nbget(mat, owner, into));
        *fetched += 1;
        victim
    }

    /// Wait (in model time) for the slot's pending get, if any.
    fn wait_ready<C: Comm>(&mut self, comm: &mut C, idx: usize) {
        if let Some(h) = self.slots[idx].pending.take() {
            comm.wait(h);
        }
    }

    /// The whole panel held in `idx` (None if nothing landed: virtual
    /// backing, or a block with an empty dimension).
    fn view(&self, idx: usize) -> Option<PackedView<'_>> {
        let buf = &self.slots[idx].buf;
        (!buf.is_empty()).then(|| buf.view())
    }
}

/// Reusable per-rank allocations of a [`SrummaMachine`] — the
/// **batch-continuation mode**. [`SrummaMachine::finish`] hands back
/// the machine's task list, ordering, source table, prefetch pipelines
/// and window vectors; [`SrummaMachine::new`] re-arms them for the next
/// multiply in a stream (a single multiply starts from the empty
/// default and drops them). The fetched panels stay in the pipelines, or
/// between entries with the worker the rank last ran on
/// ([`Comm::return_buf`]); combined with the backend's persistent
/// [`srumma_dense` gemm workspace](srumma_comm::Comm::ws_grow_count),
/// a whole batch of multiplies runs with no steady-state per-entry
/// heap allocation.
#[derive(Default)]
pub(crate) struct MachineScratch {
    tasks: Vec<Task>,
    /// The `(k, aparts, bparts)` that `tasks` is the whole list of;
    /// `None` once a mask pruned it.
    built: Option<(usize, usize, usize)>,
    order: Vec<usize>,
    sources: Vec<(Source, Source)>,
    a_pipe: Pipeline,
    b_pipe: Pipeline,
    /// Eviction-protection windows, allocated once and refilled per
    /// task — the task loop is the per-rank hot path and must stay
    /// allocation-free in the steady state.
    wa: Vec<usize>,
    wb: Vec<usize>,
}

/// SRUMMA's per-rank task loop as a resumable state machine: all the
/// setup in [`SrummaMachine::new`], one pipelined task per
/// [`SrummaMachine::step`], the C write-guard released by
/// [`SrummaMachine::finish`].
///
/// The machine deliberately contains **no** synchronization: the
/// fences around it belong to the program that owns it
/// ([`SrummaProgram`], the batch program), and a machine — cursor,
/// pipelines, C guard and all — can be handed to another rank's
/// communicator mid-run (see [`crate::chaos`]).
pub(crate) struct SrummaMachine<'a> {
    spec: &'a GemmSpec,
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    depth: usize,
    /// Task list, ordering, source table, pipelines and windows: the
    /// allocations that outlive this multiply in a batch.
    scratch: MachineScratch,
    cw: srumma_comm::dist::BlockWrite<'a>,
    crows: usize,
    ccols: usize,
    pos: usize,
    /// C's tile holds nothing yet (`β = 0`, no pre-pass ran): the next
    /// task stores its product instead of adding it. The machine's own
    /// state, so a survivor that adopts it mid-run carries it on.
    store_next: bool,
    report: SrummaReport,
    /// Hierarchical staging redirect (see [`crate::hier`]): when set,
    /// fetches of off-node panels that the group staged are served from
    /// the group's staging matrices instead of the remote owner.
    hier: Option<HierStages<'a>>,
}

impl<'a> SrummaMachine<'a> {
    /// Build this rank's task list, ordering, source resolution and
    /// prefetch pipelines — inside `scratch`'s allocations (a previous
    /// multiply's [`SrummaMachine::finish`], or the empty default) —
    /// apply the beta pre-pass (under `β = 0`, only on a rank left with no
    /// task: otherwise its first task stores), and take the C write
    /// guard. No task runs yet.
    pub(crate) fn new<C: Comm>(
        comm: &mut C,
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
        opts: &SrummaOptions,
        mut scratch: MachineScratch,
    ) -> Self {
        let me = comm.rank();
        let grid = c.grid();
        let (gi, gj) = grid.coords(me);
        let aparts = crate::layout::a_kparts(grid);
        let bparts = crate::layout::b_kparts(grid);
        let depth = opts.prefetch_depth;

        if scratch.built != Some((spec.k, aparts, bparts)) {
            build_tasks_into(&mut scratch.tasks, spec.k, aparts, bparts);
            scratch.built = Some((spec.k, aparts, bparts));
        }

        // Block-sparsity pruning: a k-segment whose A block or B block
        // is masked out contributes nothing to this rank's C_ij, so the
        // task never exists — no get, no packing, no gemm. Pruning
        // happens before ordering, so the scheduling policies see only
        // surviving tasks; a rank whose entire k-row vanished still
        // applies `C ← β·C` in the pre-pass below (and still arrives at
        // every fence — it simply has no work).
        let mut masked_tasks = 0usize;
        let mut skipped_flops = 0u64;
        if a.mask().is_some() || b.mask().is_some() {
            let (pruned, skipped_k) =
                crate::taskorder::prune_masked_tasks(&mut scratch.tasks, |t| {
                    a.block_nonzero(a_owner(spec, grid, gi, t.la))
                        && b.block_nonzero(b_owner(spec, grid, t.lb, gj))
                });
            if pruned > 0 {
                scratch.built = None;
                let crows = srumma_comm::dist::chunk_len(spec.m, grid.p, gi);
                let ccols = srumma_comm::dist::chunk_len(spec.n, grid.q, gj);
                masked_tasks = pruned;
                skipped_flops = 2 * (crows * ccols * skipped_k) as u64;
                comm.recorder().count_masked(pruned as u64, skipped_flops);
            }
        }

        let shift = if opts.diagonal_shift {
            diagonal_shift_origin(gi, gj, aparts)
        } else {
            0
        };

        // A task is "local" when both its blocks are in this rank's
        // domain.
        let local_comm = &*comm;
        let is_local = |t: &Task| {
            local_comm.same_domain(a_owner(spec, grid, gi, t.la))
                && local_comm.same_domain(b_owner(spec, grid, t.lb, gj))
        };
        order_tasks_into(
            &mut scratch.order,
            scratch.tasks.len(),
            &scratch.tasks,
            aparts,
            shift,
            opts.smp_first,
            is_local,
        );

        // Decide each block's source once.
        let direct_ok = |owner: usize, comm: &C| match opts.shmem {
            ShmemFlavor::Auto => comm.prefer_direct_access(owner),
            ShmemFlavor::ForceCopy => false,
            ShmemFlavor::ForceDirect => comm.same_domain(owner),
        };

        // Pre-resolve sources per ordered task (A and B independently).
        scratch.sources.clear();
        scratch.sources.extend(scratch.order.iter().map(|&idx| {
            let t = &scratch.tasks[idx];
            let ao = a_owner(spec, grid, gi, t.la);
            let bo = b_owner(spec, grid, t.lb, gj);
            let sa = if direct_ok(ao, comm) {
                Source::Direct { owner: ao }
            } else {
                Source::Fetch { owner: ao }
            };
            let sb = if direct_ok(bo, comm) {
                Source::Direct { owner: bo }
            } else {
                Source::Fetch { owner: bo }
            };
            (sa, sb)
        }));

        // PBLAS beta pre-pass: the owner scales its block in place. One
        // flop per C element — negligible next to the 2k flops per
        // element of the products, so no model time is charged. With
        // `β = 0` C need not be set, and every task writes the whole tile,
        // so while one survived, the first one stores and nothing here
        // touches C; a rank left with no task fills it.
        let store_next = spec.beta == 0.0 && !scratch.tasks.is_empty();
        if spec.beta != 1.0 && !store_next {
            c.scale_block(me, spec.beta);
        }

        let cw = c.write_block(me);
        let (crows, ccols) = (cw.rows(), cw.cols());
        debug_assert_eq!(crows, srumma_comm::dist::chunk_len(spec.m, grid.p, gi));
        debug_assert_eq!(ccols, srumma_comm::dist::chunk_len(spec.n, grid.q, gj));

        scratch.a_pipe.reset(depth);
        scratch.b_pipe.reset(depth);
        for buf in scratch.a_pipe.bufs().chain(scratch.b_pipe.bufs()) {
            comm.lease_buf(buf);
        }
        scratch.wa.clear();
        scratch.wa.reserve(depth + 1);
        scratch.wb.clear();
        scratch.wb.reserve(depth + 1);

        SrummaMachine {
            spec,
            a,
            b,
            depth,
            scratch,
            cw,
            crows,
            ccols,
            pos: 0,
            store_next,
            report: SrummaReport {
                masked_tasks,
                skipped_flops,
                ..SrummaReport::default()
            },
            hier: None,
        }
    }

    /// Attach the hierarchical staging redirect: panels whose owner is
    /// off-node *and* which the group's staging pass landed (shared by
    /// at least two members — the same predicate the staging pass uses)
    /// are fetched from the group's staging matrices, pricing as
    /// intra-node copies. Call between [`SrummaMachine::new`] and the
    /// first [`SrummaMachine::step`], after the staging barrier.
    pub(crate) fn with_hier(mut self, stages: HierStages<'a>) -> Self {
        self.hier = Some(stages);
        self
    }

    /// Run one pipelined task (prefetch lookahead, wait for the current
    /// blocks, segment dgemm). Returns `true` while more tasks remain.
    pub(crate) fn step<C: Comm>(&mut self, comm: &mut C) -> bool {
        let Some(&idx) = self.scratch.order.get(self.pos) else {
            return false;
        };
        let (spec, depth, pos) = (self.spec, self.depth, self.pos);
        let t = self.scratch.tasks[idx];
        let (sa, sb) = self.scratch.sources[pos];
        self.scratch.wa.clear();
        self.scratch.wb.clear();
        for &i in &self.scratch.order[pos..(pos + depth + 1).min(self.scratch.order.len())] {
            self.scratch.wa.push(self.scratch.tasks[i].la);
            self.scratch.wb.push(self.scratch.tasks[i].lb);
        }
        let span = comm.task_begin();

        // Prefetch: issue nonblocking gets for the next `depth` tasks'
        // blocks (including this task's, if not yet issued) before
        // waiting — the gets overlap with this task's dgemm (Figure 3).
        // With depth 0 (ablation) only the current task is fetched,
        // i.e. every get degenerates to a blocking one.
        for ahead in 0..=depth {
            let Some(&nidx) = self.scratch.order.get(pos + ahead) else {
                break;
            };
            let nt = &self.scratch.tasks[nidx];
            let (nsa, nsb) = self.scratch.sources[pos + ahead];
            if let Source::Fetch { owner } = nsa {
                let mat = match &self.hier {
                    Some(h) => h.a_mat(self.a, owner),
                    None => self.a,
                };
                self.scratch.a_pipe.ensure_issued(
                    comm,
                    mat,
                    owner,
                    nt.la,
                    Side::A(spec.transa),
                    &self.scratch.wa,
                    &mut self.report.fetched_blocks,
                );
            }
            if let Source::Fetch { owner } = nsb {
                let mat = match &self.hier {
                    Some(h) => h.b_mat(self.b, owner),
                    None => self.b,
                };
                self.scratch.b_pipe.ensure_issued(
                    comm,
                    mat,
                    owner,
                    nt.lb,
                    Side::B(spec.transb),
                    &self.scratch.wb,
                    &mut self.report.fetched_blocks,
                );
            }
        }

        // Wait for this task's blocks (no-op if already complete).
        let a_slot = match sa {
            Source::Fetch { .. } => {
                let s = self
                    .scratch
                    .a_pipe
                    .find(t.la)
                    .expect("current A panel must be resident");
                self.scratch.a_pipe.wait_ready(comm, s);
                Some(s)
            }
            Source::Direct { owner } => {
                self.report.direct_blocks += 1;
                comm.recorder().count_direct(self.a.block_bytes(owner));
                None
            }
        };
        let b_slot = match sb {
            Source::Fetch { .. } => {
                let s = self
                    .scratch
                    .b_pipe
                    .find(t.lb)
                    .expect("current B panel must be resident");
                self.scratch.b_pipe.wait_ready(comm, s);
                Some(s)
            }
            Source::Direct { owner } => {
                self.report.direct_blocks += 1;
                comm.recorder().count_direct(self.b.block_bytes(owner));
                None
            }
        };

        // Kernel call on the segment. Direct blocks borrow the
        // DistMatrix and are packed by the kernel's own loop; fetched
        // ones are the slot's panel, cut to the segment's k-range. Read
        // guards must outlive the gemm call.
        let seg = t.klen();
        let direct = a_slot.is_none() || b_slot.is_none();
        let label = if span.is_some() {
            format!("dgemm la={} lb={} k={}..{}", t.la, t.lb, t.k0, t.k1)
        } else {
            String::new()
        };
        let a_direct = match sa {
            Source::Direct { owner } => Some(self.a.read_block(owner)),
            _ => None,
        };
        let b_direct = match sb {
            Source::Direct { owner } => Some(self.b.read_block(owner)),
            _ => None,
        };
        let av = match (&a_direct, a_slot) {
            (Some(blk), _) => blk.mat().map(|whole| {
                let (v, op) = a_seg_view(spec, whole, t.rel_a(), seg);
                Operand::Plain(v, op)
            }),
            (None, Some(s)) => {
                let whole = self.scratch.a_pipe.view(s);
                whole.map(|p| Operand::Packed(p.k_range(t.rel_a(), seg)))
            }
            _ => None,
        };
        let bv = match (&b_direct, b_slot) {
            (Some(blk), _) => blk.mat().map(|whole| {
                let (v, op) = b_seg_view(spec, whole, t.rel_b(), seg);
                Operand::Plain(v, op)
            }),
            (None, Some(s)) => {
                let whole = self.scratch.b_pipe.view(s);
                whole.map(|p| Operand::Packed(p.k_range(t.rel_b(), seg)))
            }
            _ => None,
        };
        let beta = if std::mem::take(&mut self.store_next) {
            0.0
        } else {
            1.0
        };
        comm.gemm(
            self.crows,
            self.ccols,
            seg,
            spec.alpha,
            av,
            bv,
            beta,
            self.cw.mat_mut(),
            direct,
            &label,
        );
        self.report.tasks += 1;
        comm.recorder().count_task();
        comm.task_end(span, || {
            format!("task la={} lb={} k={}..{}", t.la, t.lb, t.k0, t.k1)
        });
        self.pos += 1;
        self.pos < self.scratch.order.len()
    }

    /// Run at most `limit` tasks; `true` while more remain.
    pub(crate) fn run<C: Comm>(&mut self, comm: &mut C, limit: usize) -> bool {
        for _ in 0..limit {
            if !self.step(comm) {
                return false;
            }
        }
        self.pos < self.scratch.order.len()
    }

    /// Snapshot of the report so far, without consuming the machine
    /// (a rank that dies mid-run reports its partial progress).
    pub(crate) fn report(&self) -> SrummaReport {
        self.report
    }

    /// Release the C write guard, hand the slot panels back
    /// ([`Comm::return_buf`]) and return the report, with the machine's
    /// allocations for the next multiply of a batch (see
    /// [`MachineScratch`]). Call this *before* arriving at the fence
    /// that follows — peers may not read C while this rank's guard is
    /// live.
    pub(crate) fn finish<C: Comm>(mut self, comm: &mut C) -> (SrummaReport, MachineScratch) {
        let pipes = &mut self.scratch;
        for buf in pipes.a_pipe.bufs().chain(pipes.b_pipe.bufs()) {
            comm.return_buf(buf);
        }
        (self.report, self.scratch)
    }
}

/// Tasks a program runs per `step` before yielding to its host — large
/// enough to amortize the scheduling round-trip, small enough that the
/// worker notices a poisoned run soon.
pub(crate) const STRIDE: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Stage,
    StageFence,
    Compute,
    CloseFence,
}

/// One SRUMMA rank, flat or staged, as a [`RankProgram`]: with a stage
/// set, the staging prologue and its fence; then the `SrummaMachine`
/// `STRIDE` tasks per step; then the closing fence. On the executor
/// the fences are park points, which is what lets 1024 ranks run on 4
/// worker threads — a rank waiting in one costs an entry in the
/// barrier's waiter list, not an OS thread.
pub struct SrummaProgram<'a> {
    spec: &'a GemmSpec,
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    c: &'a DistMatrix,
    opts: SrummaOptions,
    stages: Option<&'a HierStageSet>,
    phase: Phase,
    machine: Option<SrummaMachine<'a>>,
    /// Machine allocations a host lent (`GemmProgram::swap_scratch`):
    /// the machine runs on them and leaves them here after its last
    /// task. `None`: it allocates its own and drops them then.
    pub(crate) scratch: Option<MachineScratch>,
    report: RankReport,
}

impl<'a> SrummaProgram<'a> {
    /// One rank's multiply; with `stages` (created for the
    /// communicator's topology), the two-level schedule of
    /// [`crate::hier`]. All work is deferred to the first `step`, so it
    /// runs on the thread that hosts the rank.
    pub fn new(
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
        opts: &SrummaOptions,
        stages: Option<&'a HierStageSet>,
    ) -> Self {
        SrummaProgram {
            spec,
            a,
            b,
            c,
            opts: *opts,
            stages,
            phase: if stages.is_some() {
                Phase::Stage
            } else {
                Phase::Compute
            },
            machine: None,
            scratch: None,
            report: RankReport::default(),
        }
    }

    /// The report so far (partial while tasks remain).
    pub(crate) fn report(&self) -> RankReport {
        self.report
    }

    /// The own-task phase: set up on the first call, then run at most
    /// `limit` tasks; `true` while more remain. Running the last one
    /// releases the C write guard and the slot panels — before any
    /// arrival at the closing fence, past which a peer may gather C.
    /// Any rank's communicator may be passed (a survivor finishing a
    /// dead rank's program, see [`crate::chaos`]).
    pub(crate) fn run_tasks<C: Comm>(&mut self, comm: &mut C, limit: usize) -> bool {
        let machine = self.machine.get_or_insert_with(|| {
            let lent = self.scratch.as_mut().map(std::mem::take);
            let scratch = lent.unwrap_or_default();
            let machine =
                SrummaMachine::new(comm, self.spec, self.a, self.b, self.c, &self.opts, scratch);
            match self.stages {
                Some(stages) => machine.with_hier(stages.redirect(comm.rank(), self.c.grid())),
                None => machine,
            }
        });
        let more = machine.run(comm, limit);
        self.report.srumma = Some(machine.report());
        if !more {
            let machine = self.machine.take().expect("machine exists here");
            let (_, scratch) = machine.finish(comm);
            if let Some(lent) = &mut self.scratch {
                *lent = scratch;
            }
            self.phase = Phase::CloseFence;
        }
        more
    }

    /// The closing fence, which makes C globally visible.
    pub(crate) fn close<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        if comm.barrier_try() {
            Step::Done(self.report)
        } else {
            Step::Park
        }
    }
}

impl RankProgram for SrummaProgram<'_> {
    type Out = RankReport;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        if self.phase == Phase::Stage {
            let stages = self.stages.expect("only a staged program starts here");
            self.report.staged_panels = stage_panels(comm, self.a, self.b, self.c.grid(), stages);
            self.phase = Phase::StageFence;
        }
        if self.phase == Phase::StageFence {
            // Groupmates read the staged panels only past this fence.
            if !comm.barrier_try() {
                return Step::Park;
            }
            self.phase = Phase::Compute;
        }
        if self.phase == Phase::Compute && self.run_tasks(comm, STRIDE) {
            return Step::Yield;
        }
        self.close(comm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{parallel_gemm, Algorithm};
    use srumma_comm::Comm;
    use srumma_dense::{MatMut, MatRef, Op};
    use srumma_model::{ProcGrid, Topology};
    use srumma_trace::Recorder;

    /// A `Comm` that counts gets issued vs. gets waited on: dropping a
    /// pending handle without waiting (the pipeline-eviction bug) shows
    /// up as `completed < issued`.
    struct CountingComm {
        rank: usize,
        nranks: usize,
        recorder: Recorder,
        issued: usize,
        completed: usize,
    }

    impl CountingComm {
        fn new(rank: usize, nranks: usize) -> Self {
            CountingComm {
                rank,
                nranks,
                recorder: Recorder::disabled(rank),
                issued: 0,
                completed: 0,
            }
        }
    }

    impl Comm for CountingComm {
        fn rank(&self) -> usize {
            self.rank
        }
        fn nranks(&self) -> usize {
            self.nranks
        }
        fn topology(&self) -> Topology {
            // One rank per node: every operand block is a remote fetch.
            Topology::flat(self.nranks)
        }
        fn prefer_direct_access(&self, _owner: usize) -> bool {
            false
        }
        fn now(&self) -> f64 {
            0.0
        }
        fn recorder(&mut self) -> &mut Recorder {
            &mut self.recorder
        }
        fn barrier(&mut self) {}
        fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
            self.issued += 1;
            mat.land_block(owner, into);
            GetHandle::Ready
        }
        fn wait(&mut self, _h: GetHandle) {
            self.completed += 1;
        }
        fn nbput(&mut self, _mat: &DistMatrix, _owner: usize, _data: &[f64]) -> GetHandle {
            unreachable!()
        }
        fn acc(
            &mut self,
            _mat: &DistMatrix,
            _owner: usize,
            _scale: f64,
            _data: Option<MatRef<'_>>,
        ) {
            unreachable!()
        }
        fn fence(&mut self) {}
        #[allow(clippy::too_many_arguments)]
        fn gemm(
            &mut self,
            m: usize,
            n: usize,
            k: usize,
            alpha: f64,
            a: Option<Operand<'_>>,
            b: Option<Operand<'_>>,
            beta: f64,
            c: Option<MatMut<'_>>,
            _direct: bool,
            _label: &str,
        ) {
            if m == 0 || n == 0 || k == 0 {
                return;
            }
            if let (Some(a), Some(b), Some(c)) = (a, b, c) {
                let ws = &mut srumma_dense::GemmWorkspace::new();
                srumma_dense::dgemm_operands(alpha, a, b, beta, c, ws);
            }
        }
        fn send(&mut self, _dst: usize, _tag: u64, _data: &[f64], _bytes: u64) {
            unreachable!()
        }
        fn recv(&mut self, _src: usize, _tag: u64, _buf: &mut Vec<f64>, _bytes: u64) {
            unreachable!()
        }
        #[allow(clippy::too_many_arguments)]
        fn sendrecv(
            &mut self,
            _dst: usize,
            _tag: u64,
            _send_data: &[f64],
            _send_bytes: u64,
            _src: usize,
            _recv_buf: &mut Vec<f64>,
            _recv_bytes: u64,
        ) {
            unreachable!()
        }
    }

    /// Regression for the release-build eviction bug: reusing a slot
    /// whose nonblocking get was never waited on used to silently drop
    /// the handle (the guard was only a `debug_assert!`). Forcing an
    /// eviction while the slot's get is still pending must drain it
    /// through `Comm::wait` before the buffer is overwritten.
    #[test]
    fn evicting_a_pending_slot_waits_on_its_get() {
        let mat = DistMatrix::create(ProcGrid::new(1, 1), 4, 4);
        let mut comm = CountingComm::new(0, 1);
        let mut fetched = 0;
        let mut pipe = Pipeline::new(1); // two slots (B1/B2)

        // Fill both slots with pending (never-waited) gets.
        pipe.ensure_issued(&mut comm, &mat, 0, 0, Side::A(Op::N), &[0, 1], &mut fetched);
        pipe.ensure_issued(&mut comm, &mat, 0, 1, Side::A(Op::N), &[0, 1], &mut fetched);
        assert_eq!((comm.issued, comm.completed), (2, 0));

        // A window that protects neither slot forces an eviction while
        // the victim's get is still in flight.
        pipe.ensure_issued(&mut comm, &mat, 0, 2, Side::A(Op::N), &[2], &mut fetched);
        assert_eq!(comm.issued, 3);
        assert_eq!(
            comm.completed, 1,
            "the evicted slot's pending get must be waited on, not dropped"
        );
        assert_eq!(fetched, 3);
    }

    /// Masked blocks are *declared* zero: whatever data their storage
    /// holds must be ignored. This scatters full random operands and
    /// relies purely on task pruning, comparing against the masked
    /// serial reference (operands with masked blocks zeroed).
    #[test]
    fn masked_multiply_prunes_tasks_and_ignores_masked_data() {
        use srumma_dense::{BlockMask, Matrix};
        let spec = GemmSpec::square(12);
        let grid = ProcGrid::new(2, 3);
        let nranks = grid.nranks();
        let aparts = crate::layout::a_kparts(grid);
        let bparts = crate::layout::b_kparts(grid);
        let mask_a = BlockMask::from_fn(grid.p, aparts, |i, la| (i + la) % 2 == 0);
        let mask_b = BlockMask::from_fn(bparts, grid.q, |lb, j| lb == 0 || j == 2);
        let mut da = crate::layout::dist_a(&spec, grid, true);
        let mut db = crate::layout::dist_b(&spec, grid, true);
        let dc = crate::layout::dist_c(&spec, grid, true);
        let a = Matrix::random(spec.m, spec.k, 21);
        let b = Matrix::random(spec.k, spec.n, 22);
        crate::layout::scatter_operands(&spec, &da, &db, &a, &b);
        crate::layout::set_a_mask(&spec, &mut da, mask_a.clone());
        crate::layout::set_b_mask(&spec, &mut db, mask_b.clone());
        let opts = SrummaOptions {
            shmem: ShmemFlavor::ForceCopy,
            ..Default::default()
        };
        let dense_tasks = crate::taskorder::build_tasks(spec.k, aparts, bparts).len();
        for rank in 0..nranks {
            let mut comm = CountingComm::new(rank, nranks);
            let srumma = Algorithm::Srumma(opts);
            let report = parallel_gemm(&mut comm, &srumma, &spec, &da, &db, &dc).unwrap();
            // Pruned + executed tile the dense task list exactly.
            assert_eq!(report.tasks + report.masked_tasks, dense_tasks);
            assert_eq!(report.fetched_blocks, comm.issued, "rank {rank}");
            assert_eq!(comm.issued, comm.completed, "rank {rank}");
            assert_eq!(
                comm.recorder.counters.tasks_masked,
                report.masked_tasks as u64
            );
            assert_eq!(comm.recorder.counters.flops_skipped, report.skipped_flops);
        }
        // Masked serial reference: zero the masked logical blocks, then
        // multiply densely.
        let am = mask_a.masked_copy(&a);
        let bm = mask_b.masked_copy(&b);
        let want = crate::driver::serial_reference(&spec, &am, &bm);
        let got = dc.gather();
        for i in 0..spec.m {
            for j in 0..spec.n {
                assert!(
                    (got[(i, j)] - want[(i, j)]).abs() < 1e-10,
                    "C[{i},{j}]: got {} want {}",
                    got[(i, j)],
                    want[(i, j)]
                );
            }
        }
    }

    /// An all-masked operand prunes every task on every rank, yet each
    /// rank still applies the β pre-pass to its C tile and returns
    /// cleanly — the empty-rank path the fences depend on.
    #[test]
    fn fully_masked_operand_still_beta_scales_c() {
        use srumma_dense::{BlockMask, Matrix};
        let spec = GemmSpec::square(8).with_scalars(2.0, 0.5);
        let grid = ProcGrid::new(2, 2);
        let mut da = crate::layout::dist_a(&spec, grid, true);
        let db = crate::layout::dist_b(&spec, grid, true);
        let dc = crate::layout::dist_c(&spec, grid, true);
        let a = Matrix::random(8, 8, 31);
        let b = Matrix::random(8, 8, 32);
        crate::layout::scatter_operands(&spec, &da, &db, &a, &b);
        crate::layout::set_a_mask(&spec, &mut da, BlockMask::empty(2, 2));
        let c0 = Matrix::random(8, 8, 33);
        dc.scatter(&c0);
        for rank in 0..grid.nranks() {
            let mut comm = CountingComm::new(rank, grid.nranks());
            let srumma = Algorithm::srumma_default();
            let report = parallel_gemm(&mut comm, &srumma, &spec, &da, &db, &dc).unwrap();
            assert_eq!(report.tasks, 0, "rank {rank} must run nothing");
            assert!(report.masked_tasks > 0);
            assert_eq!(comm.issued, 0, "no gets for pruned tasks");
        }
        let got = dc.gather();
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    (got[(i, j)] - 0.5 * c0[(i, j)]).abs() < 1e-14,
                    "beta pre-pass must run on empty ranks"
                );
            }
        }
    }

    /// `Pipeline::reset` with a get still in flight would hand the next
    /// multiply a buffer a transfer is concurrently filling — the guard
    /// must refuse loudly rather than corrupt data silently.
    #[test]
    fn pipeline_reset_with_inflight_get_panics() {
        let mat = DistMatrix::create(ProcGrid::new(1, 1), 4, 4);
        let mut comm = CountingComm::new(0, 1);
        let mut fetched = 0;
        let mut pipe = Pipeline::new(1);
        pipe.ensure_issued(&mut comm, &mat, 0, 0, Side::A(Op::N), &[0], &mut fetched);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.reset(1)))
            .expect_err("reset must panic while a get is pending");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("pipeline reset with a get in flight"),
            "unexpected panic message: {msg}"
        );
    }

    /// Once every pending get is drained, `reset` re-arms cleanly —
    /// including growing to a deeper pipeline — and keeps no stale
    /// panel residency from the previous multiply.
    #[test]
    fn pipeline_reset_after_drain_rearms_cleanly() {
        let mat = DistMatrix::create(ProcGrid::new(1, 1), 4, 4);
        let mut comm = CountingComm::new(0, 1);
        let mut fetched = 0;
        let mut pipe = Pipeline::new(1);
        let s = pipe.ensure_issued(&mut comm, &mat, 0, 0, Side::A(Op::N), &[0], &mut fetched);
        pipe.wait_ready(&mut comm, s);
        pipe.reset(2); // deeper than before: B1/B2 → three slots
        assert_eq!(pipe.slots.len(), 3);
        assert!(
            pipe.find(0).is_none(),
            "reset must clear panel residency from the previous multiply"
        );
        assert_eq!((comm.issued, comm.completed), (1, 1));
    }

    /// Every issued get is eventually waited on across a full multiply,
    /// at pipeline depths beyond the paper's two-buffer scheme and on a
    /// non-square grid (whose merged k-segmentation revisits panels),
    /// and the numeric result stays correct.
    #[test]
    fn deep_pipelines_wait_on_every_issued_get() {
        use srumma_dense::Matrix;
        for depth in [2usize, 3] {
            let spec = GemmSpec::square(12);
            let grid = ProcGrid::new(2, 3);
            let nranks = grid.nranks();
            let da = crate::layout::dist_a(&spec, grid, true);
            let db = crate::layout::dist_b(&spec, grid, true);
            let dc = crate::layout::dist_c(&spec, grid, true);
            let a = Matrix::random(spec.m, spec.k, 7);
            let b = Matrix::random(spec.k, spec.n, 8);
            crate::layout::scatter_operands(&spec, &da, &db, &a, &b);
            let opts = SrummaOptions {
                prefetch_depth: depth,
                shmem: ShmemFlavor::ForceCopy,
                ..Default::default()
            };
            // Ranks run sequentially: each writes only its own C block
            // and the mock's barrier is a no-op.
            for rank in 0..nranks {
                let mut comm = CountingComm::new(rank, nranks);
                let srumma = Algorithm::Srumma(opts);
                let report = parallel_gemm(&mut comm, &srumma, &spec, &da, &db, &dc).unwrap();
                assert_eq!(report.fetched_blocks, comm.issued, "rank {rank}");
                assert_eq!(
                    comm.issued, comm.completed,
                    "depth {depth} rank {rank}: gets issued ({}) != gets waited ({})",
                    comm.issued, comm.completed
                );
            }
            let got = dc.gather();
            let want = crate::driver::serial_reference(&spec, &a, &b);
            for i in 0..spec.m {
                for j in 0..spec.n {
                    assert!(
                        (got[(i, j)] - want[(i, j)]).abs() < 1e-10,
                        "depth {depth}: C[{i},{j}] mismatch"
                    );
                }
            }
        }
    }
}
