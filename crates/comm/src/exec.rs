//! The work-stealing rank executor: N logical ranks on W workers.
//!
//! `ThreadComm` spawns one OS thread per rank, which is faithful to the
//! paper's machines but collapses when the rank count exceeds the host
//! core count by orders of magnitude — exactly the oversubscribed
//! regime (256 "processors" on a laptop) where SRUMMA's task ordering
//! and prefetch pipeline are interesting to study. This backend
//! multiplexes the ranks onto a fixed pool of worker threads instead:
//!
//! * each worker owns a [Chase–Lev deque](crate::deque::WorkDeque) of
//!   runnable task ids and steals from its siblings when its own deque
//!   runs dry;
//! * ranks written as **resumable state machines** (the [`RankTask`]
//!   trait; [`ProgramTask`] makes one of any [`RankProgram`] — every
//!   SRUMMA schedule in `srumma-core` is such a program) are polled
//!   directly on the workers: a failed fence test returns
//!   [`Step::Park`] and costs a deque operation, not a blocked OS
//!   thread, so thousands of ranks need only W threads in total;
//! * ranks written in plain blocking style (SUMMA, Cannon — any
//!   [`Comm`] closure, including one that [`drive`](crate::comm::drive)s
//!   a program) run on dedicated *gated* threads that execute only
//!   while holding a worker's **loan**: every blocking point inside
//!   [`ExecComm`] releases the loan and parks, so runnable concurrency
//!   never exceeds W and the barrier convoy of hundreds of preempted
//!   threads disappears.
//!
//! Both kinds synchronise through the same fence machinery, reached
//! through the [`Comm`] split fence: a polled rank's failed
//! `fence_try` / `barrier_try` registers it as a waiter and returns
//! `false`; a gated rank's never returns `false` — it gives the loan
//! back and sleeps until the fence has completed, exactly as its
//! `barrier` does, because a rank that polled while holding a loan
//! would starve the very ranks it is waiting for.
//!
//! Scheduling itself is observable: steals, parks and resumes are
//! counted (and traced as [`TraceKind::Sched`] events when tracing is
//! on), and every run's [`RunStats`] carries an
//! [`ExecStats`](srumma_trace::ExecStats) with the steal rate and
//! worker-pool occupancy.
//!
//! A panicking rank poisons the whole executor, mirroring the
//! thread backend's poison barrier: parked gated threads unwind with
//! "executor poisoned", state machines are dropped, and the original
//! panic payload is rethrown from the run entry point.

use crate::comm::{Comm, GetHandle, RankProgram, Step};
use crate::deque::WorkDeque;
use crate::dist::{DistMatrix, Landing};
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, Operand, PackedPanel};
use srumma_model::Topology;
use srumma_trace::{Counters, ExecStats, Recorder, RunStats, TraceEvent, TraceKind};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

type Payload = Box<dyn Any + Send + 'static>;
/// One queued message: `(src, tag, data)`.
type Mail = (usize, u64, Vec<f64>);
/// Per-rank trace drainage: merged events plus `(rank, counters)`.
type TraceBag = (Vec<TraceEvent>, Vec<(usize, Counters)>);

/// Scratch of the OS thread that is *running* — a pool worker polling
/// state-machine ranks, or a gated rank's own thread — rather than of
/// the rank that is scheduled: N ranks on W workers pack through W
/// workspaces and recycle one worker's fetch buffers, each faulted in
/// once, instead of N sets mapped cold and unmapped one after another.
#[derive(Default)]
struct WorkerScratch {
    ws: Option<GemmWorkspace>,
    /// Free pipeline panels ([`Comm::lease_buf`] / [`Comm::return_buf`]).
    bufs: Vec<PackedPanel>,
}

thread_local! {
    /// Emptied when the thread leaves its `exec_run*` (a scoped thread's
    /// TLS destructors may run after the scope has returned).
    static SCRATCH: RefCell<WorkerScratch> = RefCell::default();
}

/// A logical rank as a resumable state machine, polled on the worker
/// pool instead of owning an OS thread. The task owns its [`ExecComm`]
/// (built by [`exec_run_tasks`] and handed to the factory). On
/// [`Step::Park`] the task must already be registered as a waiter — the
/// matching wake-up re-enqueues it; a wake that raced the park is
/// detected and the task is re-queued immediately.
pub trait RankTask: Send {
    /// The rank's output (what the blocking closure would return).
    type Out: Send;

    /// Advance until done, a natural yield point, or a blocking
    /// condition.
    fn step(&mut self) -> Step<Self::Out>;

    /// Drain trace events and counters after [`Step::Done`] (typically
    /// forwarding to the owned `ExecComm`'s recorder).
    fn take_trace(&mut self) -> (Vec<TraceEvent>, Counters) {
        (Vec::new(), Counters::default())
    }
}

/// The generic host of a [`RankProgram`] on the executor: the program
/// plus the communicator it is stepped with — the rank's [`ExecComm`],
/// bare or decorated (`ChaosComm<ExecComm>`) — as one pollable task.
pub struct ProgramTask<C, P> {
    comm: C,
    program: P,
}

impl<C, P> ProgramTask<C, P> {
    /// Host `program` on `comm`. Nothing runs until the first poll.
    pub fn new(comm: C, program: P) -> Self {
        ProgramTask { comm, program }
    }
}

impl<C, P> RankTask for ProgramTask<C, P>
where
    C: Comm + Send,
    P: RankProgram + Send,
    P::Out: Send,
{
    type Out = P::Out;

    fn step(&mut self) -> Step<P::Out> {
        self.program.step(&mut self.comm)
    }

    fn take_trace(&mut self) -> (Vec<TraceEvent>, Counters) {
        self.comm.recorder().take()
    }
}

/// Where a rank currently stands with the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// In a deque or the injector, waiting for a worker.
    Queued,
    /// Being polled (FSM) or holding a worker's loan (gated thread).
    Running,
    /// Parked on an event; a wake moves it back to `Queued`.
    Parked,
}

/// Per-task scheduler state (one per logical rank, both kinds).
struct TaskSt {
    phase: Phase,
    /// A wake arrived while the task was not parked: consume it at the
    /// next park attempt instead of sleeping through it.
    pending_wake: bool,
    /// Gated threads only: the loan has been granted / returned.
    granted: bool,
    returned: bool,
    done: bool,
}

struct TaskCtl {
    st: Mutex<TaskSt>,
    /// The gated rank thread waits here for its loan.
    gate: Condvar,
    /// The lending worker waits here for the loan back.
    loan: Condvar,
}

struct Global {
    /// Woken tasks, consumed by any worker (wake-ups go here rather
    /// than into a private deque so a parked worker can be notified).
    injector: VecDeque<usize>,
    /// Workers currently asleep on `work_cv`.
    sleepers: usize,
}

/// Multi-fence synchronization state: the classic split barrier
/// generalized so every rank may be **several fences ahead** of the
/// slowest rank.
///
/// Every rank arrives at fences in the same program order, so a rank's
/// `i`-th arrival is globally fence `i`. Fence `f` is complete once
/// every rank has made at least `f + 1` arrivals — i.e. when
/// `completed = min(arrived) > f`. A plain count/generation barrier
/// breaks here: a fast rank's arrival at fence `f + 1` must not count
/// toward fence `f`'s quorum, which is exactly what per-rank arrival
/// counters capture. The classic full barrier is the special case where
/// every rank waits on its own latest fence before arriving at the
/// next.
struct FenceSt {
    /// Arrivals per rank (rank `r`'s next arrival opens fence
    /// `arrived[r]`).
    arrived: Vec<u64>,
    /// Fences fully passed: all fences `f < completed` are complete.
    completed: u64,
    /// Parked ranks: `(rank, fence awaited)`.
    waiters: Vec<(usize, u64)>,
    /// Ranks whose fence obligations have been retired (declared dead
    /// under fault injection): the frontier ignores them so batches
    /// drain instead of waiting forever on arrivals that cannot come.
    retired: Vec<bool>,
}

impl FenceSt {
    /// The completion frontier over **live** ranks: `min(arrived)`
    /// among non-retired ranks. With every rank retired there is no one
    /// left to wait for, so every fence counts as complete.
    fn frontier(&self) -> u64 {
        self.arrived
            .iter()
            .zip(&self.retired)
            .filter(|&(_, &dead)| !dead)
            .map(|(&a, _)| a)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The shared scheduler: everything both `ExecComm` and the workers
/// touch. Deliberately non-generic — the (output-typed) task storage
/// lives with the run entry points.
struct SchedCore {
    nranks: usize,
    workers: usize,
    trace: bool,
    /// Emulated node layout every rank's `ExecComm` reports. Defaults
    /// to one cacheable domain; the launchers' `topo` argument
    /// overrides it for hierarchical schedules.
    topo: Topology,
    t0: Instant,
    global: Mutex<Global>,
    work_cv: Condvar,
    deques: Vec<WorkDeque>,
    tasks: Vec<TaskCtl>,
    fences: Mutex<FenceSt>,
    /// Per-destination mailboxes (send scans are per-`src` FIFO).
    mail: Vec<Mutex<VecDeque<Mail>>>,
    remaining: AtomicUsize,
    poisoned: AtomicBool,
    payload: Mutex<Option<Payload>>,
    // Scheduling counters (always on; they are a handful of relaxed
    // adds per scheduling decision).
    local_pops: AtomicU64,
    steals: AtomicU64,
    injector_pops: AtomicU64,
    parks: AtomicU64,
    worker_parks: AtomicU64,
    ws_grows: AtomicU64,
    /// Worker-side `Sched` trace events, merged into the run trace.
    sched_events: Mutex<Vec<TraceEvent>>,
}

/// Lock tolerating mutex poisoning: a panicking rank must still be able
/// to poison the executor, and survivors must be able to observe it.
fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SchedCore {
    fn new(nranks: usize, workers: usize, trace: bool, topo: Option<Topology>) -> Arc<Self> {
        assert!(nranks > 0);
        let workers = resolve_workers(workers, nranks);
        let topo = topo.unwrap_or_else(|| Topology::single_domain(nranks));
        assert_eq!(topo.nranks(), nranks, "topology rank count mismatch");
        Arc::new(SchedCore {
            nranks,
            workers,
            trace,
            topo,
            t0: Instant::now(),
            global: Mutex::new(Global {
                injector: VecDeque::new(),
                sleepers: 0,
            }),
            work_cv: Condvar::new(),
            deques: (0..workers).map(|_| WorkDeque::new(nranks + 1)).collect(),
            tasks: (0..nranks)
                .map(|_| TaskCtl {
                    st: Mutex::new(TaskSt {
                        phase: Phase::Queued,
                        pending_wake: false,
                        granted: false,
                        returned: false,
                        done: false,
                    }),
                    gate: Condvar::new(),
                    loan: Condvar::new(),
                })
                .collect(),
            fences: Mutex::new(FenceSt {
                arrived: vec![0; nranks],
                completed: 0,
                waiters: Vec::new(),
                retired: vec![false; nranks],
            }),
            mail: (0..nranks).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(nranks),
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
            local_pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            worker_parks: AtomicU64::new(0),
            ws_grows: AtomicU64::new(0),
            sched_events: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Record the first panic payload, raise the poison flag, and wake
    /// every parked thread so the run unwinds instead of hanging.
    fn poison(&self, p: Payload) {
        {
            let mut slot = relock(&self.payload);
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        self.poisoned.store(true, Ordering::SeqCst);
        {
            let _g = relock(&self.global);
            self.work_cv.notify_all();
        }
        for t in &self.tasks {
            let _st = relock(&t.st);
            t.gate.notify_all();
            t.loan.notify_all();
        }
    }

    /// Push a runnable task where any worker can find it, waking a
    /// sleeper if there is one.
    fn inject(&self, id: usize) {
        let mut g = relock(&self.global);
        g.injector.push_back(id);
        if g.sleepers > 0 {
            self.work_cv.notify_one();
        }
    }

    /// Deliver a wake-up to `id`: re-enqueue it if parked, otherwise
    /// remember the wake so the task's next park attempt consumes it
    /// (the classic lost-wakeup guard).
    fn wake(&self, id: usize) {
        let mut st = relock(&self.tasks[id].st);
        if st.done {
            return;
        }
        if st.phase == Phase::Parked {
            st.phase = Phase::Queued;
            drop(st);
            self.inject(id);
        } else {
            st.pending_wake = true;
        }
    }

    /// Mark `id` finished and, when it was the last, wake everyone so
    /// the workers can exit.
    fn task_done(&self, id: usize) {
        relock(&self.tasks[id].st).done = true;
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = relock(&self.global);
            self.work_cv.notify_all();
        }
    }

    // ---- gated-thread loan protocol ---------------------------------

    /// Rank-thread side: block until a worker grants the run loan.
    /// Panics (unwinding the rank thread) when the executor has been
    /// poisoned — this is how a panic elsewhere releases parked peers.
    fn gate_wait_grant(&self, id: usize) {
        let mut st = relock(&self.tasks[id].st);
        loop {
            if self.is_poisoned() {
                drop(st);
                panic!("executor poisoned: another rank panicked");
            }
            if st.granted {
                st.granted = false;
                st.phase = Phase::Running;
                return;
            }
            st = self.tasks[id]
                .gate
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Rank-thread side: hand the loan back to the lending worker
    /// (on completion or before parking).
    fn gate_release(&self, id: usize) {
        let mut st = relock(&self.tasks[id].st);
        st.returned = true;
        self.tasks[id].loan.notify_all();
    }

    /// Rank-thread side: park until woken. If a wake already raced in,
    /// the loan is kept and the caller simply re-checks its condition.
    fn gate_park(&self, id: usize) {
        {
            let mut st = relock(&self.tasks[id].st);
            if st.pending_wake {
                st.pending_wake = false;
                return;
            }
            st.phase = Phase::Parked;
            st.returned = true;
            self.tasks[id].loan.notify_all();
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.gate_wait_grant(id);
    }

    /// Worker side: grant the loan to gated task `id` and sleep until
    /// it comes back (the rank thread blocked or finished). The worker
    /// slot counts as busy for the whole loan — that thread *is* the
    /// slot's work.
    fn grant_and_lend(&self, id: usize) {
        let mut st = relock(&self.tasks[id].st);
        if st.done {
            return; // stale queue entry for a finished rank
        }
        st.phase = Phase::Running;
        st.granted = true;
        st.returned = false;
        self.tasks[id].gate.notify_all();
        while !st.returned && !self.is_poisoned() {
            st = self.tasks[id]
                .loan
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    // ---- epoch fences -----------------------------------------------

    /// Arrive at this rank's next fence; returns the fence index (the
    /// rank's 0-based arrival count). Arrival never blocks — waiting is
    /// a separate [`Self::fence_check`] / park loop, which is what lets
    /// a rank arrive at several fences (stage entry `i+1`, finish entry
    /// `i`) before anyone waits on the first.
    fn fence_arrive(&self, id: usize) -> u64 {
        let mut b = relock(&self.fences);
        let fence = b.arrived[id];
        b.arrived[id] += 1;
        self.fence_advance(b);
        fence
    }

    /// Recompute the live frontier and release any waiters now behind
    /// it (wake after dropping the lock — wake() takes per-task locks).
    fn fence_advance(&self, mut b: MutexGuard<'_, FenceSt>) {
        let frontier = b.frontier();
        if frontier > b.completed {
            b.completed = frontier;
            let mut woken = Vec::new();
            b.waiters.retain(|&(rank, f)| {
                if f < frontier {
                    woken.push(rank);
                    false
                } else {
                    true
                }
            });
            drop(b);
            for w in woken {
                self.wake(w);
            }
        }
    }

    /// Retire a dead rank's fence obligations: it is removed from every
    /// current and future fence quorum, so in-flight batches drain
    /// instead of hanging on arrivals that can never come. Idempotent.
    /// Note this releases *synchronization* only — re-executing the
    /// dead rank's outstanding work is the chaos rank task's job.
    fn retire_rank(&self, rank: usize) {
        let mut b = relock(&self.fences);
        if b.retired[rank] {
            return;
        }
        b.retired[rank] = true;
        self.fence_advance(b);
    }

    /// Whether fence `f` has completed; if not, register `id` as a
    /// waiter (idempotently) so the completing arrival wakes it.
    fn fence_check(&self, id: usize, f: u64) -> bool {
        let mut b = relock(&self.fences);
        if b.completed > f {
            return true;
        }
        if !b.waiters.iter().any(|&(r, wf)| r == id && wf == f) {
            b.waiters.push((id, f));
        }
        false
    }

    // ---- mailboxes --------------------------------------------------

    fn mail_send(&self, dst: usize, src: usize, tag: u64, data: Vec<f64>) {
        relock(&self.mail[dst]).push_back((src, tag, data));
        self.wake(dst);
    }

    /// Take the oldest message from `src`, if any (per-edge FIFO).
    fn mail_recv(&self, dst: usize, src: usize) -> Option<(u64, Vec<f64>)> {
        let mut q = relock(&self.mail[dst]);
        let pos = q.iter().position(|m| m.0 == src)?;
        let (_, tag, data) = q.remove(pos).expect("position came from this queue");
        Some((tag, data))
    }

    /// Record an instantaneous scheduling marker into the worker-side
    /// event stream (tracing runs only).
    fn sched_event<F: FnOnce() -> String>(
        &self,
        local: &mut Vec<TraceEvent>,
        rank: usize,
        label: F,
    ) {
        if self.trace {
            let t = self.now();
            local.push(TraceEvent {
                rank,
                t0: t,
                t1: t,
                kind: TraceKind::Sched,
                label: label(),
                bytes: 0,
            });
        }
    }
}

// ---- the per-rank communicator -------------------------------------

/// How this `ExecComm`'s rank is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskMode {
    /// Dedicated thread, loan-gated at blocking points.
    Gate,
    /// State machine polled on the workers ([`RankTask`]).
    Fsm,
}

/// Per-rank communicator on the work-stealing executor. Shares the
/// thread backend's data model — one cacheable shared-memory domain,
/// eager memcpy gets, wall-clock time — but its blocking points
/// cooperate with the scheduler instead of blocking an OS thread.
pub struct ExecComm {
    rank: usize,
    nranks: usize,
    mode: TaskMode,
    core: Arc<SchedCore>,
    recorder: Recorder,
    /// Grow count of the workspace this rank last computed in (the
    /// workspace itself belongs to whichever thread runs the `gemm`).
    ws_grows: u64,
    /// Split-barrier bookkeeping for FSM ranks: fence index awaited and
    /// the span start time.
    arrived: Option<(u64, f64)>,
}

impl ExecComm {
    fn new(core: Arc<SchedCore>, rank: usize, mode: TaskMode) -> Self {
        let trace = core.trace;
        ExecComm {
            rank,
            nranks: core.nranks,
            mode,
            core,
            recorder: Recorder::new(rank, trace),
            ws_grows: 0,
            arrived: None,
        }
    }

    #[inline]
    fn span_start(&self) -> f64 {
        if self.recorder.is_enabled() {
            self.core.now()
        } else {
            0.0
        }
    }

    #[inline]
    fn span_end<F: FnOnce() -> String>(&mut self, kind: TraceKind, t0: f64, bytes: u64, label: F) {
        if self.recorder.is_enabled() {
            let t1 = self.core.now();
            self.recorder.span(kind, t0, t1, bytes, label);
        }
    }

    /// Record that this rank is about to park (tracing runs only).
    fn mark_park(&mut self) {
        if self.recorder.is_enabled() {
            let t = self.core.now();
            self.recorder
                .span(TraceKind::Sched, t, t, 0, || "park".to_string());
        }
    }

    /// Gated ranks: sleep, loan returned, until fence `f` has completed.
    fn gate_wait_fence(&mut self, f: u64) {
        while !self.core.fence_check(self.rank, f) {
            self.mark_park();
            self.core.gate_park(self.rank);
        }
    }

    /// Arrive at the next fence **on behalf of another rank** — the
    /// re-execution protocol's proxy arrival: a survivor that has
    /// finished a dead rank's outstanding tasks discharges that rank's
    /// barrier obligation for it, so the closing fence cannot complete
    /// before the re-executed work has actually been done.
    pub fn fence_arrive_for(&mut self, rank: usize) -> u64 {
        self.core.fence_arrive(rank)
    }

    /// Retire `rank` from every current and future fence quorum
    /// (fail-stop death with **no** re-execution — batches drain, but
    /// nobody vouches for the dead rank's unfinished work). Prefer
    /// [`Self::fence_arrive_for`] when survivors re-execute.
    pub fn fence_retire(&mut self, rank: usize) {
        self.core.retire_rank(rank);
    }

    /// Wake every other rank (a dying rank calls this after publishing
    /// its orphaned work, so parked survivors re-check for it).
    pub fn wake_peers(&mut self) {
        for r in 0..self.nranks {
            if r != self.rank {
                self.core.wake(r);
            }
        }
    }

    /// Classify a transfer against the emulated topology: which level of
    /// the (pretend) memory hierarchy served it.
    #[inline]
    fn classify(&mut self, serve: usize, bytes: u64) {
        if serve == self.rank {
            return;
        }
        if self.core.topo.same_domain(self.rank, serve) {
            self.recorder.count_intragroup(bytes);
        } else {
            self.recorder.count_internode(bytes);
        }
    }
}

impl Comm for ExecComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn topology(&self) -> Topology {
        self.core.topo
    }

    fn prefer_direct_access(&self, owner: usize) -> bool {
        // Host shared memory is cacheable, as on the thread backend —
        // but an emulated cluster topology makes off-node blocks
        // fetch-only so hierarchical staging moves real bytes.
        self.core.topo.same_domain(self.rank, owner)
    }

    fn now(&self) -> f64 {
        self.core.now()
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn ws_grow_count(&self) -> u64 {
        self.ws_grows
    }

    fn lease_buf(&mut self, panel: &mut PackedPanel) {
        if let Some(free) = SCRATCH.with_borrow_mut(|s| s.bufs.pop()) {
            *panel = free;
        }
    }

    fn return_buf(&mut self, panel: &mut PackedPanel) {
        SCRATCH.with_borrow_mut(|s| s.bufs.push(std::mem::take(panel)));
    }

    fn barrier(&mut self) {
        assert!(
            self.mode == TaskMode::Gate,
            "state-machine rank tasks must use Comm::barrier_try and Step::Park, \
             not the blocking Comm::barrier"
        );
        let t0 = self.span_start();
        let f = self.core.fence_arrive(self.rank);
        self.gate_wait_fence(f);
        self.span_end(TraceKind::Barrier, t0, 0, String::new);
    }

    /// Never blocks, polled or gated. Fence `f` completes once every
    /// rank has made its `f`-th arrival.
    fn fence_arrive(&mut self) -> u64 {
        self.core.fence_arrive(self.rank)
    }

    fn fence_try(&mut self, f: u64) -> bool {
        match self.mode {
            TaskMode::Fsm => self.core.fence_check(self.rank, f),
            TaskMode::Gate => {
                self.gate_wait_fence(f);
                true
            }
        }
    }

    /// A full barrier is an arrival followed by a wait on the same
    /// fence. Panics when the executor has been poisoned, mirroring the
    /// gated threads' `gate_wait_grant` — a parked polled rank
    /// re-stepped after a peer's panic must unwind, not re-park.
    fn barrier_try(&mut self) -> bool {
        if self.mode == TaskMode::Gate {
            self.barrier();
            return true;
        }
        if self.core.is_poisoned() {
            panic!("executor poisoned: another rank panicked");
        }
        match self.arrived {
            Some((f, t0)) => {
                if self.core.fence_check(self.rank, f) {
                    self.arrived = None;
                    self.span_end(TraceKind::Barrier, t0, 0, String::new);
                    true
                } else {
                    false
                }
            }
            None => {
                let t0 = self.span_start();
                let f = self.core.fence_arrive(self.rank);
                if self.core.fence_check(self.rank, f) {
                    self.span_end(TraceKind::Barrier, t0, 0, String::new);
                    true
                } else {
                    self.arrived = Some((f, t0));
                    self.mark_park();
                    false
                }
            }
        }
    }

    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let t0 = self.span_start();
        let (rows, cols) = mat.land_block(owner, into);
        let bytes = (rows * cols * 8) as u64;
        self.recorder.count_fetch(bytes);
        self.classify(mat.cost_rank(owner), bytes);
        self.span_end(TraceKind::Transfer, t0, bytes, || format!("get<-{owner}"));
        GetHandle::Ready
    }

    fn wait(&mut self, h: GetHandle) {
        match h {
            GetHandle::Ready => {}
            GetHandle::Sim(_) | GetHandle::Virt(_) => {
                unreachable!("executor backend issues no simulated transfers")
            }
        }
    }

    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        let t0 = self.span_start();
        mat.copy_block_from(owner, data);
        let bytes = mat.block_bytes(owner);
        self.classify(mat.cost_rank(owner), bytes);
        self.span_end(TraceKind::Transfer, t0, bytes, || format!("put->{owner}"));
        GetHandle::Ready
    }

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: &[f64]) {
        let t0 = self.span_start();
        mat.acc_block_from(owner, scale, data);
        let bytes = mat.block_bytes(owner);
        self.classify(mat.cost_rank(owner), bytes);
        self.span_end(TraceKind::Transfer, t0, bytes, || format!("acc->{owner}"));
    }

    fn fence(&mut self) {
        // Data movement is eager: already complete at the target.
    }

    fn gemm(
        &mut self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: Option<Operand<'_>>,
        b: Option<Operand<'_>>,
        c: Option<MatMut<'_>>,
        _direct: bool,
        label: &str,
    ) {
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        let (Some(a), Some(b), Some(c)) = (a, b, c) else {
            panic!("executor backend requires real-backed matrices ({m}x{n}x{k} block had none)");
        };
        let t0 = self.span_start();
        // A gemm call never yields, so the lease of the running
        // thread's workspace is the call.
        SCRATCH.with_borrow_mut(|s| {
            let ws = s.ws.get_or_insert_with(GemmWorkspace::new);
            let before = ws.grow_count();
            dgemm_operands(alpha, a, b, 1.0, c, ws);
            self.ws_grows = ws.grow_count();
            if self.ws_grows > before {
                self.core.ws_grows.fetch_add(1, Ordering::Relaxed);
            }
        });
        self.span_end(TraceKind::Compute, t0, 0, || label.to_string());
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], _bytes: u64) {
        self.core.mail_send(dst, self.rank, tag, data.to_vec());
    }

    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, _bytes: u64) {
        let t0 = self.span_start();
        loop {
            if let Some((got_tag, payload)) = self.core.mail_recv(self.rank, src) {
                assert_eq!(
                    got_tag, tag,
                    "tag mismatch receiving from {src}: expected {tag}, got {got_tag}"
                );
                *buf = payload;
                break;
            }
            match self.mode {
                TaskMode::Gate => {
                    self.mark_park();
                    self.core.gate_park(self.rank);
                }
                TaskMode::Fsm => panic!(
                    "state-machine rank tasks must not call the blocking Comm::recv \
                     (no message-passing algorithm runs as an FSM yet)"
                ),
            }
        }
        self.span_end(TraceKind::Wait, t0, 0, || format!("recv<-{src}"));
    }

    fn sendrecv(
        &mut self,
        dst: usize,
        tag: u64,
        send_data: &[f64],
        send_bytes: u64,
        src: usize,
        recv_buf: &mut Vec<f64>,
        recv_bytes: u64,
    ) {
        // Mailboxes are buffered: send first, then receive — no deadlock.
        self.send(dst, tag, send_data, send_bytes);
        self.recv(src, tag, recv_buf, recv_bytes);
    }
}

// ---- worker pool ----------------------------------------------------

/// Task storage for one run: either a pollable state machine or a
/// marker that a dedicated gated thread embodies the rank.
enum TaskSlot<'env, T> {
    Fsm(Mutex<Option<Box<dyn RankTask<Out = T> + Send + 'env>>>),
    Gate,
}

/// Pick the next task: own deque first (LIFO, cache-hot), then the
/// injector (fresh wake-ups), then steal from siblings.
fn find_work(core: &SchedCore, me: usize, events: &mut Vec<TraceEvent>) -> Option<usize> {
    if let Some(id) = core.deques[me].pop() {
        core.local_pops.fetch_add(1, Ordering::Relaxed);
        return Some(id);
    }
    {
        let mut g = relock(&core.global);
        if let Some(id) = g.injector.pop_front() {
            drop(g);
            core.injector_pops.fetch_add(1, Ordering::Relaxed);
            core.sched_event(events, id, || format!("resume w{me}"));
            return Some(id);
        }
    }
    for off in 1..core.workers {
        let victim = (me + off) % core.workers;
        if let Some(id) = core.deques[victim].steal() {
            core.steals.fetch_add(1, Ordering::Relaxed);
            core.sched_event(events, id, || format!("steal w{me}<-w{victim}"));
            return Some(id);
        }
    }
    None
}

/// Sleep until work may exist again. Returns `false` when the run is
/// over (all tasks done, or poisoned).
fn park_worker(core: &SchedCore) -> bool {
    let mut g = relock(&core.global);
    loop {
        if core.is_poisoned() || core.remaining.load(Ordering::SeqCst) == 0 {
            return false;
        }
        if !g.injector.is_empty() || core.deques.iter().any(|d| !d.is_empty()) {
            return true;
        }
        core.worker_parks.fetch_add(1, Ordering::Relaxed);
        g.sleepers += 1;
        g = core.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        g.sleepers -= 1;
    }
}

/// Run one scheduled task id: poll an FSM or lend the slot to a gated
/// thread.
fn run_one<'env, T: Send>(
    core: &SchedCore,
    slots: &[TaskSlot<'env, T>],
    outputs: &[Mutex<Option<T>>],
    collect: &Mutex<TraceBag>,
    me: usize,
    id: usize,
    events: &mut Vec<TraceEvent>,
) {
    match &slots[id] {
        TaskSlot::Gate => core.grant_and_lend(id),
        TaskSlot::Fsm(cell) => {
            let Some(mut task) = relock(cell).take() else {
                return; // stale queue entry for a finished rank
            };
            relock(&core.tasks[id].st).phase = Phase::Running;
            match catch_unwind(AssertUnwindSafe(|| task.step())) {
                Err(p) => {
                    drop(task);
                    core.poison(p);
                }
                Ok(Step::Done(out)) => {
                    let (ev, ctr) = task.take_trace();
                    {
                        let mut bag = relock(collect);
                        bag.0.extend(ev);
                        bag.1.push((id, ctr));
                    }
                    *relock(&outputs[id]) = Some(out);
                    core.task_done(id);
                }
                Ok(Step::Yield) => {
                    // The box must be back in its cell before the id is
                    // visible in any queue (a thief may run it at once).
                    *relock(cell) = Some(task);
                    {
                        let mut st = relock(&core.tasks[id].st);
                        st.pending_wake = false;
                        st.phase = Phase::Queued;
                    }
                    core.deques[me].push(id);
                }
                Ok(Step::Park) => {
                    *relock(cell) = Some(task);
                    let mut st = relock(&core.tasks[id].st);
                    if st.pending_wake {
                        // The wake raced the park: requeue immediately.
                        st.pending_wake = false;
                        st.phase = Phase::Queued;
                        drop(st);
                        core.deques[me].push(id);
                    } else {
                        st.phase = Phase::Parked;
                        drop(st);
                        core.parks.fetch_add(1, Ordering::Relaxed);
                        core.sched_event(events, id, || format!("park w{me}"));
                    }
                }
            }
        }
    }
}

/// One worker thread's life. Returns its busy seconds (time spent
/// running tasks or lending its slot to a gated thread).
fn worker_loop<'env, T: Send>(
    core: &SchedCore,
    slots: &[TaskSlot<'env, T>],
    outputs: &[Mutex<Option<T>>],
    collect: &Mutex<TraceBag>,
    me: usize,
) -> f64 {
    let mut busy = 0.0;
    let mut events: Vec<TraceEvent> = Vec::new();
    loop {
        if core.is_poisoned() {
            break;
        }
        let Some(id) = find_work(core, me, &mut events) else {
            if park_worker(core) {
                continue;
            }
            break;
        };
        let t = Instant::now();
        run_one(core, slots, outputs, collect, me, id, &mut events);
        busy += t.elapsed().as_secs_f64();
    }
    if !events.is_empty() {
        relock(&core.sched_events).extend(events);
    }
    drop(SCRATCH.take());
    busy
}

// ---- run entry points -----------------------------------------------

/// Result of an executor run (mirrors `ThreadRunResult`).
#[derive(Debug)]
pub struct ExecRunResult<T> {
    /// Per-rank outputs.
    pub outputs: Vec<T>,
    /// Wall-clock duration of the parallel section (seconds).
    pub wall_seconds: f64,
    /// Recorded trace events (empty unless traced), merged across ranks
    /// and workers, sorted by start time.
    pub trace: Vec<TraceEvent>,
    /// Derived metrics; `stats.exec` always carries the scheduling
    /// counters (steal rate, occupancy) for executor runs.
    pub stats: RunStats,
}

fn assemble<T>(
    core: &Arc<SchedCore>,
    outputs: Vec<Mutex<Option<T>>>,
    collect: Mutex<TraceBag>,
    busy: Vec<f64>,
    wall_seconds: f64,
) -> ExecRunResult<T> {
    if let Some(p) = relock(&core.payload).take() {
        resume_unwind(p);
    }
    let (mut events, counters) = collect.into_inner().unwrap_or_else(|e| e.into_inner());
    events.extend(relock(&core.sched_events).drain(..));
    events.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.rank.cmp(&b.rank)));
    let mut stats = RunStats::from_events(core.nranks, &events);
    for (rank, ctr) in &counters {
        let rs = &mut stats.ranks[*rank];
        rs.bytes_shm = ctr.bytes_fetched;
        rs.transfers = ctr.blocks_fetched;
        rs.absorb_counters(ctr);
    }
    stats.exec = Some(ExecStats {
        workers: core.workers,
        local_pops: core.local_pops.load(Ordering::Relaxed),
        steals: core.steals.load(Ordering::Relaxed),
        injector_pops: core.injector_pops.load(Ordering::Relaxed),
        parks: core.parks.load(Ordering::Relaxed),
        worker_parks: core.worker_parks.load(Ordering::Relaxed),
        ws_grows: core.ws_grows.load(Ordering::Relaxed),
        busy_seconds: busy.iter().sum(),
        wall_seconds,
    });
    if stats.makespan == 0.0 {
        stats.makespan = wall_seconds;
    }
    let outputs = outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every rank completed (run was not poisoned)")
        })
        .collect();
    ExecRunResult {
        outputs,
        wall_seconds,
        trace: events,
        stats,
    }
}

/// A gated rank's thread: run `body` from the first loan on, handing the
/// loan back at every blocking point inside `ExecComm` and at the end.
fn gated_rank<T>(
    core: &Arc<SchedCore>,
    rank: usize,
    body: &(dyn Fn(&mut ExecComm) -> T + Sync),
    outputs: &[Mutex<Option<T>>],
    collect: &Mutex<TraceBag>,
) {
    let mut comm = ExecComm::new(Arc::clone(core), rank, TaskMode::Gate);
    let res = catch_unwind(AssertUnwindSafe(|| {
        core.gate_wait_grant(rank);
        body(&mut comm)
    }));
    match res {
        Ok(v) => {
            let (ev, ctr) = comm.recorder.take();
            {
                let mut bag = relock(collect);
                bag.0.extend(ev);
                bag.1.push((rank, ctr));
            }
            *relock(&outputs[rank]) = Some(v);
            core.task_done(rank);
            core.gate_release(rank);
        }
        Err(p) => {
            // Return the loan so the lending worker resumes, then
            // poison (first payload wins — secondary "executor
            // poisoned" panics never overwrite the original).
            core.gate_release(rank);
            core.poison(p);
        }
    }
    drop(SCRATCH.take());
}

/// One run: seed the deques round-robin with all task ids, start the
/// workers — and, where the slots are gates, a thread per rank running
/// `gated` — join them all, and assemble the result.
fn run_pool<'env, T: Send>(
    core: &Arc<SchedCore>,
    slots: Vec<TaskSlot<'env, T>>,
    gated: Option<&(dyn Fn(&mut ExecComm) -> T + Sync)>,
) -> ExecRunResult<T> {
    for id in 0..core.nranks {
        core.deques[id % core.workers].push(id);
    }
    let outputs: Vec<Mutex<Option<T>>> = (0..core.nranks).map(|_| Mutex::new(None)).collect();
    let collect: Mutex<TraceBag> = Mutex::new((Vec::new(), Vec::new()));
    let mut busy = vec![0.0f64; core.workers];
    let t_run = Instant::now();
    std::thread::scope(|scope| {
        let (slots, outputs, collect) = (&slots, &outputs, &collect);
        if let Some(body) = gated {
            for rank in 0..core.nranks {
                scope.spawn(move || gated_rank(core, rank, body, outputs, collect));
            }
        }
        for (w, busy_slot) in busy.iter_mut().enumerate() {
            scope.spawn(move || {
                *busy_slot = worker_loop(core, slots, outputs, collect, w);
            });
        }
    });
    let wall = t_run.elapsed().as_secs_f64();
    assemble(core, outputs, collect, busy, wall)
}

/// The worker-pool size an executor run will actually use for a
/// `requested` count: `0` means *auto* (host parallelism, capped at 8 —
/// the same default every bench harness uses), and any request is
/// clamped to `[1, nranks]` since a worker beyond one-per-rank can
/// never hold a task. All `exec_run*` entry points apply this, so a
/// caller can pass the auto sentinel straight through and still report
/// the *resolved* count.
pub fn resolve_workers(requested: usize, nranks: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    } else {
        requested
    };
    requested.clamp(1, nranks.max(1))
}

/// Run `body` once per rank on the executor: every rank gets a
/// dedicated thread, but only `workers` of them run at any moment — a
/// blocking point inside hands the worker slot to another rank instead
/// of convoying the OS scheduler. Tracing off.
pub fn exec_run<T, F>(nranks: usize, workers: usize, body: F) -> ExecRunResult<T>
where
    T: Send,
    F: Fn(&mut ExecComm) -> T + Sync,
{
    exec_launch(nranks, workers, false, None, body)
}

/// The general form of [`exec_run`]. With `trace`, ranks record
/// wall-clock events (plus `Sched` steal / park / resume markers). With
/// `topo`, every rank's `ExecComm` reports that emulated cluster
/// topology: off-node blocks lose direct access, and transfers are
/// classified intra-group vs inter-node.
pub fn exec_launch<T, F>(
    nranks: usize,
    workers: usize,
    trace: bool,
    topo: Option<Topology>,
    body: F,
) -> ExecRunResult<T>
where
    T: Send,
    F: Fn(&mut ExecComm) -> T + Sync,
{
    let core = SchedCore::new(nranks, workers, trace, topo);
    let slots = (0..nranks).map(|_| TaskSlot::Gate).collect();
    run_pool(&core, slots, Some(&body))
}

/// Run `nranks` state-machine rank tasks on `workers` workers — no
/// per-rank OS threads at all. `factory` is called once per rank with
/// that rank's [`ExecComm`] and returns the task that owns it. `trace`
/// and `topo` as in [`exec_launch`].
pub fn exec_run_tasks<'env, T, F>(
    nranks: usize,
    workers: usize,
    trace: bool,
    topo: Option<Topology>,
    mut factory: F,
) -> ExecRunResult<T>
where
    T: Send,
    F: FnMut(ExecComm) -> Box<dyn RankTask<Out = T> + Send + 'env>,
{
    let core = SchedCore::new(nranks, workers, trace, topo);
    let slots = (0..nranks)
        .map(|rank| {
            let comm = ExecComm::new(Arc::clone(&core), rank, TaskMode::Fsm);
            TaskSlot::Fsm(Mutex::new(Some(factory(comm))))
        })
        .collect();
    run_pool(&core, slots, None)
}

#[cfg(test)]
mod tests {
    //! Epoch/generation counter edges under fault injection: these need
    //! the private `SchedCore`, so they live here rather than in the
    //! integration suite.
    use super::*;

    #[test]
    fn retiring_a_dead_rank_completes_its_pending_fences() {
        let core = SchedCore::new(3, 1, false, None);
        // Mid-batch: ranks 0 and 1 arrive at fence 0, rank 2 is dead
        // and never will. The fence must not complete yet...
        assert_eq!(core.fence_arrive(0), 0);
        assert_eq!(core.fence_arrive(1), 0);
        assert!(!core.fence_check(0, 0));
        // ...until the dead rank's obligations are retired, which both
        // completes fence 0 and removes rank 2 from future quorums.
        core.retire_rank(2);
        assert!(core.fence_check(0, 0));
        assert_eq!(core.fence_arrive(0), 1);
        assert_eq!(core.fence_arrive(1), 1);
        assert!(core.fence_check(1, 1), "retired rank gates no later fence");
    }

    #[test]
    fn retirement_releases_parked_waiters() {
        let core = SchedCore::new(2, 1, false, None);
        core.fence_arrive(0);
        // Rank 0 is parked waiting on fence 0; rank 1 dies without
        // arriving. Retirement must move the waiter back to the queue
        // (the batch-drain path: survivors resume instead of hanging).
        assert!(!core.fence_check(0, 0));
        relock(&core.tasks[0].st).phase = Phase::Parked;
        core.retire_rank(1);
        assert_eq!(relock(&core.tasks[0].st).phase, Phase::Queued);
        assert!(core.fence_check(0, 0));
        // Idempotent: retiring again neither panics nor double-wakes.
        core.retire_rank(1);
    }

    #[test]
    fn proxy_arrival_discharges_a_dead_ranks_barrier() {
        let core = SchedCore::new(3, 1, false, None);
        // Ranks 0 and 1 arrive; rank 2 is dead. A survivor vouches for
        // it via fence_arrive(dead) — the re-execution handshake.
        core.fence_arrive(0);
        core.fence_arrive(1);
        assert!(!core.fence_check(0, 0));
        assert_eq!(core.fence_arrive(2), 0, "proxy arrival uses rank 2's count");
        assert!(core.fence_check(0, 0));
        assert!(core.fence_check(1, 0));
    }

    #[test]
    fn all_ranks_retired_completes_everything() {
        let core = SchedCore::new(2, 1, false, None);
        core.retire_rank(0);
        core.retire_rank(1);
        assert!(core.fence_check(0, 0));
        assert!(core.fence_check(1, 41));
    }

    #[test]
    fn barrier_try_after_poison_panics_instead_of_parking() {
        let core = SchedCore::new(2, 1, false, None);
        let mut comm = ExecComm::new(Arc::clone(&core), 0, TaskMode::Fsm);
        assert!(!comm.barrier_try(), "one arrival out of two cannot pass");
        core.poison(Box::new("boom"));
        let err = catch_unwind(AssertUnwindSafe(|| comm.barrier_try()))
            .expect_err("a parked rank re-stepped after poison must unwind");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("executor poisoned"),
            "unexpected panic message: {msg}"
        );
    }
}
