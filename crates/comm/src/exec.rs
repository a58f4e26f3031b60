//! The host's wall-clock backend: N logical ranks, at most W running.
//!
//! Every rank sees the paper's shared-memory machine (SGI Altix): one
//! cacheable domain, a get is a `memcpy`, time is the wall clock. The
//! ranks are hosted in one of two ways, over one fence machinery:
//!
//! * ranks written as **resumable state machines** (the [`RankTask`]
//!   trait; [`ProgramTask`] makes one of any [`RankProgram`] — every
//!   SRUMMA schedule in `srumma-core` is such a program) are **polled**
//!   on W worker threads, each owning a
//!   [Chase–Lev deque](crate::deque::WorkDeque) of runnable task ids and
//!   stealing from its siblings when its own runs dry: a failed fence
//!   test returns [`Step::Park`] and costs a deque operation, not a
//!   blocked OS thread, so thousands of ranks need only W threads;
//! * ranks written in plain blocking style (SUMMA, Cannon — any
//!   [`Comm`] closure, including one that [`drive`](crate::comm::drive)s
//!   a program) are **blocking**: each owns a thread but runs only while
//!   holding one of W **permits**. Every blocking point inside
//!   [`ExecComm`] gives the permit back and sleeps on the rank's own
//!   condvar until a fence, a message or a peer wakes it, so runnable
//!   concurrency never exceeds W and the barrier convoy of hundreds of
//!   preempted threads disappears. With W = N no rank ever waits for a
//!   permit: that is thread-per-rank ([`thread_run`]).
//!
//! Both reach the fences through the [`Comm`] split fence: a polled
//! rank's failed `fence_try` / `barrier_try` registers it as a waiter
//! and returns `false`; a blocking rank's never returns `false` — it
//! gives its permit back and sleeps until the fence has completed,
//! exactly as its `barrier` does, because a rank that polled while
//! holding a permit would starve the very ranks it is waiting for.
//!
//! Scheduling itself is observable: steals, parks and resumes are
//! counted (and traced as [`TraceKind::Sched`] events when tracing is
//! on), and every run's [`RunStats`] carries an
//! [`ExecStats`](srumma_trace::ExecStats) with the steal rate and
//! occupancy of the W workers or permits.
//!
//! A panicking rank poisons the whole executor: parked and
//! permit-waiting threads unwind with "executor poisoned", state
//! machines are dropped, and the original panic payload is rethrown
//! from the run entry point.

use crate::comm::{Comm, GetHandle, RankProgram, Step};
use crate::deque::WorkDeque;
use crate::dist::{DistMatrix, Landing};
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand, PackedPanel};
use srumma_model::Topology;
use srumma_trace::{Counters, ExecStats, Recorder, RunStats, TraceEvent, TraceKind};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Payload = Box<dyn Any + Send + 'static>;
/// One queued message: `(src, tag, data)`.
type Mail = (usize, u64, Vec<f64>);
/// Per-rank trace drainage: merged events plus `(rank, counters)`.
type TraceBag = (Vec<TraceEvent>, Vec<(usize, Counters)>);

/// Scratch of the OS thread that is *running* — a pool worker polling
/// state-machine ranks, or a blocking rank's own thread — rather than of
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
    /// Polled: in a deque or the injector, waiting for a worker.
    /// Blocking: awake, holding a permit or waiting for one.
    Queued,
    /// Being polled.
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
    done: bool,
}

struct TaskCtl {
    st: Mutex<TaskSt>,
    /// A parked blocking rank sleeps here.
    cv: Condvar,
}

/// The blocking hosting's gate: `free` of the W permits are unheld, and
/// `waiting` ranks sleep on `SchedCore::permit_cv` for one.
struct Permits {
    free: usize,
    waiting: usize,
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
    /// W: pool workers (polled) or permits (blocking).
    workers: usize,
    /// Ranks own threads and run under permits; no deques, no injector.
    blocking: bool,
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
    permits: Mutex<Permits>,
    permit_cv: Condvar,
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
    /// Rank work done: workers' busy time, or permits' held time.
    busy_ns: AtomicU64,
    /// Worker-side `Sched` trace events, merged into the run trace.
    sched_events: Mutex<Vec<TraceEvent>>,
}

/// Lock tolerating mutex poisoning: a panicking rank must still be able
/// to poison the executor, and survivors must be able to observe it.
fn relock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SchedCore {
    fn new(
        nranks: usize,
        workers: usize,
        blocking: bool,
        trace: bool,
        topo: Option<Topology>,
    ) -> Arc<Self> {
        assert!(nranks > 0);
        let workers = resolve_workers(workers, nranks);
        let topo = topo.unwrap_or_else(|| Topology::single_domain(nranks));
        assert_eq!(topo.nranks(), nranks, "topology rank count mismatch");
        let deques = if blocking { 0 } else { workers };
        Arc::new(SchedCore {
            nranks,
            workers,
            blocking,
            trace,
            topo,
            t0: Instant::now(),
            global: Mutex::new(Global {
                injector: VecDeque::new(),
                sleepers: 0,
            }),
            work_cv: Condvar::new(),
            deques: (0..deques).map(|_| WorkDeque::new(nranks + 1)).collect(),
            tasks: (0..nranks)
                .map(|_| TaskCtl {
                    st: Mutex::new(TaskSt {
                        phase: Phase::Queued,
                        pending_wake: false,
                        done: false,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            permits: Mutex::new(Permits {
                free: workers,
                waiting: 0,
            }),
            permit_cv: Condvar::new(),
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
            busy_ns: AtomicU64::new(0),
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
            t.cv.notify_all();
        }
        let _p = relock(&self.permits);
        self.permit_cv.notify_all();
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

    /// Deliver a wake-up to `id`: if parked, re-enqueue it (polled) or
    /// signal its thread (blocking); otherwise remember the wake so the
    /// task's next park attempt consumes it (the classic lost-wakeup
    /// guard).
    fn wake(&self, id: usize) {
        let ctl = &self.tasks[id];
        let mut st = relock(&ctl.st);
        if st.done {
            return;
        }
        if st.phase != Phase::Parked {
            st.pending_wake = true;
            return;
        }
        st.phase = Phase::Queued;
        // Signal after unlocking, so the woken thread does not go
        // straight back to sleep on the lock.
        drop(st);
        if self.blocking {
            ctl.cv.notify_one();
        } else {
            self.inject(id);
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

    // ---- the blocking hosting's permits ------------------------------

    /// Take one of the W permits, sleeping while none is free; returns
    /// when it was taken. Every grant counts as one schedule. Panics
    /// once the executor has been poisoned — this is how a panic
    /// elsewhere releases the ranks waiting here.
    fn permit_take(&self) -> Instant {
        let mut p = relock(&self.permits);
        while p.free == 0 && !self.is_poisoned() {
            p.waiting += 1;
            p = self.permit_cv.wait(p).unwrap_or_else(|e| e.into_inner());
            p.waiting -= 1;
        }
        if self.is_poisoned() {
            drop(p);
            panic!("executor poisoned: another rank panicked");
        }
        p.free -= 1;
        drop(p);
        self.local_pops.fetch_add(1, Ordering::Relaxed);
        Instant::now()
    }

    /// Give back a permit taken at `since`.
    fn permit_give(&self, since: Instant) {
        let held = since.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(held, Ordering::Relaxed);
        let mut p = relock(&self.permits);
        p.free += 1;
        if p.waiting > 0 {
            self.permit_cv.notify_one();
        }
    }

    /// Park blocking rank `id` until woken, giving back the permit it
    /// took at `held` while it sleeps and taking one again after. A wake
    /// that already raced in is consumed instead: the permit is kept and
    /// the caller simply re-checks its condition.
    fn park_blocking(&self, id: usize, held: &mut Instant) {
        let ctl = &self.tasks[id];
        {
            let mut st = relock(&ctl.st);
            if st.pending_wake {
                st.pending_wake = false;
                return;
            }
            st.phase = Phase::Parked;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.permit_give(*held);
        let mut st = relock(&ctl.st);
        while st.phase == Phase::Parked && !self.is_poisoned() {
            st = ctl.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
        *held = self.permit_take();
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
    /// Own thread, permit-gated; gives the permit back at blocking points.
    Blocking,
    /// State machine polled on the workers ([`RankTask`]).
    Fsm,
}

/// Per-rank communicator of the host: one cacheable shared-memory
/// domain, eager memcpy gets, wall-clock time, and blocking points that
/// cooperate with the scheduler instead of convoying OS threads.
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
    /// Blocking ranks: when the permit this rank holds was taken.
    held: Instant,
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
            held: Instant::now(),
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

    /// Blocking ranks: sleep, permit given back, until woken.
    fn park(&mut self) {
        self.mark_park();
        self.core.park_blocking(self.rank, &mut self.held);
    }

    /// Blocking ranks: sleep until fence `f` has completed.
    fn wait_fence(&mut self, f: u64) {
        while !self.core.fence_check(self.rank, f) {
            self.park();
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
        // Host shared memory is cacheable (the Altix flavor) — but an
        // emulated cluster topology makes off-node blocks
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
            self.mode == TaskMode::Blocking,
            "state-machine rank tasks must use Comm::barrier_try and Step::Park, \
             not the blocking Comm::barrier"
        );
        let t0 = self.span_start();
        let f = self.core.fence_arrive(self.rank);
        self.wait_fence(f);
        self.span_end(TraceKind::Barrier, t0, 0, String::new);
    }

    /// Never blocks, polled or blocking. Fence `f` completes once every
    /// rank has made its `f`-th arrival.
    fn fence_arrive(&mut self) -> u64 {
        self.core.fence_arrive(self.rank)
    }

    fn fence_try(&mut self, f: u64) -> bool {
        match self.mode {
            TaskMode::Fsm => self.core.fence_check(self.rank, f),
            TaskMode::Blocking => {
                self.wait_fence(f);
                true
            }
        }
    }

    /// A full barrier is an arrival followed by a wait on the same
    /// fence. Panics when the executor has been poisoned, as a blocking
    /// rank's permit wait does — a parked polled rank re-stepped after a
    /// peer's panic must unwind, not re-park.
    fn barrier_try(&mut self) -> bool {
        if self.mode == TaskMode::Blocking {
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

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
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
        beta: f64,
        c: Option<MatMut<'_>>,
        _direct: bool,
        label: &str,
    ) {
        debug_assert!(beta == 0.0 || beta == 1.0, "Comm::gemm takes beta 0 or 1");
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
            dgemm_operands(alpha, a, b, beta, c, ws);
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
                TaskMode::Blocking => self.park(),
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

/// A polled rank's state machine, out of its slot while a worker steps it.
type Slot<'env, T> = Mutex<Option<Box<dyn RankTask<Out = T> + Send + 'env>>>;

/// Where finished ranks hand in their output and trace.
struct Sink<T> {
    outputs: Vec<Mutex<Option<T>>>,
    trace: Mutex<TraceBag>,
}

impl<T> Sink<T> {
    fn finish(&self, core: &SchedCore, id: usize, out: T, (ev, ctr): (Vec<TraceEvent>, Counters)) {
        {
            let mut bag = relock(&self.trace);
            bag.0.extend(ev);
            bag.1.push((id, ctr));
        }
        *relock(&self.outputs[id]) = Some(out);
        core.task_done(id);
    }
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

/// Poll the state machine of scheduled task `id` once.
fn run_one<T: Send>(
    core: &SchedCore,
    slots: &[Slot<'_, T>],
    sink: &Sink<T>,
    me: usize,
    id: usize,
    events: &mut Vec<TraceEvent>,
) {
    let Some(mut task) = relock(&slots[id]).take() else {
        return; // stale queue entry for a finished rank
    };
    relock(&core.tasks[id].st).phase = Phase::Running;
    match catch_unwind(AssertUnwindSafe(|| task.step())) {
        Err(p) => {
            drop(task);
            core.poison(p);
        }
        Ok(Step::Done(out)) => sink.finish(core, id, out, task.take_trace()),
        Ok(Step::Yield) => {
            // The box must be back in its cell before the id is
            // visible in any queue (a thief may run it at once).
            *relock(&slots[id]) = Some(task);
            {
                let mut st = relock(&core.tasks[id].st);
                st.pending_wake = false;
                st.phase = Phase::Queued;
            }
            core.deques[me].push(id);
        }
        Ok(Step::Park) => {
            *relock(&slots[id]) = Some(task);
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

/// One worker thread's life; its time spent running tasks counts as
/// busy.
fn worker_loop<T: Send>(core: &SchedCore, slots: &[Slot<'_, T>], sink: &Sink<T>, me: usize) {
    let mut busy = Duration::ZERO;
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
        run_one(core, slots, sink, me, id, &mut events);
        busy += t.elapsed();
    }
    if !events.is_empty() {
        relock(&core.sched_events).extend(events);
    }
    core.busy_ns
        .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    drop(SCRATCH.take());
}

/// A blocking rank's thread: run `body` under a permit, which every
/// blocking point inside `ExecComm` gives back while the rank sleeps.
fn blocking_rank<T>(
    core: &Arc<SchedCore>,
    rank: usize,
    body: &(dyn Fn(&mut ExecComm) -> T + Sync),
    sink: &Sink<T>,
) {
    let mut comm = ExecComm::new(Arc::clone(core), rank, TaskMode::Blocking);
    let res = catch_unwind(AssertUnwindSafe(|| {
        comm.held = core.permit_take();
        body(&mut comm)
    }));
    match res {
        Ok(out) => {
            core.permit_give(comm.held);
            sink.finish(core, rank, out, comm.recorder.take());
        }
        // First payload wins: secondary "executor poisoned" panics
        // never overwrite the original.
        Err(p) => core.poison(p),
    }
    drop(SCRATCH.take());
}

// ---- run entry points -----------------------------------------------

/// Result of an executor run.
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

/// Run `thread(0..threads)` on as many scoped threads, join them, and
/// assemble the result.
fn run_threads<T: Send>(
    core: &SchedCore,
    threads: usize,
    thread: impl Fn(usize, &Sink<T>) + Sync,
) -> ExecRunResult<T> {
    let sink = Sink {
        outputs: (0..core.nranks).map(|_| Mutex::new(None)).collect(),
        trace: Mutex::default(),
    };
    let t_run = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let (thread, sink) = (&thread, &sink);
            scope.spawn(move || thread(i, sink));
        }
    });
    let wall_seconds = t_run.elapsed().as_secs_f64();
    if let Some(p) = relock(&core.payload).take() {
        resume_unwind(p);
    }
    let (mut events, counters) = sink.trace.into_inner().unwrap_or_else(|e| e.into_inner());
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
        busy_seconds: core.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        wall_seconds,
    });
    if stats.makespan == 0.0 {
        stats.makespan = wall_seconds;
    }
    let outputs = sink
        .outputs
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

/// Run `body` once per rank, each on its own thread but only `workers`
/// of them at any moment: a blocking point inside gives the rank's
/// permit to another instead of convoying the OS scheduler. Tracing
/// off.
pub fn exec_run<T, F>(nranks: usize, workers: usize, body: F) -> ExecRunResult<T>
where
    T: Send,
    F: Fn(&mut ExecComm) -> T + Sync,
{
    exec_launch(nranks, workers, false, None, body)
}

/// Thread-per-rank: [`exec_run`] with a permit for every rank, so no
/// rank ever waits for one.
pub fn thread_run<T, F>(nranks: usize, body: F) -> ExecRunResult<T>
where
    T: Send,
    F: Fn(&mut ExecComm) -> T + Sync,
{
    exec_run(nranks, nranks, body)
}

/// The general form of [`exec_run`]. With `trace`, ranks record
/// wall-clock events (plus `Sched` park markers). With `topo`, every
/// rank's `ExecComm` reports that emulated cluster topology: off-node
/// blocks lose direct access, and transfers are classified intra-group
/// vs inter-node.
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
    let core = SchedCore::new(nranks, workers, true, trace, topo);
    run_threads(&core, nranks, |rank, sink| {
        blocking_rank(&core, rank, &body, sink)
    })
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
    let core = SchedCore::new(nranks, workers, false, trace, topo);
    let slots: Vec<Slot<'env, T>> = (0..nranks)
        .map(|rank| {
            let comm = ExecComm::new(Arc::clone(&core), rank, TaskMode::Fsm);
            Mutex::new(Some(factory(comm)))
        })
        .collect();
    for id in 0..nranks {
        core.deques[id % core.workers].push(id);
    }
    run_threads(&core, core.workers, |w, sink| {
        worker_loop(&core, &slots, sink, w)
    })
}

#[cfg(test)]
mod tests {
    //! Epoch/generation counter edges under fault injection: these need
    //! the private `SchedCore`, so they live here rather than in the
    //! integration suite.
    use super::*;

    #[test]
    fn retiring_a_dead_rank_completes_its_pending_fences() {
        let core = SchedCore::new(3, 1, false, false, None);
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
        let core = SchedCore::new(2, 1, false, false, None);
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
        let core = SchedCore::new(3, 1, false, false, None);
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
        let core = SchedCore::new(2, 1, false, false, None);
        core.retire_rank(0);
        core.retire_rank(1);
        assert!(core.fence_check(0, 0));
        assert!(core.fence_check(1, 41));
    }

    #[test]
    fn barrier_try_after_poison_panics_instead_of_parking() {
        let core = SchedCore::new(2, 1, false, false, None);
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
