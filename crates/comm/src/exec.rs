//! The host's wall-clock backend: N logical ranks, at most W running.
//!
//! Every rank sees the paper's shared-memory machine (SGI Altix): one
//! cacheable domain, a get is a `memcpy`, time is the wall clock. Each
//! rank is a [`RankTask`] — [`ProgramTask`] makes one of any
//! [`RankProgram`], which every schedule in `srumma-core` is — **polled**
//! on W worker threads ([`exec_run_tasks`]; thread-per-rank is W = N).
//! Worker `w` claims the unstarted ranks `w, w + W, …` from its own
//! atomic counter, then a sibling's once its share runs out; a rank that
//! yields stays with the worker that ran it, and a woken rank goes to a
//! shared injector queue. A rank waits only in a split call
//! ([`Comm::barrier_try`], [`Comm::recv_try`], [`Comm::sendrecv_try`]):
//! `false` has registered it as the barrier's waiter or found its mailbox
//! empty, and its [`Step::Park`] costs a queue entry, not a blocked OS
//! thread, until the completing arrival or the message's send re-queues it.
//!
//! [`exec_run`] / [`thread_run`] keep a closure host for code in plain
//! blocking style — untraced, healthy, single-domain, and running no
//! schedule of the library: each rank owns a thread but runs only while
//! holding one of W **permits**, and waits in `ExecComm`'s own blocking
//! [`ExecComm::barrier`], [`ExecComm::recv`] and [`ExecComm::sendrecv`],
//! which give the permit back while the rank sleeps on its own condvar.
//!
//! A [`FaultPlan`] handed to [`exec_run_tasks`] is applied with real
//! sleeps (see [`crate::fault`]) on the rank's worker.
//!
//! Scheduling itself is observable: claims, parks and resumes are
//! counted (and traced as [`TraceKind::Sched`] events when tracing is
//! on), and every run's [`RunStats`] carries an
//! [`ExecStats`] with the steal rate and
//! occupancy of the W workers or permits.
//!
//! A panicking rank poisons the whole executor: parked and
//! permit-waiting threads unwind with "executor poisoned", state
//! machines are dropped, and the original panic payload is rethrown
//! from the run entry point.

use crate::comm::{count_served, Comm, GetHandle, RankProgram, Step};
use crate::dist::{DistMatrix, Landing};
use crate::fault::FaultPlan;
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand, PackedPanel};
use srumma_model::protocol::Served;
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

/// Cap on one injected fault delay, so a plan cannot wedge a run.
const MAX_INJECTED_SLEEP: f64 = 0.05;

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
/// plus the rank's [`ExecComm`] it is stepped with, as one pollable
/// task.
pub struct ProgramTask<P> {
    comm: ExecComm,
    program: P,
}

impl<P> ProgramTask<P> {
    /// Host `program` on `comm`. Nothing runs until the first poll.
    pub fn new(comm: ExecComm, program: P) -> Self {
        ProgramTask { comm, program }
    }
}

impl<P> RankTask for ProgramTask<P>
where
    P: RankProgram + Send,
    P::Out: Send,
{
    type Out = P::Out;

    fn step(&mut self) -> Step<P::Out> {
        self.program.step(&mut self.comm)
    }

    fn take_trace(&mut self) -> (Vec<TraceEvent>, Counters) {
        self.comm.recorder.take()
    }
}

/// Where a rank currently stands with the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Polled: unstarted, handed back to the worker that ran it, or in
    /// the injector — waiting for a worker. Blocking: awake, holding a
    /// permit or waiting for one.
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
    /// Woken tasks, consumed by any worker (wake-ups go here so a
    /// parked worker can be notified).
    injector: VecDeque<usize>,
    /// Workers currently asleep on `work_cv`.
    sleepers: usize,
}

/// The one barrier, reused generation after generation.
///
/// An arrival counts one — a rank's own, or a dead rank's by proxy
/// ([`ExecComm::fence_arrive_for`]) — and the `nranks`-th completes the
/// generation. That is exact because every arrival path
/// ([`ExecComm::barrier`], [`Comm::barrier_try`], the chaos proxy)
/// waits for its barrier before it arrives again: no rank can arrive
/// twice in one generation, so a count is as good as a per-rank ledger.
struct FenceSt {
    /// Arrivals at the open generation.
    arrived: usize,
    /// Generations completed: barrier `g` has passed once
    /// `generation > g`.
    generation: u64,
    /// Ranks parked on the open generation.
    waiters: Vec<usize>,
}

/// The shared scheduler: everything both `ExecComm` and the workers
/// touch. Deliberately non-generic — the (output-typed) task storage
/// lives with the run entry points.
struct SchedCore {
    nranks: usize,
    /// W: pool workers (polled) or permits (blocking).
    workers: usize,
    /// Ranks own threads and run under permits; no shares, no injector.
    blocking: bool,
    trace: bool,
    /// Emulated node layout every rank's `ExecComm` reports. Defaults
    /// to one cacheable domain; the launchers' `topo` argument
    /// overrides it for hierarchical schedules.
    topo: Topology,
    /// Faults every rank's `ExecComm` applies (the launchers' `faults`
    /// argument); `None` runs healthy.
    faults: Option<FaultPlan>,
    t0: Instant,
    global: Mutex<Global>,
    work_cv: Condvar,
    /// Per-worker claim counters (polled runs): worker `w`'s `i`-th
    /// claim is rank `w + i·W`, taken by whichever worker bumps
    /// `unstarted[w]` — `w` itself, or a sibling whose own share ran out.
    unstarted: Vec<AtomicUsize>,
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
        faults: Option<&FaultPlan>,
    ) -> Arc<Self> {
        assert!(nranks > 0);
        let workers = resolve_workers(workers, nranks);
        let topo = topo.unwrap_or_else(|| Topology::single_domain(nranks));
        assert_eq!(topo.nranks(), nranks, "topology rank count mismatch");
        let shares = if blocking { 0 } else { workers };
        Arc::new(SchedCore {
            nranks,
            workers,
            blocking,
            trace,
            topo,
            faults: faults.cloned(),
            t0: Instant::now(),
            global: Mutex::new(Global {
                injector: VecDeque::new(),
                sleepers: 0,
            }),
            work_cv: Condvar::new(),
            unstarted: (0..shares).map(|_| AtomicUsize::new(0)).collect(),
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
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
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

    // ---- the barrier ------------------------------------------------

    /// Arrive at the open barrier generation for `rank` — the caller
    /// itself, or a dead rank by proxy — and return that generation.
    /// Arrival never blocks; waiting is a separate [`Self::fence_check`]
    /// / park loop.
    fn fence_arrive(&self, rank: usize) -> u64 {
        debug_assert!(rank < self.nranks);
        let mut b = relock(&self.fences);
        let g = b.generation;
        b.arrived += 1;
        if b.arrived == self.nranks {
            b.arrived = 0;
            b.generation += 1;
            let woken = std::mem::take(&mut b.waiters);
            // Wake after unlocking: wake() takes per-task locks.
            drop(b);
            for w in woken {
                self.wake(w);
            }
        }
        g
    }

    /// Whether barrier generation `g` has completed; if not, register
    /// `id` as a waiter (idempotently) so the completing arrival wakes
    /// it.
    fn fence_check(&self, id: usize, g: u64) -> bool {
        let mut b = relock(&self.fences);
        if b.generation > g {
            return true;
        }
        if !b.waiters.contains(&id) {
            b.waiters.push(id);
        }
        false
    }

    // ---- claiming unstarted ranks -----------------------------------

    /// Whether `share` still has an unclaimed rank.
    fn share_left(&self, share: usize) -> bool {
        share + self.unstarted[share].load(Ordering::Relaxed) * self.workers < self.nranks
    }

    /// Claim the next unstarted rank of worker `share`'s round-robin
    /// share, if any is left. One `fetch_add`, so no rank is claimed
    /// twice whoever races for it.
    fn claim(&self, share: usize) -> Option<usize> {
        if !self.share_left(share) {
            return None;
        }
        let id = share + self.unstarted[share].fetch_add(1, Ordering::Relaxed) * self.workers;
        (id < self.nranks).then_some(id)
    }

    // ---- mailboxes --------------------------------------------------

    fn mail_send(&self, dst: usize, src: usize, tag: u64, data: Vec<f64>) {
        relock(&self.mail[dst]).push_back((src, tag, data));
        self.wake(dst);
    }

    /// Move the oldest message from `src` (per-edge FIFO) into `buf`;
    /// `false` if there is none.
    fn mail_recv(&self, dst: usize, src: usize, tag: u64, buf: &mut Vec<f64>) -> bool {
        let mut q = relock(&self.mail[dst]);
        let Some(pos) = q.iter().position(|m| m.0 == src) else {
            return false;
        };
        let (_, got, data) = q.remove(pos).expect("position came from this queue");
        assert_eq!(
            got, tag,
            "tag mismatch receiving from {src}: expected {tag}, got {got}"
        );
        *buf = data;
        true
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

/// Per-rank communicator of the host: one cacheable shared-memory
/// domain, eager memcpy gets, wall-clock time, and blocking points that
/// cooperate with the scheduler instead of convoying OS threads.
pub struct ExecComm {
    rank: usize,
    nranks: usize,
    core: Arc<SchedCore>,
    recorder: Recorder,
    /// Grow count of the workspace this rank last computed in (the
    /// workspace itself belongs to whichever thread runs the `gemm`).
    ws_grows: u64,
    /// Split-barrier bookkeeping for polled ranks: the generation
    /// awaited and the span start time.
    arrived: Option<(u64, f64)>,
    /// A polled rank's split receive is waiting (an exchange has sent):
    /// the span start time.
    posted: Option<f64>,
    /// Blocking ranks: when the permit this rank holds was taken.
    held: Instant,
    /// This rank's slowdown factor under the run's fault plan.
    slow: f64,
    /// Gets issued so far (indexes the plan's spike schedule).
    gets_issued: u64,
}

impl ExecComm {
    fn new(core: Arc<SchedCore>, rank: usize) -> Self {
        let trace = core.trace;
        let slow = core.faults.as_ref().map_or(1.0, |p| p.slow_factor(rank));
        ExecComm {
            rank,
            nranks: core.nranks,
            core,
            recorder: Recorder::new(rank, trace),
            ws_grows: 0,
            arrived: None,
            posted: None,
            held: Instant::now(),
            slow,
            gets_issued: 0,
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

    /// A polled rank re-stepped after a peer's panic unwinds, not re-parks.
    fn unwind_if_poisoned(&self) {
        if self.core.is_poisoned() {
            panic!("executor poisoned: another rank panicked");
        }
    }

    /// Blocking ranks: sleep, permit given back, until woken.
    fn park(&mut self) {
        self.mark_park();
        self.core.park_blocking(self.rank, &mut self.held);
    }

    /// Arrive at the open barrier **on behalf of another rank** — the
    /// re-execution protocol's proxy arrival: a survivor that has
    /// finished a dead rank's outstanding tasks discharges that rank's
    /// barrier obligation for it, so the closing barrier cannot complete
    /// before the re-executed work has actually been done. The dead rank
    /// never arrives itself, and the barrier it owes cannot complete
    /// without this arrival, so that generation counts it exactly once.
    pub fn fence_arrive_for(&mut self, rank: usize) -> u64 {
        self.core.fence_arrive(rank)
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

    /// Sleep an injected fault delay, counted and capped.
    fn inject_delay(&mut self, seconds: f64) {
        self.recorder.count_delay();
        std::thread::sleep(Duration::from_secs_f64(seconds.min(MAX_INJECTED_SLEEP)));
    }

    /// Classify a transfer against the emulated topology: which level of
    /// the (pretend) memory hierarchy served it.
    #[inline]
    fn classify(&mut self, serve: usize, bytes: u64) {
        let served = Served::of(&self.core.topo, self.rank, serve);
        count_served(&mut self.recorder, served, bytes);
    }
}

// ---- the closure host's blocking waits -----------------------------

/// The waits of a rank of the permit-gated closure host ([`exec_run`],
/// [`thread_run`]): they block its thread, giving its permit back while
/// it sleeps. They are not [`Comm`]'s — a rank program waits only in the
/// split calls — and a polled rank that calls one panics.
impl ExecComm {
    /// Full barrier.
    pub fn barrier(&mut self) {
        assert!(
            self.core.blocking,
            "a polled rank must use Comm::barrier_try and Step::Park, \
             not the blocking ExecComm::barrier"
        );
        let t0 = self.span_start();
        let g = self.core.fence_arrive(self.rank);
        while !self.core.fence_check(self.rank, g) {
            self.park();
        }
        self.span_end(TraceKind::Barrier, t0, 0, String::new);
    }

    /// Tagged receive into `buf` (cleared/filled).
    pub fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, _bytes: u64) {
        assert!(
            self.core.blocking,
            "a polled rank must use Comm::recv_try and Step::Park, \
             not the blocking ExecComm::recv"
        );
        let t0 = self.span_start();
        while !self.core.mail_recv(self.rank, src, tag, buf) {
            self.park();
        }
        self.span_end(TraceKind::Wait, t0, 0, || format!("recv<-{src}"));
    }

    /// Send to `dst` while receiving from `src` (`MPI_Sendrecv`).
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
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

    /// An arrival, then tests of the same generation until it passes.
    /// Panics when the executor has been poisoned, as a blocking
    /// rank's permit wait does — a parked polled rank re-stepped after a
    /// peer's panic must unwind, not re-park.
    fn barrier_try(&mut self) -> bool {
        if self.core.blocking {
            self.barrier();
            return true;
        }
        self.unwind_if_poisoned();
        match self.arrived {
            Some((g, t0)) => {
                if self.core.fence_check(self.rank, g) {
                    self.arrived = None;
                    self.span_end(TraceKind::Barrier, t0, 0, String::new);
                    true
                } else {
                    false
                }
            }
            None => {
                let t0 = self.span_start();
                let g = self.core.fence_arrive(self.rank);
                if self.core.fence_check(self.rank, g) {
                    self.span_end(TraceKind::Barrier, t0, 0, String::new);
                    true
                } else {
                    self.arrived = Some((g, t0));
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
        if let Some(plan) = &self.core.faults {
            let spike = plan.get_spike(self.rank, self.gets_issued);
            self.gets_issued += 1;
            if spike > 0.0 {
                self.inject_delay(spike);
            }
        }
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
        // A straggler stretches its measured compute to `slow ×`.
        let straggling = (self.slow > 1.0).then(Instant::now);
        if m > 0 && n > 0 && k > 0 {
            let (Some(a), Some(b), Some(c)) = (a, b, c) else {
                panic!(
                    "executor backend requires real-backed matrices ({m}x{n}x{k} block had none)"
                );
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
        if let Some(t0) = straggling {
            self.inject_delay(t0.elapsed().as_secs_f64() * (self.slow - 1.0));
        }
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], _bytes: u64) {
        self.core.mail_send(dst, self.rank, tag, data.to_vec());
    }

    /// Takes the message if it is in the mailbox; otherwise returns
    /// `false`, and the send that delivers it wakes the parked rank.
    /// Panics once the executor has been poisoned, as `barrier_try` does.
    fn recv_try(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) -> bool {
        if self.core.blocking {
            self.recv(src, tag, buf, bytes);
            return true;
        }
        self.unwind_if_poisoned();
        let t0 = self.posted.unwrap_or_else(|| self.span_start());
        if !self.core.mail_recv(self.rank, src, tag, buf) {
            if self.posted.replace(t0).is_none() {
                self.mark_park();
            }
            return false;
        }
        self.posted = None;
        self.span_end(TraceKind::Wait, t0, 0, || format!("recv<-{src}"));
        true
    }

    /// Sends on the first call only, then receives as `recv_try` does.
    fn sendrecv_try(
        &mut self,
        dst: usize,
        tag: u64,
        send_data: &[f64],
        send_bytes: u64,
        src: usize,
        recv_buf: &mut Vec<f64>,
        recv_bytes: u64,
    ) -> bool {
        if self.posted.is_none() {
            self.send(dst, tag, send_data, send_bytes);
        }
        self.recv_try(src, tag, recv_buf, recv_bytes)
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

/// Pick a task to start or resume: an unstarted rank of this worker's
/// own share, then a woken rank from the injector, then an unstarted
/// rank of a sibling's share.
fn find_work(core: &SchedCore, me: usize, events: &mut Vec<TraceEvent>) -> Option<usize> {
    if let Some(id) = core.claim(me) {
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
        if let Some(id) = core.claim(victim) {
            core.steals.fetch_add(1, Ordering::Relaxed);
            core.sched_event(events, id, || format!("steal w{me}<-w{victim}"));
            return Some(id);
        }
    }
    None
}

/// Sleep until work may exist again. Returns `false` when the run is
/// over (all tasks done, or poisoned). Shares only shrink, so the one
/// wake-up to wait for is an injection.
fn park_worker(core: &SchedCore) -> bool {
    let mut g = relock(&core.global);
    loop {
        if core.is_poisoned() || core.remaining.load(Ordering::SeqCst) == 0 {
            return false;
        }
        if !g.injector.is_empty() || (0..core.workers).any(|w| core.share_left(w)) {
            return true;
        }
        core.worker_parks.fetch_add(1, Ordering::Relaxed);
        g.sleepers += 1;
        g = core.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        g.sleepers -= 1;
    }
}

/// Poll the state machine of scheduled task `id` once. Returns `id`
/// again when the task is runnable at once — it yielded, or a wake
/// raced its park — so the same worker resumes it next.
fn run_one<T: Send>(
    core: &SchedCore,
    slots: &[Slot<'_, T>],
    sink: &Sink<T>,
    me: usize,
    id: usize,
    events: &mut Vec<TraceEvent>,
) -> Option<usize> {
    let Some(mut task) = relock(&slots[id]).take() else {
        return None; // stale queue entry for a finished rank
    };
    relock(&core.tasks[id].st).phase = Phase::Running;
    match catch_unwind(AssertUnwindSafe(|| task.step())) {
        Err(p) => {
            drop(task);
            core.poison(p);
            None
        }
        Ok(Step::Done(out)) => {
            sink.finish(core, id, out, task.take_trace());
            None
        }
        Ok(Step::Yield) => {
            *relock(&slots[id]) = Some(task);
            let mut st = relock(&core.tasks[id].st);
            st.pending_wake = false;
            st.phase = Phase::Queued;
            Some(id)
        }
        Ok(Step::Park) => {
            // The box must be back in its cell before the rank is
            // parked: the wake that follows may inject it at once.
            *relock(&slots[id]) = Some(task);
            let mut st = relock(&core.tasks[id].st);
            if st.pending_wake {
                // The wake raced the park: run it again at once.
                st.pending_wake = false;
                st.phase = Phase::Queued;
                Some(id)
            } else {
                st.phase = Phase::Parked;
                drop(st);
                core.parks.fetch_add(1, Ordering::Relaxed);
                core.sched_event(events, id, || format!("park w{me}"));
                None
            }
        }
    }
}

/// One worker thread's life; its time spent running tasks counts as
/// busy.
fn worker_loop<T: Send>(core: &SchedCore, slots: &[Slot<'_, T>], sink: &Sink<T>, me: usize) {
    let mut busy = Duration::ZERO;
    let mut events: Vec<TraceEvent> = Vec::new();
    // A rank this worker ran that is runnable again at once.
    let mut next = None;
    loop {
        if core.is_poisoned() {
            break;
        }
        let id = match next.take() {
            Some(id) => {
                core.local_pops.fetch_add(1, Ordering::Relaxed);
                id
            }
            None => match find_work(core, me, &mut events) {
                Some(id) => id,
                None if park_worker(core) => continue,
                None => break,
            },
        };
        let t = Instant::now();
        next = run_one(core, slots, sink, me, id, &mut events);
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
    let mut comm = ExecComm::new(Arc::clone(core), rank);
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

/// The worker-pool size a run will actually use for a `requested`
/// count: clamped to `[1, nranks]`, since a worker beyond one-per-rank
/// can never hold a task. Every host applies this, so a caller reports
/// the *resolved* count.
pub(crate) fn resolve_workers(requested: usize, nranks: usize) -> usize {
    requested.clamp(1, nranks.max(1))
}

/// Run `body` once per rank, each on its own thread but only `workers`
/// of them at any moment: a blocking point inside gives the rank's
/// permit to another instead of convoying the OS scheduler. Untraced,
/// healthy, one shared-memory domain: the closure host of code written
/// in blocking style, beside the polled [`exec_run_tasks`].
pub fn exec_run<T, F>(nranks: usize, workers: usize, body: F) -> ExecRunResult<T>
where
    T: Send,
    F: Fn(&mut ExecComm) -> T + Sync,
{
    let core = SchedCore::new(nranks, workers, true, false, None, None);
    run_threads(&core, nranks, |rank, sink| {
        blocking_rank(&core, rank, &body, sink)
    })
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

/// Run `nranks` state-machine rank tasks on `workers` workers — no
/// per-rank OS threads at all. `factory` is called once per rank with
/// that rank's [`ExecComm`] and returns the task that owns it. With
/// `trace`, ranks record wall-clock events (plus `Sched` park markers).
/// With `topo`, every rank's `ExecComm` reports that emulated cluster
/// topology: off-node blocks lose direct access, and transfers are
/// classified intra-group vs inter-node. With `faults`, every rank's
/// `ExecComm` applies the plan's stragglers and get spikes (its death is
/// the caller's to script).
pub fn exec_run_tasks<'env, T, F>(
    nranks: usize,
    workers: usize,
    trace: bool,
    topo: Option<Topology>,
    faults: Option<&FaultPlan>,
    mut factory: F,
) -> ExecRunResult<T>
where
    T: Send,
    F: FnMut(ExecComm) -> Box<dyn RankTask<Out = T> + Send + 'env>,
{
    let core = SchedCore::new(nranks, workers, false, trace, topo, faults);
    let slots: Vec<Slot<'env, T>> = (0..nranks)
        .map(|rank| {
            let comm = ExecComm::new(Arc::clone(&core), rank);
            Mutex::new(Some(factory(comm)))
        })
        .collect();
    run_threads(&core, core.workers, |w, sink| {
        worker_loop(&core, &slots, sink, w)
    })
}

#[cfg(test)]
mod tests {
    //! Barrier edges under fault injection: these need the private
    //! `SchedCore`, so they live here rather than in the integration
    //! suite.
    use super::*;

    #[test]
    fn proxy_arrival_discharges_a_dead_ranks_barrier() {
        let core = SchedCore::new(3, 1, false, false, None, None);
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
    fn barrier_try_after_poison_panics_instead_of_parking() {
        let core = SchedCore::new(2, 1, false, false, None, None);
        let mut comm = ExecComm::new(Arc::clone(&core), 0);
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

    /// The same for a rank parked in `recv_try` on an empty mailbox.
    #[test]
    fn recv_try_after_poison_panics_instead_of_parking() {
        let core = SchedCore::new(2, 1, false, false, None, None);
        let mut comm = ExecComm::new(Arc::clone(&core), 0);
        let mut buf = Vec::new();
        assert!(!comm.recv_try(1, 3, &mut buf, 8), "nothing was sent");
        core.poison(Box::new("boom"));
        let err = catch_unwind(AssertUnwindSafe(|| comm.recv_try(1, 3, &mut buf, 8)))
            .expect_err("a parked rank re-stepped after poison must unwind");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("executor poisoned"), "got: {msg}");
    }
}
