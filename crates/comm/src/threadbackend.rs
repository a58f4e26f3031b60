//! The real-threads backend: `Comm` on actual host shared memory.
//!
//! This is the paper's SGI Altix configuration made concrete on today's
//! hardware: every rank is an OS thread in a single cacheable
//! shared-memory domain, a "get" is a real `memcpy`, direct access
//! passes real slices straight into the serial kernel, and time is the
//! wall clock. The quickstart example and the Criterion benches use it
//! to demonstrate genuine parallel speedup from the same algorithm code
//! that runs under the simulator.

use crate::comm::{Comm, GetHandle};
use crate::dist::{DistMatrix, Landing};
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, Operand};
use srumma_model::Topology;
use srumma_trace::{Counters, Recorder, RunStats, TraceEvent, TraceKind};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

type Packet = (u64, Vec<f64>);

/// A sense-reversing barrier that can be *poisoned*: when a rank
/// panics, `thread_run` poisons the barrier so every waiter unwinds
/// instead of hanging forever (std's `Barrier` cannot be interrupted).
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    /// Lock the barrier state, tolerating mutex poisoning: a panicking
    /// rank must still be able to poison the barrier, and survivors
    /// must be able to observe the flag and unwind.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait(&self) {
        let mut st = self.lock();
        assert!(!st.poisoned, "barrier poisoned: another rank panicked");
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        assert!(!st.poisoned, "barrier poisoned: another rank panicked");
    }

    fn poison(&self) {
        let mut st = self.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Per-rank communicator over real threads.
pub struct ThreadComm {
    rank: usize,
    nranks: usize,
    barrier: Arc<PoisonBarrier>,
    /// `senders[d]` sends to rank `d` (our outgoing edge).
    senders: Vec<Sender<Packet>>,
    /// `receivers[s]` receives what rank `s` sent us.
    receivers: Vec<Receiver<Packet>>,
    t0: Instant,
    /// Emulated node layout. Defaults to one cacheable domain (the
    /// Altix flavor); [`thread_launch`] can override it so
    /// hierarchical schedules exercise real staging `memcpy`s on a
    /// pretend cluster.
    topo: Topology,
    /// Wall-clock trace recorder (same implementation the simulator
    /// backend uses, recording `Instant`-derived seconds instead of
    /// virtual time).
    recorder: Recorder,
    /// Per-rank gemm packing workspace, reused across every `gemm` call
    /// this rank issues (zero steady-state allocations in the task loop).
    ws: GemmWorkspace,
}

impl ThreadComm {
    /// Start of a recorded interval: a clock read when tracing, free
    /// otherwise (the disabled-recorder overhead budget is one branch
    /// per instrumentation point).
    #[inline]
    fn span_start(&self) -> f64 {
        if self.recorder.is_enabled() {
            self.t0.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Close an interval opened by [`Self::span_start`].
    #[inline]
    fn span_end<F: FnOnce() -> String>(&mut self, kind: TraceKind, t0: f64, bytes: u64, label: F) {
        if self.recorder.is_enabled() {
            let t1 = self.t0.elapsed().as_secs_f64();
            self.recorder.span(kind, t0, t1, bytes, label);
        }
    }

    /// Classify a transfer against the emulated topology: which level of
    /// the (pretend) memory hierarchy served it.
    #[inline]
    fn classify(&mut self, serve: usize, bytes: u64) {
        if serve == self.rank {
            return;
        }
        if self.topo.same_domain(self.rank, serve) {
            self.recorder.count_intragroup(bytes);
        } else {
            self.recorder.count_internode(bytes);
        }
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn topology(&self) -> Topology {
        self.topo
    }

    fn prefer_direct_access(&self, owner: usize) -> bool {
        // Host shared memory is cacheable: the Altix flavor. Under an
        // emulated cluster topology, off-node blocks must be fetched so
        // hierarchical staging actually moves bytes.
        self.topo.same_domain(self.rank, owner)
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn ws_grow_count(&self) -> u64 {
        self.ws.grow_count()
    }

    fn barrier(&mut self) {
        let t0 = self.span_start();
        self.barrier.wait();
        self.span_end(TraceKind::Barrier, t0, 0, String::new);
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
                unreachable!("thread backend issues no simulated transfers")
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
        // Data movement is eager on the thread backend: already done.
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
            return; // empty block: nothing to do (and no data exists)
        }
        let (Some(a), Some(b), Some(c)) = (a, b, c) else {
            panic!("thread backend requires real-backed matrices ({m}x{n}x{k} block had none)");
        };
        let t0 = self.span_start();
        dgemm_operands(alpha, a, b, 1.0, c, &mut self.ws);
        self.span_end(TraceKind::Compute, t0, 0, || label.to_string());
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], _bytes: u64) {
        self.senders[dst]
            .send((tag, data.to_vec()))
            .expect("receiver hung up");
    }

    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, _bytes: u64) {
        let t0 = self.span_start();
        let (got_tag, payload) = self.receivers[src].recv().expect("sender hung up");
        assert_eq!(
            got_tag, tag,
            "tag mismatch receiving from {src}: expected {tag}, got {got_tag}"
        );
        *buf = payload;
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
        // Channels are buffered: send first, then receive — no deadlock.
        self.send(dst, tag, send_data, send_bytes);
        self.recv(src, tag, recv_buf, recv_bytes);
    }
}

/// Result of a [`thread_run`].
#[derive(Debug)]
pub struct ThreadRunResult<T> {
    /// Per-rank closure outputs.
    pub outputs: Vec<T>,
    /// Wall-clock duration of the parallel section (seconds).
    pub wall_seconds: f64,
    /// Recorded trace events (empty unless [`thread_launch`] ran with
    /// `trace`), merged across ranks and sorted by start
    /// time.
    pub trace: Vec<TraceEvent>,
    /// Derived per-rank and aggregate metrics. Span-derived fields are
    /// zero for untraced runs; the fetch/direct/task counters are
    /// always real.
    pub stats: RunStats,
}

/// Run `body` once per rank on real threads sharing the host's memory.
/// Tracing is off: instrumentation costs one untaken branch per point.
pub fn thread_run<T, F>(nranks: usize, body: F) -> ThreadRunResult<T>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    thread_launch(nranks, false, None, body)
}

/// The general form of [`thread_run`]. With `trace`, every rank records
/// wall-clock trace events (barriers, gets/puts, kernel calls, and
/// whatever task spans the algorithm layer adds through
/// [`Comm::recorder`]). With `topo`, every rank sees that topology
/// instead of one flat shared-memory domain: blocks owned
/// off-(pretend-)node stop being directly accessible, so hierarchical
/// schedules do real staging copies — on actual host memory, with the
/// wall clock running.
pub fn thread_launch<T, F>(
    nranks: usize,
    trace: bool,
    topo: Option<Topology>,
    body: F,
) -> ThreadRunResult<T>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Sync,
{
    assert!(nranks > 0);
    let topo = topo.unwrap_or_else(|| Topology::single_domain(nranks));
    assert_eq!(topo.nranks(), nranks, "topology rank count mismatch");
    let barrier = Arc::new(PoisonBarrier::new(nranks));
    // Channel matrix: edge (s, d) moves messages s → d.
    let mut txs: Vec<Vec<Option<Sender<Packet>>>> = vec![];
    let mut rxs: Vec<Vec<Option<Receiver<Packet>>>> = (0..nranks).map(|_| vec![]).collect();
    for _s in 0..nranks {
        let mut row = vec![];
        for rx_slot in rxs.iter_mut() {
            let (tx, rx) = channel();
            row.push(Some(tx));
            rx_slot.push(Some(rx));
        }
        txs.push(row);
    }

    let t0 = Instant::now();
    let mut outputs: Vec<Option<(T, Vec<TraceEvent>, Counters)>> =
        (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, ((slot, tx_row), rx_col)) in outputs
            .iter_mut()
            .zip(txs.iter_mut())
            .zip(rxs.iter_mut())
            .enumerate()
        {
            let barrier = Arc::clone(&barrier);
            let body = &body;
            let senders: Vec<Sender<Packet>> =
                tx_row.iter_mut().map(|t| t.take().unwrap()).collect();
            let receivers: Vec<Receiver<Packet>> =
                rx_col.iter_mut().map(|r| r.take().unwrap()).collect();
            handles.push(scope.spawn(move || {
                let mut comm = ThreadComm {
                    rank,
                    nranks,
                    barrier: Arc::clone(&barrier),
                    senders,
                    receivers,
                    t0,
                    topo,
                    recorder: Recorder::new(rank, trace),
                    ws: GemmWorkspace::new(),
                };
                // A panicking rank must poison the barrier (and drop
                // its channel endpoints), or every other rank hangs in
                // a collective that can never complete.
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut comm)));
                match result {
                    Ok(v) => {
                        let (events, counters) = comm.recorder.take();
                        *slot = Some((v, events, counters));
                        None
                    }
                    Err(payload) => {
                        barrier.poison();
                        Some(payload)
                    }
                }
            }));
        }
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(Some(payload)) => {
                    // Prefer the original (body) panic over secondary
                    // poison panics from other ranks.
                    first_panic = Some(payload);
                    break;
                }
                Ok(None) => {}
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    let mut plain = Vec::with_capacity(nranks);
    let mut trace_events = Vec::new();
    let mut counters = Vec::with_capacity(nranks);
    for o in outputs {
        let (out, events, ctr) = o.unwrap();
        plain.push(out);
        trace_events.extend(events);
        counters.push(ctr);
    }
    trace_events.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.rank.cmp(&b.rank)));
    let mut stats = RunStats::from_events(nranks, &trace_events);
    for (rank, ctr) in counters.iter().enumerate() {
        // Span-derived fields came from `from_events`; fold in the
        // always-on counters (fetched bytes live in bytes_shm already
        // via Transfer spans only when traced, so account them here
        // from the counter to keep untraced runs truthful).
        let rs = &mut stats.ranks[rank];
        rs.bytes_shm = ctr.bytes_fetched;
        rs.transfers = ctr.blocks_fetched;
        rs.absorb_counters(ctr);
    }
    if stats.makespan == 0.0 {
        stats.makespan = wall_seconds;
    }
    ThreadRunResult {
        outputs: plain,
        wall_seconds,
        trace: trace_events,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_dense::{Matrix, Op};
    use srumma_model::ProcGrid;

    #[test]
    fn ranks_run_in_parallel_and_return() {
        let res = thread_run(4, |c| c.rank() * 10);
        assert_eq!(res.outputs, vec![0, 10, 20, 30]);
    }

    #[test]
    fn get_copies_real_blocks() {
        let grid = ProcGrid::new(2, 2);
        let mat = DistMatrix::create(grid, 8, 8);
        let global = Matrix::random(8, 8, 3);
        mat.scatter(&global);
        let res = thread_run(4, |c| {
            let mut buf = Vec::new();
            let peer = (c.rank() + 1) % 4;
            c.get(&mat, peer, &mut buf);
            buf.iter().sum::<f64>()
        });
        for (r, got) in res.outputs.iter().enumerate() {
            let peer = (r + 1) % 4;
            let expect: f64 = mat.read_block(peer).mat().unwrap().data()[..16]
                .iter()
                .sum();
            assert!((got - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn send_recv_and_ring_shift() {
        let res = thread_run(4, |c| {
            let n = c.nranks();
            let right = (c.rank() + 1) % n;
            let left = (c.rank() + n - 1) % n;
            let mut buf = Vec::new();
            c.sendrecv(right, 1, &[c.rank() as f64], 8, left, &mut buf, 8);
            buf[0] as usize
        });
        assert_eq!(res.outputs, vec![3, 0, 1, 2]);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        thread_run(8, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every increment must be visible.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn gemm_accumulates_into_c() {
        let res = thread_run(1, |c| {
            let a = Matrix::identity(4);
            let b = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
            let mut cm = Matrix::from_fn(4, 4, |_, _| 1.0);
            c.gemm(
                4,
                4,
                4,
                1.0,
                Some(Operand::Plain(a.as_ref(), Op::N)),
                Some(Operand::Plain(b.as_ref(), Op::N)),
                Some(cm.as_mut()),
                true,
                "t",
            );
            cm
        });
        let got = &res.outputs[0];
        assert_eq!(got[(2, 3)], 1.0 + 5.0);
    }

    #[test]
    #[should_panic(expected = "tag mismatch")]
    fn tag_mismatch_is_detected() {
        thread_run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, &[1.0], 8);
            } else {
                let mut buf = Vec::new();
                c.recv(0, 6, &mut buf, 8);
            }
        });
    }
}
