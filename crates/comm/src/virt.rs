//! The per-rank virtual-clock backend: LogGP-modeled time at 64k ranks.
//!
//! The discrete-event simulator ([`crate::simbackend`]) orders every
//! rank's operations through one global kernel — faithful, but
//! sequential past a few thousand ranks. This backend trades transfer
//! *contention* for scale: every rank carries its own independent
//! virtual clock, charges each operation its uncontended
//! [`TransferCost`], and runs **to
//! completion** in one call of its body, with nothing to park on and no
//! cross-rank coupling. [`virtual_run`] is therefore a plain
//! parallel-for: `workers` scoped threads claim rank indices from one
//! atomic counter, so 65 536 ranks are a few seconds of host time. A get
//! handle carries its own completion time, so a rank keeps no table of
//! its transfers.
//!
//! Rank clocks are recombined **BSP-style** at barriers: `barrier()` is
//! non-blocking in virtual time (it only cuts the current clock
//! segment), and [`virtual_run`] aligns segments across ranks — the
//! run's makespan is the sum over segments of the slowest rank's
//! duration, plus a log-depth latency per barrier, exactly the
//! accounting the discrete-event simulator converges to for
//! barrier-separated phases. The
//! price is that *within* a segment, ranks do not contend for wires or
//! memory bandwidth; this is the classic LogGP idealization, and it is
//! what makes the flat-vs-hierarchical byte and makespan crossover
//! measurable at paper-untouchable scales.

use crate::comm::{count_served, Comm, GetHandle};
use crate::dist::{DistMatrix, Landing};
use crate::exec::resolve_workers;
use crate::simbackend::barrier_latency;
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand};
use srumma_model::{protocol, Machine, Topology, TransferCost};
use srumma_trace::{Counters, RankStats, Recorder, RunStats};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-rank communicator over an independent virtual clock.
pub struct VirtualComm {
    rank: usize,
    nranks: usize,
    topo: Topology,
    machine: Arc<Machine>,
    /// This rank's virtual time (monotonic across segments).
    clock: f64,
    /// Start time of the current inter-barrier segment.
    seg_start: f64,
    /// Closed segment durations (one per barrier passed).
    segments: Vec<f64>,
    /// Latest completion time of any transfer issued: what `fence`
    /// waits for. Waited handles stay in the max, which changes nothing
    /// because the clock never goes back.
    pending: f64,
    recorder: Recorder,
    ws: GemmWorkspace,
}

impl VirtualComm {
    /// A communicator for `rank` of `nranks` on `machine` with layout
    /// `topo`.
    pub(crate) fn new(rank: usize, nranks: usize, topo: Topology, machine: Arc<Machine>) -> Self {
        assert_eq!(topo.nranks(), nranks, "topology rank count mismatch");
        VirtualComm {
            rank,
            nranks,
            topo,
            machine,
            clock: 0.0,
            seg_start: 0.0,
            segments: Vec::new(),
            pending: 0.0,
            recorder: Recorder::disabled(rank),
            ws: GemmWorkspace::new(),
        }
    }

    /// Charge a nonblocking issue: the initiator-busy part advances the
    /// clock now; the full blocking completion time goes in the handle
    /// and in `pending`.
    fn issue(&mut self, cost: TransferCost) -> GetHandle {
        let done = self.clock + cost.blocking_time();
        self.clock += cost.initiator_busy_time();
        self.pending = self.pending.max(done);
        GetHandle::Virt(done)
    }

    /// Uncontended cost of moving `bytes` between us and cost endpoint
    /// `serve` ([`protocol::onesided`]), counted against the level that
    /// served it.
    fn onesided(&mut self, serve: usize, bytes: u64, put: bool) -> TransferCost {
        let (cost, served) = protocol::onesided(
            &self.machine,
            &self.topo,
            self.rank,
            serve,
            bytes as usize,
            put,
        );
        count_served(&mut self.recorder, served, bytes);
        cost
    }

    /// Close the final segment and surrender the clock record.
    fn finish(mut self) -> (Vec<f64>, Counters) {
        self.fence();
        self.segments.push(self.clock - self.seg_start);
        let (_, counters) = self.recorder.take();
        (self.segments, counters)
    }
}

impl Comm for VirtualComm {
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
        self.topo.same_domain(self.rank, owner) && self.machine.shm.cacheable_remote
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn ws_grow_count(&self) -> u64 {
        self.ws.grow_count()
    }

    /// Non-blocking in virtual time: cuts the current clock segment.
    /// [`virtual_run`] realigns ranks here and charges the log-depth
    /// barrier latency during recombination, so every rank must execute
    /// the same barrier sequence.
    fn barrier(&mut self) {
        self.segments.push(self.clock - self.seg_start);
        self.seg_start = self.clock;
    }

    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let (rows, cols) = mat.land_block(owner, into);
        let bytes = (rows * cols * 8) as u64;
        self.recorder.count_fetch(bytes);
        let cost = self.onesided(mat.cost_rank(owner), bytes, false);
        self.issue(cost)
    }

    fn wait(&mut self, h: GetHandle) {
        match h {
            GetHandle::Ready => {}
            GetHandle::Virt(done) => self.clock = self.clock.max(done),
            GetHandle::Sim(_) => unreachable!("virtual backend issues no simulated transfers"),
        }
    }

    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        mat.copy_block_from(owner, data);
        let bytes = mat.block_bytes(owner);
        let cost = self.onesided(mat.cost_rank(owner), bytes, true);
        self.issue(cost)
    }

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        mat.acc_block_from(owner, scale, data);
        let bytes = mat.block_bytes(owner);
        let (rows, cols) = mat.block_dims(owner);
        let add_time = (rows * cols) as f64 / self.machine.cpu.peak_flops;
        let cost = self.onesided(mat.cost_rank(owner), bytes, true);
        // Blocking accumulate: full transfer plus the target-side adds.
        self.clock += cost.blocking_time() + add_time;
    }

    fn fence(&mut self) {
        self.clock = self.clock.max(self.pending);
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
        direct: bool,
        _label: &str,
    ) {
        debug_assert!(beta == 0.0 || beta == 1.0, "Comm::gemm takes beta 0 or 1");
        let base = self.machine.cpu.gemm_time(m, n, k);
        let factor = if direct {
            self.machine.shm.direct_access_eff.max(1e-3)
        } else {
            1.0
        };
        self.clock += base / factor;
        if let (Some(a), Some(b), Some(c)) = (a, b, c) {
            dgemm_operands(alpha, a, b, beta, c, &mut self.ws);
        }
    }

    fn send(&mut self, _dst: usize, _tag: u64, _data: &[f64], _bytes: u64) {
        unimplemented!("the virtual-clock backend models one-sided algorithms only");
    }

    fn recv(&mut self, _src: usize, _tag: u64, _buf: &mut Vec<f64>, _bytes: u64) {
        unimplemented!("the virtual-clock backend models one-sided algorithms only");
    }

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
        unimplemented!("the virtual-clock backend models one-sided algorithms only");
    }
}

/// Result of a [`virtual_run`].
#[derive(Debug)]
pub struct VirtualRunResult<T> {
    /// Per-rank outputs.
    pub outputs: Vec<T>,
    /// Modeled per-rank and aggregate metrics (virtual seconds);
    /// `stats.exec` is `None`: no rank is scheduled, each runs once.
    pub stats: RunStats,
    /// Host wall-clock seconds the run took — the feasibility metric.
    pub wall_seconds: f64,
}

/// What one rank leaves behind: its output, clock segments and counters.
type RankRecord<T> = (T, Vec<f64>, Counters);

/// Run `body` once per rank with independent virtual clocks, on
/// `workers` scoped threads (`0` = auto, as the executor resolves it)
/// that claim rank indices from one counter, and recombine the clocks
/// BSP-style. The topology comes from `machine.topology(nranks)`,
/// matching [`crate::simbackend::sim_run_programs`].
///
/// # Panics
/// With the payload of a rank body's panic.
pub fn virtual_run<T, F>(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    body: F,
) -> VirtualRunResult<T>
where
    T: Send,
    F: Fn(&mut VirtualComm) -> T + Sync,
{
    assert!(nranks > 0);
    let topo = machine.topology(nranks);
    let shared = Arc::new(machine.clone());
    let next = AtomicUsize::new(0);
    // One thread's share: the ranks it claimed, in claim order. The
    // counter publishes nothing but the index; the records come back
    // through `join`.
    let worker = || {
        let mut done: Vec<(usize, RankRecord<T>)> = Vec::new();
        loop {
            let rank = next.fetch_add(1, Ordering::Relaxed);
            if rank >= nranks {
                return done;
            }
            let mut comm = VirtualComm::new(rank, nranks, topo, Arc::clone(&shared));
            let out = body(&mut comm);
            let (segments, counters) = comm.finish();
            done.push((rank, (out, segments, counters)));
        }
    };
    let t0 = Instant::now();
    let shares: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..resolve_workers(workers, nranks))
            .map(|_| scope.spawn(worker))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut records: Vec<Option<RankRecord<T>>> = (0..nranks).map(|_| None).collect();
    for share in shares {
        match share {
            Ok(done) => {
                for (rank, record) in done {
                    records[rank] = Some(record);
                }
            }
            Err(payload) => resume_unwind(payload),
        }
    }
    let mut outputs = Vec::with_capacity(nranks);
    let mut segs: Vec<Vec<f64>> = Vec::with_capacity(nranks);
    let mut counters = Vec::with_capacity(nranks);
    for (out, s, c) in records
        .into_iter()
        .map(|r| r.expect("every rank was claimed"))
    {
        outputs.push(out);
        segs.push(s);
        counters.push(c);
    }
    let nseg = segs[0].len();
    for (r, s) in segs.iter().enumerate() {
        assert_eq!(
            s.len(),
            nseg,
            "rank {r} executed a different barrier sequence"
        );
    }
    // Same alignment latency the discrete-event kernel charges. The
    // final segment boundary is program exit, not a barrier.
    let nbarriers = nseg.saturating_sub(1);
    let sync_time = nbarriers as f64 * barrier_latency(machine, topo);
    let mut makespan = sync_time;
    for i in 0..nseg {
        makespan += segs.iter().map(|s| s[i]).fold(0.0, f64::max);
    }
    let mut ranks = vec![RankStats::default(); nranks];
    let mut final_times = vec![0.0f64; nranks];
    for r in 0..nranks {
        let ctr = &counters[r];
        let rs = &mut ranks[r];
        rs.bytes_network = ctr.bytes_internode;
        rs.bytes_shm = ctr.bytes_fetched.saturating_sub(ctr.bytes_internode);
        rs.transfers = ctr.blocks_fetched;
        rs.absorb_counters(ctr);
        final_times[r] = segs[r].iter().sum::<f64>() + sync_time;
    }
    let stats = RunStats {
        ranks,
        final_times,
        makespan,
        exec: None,
    };
    VirtualRunResult {
        outputs,
        stats,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_model::ProcGrid;

    #[test]
    fn clocks_advance_and_segments_align() {
        let machine = Machine::linux_myrinet();
        let res = virtual_run(&machine, 4, 2, |c| {
            c.gemm(64, 64, 64, 1.0, None, None, 1.0, None, false, "t");
            c.barrier();
            if c.rank() == 0 {
                // Rank 0 computes more in segment 2: it alone should
                // stretch the second segment's maximum.
                c.gemm(64, 64, 64, 1.0, None, None, 1.0, None, false, "t");
            }
            c.rank()
        });
        assert_eq!(res.outputs, vec![0, 1, 2, 3]);
        let t1 = machine.cpu.gemm_time(64, 64, 64);
        assert!(
            res.stats.makespan >= 2.0 * t1,
            "both segment maxima must contribute"
        );
        assert!(res.stats.makespan < 2.0 * t1 + 1e-3);
    }

    #[test]
    fn nonblocking_get_overlaps_and_fence_completes() {
        let machine = Machine::linux_myrinet(); // 2 ranks/node: rank 2 is off-node from rank 0
        let grid = ProcGrid::new(2, 2);
        let mat = DistMatrix::create_virtual(grid, 256, 256);
        let res = virtual_run(&machine, 4, 2, |c| {
            let mut buf = Vec::new();
            let peer = (c.rank() + 2) % 4; // always off-node under w=2
            let h = c.nbget(&mat, peer, Landing::Rows(&mut buf));
            let at_issue = c.now();
            c.wait(h);
            (at_issue, c.now())
        });
        for (issue, done) in &res.outputs {
            assert!(done > issue, "waiting must advance past the issue time");
        }
        // Off-node fetches are internode bytes, and they land in
        // bytes_network.
        assert!(res.stats.total_internode_bytes() > 0);
        assert_eq!(
            res.stats.total_internode_bytes(),
            res.stats.total_network_bytes()
        );
    }

    #[test]
    fn scales_to_thousands_of_ranks() {
        let machine = Machine::linux_myrinet();
        let res = virtual_run(&machine, 4096, 8, |c| {
            c.barrier();
            c.rank()
        });
        assert_eq!(res.outputs.len(), 4096);
        assert!(res.stats.makespan > 0.0, "barrier latency alone is charged");
        assert!(res.stats.exec.is_none(), "no rank is scheduled");
    }

    /// A rank body's panic comes back out of the run with its own
    /// payload, under a 10 s watchdog: a pool that swallowed it or waited
    /// on the dead thread would fail here instead of hanging the suite.
    #[test]
    fn a_panicking_body_re_raises_its_payload() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                virtual_run(&Machine::linux_myrinet(), 64, 2, |c| {
                    if c.rank() == 37 {
                        std::panic::panic_any(37usize);
                    }
                })
            });
            let _ = tx.send(run.err().and_then(|p| p.downcast_ref::<usize>().copied()));
        });
        let payload = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the run hung");
        assert_eq!(payload, Some(37), "the body's own payload");
    }
}
