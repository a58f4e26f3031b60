//! The per-rank virtual-clock backend: LogGP-modeled time at 64k ranks.
//!
//! The discrete-event simulator ([`crate::simbackend`]) orders every
//! rank's operations through one global kernel — faithful, but
//! sequential past a few thousand ranks. This backend trades transfer
//! *contention* for scale: every rank carries its own independent
//! virtual clock, charges each operation its uncontended
//! [`TransferCost`] (priced once per distinct shape, on each worker), and
//! runs **to completion** in one call of its body, with nothing to park
//! on and no cross-rank coupling. [`virtual_run`] is therefore a plain
//! parallel-for: `workers` scoped threads claim chunks of ranks, and a
//! 65 536-rank SRUMMA run (n = 16 384, 256 tasks a rank) takes
//! ≈ 1.0–1.5 s flat and 1.3–1.9 s staged on 2 workers of a 2-vCPU host.
//! A get handle carries its own completion time, so a rank keeps no
//! table of its transfers.
//!
//! Rank clocks are recombined **BSP-style** at barriers: `barrier_try()`
//! never waits (it only cuts the current clock segment and returns
//! `true`), folded into per-segment maxima as each rank ends — the
//! run's makespan is the sum over segments of the slowest rank's
//! duration, plus a log-depth latency per barrier, exactly the
//! accounting the discrete-event simulator converges to for
//! barrier-separated phases; a rank's final clock is that sum up to its
//! last barrier plus its own final segment. The price is that *within* a segment, ranks do not contend for wires or
//! memory bandwidth; this is the classic LogGP idealization, and it is
//! what makes the flat-vs-hierarchical byte and makespan crossover
//! measurable at paper-untouchable scales.

use crate::comm::{count_served, Comm, GetHandle};
use crate::dist::{DistMatrix, Landing};
use crate::exec::resolve_workers;
use crate::simbackend::barrier_latency;
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand};
use srumma_model::protocol::{self, Served};
use srumma_model::{Machine, Topology, TransferCost};
use srumma_trace::{RankStats, Recorder, RunStats};
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::Mutex;
use std::time::Instant;

/// Ranks a worker claims at once: the claim is one lock per chunk, not
/// one contended counter per rank.
const CHUNK: usize = 32;

/// Per-rank communicator over an independent virtual clock. One serves
/// every rank a [`virtual_run`] worker claims, re-armed per rank; its
/// workspace and kept prices outlive the rank.
pub struct VirtualComm<'m> {
    rank: usize,
    nranks: usize,
    topo: Topology,
    machine: &'m Machine,
    /// This rank's node, fixed per rank: a same-domain test is a range
    /// check, not a division per get.
    node: Range<usize>,
    /// This rank's memory-bandwidth group, for the same reason.
    membw: Range<usize>,
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
    /// The last price of each kind of transfer (served level, memory-
    /// bandwidth group crossed, put), with its bytes. Ranks move blocks
    /// of a few sizes over and over, and a price is a pure function of
    /// the four, so a kept one has the bits a fresh call returns.
    transfers: [Option<(u64, TransferCost)>; 12],
    /// The last gemm time, with its `(m, n, k, direct)`.
    gemm: Option<((usize, usize, usize, bool), f64)>,
}

impl<'m> VirtualComm<'m> {
    /// A worker's communicator for the ranks of `topo` on `machine`;
    /// [`VirtualComm::start`] arms it for a rank.
    fn new(topo: Topology, machine: &'m Machine) -> Self {
        VirtualComm {
            rank: 0,
            nranks: topo.nranks(),
            topo,
            machine,
            node: 0..0,
            membw: 0..0,
            clock: 0.0,
            seg_start: 0.0,
            segments: Vec::new(),
            pending: 0.0,
            recorder: Recorder::disabled(0),
            ws: GemmWorkspace::new(),
            transfers: [None; 12],
            gemm: None,
        }
    }

    /// Arm for `rank`, at virtual time zero with no segment closed.
    fn start(&mut self, rank: usize) {
        let group = self.machine.shm.membw_group_size.max(1);
        let g = rank / group * group;
        self.rank = rank;
        self.node = self.topo.ranks_on_node(self.topo.node_of(rank));
        self.membw = g..g + group;
        self.clock = 0.0;
        self.seg_start = 0.0;
        self.segments.clear();
        self.pending = 0.0;
        self.recorder = Recorder::disabled(rank);
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
        let served = match serve {
            s if s == self.rank => Served::Own,
            s if self.node.contains(&s) => Served::Domain,
            _ => Served::Network,
        };
        let cross = served == Served::Domain && !self.membw.contains(&serve);
        let kind = &mut self.transfers[served as usize * 4 + 2 * cross as usize + put as usize];
        let cost = match *kind {
            Some((kept, cost)) if kept == bytes => cost,
            _ => {
                let cost =
                    protocol::onesided_cost(self.machine, served, cross, bytes as usize, put);
                *kind = Some((bytes, cost));
                cost
            }
        };
        count_served(&mut self.recorder, served, bytes);
        cost
    }

    /// Close the rank's final segment, fold its segments into the
    /// worker's per-segment `maxima` and its counters into its `stats`
    /// (still the default), and return the final segment's length.
    fn finish(&mut self, maxima: &mut Vec<f64>, stats: &mut RankStats) -> f64 {
        self.fence();
        let last = self.clock - self.seg_start;
        self.segments.push(last);
        fold_max(maxima, &self.segments);
        let ctr = &self.recorder.counters;
        stats.bytes_network = ctr.bytes_internode;
        stats.bytes_shm = ctr.bytes_fetched.saturating_sub(ctr.bytes_internode);
        stats.transfers = ctr.blocks_fetched;
        stats.absorb_counters(ctr);
        last
    }
}

impl Comm for VirtualComm<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn topology(&self) -> Topology {
        self.topo
    }

    fn same_domain(&self, other: usize) -> bool {
        self.node.contains(&other)
    }

    fn prefer_direct_access(&self, owner: usize) -> bool {
        self.same_domain(owner) && self.machine.shm.cacheable_remote
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

    /// Never waits: cuts the current clock segment and returns `true`.
    /// [`virtual_run`] realigns ranks here and charges the log-depth
    /// barrier latency during recombination, so every rank must execute
    /// the same barrier sequence.
    fn barrier_try(&mut self) -> bool {
        self.segments.push(self.clock - self.seg_start);
        self.seg_start = self.clock;
        true
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
        let key = (m, n, k, direct);
        self.clock += match self.gemm {
            Some((kept, time)) if kept == key => time,
            _ => {
                let base = self.machine.cpu.gemm_time(m, n, k);
                let factor = if direct {
                    self.machine.shm.direct_access_eff.max(1e-3)
                } else {
                    1.0
                };
                self.gemm = Some((key, base / factor));
                base / factor
            }
        };
        if let (Some(a), Some(b), Some(c)) = (a, b, c) {
            dgemm_operands(alpha, a, b, beta, c, &mut self.ws);
        }
    }

    fn send(&mut self, _dst: usize, _tag: u64, _data: &[f64], _bytes: u64) {
        unimplemented!("the virtual-clock backend models one-sided algorithms only");
    }

    fn recv_try(&mut self, _src: usize, _tag: u64, _buf: &mut Vec<f64>, _bytes: u64) -> bool {
        unimplemented!("the virtual-clock backend models one-sided algorithms only");
    }

    fn sendrecv_try(
        &mut self,
        _dst: usize,
        _tag: u64,
        _send_data: &[f64],
        _send_bytes: u64,
        _src: usize,
        _recv_buf: &mut Vec<f64>,
        _recv_bytes: u64,
    ) -> bool {
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

/// Fold one rank's (or worker's) clock `segments` into the per-segment
/// `maxima` — empty before the first.
fn fold_max(maxima: &mut Vec<f64>, segments: &[f64]) {
    if maxima.is_empty() {
        maxima.resize(segments.len(), 0.0);
    }
    assert_eq!(
        segments.len(),
        maxima.len(),
        "ranks executed different barrier sequences"
    );
    for (max, &seg) in maxima.iter_mut().zip(segments) {
        *max = max.max(seg);
    }
}

/// Run `body` once per rank with independent virtual clocks, on
/// `workers` scoped threads (clamped to `[1, nranks]`, as the executor
/// clamps its pool) that claim chunks of consecutive ranks, and
/// recombine the clocks BSP-style. Each worker hands every rank it runs
/// the same `S`, `S::default()` at its start: allocations a rank may
/// leave to the next. A rank's clock segments and counters are folded in as it
/// finishes. The topology comes from `machine.topology(nranks)`,
/// matching [`crate::simbackend::sim_run_programs`].
///
/// # Panics
/// With the payload of a rank body's panic.
pub fn virtual_run<'m, S, T, F>(
    machine: &'m Machine,
    nranks: usize,
    workers: usize,
    body: F,
) -> VirtualRunResult<T>
where
    S: Default,
    T: Send,
    F: Fn(&mut VirtualComm<'m>, &mut S) -> T + Sync,
{
    assert!(nranks > 0);
    let t0 = Instant::now();
    let topo = machine.topology(nranks);
    let mut ranks = vec![RankStats::default(); nranks];
    // Each rank's final segment, until the segment maxima are known.
    let mut final_times = vec![0.0f64; nranks];
    let chunks = ranks.chunks_mut(CHUNK).zip(final_times.chunks_mut(CHUNK));
    let chunks = Mutex::new(chunks.enumerate());
    let worker = || {
        let mut comm = VirtualComm::new(topo, machine);
        let mut state = S::default();
        // The per-segment maxima over this worker's ranks, and their
        // outputs by chunk.
        let (mut maxima, mut outputs) = (Vec::new(), Vec::new());
        loop {
            let claim = chunks.lock().expect("no worker panics holding it").next();
            let Some((chunk, (stats, lasts))) = claim else {
                return (maxima, outputs);
            };
            let base = chunk * CHUNK;
            let mut outs = Vec::with_capacity(stats.len());
            for (rank, (stats, last)) in (base..).zip(stats.iter_mut().zip(lasts)) {
                comm.start(rank);
                outs.push(body(&mut comm, &mut state));
                *last = comm.finish(&mut maxima, stats);
            }
            outputs.push((base, outs));
        }
    };
    let shares: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..resolve_workers(workers, nranks))
            .map(|_| scope.spawn(worker))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut maxima: Vec<f64> = Vec::new();
    let mut chunks = Vec::new();
    for share in shares {
        let (worker_maxima, outputs) = share.unwrap_or_else(|payload| resume_unwind(payload));
        if !worker_maxima.is_empty() {
            fold_max(&mut maxima, &worker_maxima);
        }
        chunks.extend(outputs);
    }
    chunks.sort_unstable_by_key(|&(base, _)| base);
    let outputs = chunks.into_iter().flat_map(|(_, outs)| outs).collect();
    // Same alignment latency the discrete-event kernel charges. The
    // final segment boundary is program exit, not a barrier. A rank
    // leaves each barrier when the slowest arrives, so its clock is the
    // makespan's sum up to the last barrier plus its own final segment:
    // the slowest rank's is the makespan, bit for bit.
    let (last, before) = maxima.split_last().expect("every rank closes a segment");
    let mut released = before.len() as f64 * barrier_latency(machine, topo);
    for max in before {
        released += max;
    }
    for t in &mut final_times {
        *t += released;
    }
    let stats = RunStats {
        ranks,
        final_times,
        makespan: released + last,
        exec: None,
    };
    VirtualRunResult {
        outputs,
        stats,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_model::ProcGrid;

    #[test]
    fn clocks_advance_and_segments_align() {
        let machine = Machine::linux_myrinet();
        let res = virtual_run(&machine, 4, 2, |c, _: &mut ()| {
            c.gemm(64, 64, 64, 1.0, None, None, 1.0, None, false, "t");
            assert!(c.barrier_try());
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
        let res = virtual_run(&machine, 4, 2, |c, _: &mut ()| {
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
        let res = virtual_run(&machine, 4096, 8, |c, _: &mut ()| {
            assert!(c.barrier_try());
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
                virtual_run(&Machine::linux_myrinet(), 64, 2, |c, _: &mut ()| {
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
