//! The virtual-time backend: `Comm` over `srumma-sim` + `srumma-model`.
//!
//! Whether a run moves real data is decided by the matrices
//! ([`crate::dist::DistMatrix`] real vs virtual backing), not by the
//! backend: timing is charged identically either way, so small
//! real-backed runs *verify numerics* while paper-scale virtual runs
//! *measure the model* — with the same algorithm code.
//!
//! [`sim_run_programs`] steps one [`RankProgram`] per rank against a
//! [`SimComm`] on the calling thread, in the kernel's `(clock, rank)`
//! order. A simulated rank never waits inside a call: the barrier and
//! the receives are split ([`Comm::barrier_try`], [`Comm::recv_try`],
//! [`Comm::sendrecv_try`]) and their results are taken when the host
//! steps the rank again; a send posts its rendezvous and its transfer
//! and returns; [`Comm::now`] is read at the top of a step, where the
//! rank has posted nothing; and a task span takes its ends from posted
//! marks ([`Comm::task_begin`]). There are no blocking forms to call:
//! the trait's only waits are the split calls.

use crate::comm::{count_served, Comm, GetHandle, RankProgram, Step, TaskSpan};
use crate::dist::{DistMatrix, Landing};
use crate::fault::{FaultPlan, FaultPlanError};
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand};
use srumma_model::network::Path;
use srumma_model::{protocol, Machine, Topology, TransferCost};
use srumma_sim::{PolledSim, SimConfig, SimProc, SimResult, TraceEvent, TransferSpec};
use srumma_trace::{Recorder, TraceKind};

/// Options for a simulated run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Machine profile (costs + topology rule).
    pub(crate) machine: Machine,
    /// Number of ranks to launch.
    pub nranks: usize,
    /// Record a trace timeline.
    pub trace: bool,
    /// Injected faults, applied in **virtual time** (see
    /// [`crate::fault`]): a straggler's compute charges and the
    /// two-sided messages it touches scale by its factor, spiked gets
    /// gain modeled latency. [`SimOptions::with_faults`] rejects deaths —
    /// fail-stop is an executor-scheduling event the simulator does not
    /// model.
    pub(crate) fault: FaultPlan,
}

impl SimOptions {
    /// Run `nranks` ranks of `machine`, no tracing.
    pub fn new(machine: Machine, nranks: usize) -> Self {
        SimOptions {
            machine,
            nranks,
            trace: false,
            fault: FaultPlan::healthy(),
        }
    }

    /// Run `nranks` ranks of `machine` with event tracing on.
    pub fn traced(machine: Machine, nranks: usize) -> Self {
        SimOptions {
            trace: true,
            ..Self::new(machine, nranks)
        }
    }

    /// Apply a fault plan (stragglers + get spikes) in virtual time.
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<Self, FaultPlanError> {
        if plan.death.is_some() {
            return Err(FaultPlanError::DeathNeedsExecutor);
        }
        plan.validate(self.nranks)?;
        self.fault = plan;
        Ok(self)
    }

    /// The kernel configuration of this run: the machine's topology,
    /// channels and memory groups, and its [`barrier_latency`].
    fn sim_config(&self) -> SimConfig {
        let topology = self.machine.topology(self.nranks);
        SimConfig {
            topology,
            membw_group_size: self.machine.shm.membw_group_size,
            barrier_latency: barrier_latency(&self.machine, topology),
            nic_channels: self.machine.net.nic_channels,
            mpi_shm_channels: self.machine.net.mpi_shm_channels,
            trace: self.trace,
        }
    }
}

/// Virtual time a barrier takes after its last arrival: a `⌈log₂ P⌉`-deep
/// combining tree of message latencies (shared-memory flag latencies on
/// a one-node machine). Both virtual-time engines charge it.
pub(crate) fn barrier_latency(machine: &Machine, topo: Topology) -> f64 {
    let depth = (topo.nranks().max(2) as f64).log2().ceil();
    depth
        * if topo.nnodes() == 1 {
            machine.shm.latency * 4.0
        } else {
            machine.net.mpi_latency
        }
}

/// Per-rank communicator under the simulator.
pub struct SimComm {
    proc: SimProc,
    machine: Machine,
    /// One-sided operations issued but not yet known complete
    /// (for `fence`).
    outstanding: Vec<srumma_sim::TransferId>,
    /// Comm-level recorder: the fetch/direct/task counters. Transfer,
    /// compute and wait events stay with the kernel, which knows their
    /// exact virtual intervals, and so do the clocks of the task spans'
    /// marks; [`sim_run_programs`] merges both streams.
    recorder: Recorder,
    /// Per-rank gemm packing workspace, reused across every real-backed
    /// `gemm` this rank executes.
    ws: GemmWorkspace,
    /// Injected faults, applied in virtual time.
    fault: FaultPlan,
    /// Gets issued so far (indexes the deterministic spike schedule).
    gets_issued: u64,
    /// A split call (barrier, receive, exchange) posted its operation;
    /// its next call takes the result.
    posted: bool,
    /// Traced task spans, as the marks that stamp their ends, with
    /// their labels: resolved when the run is over.
    spans: Vec<(usize, usize, String)>,
}

/// Stretch every time component of a message cost by `f` (two-sided
/// traffic touching a straggler: both hosts' progress engines are in
/// the critical path, so the whole message slows down).
fn scale_cost(mut cost: TransferCost, f: f64) -> TransferCost {
    if f > 1.0 {
        cost.latency *= f;
        cost.initiator_cpu *= f;
        cost.remote_cpu *= f;
        cost.wire *= f;
        cost.membw *= f;
    }
    cost
}

impl SimComm {
    fn new(proc: SimProc, opts: &SimOptions) -> Self {
        SimComm {
            recorder: Recorder::new(proc.rank(), opts.trace),
            proc,
            machine: opts.machine.clone(),
            outstanding: Vec::new(),
            ws: GemmWorkspace::new(),
            fault: opts.fault.clone(),
            gets_issued: 0,
            posted: false,
            spans: Vec::new(),
        }
    }

    /// Uncontended cost of moving `bytes` between us and cost endpoint
    /// `serve` ([`protocol::onesided`]), counted against the level that
    /// served it.
    fn onesided(&mut self, serve: usize, bytes: u64, put: bool) -> TransferCost {
        let topo = self.proc.topology();
        let me = self.proc.rank();
        let (cost, served) =
            protocol::onesided(&self.machine, &topo, me, serve, bytes as usize, put);
        count_served(&mut self.recorder, served, bytes);
        cost
    }

    /// Fault model for **one-sided** gets/puts: only the initiator-side
    /// work (CPU issue cost, the initiator-driven copy) slows down with
    /// the initiator's own factor. The *target* never appears here — a
    /// straggling host still serves remote gets at full speed, because
    /// the NIC/memory system satisfies them without its CPU (the
    /// paper's asymmetry, and the mechanism behind SRUMMA's graceful
    /// degradation).
    fn fault_onesided(&mut self, mut cost: TransferCost) -> TransferCost {
        let f = self.fault.slow_factor(self.proc.rank());
        if f > 1.0 {
            cost.initiator_cpu *= f;
            cost.membw *= f;
        }
        let spike = self.fault.get_spike(self.proc.rank(), self.gets_issued);
        self.gets_issued += 1;
        if spike > 0.0 {
            cost.latency += spike;
            self.recorder.count_delay();
        }
        cost
    }

    /// Fault factor for **two-sided** traffic with `peer`: MPI progress
    /// is host-driven at both endpoints, so the slower one gates the
    /// message.
    fn fault_msg(&self, peer: usize) -> f64 {
        self.fault.msg_factor(self.proc.rank(), peer)
    }

    /// A straggler's own host copies (eager buffer staging) also slow.
    fn fault_self(&self) -> f64 {
        self.fault.slow_factor(self.proc.rank())
    }

    /// The underlying simulator handle (exposed for harness-level
    /// instrumentation such as custom trace labels).
    pub fn proc(&self) -> &SimProc {
        &self.proc
    }

    fn pair_key(src: usize, dst: usize, tag: u64) -> u64 {
        ((src as u64) << 44) | ((dst as u64) << 24) | (tag & 0xFF_FFFF)
    }

    /// Issue a transfer of `bytes` from `src` to `dst`. The trace label
    /// is built only when the run is traced.
    fn issue(
        &self,
        cost: TransferCost,
        src_rank: usize,
        dst_rank: usize,
        bytes: u64,
        label: impl FnOnce() -> String,
    ) -> srumma_sim::TransferId {
        let label = if self.proc.config().trace {
            label()
        } else {
            String::new()
        };
        self.proc.issue_transfer(TransferSpec {
            cost,
            src_rank,
            dst_rank,
            bytes,
            label,
        })
    }

    /// Charge the network/membw portion of an MPI-style message and
    /// post it, available to `dst` when its transfer completes. The
    /// sender does not wait; a blocking send waits on the returned id.
    fn post_message(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f64],
        bytes: u64,
        cost: TransferCost,
        label: &str,
    ) -> srumma_sim::TransferId {
        let id = self.issue(cost, self.proc.rank(), dst, bytes, || label.to_string());
        let msg = srumma_sim::kernel::Msg {
            avail_at: 0.0,
            payload: data.to_vec(),
            bytes,
        };
        self.proc.post_msg_after(id, dst, tag, msg);
        id
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.proc.rank()
    }

    fn nranks(&self) -> usize {
        self.proc.nranks()
    }

    fn topology(&self) -> Topology {
        self.proc.topology()
    }

    fn prefer_direct_access(&self, owner: usize) -> bool {
        self.same_domain(owner) && self.machine.shm.cacheable_remote
    }

    fn now(&self) -> f64 {
        self.proc.now()
    }

    fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    fn ws_grow_count(&self) -> u64 {
        self.ws.grow_count()
    }

    /// Split: the first call arrives and returns `false`, and the host
    /// steps the rank again once the barrier has released it.
    fn barrier_try(&mut self) -> bool {
        if !self.posted {
            self.proc.barrier_post();
            self.posted = true;
            return false;
        }
        self.posted = !self.proc.barrier_test();
        !self.posted
    }

    /// A mark, which the kernel stamps with this rank's clock when it
    /// applies it.
    fn task_begin(&mut self) -> Option<TaskSpan> {
        let mark = self.recorder.is_enabled().then(|| self.proc.mark());
        mark.map(TaskSpan::Mark)
    }

    fn task_end(&mut self, span: Option<TaskSpan>, label: impl FnOnce() -> String) {
        match span {
            None => {}
            Some(TaskSpan::Mark(begin)) => {
                let end = self.proc.mark();
                self.spans.push((begin, end, label()));
            }
            Some(TaskSpan::At(_)) => unreachable!("a simulated rank's spans start at marks"),
        }
    }

    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let me = self.proc.rank();
        let (rows, cols) = mat.land_block(owner, into);
        self.recorder.count_fetch((rows * cols * 8) as u64);
        // `owner` indexes the data slot; the *cost* endpoint is the rank
        // whose memory serves it (they differ for staged/layered
        // matrices — see `CostMap`).
        // A block in our own memory is normally read through a direct
        // view, but a copy of it still costs a local memcpy.
        let serve = mat.cost_rank(owner);
        let bytes = (rows * cols * 8) as u64;
        let cost = self.onesided(serve, bytes, false);
        let cost = self.fault_onesided(cost);
        let id = self.issue(cost, serve, me, bytes, || {
            if serve == me {
                "local-copy".to_string()
            } else {
                format!("get<-{owner}")
            }
        });
        GetHandle::Sim(id)
    }

    fn wait(&mut self, h: GetHandle) {
        match h {
            GetHandle::Ready => {}
            GetHandle::Sim(id) => self.proc.wait_transfer(id),
            GetHandle::Virt(_) => unreachable!("sim backend issues no virtual-clock transfers"),
        }
    }

    fn fence(&mut self) {
        for id in self.outstanding.drain(..) {
            self.proc.wait_transfer(id);
        }
    }

    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        let me = self.proc.rank();
        mat.copy_block_from(owner, data);
        let bytes = mat.block_bytes(owner);
        let serve = mat.cost_rank(owner);
        let cost = self.onesided(serve, bytes, true);
        let id = self.issue(cost, me, serve, bytes, || format!("put->{owner}"));
        self.outstanding.push(id);
        GetHandle::Sim(id)
    }

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        let me = self.proc.rank();
        mat.acc_block_from(owner, scale, data);
        let bytes = mat.block_bytes(owner);
        let (rows, cols) = mat.block_dims(owner);
        // The elementwise add runs on the target host (an ARMCI/LAPI
        // accumulate handler): model it as remote CPU time at one add
        // per element, stolen from the owner's processor.
        let add_time = (rows * cols) as f64 / self.machine.cpu.peak_flops;
        let serve = mat.cost_rank(owner);
        let mut cost = self.onesided(serve, bytes, true);
        if serve == me {
            // Local accumulate: our own CPU does the adds.
            self.proc.advance(add_time);
        } else {
            cost.remote_cpu += add_time;
        }
        let id = self.issue(cost, me, serve, bytes, || format!("acc->{owner}"));
        self.proc.wait_transfer(id);
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
        label: &str,
    ) {
        debug_assert!(beta == 0.0 || beta == 1.0, "Comm::gemm takes beta 0 or 1");
        let base = self.machine.cpu.gemm_time(m, n, k);
        let factor = if direct {
            self.machine.shm.direct_access_eff.max(1e-3)
        } else {
            1.0
        };
        // A straggler's compute stretches by its slowdown factor.
        self.proc
            .charge_compute(base / factor * self.fault_self(), label);
        if let (Some(a), Some(b), Some(c)) = (a, b, c) {
            dgemm_operands(alpha, a, b, beta, c, &mut self.ws);
        }
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64) {
        let me = self.proc.rank();
        assert_ne!(me, dst, "send to self");
        let mach = self.machine.clone();
        let same = self.same_domain(dst);
        if same {
            // Intra-domain MPI: staged through the library's shared
            // progress channel (Path::ShmChannel). Large messages pay
            // the rendezvous handshake here too — intra-node MPI was
            // no less synchronous in 2004.
            let cost = scale_cost(
                protocol::mpi_send_recv(&mach, bytes as usize, true),
                self.fault_msg(dst),
            );
            if self.rendezvous(bytes) {
                self.proc.pair(Self::pair_key(me, dst, tag));
                let id = self.post_message(dst, tag, data, bytes, cost, "mpi-shm-rndv");
                self.proc.wait_transfer(id);
            } else {
                self.post_message(dst, tag, data, bytes, cost, "mpi-shm");
            }
        } else if !self.rendezvous(bytes) {
            let cost = self.eager_net_cost(dst, bytes);
            self.post_message(dst, tag, data, bytes, cost, "mpi-eager");
        } else {
            // Rendezvous: handshake with the receiver, then a transfer
            // the host must keep driving (poor overlap — Figure 7).
            self.proc.pair(Self::pair_key(me, dst, tag));
            let cost = scale_cost(
                TransferCost {
                    latency: 3.0 * mach.net.mpi_latency,
                    initiator_cpu: 0.0,
                    remote_cpu: 0.0,
                    wire: bytes as f64 / mach.net.mpi_bandwidth,
                    membw: 0.0,
                    path: Path::Network,
                    async_fraction: mach.net.rndv_progress_fraction,
                },
                self.fault_msg(dst),
            );
            let id = self.post_message(dst, tag, data, bytes, cost, "mpi-rndv");
            // Blocking rendezvous send completes at delivery.
            self.proc.wait_transfer(id);
        }
    }

    /// Split: the first call posts the receive (after the rendezvous
    /// handshake a large message needs) and returns `false`; the host
    /// steps the rank again once the kernel has applied it, and the
    /// second call lands the payload.
    fn recv_try(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) -> bool {
        let copy_out = !self.same_domain(src) && !self.rendezvous(bytes);
        self.split_recv(src, tag, buf, bytes, copy_out, |comm| {
            // A large message's rendezvous handshake (intra- and
            // inter-domain alike).
            if comm.rendezvous(bytes) {
                let me = comm.proc.rank();
                comm.proc.pair(Self::pair_key(src, me, tag));
            }
        })
    }

    /// Split like [`Comm::recv_try`]: the first call posts the outgoing
    /// message and the receive.
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
        let copy_out = !self.same_domain(src);
        self.split_recv(src, tag, recv_buf, recv_bytes, copy_out, |comm| {
            comm.exchange_send(dst, tag, send_data, send_bytes);
        })
    }
}

impl SimComm {
    /// Whether a message of `bytes` takes the rendezvous protocol.
    fn rendezvous(&self, bytes: u64) -> bool {
        bytes as usize > self.machine.net.eager_threshold
    }

    /// A split receive from `src`: the first call runs `post` — what
    /// goes before the receive — posts the receive and returns `false`;
    /// the next lands the message in `buf`, charging the receiver-side
    /// copy of `bytes` out of the system buffer when `copy_out` (the
    /// eager network path; the shm-channel rate covers both copies).
    fn split_recv(
        &mut self,
        src: usize,
        tag: u64,
        buf: &mut Vec<f64>,
        bytes: u64,
        copy_out: bool,
        post: impl FnOnce(&mut Self),
    ) -> bool {
        assert_ne!(self.proc.rank(), src, "recv from self");
        self.posted = !self.posted;
        if self.posted {
            post(self);
            self.proc.recv_post(src, tag);
            return false;
        }
        let msg = self.proc.recv_take();
        buf.clear();
        buf.extend_from_slice(&msg.payload);
        if copy_out {
            let rate = self.machine.net.host_copy_bandwidth;
            self.proc.advance(bytes as f64 / rate * self.fault_self());
        }
        true
    }

    /// The send half of a buffered exchange (MPI_Sendrecv semantics):
    /// posted without a rendezvous handshake, so a ring of exchanges
    /// cannot deadlock.
    fn exchange_send(&mut self, dst: usize, tag: u64, send_data: &[f64], send_bytes: u64) {
        let me = self.proc.rank();
        assert_ne!(me, dst);
        let mach = self.machine.clone();
        if self.same_domain(dst) {
            // Buffered exchange: full shm-channel cost, no handshake.
            let cost = scale_cost(
                protocol::mpi_send_recv(&mach, send_bytes as usize, true),
                self.fault_msg(dst),
            );
            self.post_message(dst, tag, send_data, send_bytes, cost, "xchg-shm");
        } else {
            let cost = self.eager_net_cost(dst, send_bytes);
            self.post_message(dst, tag, send_data, send_bytes, cost, "xchg-net");
        }
    }

    /// An eager message to another node: the sender copies it into a
    /// system buffer (charged here) and the NIC drains it.
    fn eager_net_cost(&mut self, dst: usize, bytes: u64) -> TransferCost {
        let net = &self.machine.net;
        let (copy, latency, wire) = (
            bytes as f64 / net.host_copy_bandwidth,
            net.mpi_latency,
            bytes as f64 / net.mpi_bandwidth,
        );
        self.proc.advance(copy * self.fault_self());
        let cost = TransferCost {
            latency,
            initiator_cpu: 0.0,
            remote_cpu: 0.0,
            wire,
            membw: 0.0,
            path: Path::Network,
            async_fraction: 0.9,
        };
        scale_cost(cost, self.fault_msg(dst))
    }
}

/// Run one [`RankProgram`] per rank, `program(rank)`, against a
/// [`SimComm`] — all on the calling thread: the kernel applies posted
/// operations in `(clock, rank)` order and the host steps the rank that
/// order waits on.
///
/// # Panics
/// With a program's own panic payload; on deadlock, naming the blocked
/// ranks — a program that returns [`Step::Park`] without a failed split
/// call is one nothing wakes; and when a program reads `now` after
/// posting.
pub fn sim_run_programs<P, F>(opts: &SimOptions, program: F) -> SimResult<P::Out>
where
    P: RankProgram,
    F: FnMut(usize) -> P,
{
    host(opts, program, |program, comm| program.step(comm))
}

/// [`sim_run_programs`] for a program written against the [`SimComm`]
/// itself — a probe that charges model time directly
/// ([`SimComm::proc`]): `step(comm, i)` is step `i` of `comm`'s rank.
pub fn sim_run_steps<T, F>(opts: &SimOptions, mut step: F) -> SimResult<T>
where
    F: FnMut(&mut SimComm, usize) -> Step<T>,
{
    host(
        opts,
        |_| 0,
        |i, comm| {
            *i += 1;
            step(comm, *i - 1)
        },
    )
}

/// The polled host: rank `r`'s program is the state `init(r)`, which
/// `step` advances by one step.
fn host<S, T>(
    opts: &SimOptions,
    mut init: impl FnMut(usize) -> S,
    mut step: impl FnMut(&mut S, &mut SimComm) -> Step<T>,
) -> SimResult<T> {
    let sim = PolledSim::new(opts.sim_config());
    let mut ranks: Vec<Option<(SimComm, S)>> = (0..sim.nranks())
        .map(|rank| Some((SimComm::new(sim.proc(rank), opts), init(rank))))
        .collect();
    let mut outputs: Vec<Option<(T, SimComm)>> = ranks.iter().map(|_| None).collect();
    while let Some(rank) = sim.next_rank() {
        let (comm, state) = ranks[rank]
            .as_mut()
            .expect("a finished rank is not stepped");
        match step(state, comm) {
            Step::Done(out) => {
                let (comm, _) = ranks[rank].take().expect("the rank just stepped");
                outputs[rank] = Some((out, comm));
                sim.finish(rank);
            }
            Step::Yield => {}
            Step::Park if comm.posted => {}
            Step::Park => sim.park(rank),
        }
    }
    // Every mark is applied now: the task spans can be stamped. The
    // comm-level streams (task spans, counters) join the kernel's
    // result: one unified trace and one `RunStats`.
    let done = outputs.into_iter().map(|o| o.expect("every rank finished"));
    let (outputs, comms): (Vec<T>, Vec<SimComm>) = done.unzip();
    let mut res = sim.into_result(outputs);
    for (rank, mut comm) in comms.into_iter().enumerate() {
        let (events, counters) = comm.recorder.take();
        res.trace.extend(events);
        res.trace
            .extend(comm.spans.drain(..).map(|(begin, end, label)| TraceEvent {
                rank,
                t0: comm.proc.mark_time(begin),
                t1: comm.proc.mark_time(end),
                kind: TraceKind::Task,
                label,
                bytes: 0,
            }));
        res.stats.ranks[rank].absorb_counters(&counters);
    }
    res.trace
        .sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.rank.cmp(&b.rank)));
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_dense::Op;
    use srumma_model::ProcGrid;

    fn linux16() -> SimOptions {
        SimOptions::new(Machine::linux_myrinet(), 16)
    }

    /// Every rank runs `body` as a program of one step, then finishes.
    fn one_step<T>(opts: &SimOptions, body: impl Fn(&mut SimComm) -> T) -> SimResult<T> {
        sim_run_steps(opts, |c, _| Step::Done(body(c)))
    }

    #[test]
    fn get_moves_real_data_between_ranks() {
        let grid = ProcGrid::new(4, 4);
        let mat = DistMatrix::create(grid, 32, 32);
        let global = srumma_dense::Matrix::random(32, 32, 5);
        mat.scatter(&global);
        let res = one_step(&linux16(), |c| {
            // Every rank fetches rank 0's block and returns a checksum.
            let mut buf = Vec::new();
            c.get(&mat, 0, &mut buf);
            buf.iter().sum::<f64>()
        });
        let b0 = mat.read_block(0);
        let v = b0.mat().unwrap();
        let expect: f64 = (0..v.rows()).flat_map(|i| v.row(i)).sum();
        for v in &res.outputs {
            assert!((v - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn intra_node_get_is_much_cheaper_than_remote() {
        // Linux cluster: 2 ranks/node. Rank 1 is on rank 0's node;
        // rank 2 is not.
        let grid = ProcGrid::new(4, 4);
        let mat = DistMatrix::create_virtual(grid, 2048, 2048);
        let res = one_step(&linux16(), |c| {
            if c.rank() == 1 || c.rank() == 2 {
                c.get(&mat, 0, &mut Vec::new());
            }
        });
        let shm_time = res.stats.final_times[1];
        let net_time = res.stats.final_times[2];
        assert!(
            net_time > 3.0 * shm_time,
            "shm {shm_time} vs net {net_time}"
        );
        assert!(res.stats.ranks[1].bytes_shm > 0);
        assert!(res.stats.ranks[2].bytes_network > 0);
    }

    #[test]
    fn gemm_charges_model_time_and_computes() {
        let res = one_step(&SimOptions::new(Machine::sgi_altix(), 2), |c| {
            let a = srumma_dense::Matrix::random(32, 16, 1);
            let b = srumma_dense::Matrix::random(16, 8, 2);
            let mut cm = srumma_dense::Matrix::zeros(32, 8);
            let (a, b) = (
                Operand::Plain(a.as_ref(), Op::N),
                Operand::Plain(b.as_ref(), Op::N),
            );
            let (a, b, cv) = (Some(a), Some(b), Some(cm.as_mut()));
            c.gemm(32, 8, 16, 1.0, a, b, 1.0, cv, false, "t");
            cm.as_slice().iter().sum::<f64>()
        });
        let expect_t = Machine::sgi_altix().cpu.gemm_time(32, 8, 16);
        for (t, sum) in res.stats.final_times.iter().zip(&res.outputs) {
            assert!((t - expect_t).abs() < 1e-15);
            assert!(sum.abs() > 0.0);
        }
    }

    #[test]
    fn direct_access_gemm_is_slower_on_x1_faster_than_copy_on_altix() {
        // The kernel-rate direction of Figure 5: charge factor reflects
        // cacheability of remote shared memory. Each step reads the
        // clock the last one left at its top.
        for (machine, expect_slow) in [(Machine::cray_x1(), true), (Machine::sgi_altix(), false)] {
            let mut direct = [0.0; 2];
            let res = sim_run_steps(&SimOptions::new(machine, 2), |c, i| match i {
                0 => {
                    c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, true, "d");
                    Step::Yield
                }
                1 => {
                    direct[c.rank()] = c.now();
                    c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, false, "c");
                    Step::Yield
                }
                _ => Step::Done((direct[c.rank()], c.now() - direct[c.rank()])),
            });
            let (direct, copied) = res.outputs[0];
            if expect_slow {
                assert!(direct > 3.0 * copied, "X1 direct {direct} vs {copied}");
            } else {
                assert!(direct < 1.2 * copied, "Altix direct {direct} vs {copied}");
            }
        }
    }

    /// Rank `to` receives `bytes` from rank `from` (`sum` of its payload),
    /// parking until it is in; rank `from` runs `send` first; the rest
    /// have nothing to do.
    fn send_recv(
        opts: &SimOptions,
        (from, to, bytes): (usize, usize, u64),
        send: impl Fn(&mut SimComm),
        recv_first: impl Fn(&mut SimComm),
    ) -> SimResult<f64> {
        sim_run_steps(opts, |c, i| {
            let mut buf = Vec::new();
            if c.rank() == from {
                send(c);
            } else if c.rank() == to {
                if i == 0 {
                    recv_first(c);
                }
                if !c.recv_try(from, 1, &mut buf, bytes) {
                    return Step::Park;
                }
            }
            Step::Done(buf.iter().sum())
        })
    }

    #[test]
    fn send_recv_roundtrip_real_payload() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let res = send_recv(
            &linux16(),
            (0, 15, 800),
            |c| c.send(15, 1, &data, 800),
            |_| {},
        );
        assert_eq!(res.outputs[15], 4950.0);
    }

    #[test]
    fn rendezvous_send_blocks_until_receiver_arrives() {
        let big = 1u64 << 20; // above eager threshold
        let res = send_recv(
            &linux16(),
            (0, 2, big),
            |c| c.send(2, 1, &[], big),
            |c| c.proc().charge_compute(5.0, "late receiver"),
        );
        // The sender had to wait ~5 s for the receiver's handshake.
        let sender = res.stats.final_times[0];
        assert!(sender > 4.9, "sender blocked {sender}");
    }

    #[test]
    fn eager_send_does_not_block_on_receiver() {
        let small = 1024u64;
        let res = send_recv(
            &linux16(),
            (0, 2, small),
            |c| c.send(2, 1, &[], small),
            |c| c.proc().charge_compute(5.0, "late receiver"),
        );
        let sender = res.stats.final_times[0];
        assert!(sender < 1e-3, "eager sender stalled {sender}");
    }

    #[test]
    fn sendrecv_ring_shift_does_not_deadlock() {
        let big = 1u64 << 20;
        let res = sim_run_steps(&linux16(), |c, _| {
            let n = c.nranks();
            let right = (c.rank() + 1) % n;
            let left = (c.rank() + n - 1) % n;
            let data = vec![c.rank() as f64];
            let mut buf = Vec::new();
            match c.sendrecv_try(right, 7, &data, big, left, &mut buf, big) {
                true => Step::Done(buf[0]),
                false => Step::Park,
            }
        });
        for (r, v) in res.outputs.iter().enumerate() {
            let n = res.outputs.len();
            assert_eq!(*v, ((r + n - 1) % n) as f64);
        }
    }

    #[test]
    fn straggler_slows_own_compute_but_still_serves_gets_at_full_speed() {
        // The fault model's load-bearing asymmetry: a 4× straggler's
        // *own* gemm charge stretches 4×, but a healthy peer fetching
        // the straggler's block over the one-sided path pays exactly
        // the healthy price (the NIC serves it, not the slow host).
        let run = |opts: &SimOptions| {
            let grid = ProcGrid::new(4, 4);
            let mat = DistMatrix::create_virtual(grid, 2048, 2048);
            one_step(opts, |c| {
                if c.rank() == 0 {
                    c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, false, "g");
                } else if c.rank() == 2 {
                    // Rank 2 is on another node: remote RMA get from 0.
                    c.get(&mat, 0, &mut Vec::new());
                }
            })
            .stats
            .final_times
        };
        let healthy = run(&linux16());
        let faulty = run(&linux16()
            .with_faults(crate::fault::FaultPlan::single_straggler(16, 0, 4.0))
            .unwrap());
        let (hc, hg) = (healthy[0], healthy[2]);
        let (fc, fg) = (faulty[0], faulty[2]);
        assert!(
            (fc / hc - 4.0).abs() < 1e-9,
            "straggler compute {fc} should be 4x healthy {hc}"
        );
        assert!(
            (fg - hg).abs() < 1e-12,
            "get served by the straggler cost {fg}, healthy {hg} — one-sided \
             service must not slow down"
        );
    }

    #[test]
    fn spiked_gets_add_latency_deterministically() {
        let grid = ProcGrid::new(4, 4);
        let mat = DistMatrix::create_virtual(grid, 2048, 2048);
        let run = |plan: FaultPlan| {
            let opts = linux16().with_faults(plan).unwrap();
            one_step(&opts, |c| {
                for owner in 0..c.nranks() {
                    c.get(&mat, owner, &mut Vec::new());
                }
            })
            .stats
            .final_times
        };
        let plan = FaultPlan::random_stragglers(7, 16).with_get_spikes(0.5, 0.25);
        let a = run(plan.clone());
        let b = run(plan);
        let healthy = run(FaultPlan::healthy());
        assert_eq!(a, b, "same plan must reproduce identical virtual times");
        assert!(
            a.iter().sum::<f64>() > healthy.iter().sum::<f64>() + 0.2,
            "spikes should visibly lengthen get time"
        );
    }

    #[test]
    fn a_death_plan_is_rejected_not_simulated() {
        let plan = FaultPlan::healthy().with_death(3, 1);
        assert_eq!(
            linux16().with_faults(plan).err(),
            Some(FaultPlanError::DeathNeedsExecutor)
        );
    }

    /// What a [`Faulty`] program's culprit rank does wrong.
    #[derive(Clone, Copy)]
    enum Misstep {
        ParkOnNothing,
        Panic,
        Now,
    }

    /// A test program: twice a gemm charge and a get, then a split
    /// barrier; then done — except on rank `culprit`, which makes its
    /// `misstep` first.
    struct Faulty {
        misstep: Misstep,
        culprit: usize,
        passed: usize,
        /// Arrived at the barrier: a step resumes at its test.
        waiting: bool,
    }

    impl RankProgram for Faulty {
        type Out = usize;

        fn step<C: Comm>(&mut self, comm: &mut C) -> Step<usize> {
            let me = comm.rank();
            if !self.waiting {
                let m = 64 * (me + 1);
                comm.gemm(m, 64, 64, 1.0, None, None, 1.0, None, false, "w");
                let mat = DistMatrix::create_virtual(ProcGrid::new(4, 4), 512, 512);
                let h = comm.nbget(&mat, (me + 5) % 16, Landing::Rows(&mut Vec::new()));
                comm.wait(h);
                if me == self.culprit {
                    match self.misstep {
                        Misstep::ParkOnNothing => return Step::Park,
                        Misstep::Panic => std::panic::panic_any(me),
                        Misstep::Now => drop(comm.now()),
                    }
                }
                self.waiting = true;
            }
            if !comm.barrier_try() {
                return Step::Park;
            }
            self.waiting = false;
            self.passed += 1;
            match self.passed {
                2 => Step::Done(me),
                _ => Step::Yield,
            }
        }
    }

    /// The panic payload of the 16-rank run of [`Faulty`] programs.
    fn payload(misstep: Misstep) -> Box<dyn std::any::Any + Send> {
        let program = move |_| Faulty {
            misstep,
            culprit: 1,
            passed: 0,
            waiting: false,
        };
        let run = || drop(sim_run_programs(&linux16(), program));
        std::panic::catch_unwind(run).expect_err("the host should have panicked")
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_program_parked_on_nothing_is_a_deadlock_naming_it() {
        let msg = message(&*payload(Misstep::ParkOnNothing));
        assert!(msg.contains("simulation deadlock"), "{msg}");
        assert!(msg.contains("rank 1 blocked on nothing"), "{msg}");
        assert!(msg.contains("rank 0 blocked on the barrier"), "{msg}");
    }

    #[test]
    fn a_panicking_program_re_raises_its_own_payload() {
        assert_eq!(
            payload(Misstep::Panic).downcast_ref::<usize>(),
            Some(&1),
            "the program's payload"
        );
    }

    #[test]
    fn a_blocking_call_on_a_polled_rank_panics_naming_it() {
        let msg = message(&*payload(Misstep::Now));
        assert!(
            msg.contains("rank 1: ") && msg.contains("reads `now` only at the top of a step"),
            "{msg}"
        );
    }

    #[test]
    fn barrier_latency_scales_with_ranks() {
        let fence = |nranks| {
            let opts = SimOptions::new(Machine::linux_myrinet(), nranks);
            sim_run_steps(&opts, |c, _| match c.barrier_try() {
                true => Step::Done(()),
                false => Step::Park,
            })
            .makespan()
        };
        assert!(fence(64) > fence(4));
    }
}
