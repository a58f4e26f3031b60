//! The virtual-time backend: `Comm` over `srumma-sim` + `srumma-model`.
//!
//! Whether a run moves real data is decided by the matrices
//! ([`crate::dist::DistMatrix`] real vs virtual backing), not by the
//! backend: timing is charged identically either way, so small
//! real-backed runs *verify numerics* while paper-scale virtual runs
//! *measure the model* — with the same algorithm code.

use crate::comm::{Comm, GetHandle};
use crate::dist::{DistMatrix, Landing};
use crate::fault::{FaultPlan, FaultPlanError};
use srumma_dense::{dgemm_operands, GemmWorkspace, MatMut, MatRef, Operand};
use srumma_model::network::Path;
use srumma_model::{protocol, Machine, Topology, TransferCost};
use srumma_sim::{run_sim, SimConfig, SimProc, SimResult, TransferSpec};
use srumma_trace::Recorder;

/// Options for a simulated run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Machine profile (costs + topology rule).
    pub machine: Machine,
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
    pub fault: FaultPlan,
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
            machine,
            nranks,
            trace: true,
            fault: FaultPlan::healthy(),
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
}

/// Per-rank communicator under the simulator.
pub struct SimComm {
    proc: SimProc,
    machine: Machine,
    /// One-sided operations issued but not yet known complete
    /// (for `fence`).
    outstanding: Vec<srumma_sim::TransferId>,
    /// Comm-level recorder: algorithm task spans (virtual-time) and the
    /// fetch/direct/task counters. Fine-grained transfer/compute/wait
    /// events stay with the kernel, which knows their exact virtual
    /// intervals; [`sim_run`] merges both streams.
    recorder: Recorder,
    /// Per-rank gemm packing workspace, reused across every real-backed
    /// `gemm` this rank executes.
    ws: GemmWorkspace,
    /// Injected faults, applied in virtual time.
    fault: FaultPlan,
    /// Gets issued so far (indexes the deterministic spike schedule).
    gets_issued: u64,
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
    fn membw_group(&self, rank: usize) -> usize {
        rank / self.machine.shm.membw_group_size.max(1)
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

    /// The machine profile this run models.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn pair_key(src: usize, dst: usize, tag: u64) -> u64 {
        ((src as u64) << 44) | ((dst as u64) << 24) | (tag & 0xFF_FFFF)
    }

    /// Charge the network/membw portion of an MPI-style message and
    /// post it; returns nothing (fire-and-forget for the sender).
    fn post_message(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f64],
        bytes: u64,
        cost: TransferCost,
        label: &str,
    ) {
        let me = self.proc.rank();
        let id = self.proc.issue_transfer(TransferSpec {
            cost,
            src_rank: me,
            dst_rank: dst,
            bytes,
            label: label.to_string(),
        });
        let avail_at = self.proc.transfer_done_at(id);
        self.proc.post_msg(
            dst,
            tag,
            srumma_sim::kernel::Msg {
                avail_at,
                payload: data.to_vec(),
                bytes,
            },
        );
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

    fn barrier(&mut self) {
        self.proc.barrier();
    }

    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let me = self.proc.rank();
        let (rows, cols) = mat.land_block(owner, into);
        self.recorder.count_fetch((rows * cols * 8) as u64);
        // `owner` indexes the data slot; the *cost* endpoint is the rank
        // whose memory serves it (they differ for staged/layered
        // matrices — see `CostMap`).
        let serve = mat.cost_rank(owner);
        if serve == me {
            // Served from our own memory: the algorithm normally uses a
            // direct view, but a copy still costs a local memcpy.
            let bytes = (rows * cols * 8) as u64;
            let cost = protocol::shm_copy(&self.machine, bytes as usize, false);
            let cost = self.fault_onesided(cost);
            let id = self.proc.issue_transfer(TransferSpec {
                cost,
                src_rank: me,
                dst_rank: me,
                bytes,
                label: "local-copy".to_string(),
            });
            return GetHandle::Sim(id);
        }
        let bytes = (rows * cols * 8) as u64;
        let topo = self.proc.topology();
        let cost = if topo.same_domain(me, serve) {
            self.recorder.count_intragroup(bytes);
            let cross = self.membw_group(me) != self.membw_group(serve);
            protocol::shm_copy(&self.machine, bytes as usize, cross)
        } else {
            self.recorder.count_internode(bytes);
            protocol::rma_get(&self.machine, bytes as usize)
        };
        let cost = self.fault_onesided(cost);
        let id = self.proc.issue_transfer(TransferSpec {
            cost,
            src_rank: serve,
            dst_rank: me,
            bytes,
            label: format!("get<-{owner}"),
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
        let topo = self.proc.topology();
        let serve = mat.cost_rank(owner);
        let cost = if serve == me || topo.same_domain(me, serve) {
            if serve != me {
                self.recorder.count_intragroup(bytes);
            }
            let cross = serve != me && self.membw_group(me) != self.membw_group(serve);
            protocol::shm_copy(&self.machine, bytes as usize, cross)
        } else {
            self.recorder.count_internode(bytes);
            protocol::rma_put(&self.machine, bytes as usize)
        };
        let id = self.proc.issue_transfer(TransferSpec {
            cost,
            src_rank: me,
            dst_rank: serve,
            bytes,
            label: format!("put->{owner}"),
        });
        self.outstanding.push(id);
        GetHandle::Sim(id)
    }

    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        let me = self.proc.rank();
        mat.acc_block_from(owner, scale, data);
        let bytes = mat.block_bytes(owner);
        let topo = self.proc.topology();
        let (rows, cols) = mat.block_dims(owner);
        // The elementwise add runs on the target host (an ARMCI/LAPI
        // accumulate handler): model it as remote CPU time at one add
        // per element, stolen from the owner's processor.
        let add_time = (rows * cols) as f64 / self.machine.cpu.peak_flops;
        let serve = mat.cost_rank(owner);
        let mut cost = if serve == me || topo.same_domain(me, serve) {
            if serve != me {
                self.recorder.count_intragroup(bytes);
            }
            let cross = serve != me && self.membw_group(me) != self.membw_group(serve);
            protocol::shm_copy(&self.machine, bytes as usize, cross)
        } else {
            self.recorder.count_internode(bytes);
            protocol::rma_put(&self.machine, bytes as usize)
        };
        if serve == me {
            // Local accumulate: our own CPU does the adds.
            self.proc.advance(add_time);
        } else {
            cost.remote_cpu += add_time;
        }
        let id = self.proc.issue_transfer(TransferSpec {
            cost,
            src_rank: me,
            dst_rank: serve,
            bytes,
            label: format!("acc->{owner}"),
        });
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
            if bytes as usize > mach.net.eager_threshold {
                self.proc.pair_sync(Self::pair_key(me, dst, tag));
                let id = self.proc.issue_transfer(TransferSpec {
                    cost,
                    src_rank: me,
                    dst_rank: dst,
                    bytes,
                    label: "mpi-shm-rndv".to_string(),
                });
                let avail_at = self.proc.transfer_done_at(id);
                self.proc.post_msg(
                    dst,
                    tag,
                    srumma_sim::kernel::Msg {
                        avail_at,
                        payload: data.to_vec(),
                        bytes,
                    },
                );
                self.proc.wait_transfer(id);
            } else {
                self.post_message(dst, tag, data, bytes, cost, "mpi-shm");
            }
        } else if bytes as usize <= mach.net.eager_threshold {
            // Eager: copy into a system buffer, NIC drains it.
            self.proc
                .advance(bytes as f64 / mach.net.host_copy_bandwidth * self.fault_self());
            let cost = scale_cost(
                TransferCost {
                    latency: mach.net.mpi_latency,
                    initiator_cpu: 0.0,
                    remote_cpu: 0.0,
                    wire: bytes as f64 / mach.net.mpi_bandwidth,
                    membw: 0.0,
                    path: Path::Network,
                    async_fraction: 0.9,
                },
                self.fault_msg(dst),
            );
            self.post_message(dst, tag, data, bytes, cost, "mpi-eager");
        } else {
            // Rendezvous: handshake with the receiver, then a transfer
            // the host must keep driving (poor overlap — Figure 7).
            self.proc.pair_sync(Self::pair_key(me, dst, tag));
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
            let id = self.proc.issue_transfer(TransferSpec {
                cost,
                src_rank: me,
                dst_rank: dst,
                bytes,
                label: "mpi-rndv".to_string(),
            });
            let avail_at = self.proc.transfer_done_at(id);
            self.proc.post_msg(
                dst,
                tag,
                srumma_sim::kernel::Msg {
                    avail_at,
                    payload: data.to_vec(),
                    bytes,
                },
            );
            // Blocking rendezvous send completes at delivery.
            self.proc.wait_transfer(id);
        }
    }

    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) {
        let me = self.proc.rank();
        assert_ne!(me, src, "recv from self");
        let mach = self.machine.clone();
        let same = self.same_domain(src);
        if bytes as usize > mach.net.eager_threshold {
            // Rendezvous handshake (intra- and inter-domain alike).
            self.proc.pair_sync(Self::pair_key(src, me, tag));
        }
        let msg = self.proc.recv_msg(src, tag);
        buf.clear();
        buf.extend_from_slice(&msg.payload);
        // Receiver-side copy out of the system buffer (eager network
        // path only; the shm-channel rate already covers both copies).
        if !same && bytes as usize <= mach.net.eager_threshold {
            self.proc
                .advance(bytes as f64 / mach.net.host_copy_bandwidth * self.fault_self());
        }
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
        // Deadlock-free buffered exchange (MPI_Sendrecv semantics):
        // the outgoing message is posted without a rendezvous
        // handshake, then the incoming one is received.
        let me = self.proc.rank();
        assert_ne!(me, dst);
        let mach = self.machine.clone();
        if self.same_domain(dst) {
            // Buffered exchange: full shm-channel cost, no handshake
            // (MPI_Sendrecv must not deadlock on a ring).
            let cost = scale_cost(
                protocol::mpi_send_recv(&mach, send_bytes as usize, true),
                self.fault_msg(dst),
            );
            self.post_message(dst, tag, send_data, send_bytes, cost, "xchg-shm");
        } else {
            self.proc
                .advance(send_bytes as f64 / mach.net.host_copy_bandwidth * self.fault_self());
            let cost = scale_cost(
                TransferCost {
                    latency: mach.net.mpi_latency,
                    initiator_cpu: 0.0,
                    remote_cpu: 0.0,
                    wire: send_bytes as f64 / mach.net.mpi_bandwidth,
                    membw: 0.0,
                    path: Path::Network,
                    async_fraction: 0.9,
                },
                self.fault_msg(dst),
            );
            self.post_message(dst, tag, send_data, send_bytes, cost, "xchg-net");
        }
        let same_src = self.same_domain(src);
        let msg = self.proc.recv_msg(src, tag);
        recv_buf.clear();
        recv_buf.extend_from_slice(&msg.payload);
        if !same_src {
            self.proc
                .advance(recv_bytes as f64 / mach.net.host_copy_bandwidth * self.fault_self());
        }
    }
}

/// Run one simulated parallel program: `body` once per rank against a
/// [`SimComm`]. Barrier latency is modeled as a `⌈log₂ P⌉`-deep
/// message-latency tree.
pub fn sim_run<T, F>(opts: &SimOptions, body: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut SimComm) -> T + Sync,
{
    let topology = opts.machine.topology(opts.nranks);
    let depth = (opts.nranks.max(2) as f64).log2().ceil();
    let barrier_latency = depth
        * if topology.nnodes() == 1 {
            opts.machine.shm.latency * 4.0
        } else {
            opts.machine.net.mpi_latency
        };
    let cfg = SimConfig {
        topology,
        membw_group_size: opts.machine.shm.membw_group_size,
        barrier_latency,
        nic_channels: opts.machine.net.nic_channels,
        mpi_shm_channels: opts.machine.net.mpi_shm_channels,
        trace: opts.trace,
    };
    let machine = &opts.machine;
    let trace = opts.trace;
    let fault = &opts.fault;
    let res = run_sim(cfg, move |proc| {
        let rank = proc.rank();
        let mut comm = SimComm {
            proc: proc.clone(),
            machine: machine.clone(),
            outstanding: Vec::new(),
            recorder: Recorder::new(rank, trace),
            ws: GemmWorkspace::new(),
            fault: fault.clone(),
            gets_issued: 0,
        };
        let out = body(&mut comm);
        let (events, counters) = comm.recorder.take();
        (out, events, counters)
    });

    // Merge the comm-level streams (algorithm task spans, counters)
    // into the kernel's result: one unified trace and one RunStats.
    let SimResult {
        outputs,
        mut stats,
        mut trace,
    } = res;
    let mut plain = Vec::with_capacity(outputs.len());
    for (rank, (out, events, counters)) in outputs.into_iter().enumerate() {
        trace.extend(events);
        if rank < stats.ranks.len() {
            stats.ranks[rank].absorb_counters(&counters);
        }
        plain.push(out);
    }
    trace.sort_by(|a, b| a.t0.total_cmp(&b.t0).then(a.rank.cmp(&b.rank)));
    SimResult {
        outputs: plain,
        stats,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_dense::Op;
    use srumma_model::ProcGrid;

    fn linux16() -> SimOptions {
        SimOptions::new(Machine::linux_myrinet(), 16)
    }

    #[test]
    fn get_moves_real_data_between_ranks() {
        let grid = ProcGrid::new(4, 4);
        let mat = DistMatrix::create(grid, 32, 32);
        let global = srumma_dense::Matrix::random(32, 32, 5);
        mat.scatter(&global);
        let res = sim_run(&linux16(), |c| {
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
        let res = sim_run(&linux16(), |c| {
            if c.rank() == 1 || c.rank() == 2 {
                let t0 = c.now();
                let mut buf = Vec::new();
                c.get(&mat, 0, &mut buf);
                c.now() - t0
            } else {
                0.0
            }
        });
        let shm_time = res.outputs[1];
        let net_time = res.outputs[2];
        assert!(
            net_time > 3.0 * shm_time,
            "shm {shm_time} vs net {net_time}"
        );
        assert!(res.stats.ranks[1].bytes_shm > 0);
        assert!(res.stats.ranks[2].bytes_network > 0);
    }

    #[test]
    fn gemm_charges_model_time_and_computes() {
        let res = sim_run(&SimOptions::new(Machine::sgi_altix(), 2), |c| {
            let a = srumma_dense::Matrix::random(32, 16, 1);
            let b = srumma_dense::Matrix::random(16, 8, 2);
            let mut cm = srumma_dense::Matrix::zeros(32, 8);
            c.gemm(
                32,
                8,
                16,
                1.0,
                Some(Operand::Plain(a.as_ref(), Op::N)),
                Some(Operand::Plain(b.as_ref(), Op::N)),
                1.0,
                Some(cm.as_mut()),
                false,
                "t",
            );
            (c.now(), cm.as_slice().iter().sum::<f64>())
        });
        let expect_t = Machine::sgi_altix().cpu.gemm_time(32, 8, 16);
        for (t, sum) in &res.outputs {
            assert!((t - expect_t).abs() < 1e-15);
            assert!(sum.abs() > 0.0);
        }
    }

    #[test]
    fn direct_access_gemm_is_slower_on_x1_faster_than_copy_on_altix() {
        // The kernel-rate direction of Figure 5: charge factor reflects
        // cacheability of remote shared memory.
        for (machine, expect_slow) in [(Machine::cray_x1(), true), (Machine::sgi_altix(), false)] {
            let res = sim_run(&SimOptions::new(machine, 2), |c| {
                let t0 = c.now();
                c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, true, "d");
                let direct = c.now() - t0;
                let t1 = c.now();
                c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, false, "c");
                (direct, c.now() - t1)
            });
            let (direct, copied) = res.outputs[0];
            if expect_slow {
                assert!(direct > 3.0 * copied, "X1 direct {direct} vs {copied}");
            } else {
                assert!(direct < 1.2 * copied, "Altix direct {direct} vs {copied}");
            }
        }
    }

    #[test]
    fn send_recv_roundtrip_real_payload() {
        let res = sim_run(&linux16(), |c| {
            if c.rank() == 0 {
                let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
                c.send(15, 3, &data, 800);
                0.0
            } else if c.rank() == 15 {
                let mut buf = Vec::new();
                c.recv(0, 3, &mut buf, 800);
                buf.iter().sum()
            } else {
                0.0
            }
        });
        assert_eq!(res.outputs[15], 4950.0);
    }

    #[test]
    fn rendezvous_send_blocks_until_receiver_arrives() {
        let big = 1u64 << 20; // above eager threshold
        let res = sim_run(&linux16(), |c| {
            if c.rank() == 0 {
                let t0 = c.now();
                c.send(2, 1, &[], big);
                c.now() - t0
            } else if c.rank() == 2 {
                c.proc().charge_compute(5.0, "late receiver");
                let mut buf = Vec::new();
                c.recv(0, 1, &mut buf, big);
                0.0
            } else {
                0.0
            }
        });
        // The sender had to wait ~5 s for the receiver's handshake.
        assert!(res.outputs[0] > 4.9, "sender blocked {}", res.outputs[0]);
    }

    #[test]
    fn eager_send_does_not_block_on_receiver() {
        let small = 1024u64;
        let res = sim_run(&linux16(), |c| {
            if c.rank() == 0 {
                let t0 = c.now();
                c.send(2, 1, &[], small);
                c.now() - t0
            } else if c.rank() == 2 {
                c.proc().charge_compute(5.0, "late receiver");
                let mut buf = Vec::new();
                c.recv(0, 1, &mut buf, small);
                0.0
            } else {
                0.0
            }
        });
        assert!(
            res.outputs[0] < 1e-3,
            "eager sender stalled {}",
            res.outputs[0]
        );
    }

    #[test]
    fn sendrecv_ring_shift_does_not_deadlock() {
        let big = 1u64 << 20;
        let res = sim_run(&linux16(), |c| {
            let n = c.nranks();
            let right = (c.rank() + 1) % n;
            let left = (c.rank() + n - 1) % n;
            let data = vec![c.rank() as f64];
            let mut buf = Vec::new();
            c.sendrecv(right, 7, &data, big, left, &mut buf, big);
            buf[0]
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
            sim_run(opts, |c| {
                if c.rank() == 0 {
                    let t0 = c.now();
                    c.gemm(256, 256, 256, 1.0, None, None, 1.0, None, false, "g");
                    c.now() - t0
                } else if c.rank() == 2 {
                    // Rank 2 is on another node: remote RMA get from 0.
                    let t0 = c.now();
                    let mut buf = Vec::new();
                    c.get(&mat, 0, &mut buf);
                    c.now() - t0
                } else {
                    0.0
                }
            })
        };
        let healthy = run(&linux16());
        let faulty = run(&linux16()
            .with_faults(crate::fault::FaultPlan::single_straggler(16, 0, 4.0))
            .unwrap());
        let (hc, hg) = (healthy.outputs[0], healthy.outputs[2]);
        let (fc, fg) = (faulty.outputs[0], faulty.outputs[2]);
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
            sim_run(&linux16().with_faults(plan).unwrap(), |c| {
                let mut t = 0.0;
                for owner in 0..c.nranks() {
                    let t0 = c.now();
                    let mut buf = Vec::new();
                    c.get(&mat, owner, &mut buf);
                    t += c.now() - t0;
                }
                t
            })
        };
        let plan = FaultPlan::random_stragglers(7, 16).with_get_spikes(0.5, 0.25);
        let a = run(plan.clone());
        let b = run(plan);
        let healthy = run(FaultPlan::healthy());
        assert_eq!(
            a.outputs, b.outputs,
            "same plan must reproduce identical virtual times"
        );
        assert!(
            a.outputs.iter().sum::<f64>() > healthy.outputs.iter().sum::<f64>() + 0.2,
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

    #[test]
    fn barrier_latency_scales_with_ranks() {
        let t4 = sim_run(&SimOptions::new(Machine::linux_myrinet(), 4), |c| {
            c.barrier();
            c.now()
        })
        .makespan();
        let t64 = sim_run(&SimOptions::new(Machine::linux_myrinet(), 64), |c| {
            c.barrier();
            c.now()
        })
        .makespan();
        assert!(t64 > t4);
    }
}
