//! The conservative virtual-time kernel.
//!
//! ## Scheduling discipline
//!
//! A rank's timed operations are *posted* to its queue in the kernel,
//! and the kernel applies posted operations one at a time: each time it
//! takes the head operation of the rank with the least `(virtual clock,
//! rank id)` among ranks that are neither blocked nor done — the top of
//! a binary heap of rank turns, each re-keyed when its rank's clock
//! moves, stale turns skipped — and it stops when that rank has nothing
//! posted: its next operation is not yet known. Operations therefore
//! take effect in strict global order of `(clock, id)`, whoever posted
//! them when: when an operation at virtual time `t` acquires a FIFO
//! resource, every acquisition that should precede it already has.
//!
//! One host thread steps resumable rank programs
//! ([`crate::runner::PolledSim`]). A post only queues; the host runs the
//! apply loop between steps, and it returns the rank the order waits on,
//! which the host steps next — so at most one step's operations per rank
//! are ever queued. A rank never blocks. Nothing it posts returns a value
//! the kernel has yet to compute: a transfer's id is its issue count, a
//! mark's its index. What it must read comes back at the top of its next
//! step, when its queue is empty: its clock ([`SimProc::now`](crate::SimProc::now), which
//! asserts that), a barrier release ([`SimProc::barrier_post`](crate::SimProc::barrier_post), then
//! [`SimProc::barrier_test`](crate::SimProc::barrier_test)), a message ([`SimProc::recv_post`](crate::SimProc::recv_post), then
//! [`SimProc::recv_take`](crate::SimProc::recv_take)), and, once the run is over, the clocks its
//! marks were stamped with.
//!
//! A pleasant consequence: a transfer's **completion time is fully
//! determined at issue** (resources are FIFO, acquisition order is the
//! virtual-time order). `wait` operations on transfers are plain clock
//! advances; the only operations that genuinely block a rank are the
//! *matching* ones — message receive, rendezvous pairing, barriers —
//! which are resolved by another rank's later operation.
//!
//! ## Approximation note
//!
//! Remote-CPU theft (non-zero-copy RMA) lands *between* the victim's
//! compute operations rather than preempting one mid-flight: the theft
//! pushes the victim's `cpu_free_at`, delaying its next `advance`. For
//! the block-sized compute grains of matrix multiplication this is a
//! faithful granularity.

use crate::resource::{acquire_joint, Resource};
use srumma_model::network::Path;
use srumma_model::{Topology, TransferCost};
use srumma_trace::{RankStats, RunStats, TraceEvent, TraceKind};
use std::cell::{RefCell, RefMut};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Identifier of an issued transfer: the issuing rank's count of
/// transfers before it. Meaningful only to the rank that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferId(pub(crate) usize);

/// Description of one data movement handed to [`SimProc::issue_transfer`](crate::SimProc::issue_transfer).
///
/// The *initiator* is the calling rank and may be either endpoint: for a
/// get it is `dst_rank` (data flows toward the caller), for a put/send it
/// is `src_rank`. Remote-CPU theft (`cost.remote_cpu`) always lands on
/// the non-initiating endpoint.
#[derive(Clone, Debug)]
pub struct TransferSpec {
    /// Cost decomposition from the protocol model.
    pub cost: TransferCost,
    /// Rank whose memory the data moves from.
    pub src_rank: usize,
    /// Rank whose memory the data moves to.
    pub dst_rank: usize,
    /// Payload size in bytes (for statistics).
    pub bytes: u64,
    /// Trace label (ignored unless tracing is enabled; leave it empty
    /// then, so a posted transfer holds no string).
    pub label: String,
}

/// Kernel construction parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Rank→node placement (shared-memory domains).
    pub topology: Topology,
    /// Ranks per memory-bandwidth group (usually the physical brick/node
    /// width, which may be smaller than the shared-memory domain on
    /// machine-wide-domain systems like the Altix).
    pub membw_group_size: usize,
    /// Extra virtual time consumed by a barrier after the last arrival.
    pub barrier_latency: f64,
    /// Independent NIC planes per node (aggregate node throughput =
    /// planes x per-stream rate).
    pub nic_channels: usize,
    /// Parallel MPI progress channels per shared-memory domain.
    pub mpi_shm_channels: usize,
    /// Record a [`TraceEvent`] timeline.
    pub trace: bool,
}

impl SimConfig {
    /// A reasonable default for tests: given topology, brick = node,
    /// cheap barriers, no tracing.
    pub fn new(topology: Topology) -> Self {
        SimConfig {
            topology,
            membw_group_size: topology.ranks_per_node(),
            barrier_latency: 1e-6,
            nic_channels: 1,
            mpi_shm_channels: 1,
            trace: false,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// Its program runs or its posted operations wait for their turn.
    Active,
    /// Waiting for a matching operation (recv / pair / barrier).
    Blocked(BlockReason),
    /// Rank program finished.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockReason {
    Recv,
    Pair,
    Barrier,
    /// A program parked without posting what it waits for: nothing
    /// the kernel applies can wake it.
    Nothing,
}

/// A timed operation a rank has posted and the kernel has not applied.
pub(crate) enum Op {
    Advance {
        dt: f64,
        compute: bool,
        /// Built only when the run is traced.
        label: Option<String>,
    },
    Issue(TransferSpec),
    Wait(TransferId),
    /// The message is available when transfer `after` completes
    /// (`msg.avail_at` is set when the post is applied).
    Post {
        dst: usize,
        tag: u64,
        msg: Msg,
        after: TransferId,
    },
    Recv {
        src: usize,
        tag: u64,
    },
    Pair(u64),
    Barrier,
    /// Stamp the rank's clock into its marks (zero cost).
    Mark,
    /// A program parked on nothing the kernel knows of.
    Park,
    Finish,
}

/// What a split operation leaves for the rank's next step.
pub(crate) enum Reply {
    Unit,
    Msg(Msg),
}

pub(crate) struct RankState {
    pub(crate) clock: f64,
    /// The rank's CPU is unavailable before this time (own work and
    /// remote-theft both push it).
    cpu_free_at: f64,
    pub(crate) status: Status,
    stats: RankStats,
    /// Posted operations not yet applied, in program order.
    pub(crate) queue: VecDeque<Op>,
    /// Completion time of each applied transfer, by [`TransferId`].
    done_at: Vec<f64>,
    /// Transfers posted so far: the next [`TransferId`].
    pub(crate) issued: usize,
    /// The clock at each applied [`Op::Mark`], in program order.
    pub(crate) marks: Vec<f64>,
    /// Marks posted so far: the index of the next.
    pub(crate) marked: usize,
    /// The result of the split operation the rank waits in.
    pub(crate) reply: Option<Reply>,
    /// Bumped each time the rank takes a new [`Turn`]: an older turn of
    /// the rank is stale.
    epoch: u64,
}

/// A rank's place in the kernel's `(clock, rank)` order. The heap is a
/// max-heap, so the least `(clock, rank)` compares greatest; the epoch
/// only tells a live turn from a stale one.
#[derive(Clone, Copy)]
struct Turn {
    clock: f64,
    rank: usize,
    epoch: u64,
}

impl Ord for Turn {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .clock
            .total_cmp(&self.clock)
            .then(other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for Turn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Turn {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Turn {}

/// A message in a mailbox.
pub struct Msg {
    /// Virtual time at which the payload is available at the receiver.
    pub avail_at: f64,
    /// Optional real payload (empty in modeled-compute runs).
    pub payload: Vec<f64>,
    /// Size in bytes (for statistics).
    pub bytes: u64,
}

type MsgKey = (usize, usize, u64); // (src, dst, tag)

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    max_clock: f64,
    waiting: Vec<usize>,
}

pub(crate) struct KState {
    pub(crate) ranks: Vec<RankState>,
    /// One live [`Turn`] per active rank, plus stale ones not yet popped.
    order: BinaryHeap<Turn>,
    nic_in: Vec<Resource>,
    nic_out: Vec<Resource>,
    membw: Vec<Resource>,
    /// One MPI progress channel per shared-memory domain.
    shm_chan: Vec<Resource>,
    mailbox: HashMap<MsgKey, VecDeque<Msg>>,
    recv_waiting: HashMap<MsgKey, usize>,
    pair_gate: HashMap<u64, (usize, f64)>,
    barrier: BarrierState,
    trace: Vec<TraceEvent>,
}

impl KState {
    /// Give `rank` a fresh turn at its current clock; any older one goes
    /// stale.
    fn requeue(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        r.epoch += 1;
        self.order.push(Turn {
            clock: r.clock,
            rank,
            epoch: r.epoch,
        });
    }

    /// The active rank with the least `(clock, rank)`, popping the stale
    /// turns above it.
    fn least_active(&mut self) -> Option<usize> {
        while let Some(t) = self.order.peek() {
            let r = &self.ranks[t.rank];
            if r.status == Status::Active && r.epoch == t.epoch {
                return Some(t.rank);
            }
            self.order.pop();
        }
        None
    }
}

/// The simulation kernel. One per run, owned by the host thread; ranks
/// hold an `Rc<Kernel>` through their [`crate::proc::SimProc`] handles.
pub(crate) struct Kernel {
    cfg: SimConfig,
    state: RefCell<KState>,
}

impl Kernel {
    /// Build a kernel for `cfg.topology.nranks()` ranks, all at time 0.
    pub(crate) fn new(cfg: SimConfig) -> Self {
        let n = cfg.topology.nranks();
        let nodes = cfg.topology.nnodes();
        let groups = n.div_ceil(cfg.membw_group_size.max(1));
        let ranks = (0..n)
            .map(|_| RankState {
                clock: 0.0,
                cpu_free_at: 0.0,
                status: Status::Active,
                stats: RankStats::default(),
                queue: VecDeque::new(),
                done_at: Vec::new(),
                issued: 0,
                marks: Vec::new(),
                marked: 0,
                reply: None,
                epoch: 0,
            })
            .collect();
        let order = (0..n)
            .map(|rank| Turn {
                clock: 0.0,
                rank,
                epoch: 0,
            })
            .collect();
        Kernel {
            state: RefCell::new(KState {
                ranks,
                order,
                nic_in: vec![Resource::new(); nodes * cfg.nic_channels.max(1)],
                nic_out: vec![Resource::new(); nodes * cfg.nic_channels.max(1)],
                membw: vec![Resource::new(); groups],
                shm_chan: vec![Resource::new(); nodes * cfg.mpi_shm_channels.max(1)],
                mailbox: HashMap::new(),
                recv_waiting: HashMap::new(),
                pair_gate: HashMap::new(),
                barrier: BarrierState::default(),
                trace: Vec::new(),
            }),
            cfg,
        }
    }

    pub(crate) fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub(crate) fn lock(&self) -> RefMut<'_, KState> {
        self.state.borrow_mut()
    }

    pub fn nranks(&self) -> usize {
        self.cfg.topology.nranks()
    }

    fn membw_group(&self, rank: usize) -> usize {
        srumma_model::membw_group(rank, self.cfg.membw_group_size)
    }

    // ----- scheduling core ---------------------------------------------

    /// Append `op` to `rank`'s queue; the host applies it between
    /// steps. Returns with the state still borrowed.
    pub(crate) fn post(&self, rank: usize, op: Op) -> RefMut<'_, KState> {
        let mut st = self.lock();
        st.ranks[rank].queue.push_back(op);
        st
    }

    /// Apply posted operations in `(clock, id)` order until the least
    /// active rank has nothing posted, and return that rank (`None`:
    /// every rank is done). Panics on deadlock (nothing active, not
    /// everything done).
    fn pump(&self, st: &mut KState) -> Option<usize> {
        loop {
            let Some(rank) = st.least_active() else {
                if st.ranks.iter().all(|r| r.status == Status::Done) {
                    return None; // run complete
                }
                self.deadlock(st);
            };
            let Some(op) = st.ranks[rank].queue.pop_front() else {
                return Some(rank); // its next operation is not posted yet
            };
            self.apply(st, rank, op);
            if st.ranks[rank].status == Status::Active {
                st.requeue(rank);
            }
        }
    }

    fn deadlock(&self, st: &mut KState) -> ! {
        let blocked: Vec<String> = st
            .ranks
            .iter()
            .enumerate()
            .filter_map(|(i, r)| match r.status {
                Status::Blocked(why) => {
                    let why = match why {
                        BlockReason::Recv => "a receive",
                        BlockReason::Pair => "a rendezvous",
                        BlockReason::Barrier => "the barrier",
                        BlockReason::Nothing => "nothing: its program parked outside a barrier",
                    };
                    Some(format!("rank {i} blocked on {why} at t={}", r.clock))
                }
                _ => None,
            })
            .collect();
        panic!(
            "simulation deadlock: no runnable rank and no pending wakeups\n{}",
            blocked.join("\n")
        );
    }

    fn apply(&self, st: &mut KState, rank: usize, op: Op) {
        match op {
            Op::Advance { dt, compute, label } => self.apply_advance(st, rank, dt, compute, label),
            Op::Issue(spec) => self.apply_issue(st, rank, spec),
            Op::Wait(id) => self.apply_wait(st, rank, id),
            Op::Post {
                dst,
                tag,
                mut msg,
                after,
            } => {
                msg.avail_at = st.ranks[rank].done_at[after.0];
                self.apply_post(st, rank, dst, tag, msg);
            }
            Op::Recv { src, tag } => self.apply_recv(st, rank, src, tag),
            Op::Pair(key) => self.apply_pair(st, rank, key),
            Op::Barrier => self.apply_barrier(st, rank),
            Op::Mark => {
                let r = &mut st.ranks[rank];
                r.marks.push(r.clock);
            }
            Op::Park => st.ranks[rank].status = Status::Blocked(BlockReason::Nothing),
            Op::Finish => st.ranks[rank].status = Status::Done,
        }
    }

    /// Apply what the order allows and return the rank it waits on — the
    /// one to step next — or `None` once every rank is done. Panics on
    /// deadlock, naming the blocked ranks.
    pub(crate) fn next_rank(&self) -> Option<usize> {
        let mut st = self.lock();
        self.pump(&mut st)
    }

    // ----- applying operations -------------------------------------------

    fn apply_advance(
        &self,
        st: &mut KState,
        rank: usize,
        dt: f64,
        compute: bool,
        label: Option<String>,
    ) {
        let r = &mut st.ranks[rank];
        // `cpu_free_at` may be ahead of the clock when a remote
        // non-zero-copy operation stole CPU time from this rank (theft
        // is accounted in `stolen_cpu_time` at injection).
        let start = r.clock.max(r.cpu_free_at);
        let end = start + dt;
        r.clock = end;
        r.cpu_free_at = end;
        if compute {
            r.stats.compute_time += dt;
        }
        if let Some(label) = label {
            st.trace.push(TraceEvent {
                rank,
                t0: start,
                t1: end,
                kind: TraceKind::Compute,
                label,
                bytes: 0,
            });
        }
    }

    fn apply_issue(&self, st: &mut KState, rank: usize, spec: TransferSpec) {
        let topo = self.cfg.topology;
        let c = spec.cost;
        let now = st.ranks[rank].clock;
        let ready = now + c.latency;

        // Resource phase.
        let (start, end) = match c.path {
            Path::Network => {
                let nch = self.cfg.nic_channels.max(1);
                let ch = (spec.src_rank + spec.dst_rank) % nch;
                let sn = topo.node_of(spec.src_rank) * nch + ch;
                let dn = topo.node_of(spec.dst_rank) * nch + ch;
                debug_assert_ne!(
                    topo.node_of(spec.src_rank),
                    topo.node_of(spec.dst_rank),
                    "network transfer within one node"
                );
                // Store-and-forward through the NIC buffers (Myrinet
                // SRAM, LAPI DMA buffers): the source's send channel
                // and the destination's receive channel are acquired
                // *in sequence*, not jointly — a transfer whose
                // destination is busy does not block the source
                // channel. (A joint reservation would fragment both
                // schedules and underestimate achievable throughput
                // for permutation traffic like the diagonal shift's.)
                let (_, e1) = st.nic_out[sn].acquire(ready, c.wire);
                let (_, e2) = st.nic_in[dn].acquire(e1 - c.wire, c.wire);
                (e1 - c.wire, e2)
            }
            Path::SharedMemory => {
                let sg = self.membw_group(spec.src_rank);
                let dg = self.membw_group(spec.dst_rank);
                if sg == dg {
                    st.membw[sg].acquire(ready, c.membw)
                } else {
                    let (a, b) = split_one(&mut st.membw, sg, dg);
                    acquire_joint(&mut [a, b], ready, c.membw)
                }
            }
            Path::ShmChannel => {
                // Intra-domain MPI traffic serializes on the domain's
                // progress channel(s).
                let nch = self.cfg.mpi_shm_channels.max(1);
                let sn = topo.node_of(spec.src_rank);
                debug_assert_eq!(
                    sn,
                    topo.node_of(spec.dst_rank),
                    "shm-channel transfer must stay within one domain"
                );
                let ch = (spec.src_rank + spec.dst_rank) % nch;
                st.shm_chan[sn * nch + ch].acquire(ready, c.membw)
            }
        };

        // Remote CPU theft (non-zero-copy protocols) lands on the
        // endpoint that is not issuing the operation.
        if c.remote_cpu > 0.0 {
            let victim_rank = if spec.src_rank == rank {
                spec.dst_rank
            } else {
                spec.src_rank
            };
            if victim_rank != rank {
                let victim = &mut st.ranks[victim_rank];
                victim.cpu_free_at = victim.cpu_free_at.max(start) + c.remote_cpu;
                victim.stats.stolen_cpu_time += c.remote_cpu;
            }
        }

        // Initiator busy portion: fixed issue overhead plus the part of
        // the (contention-stretched) occupancy it must drive itself.
        let driven = (1.0 - c.async_fraction).clamp(0.0, 1.0) * (end - ready).max(0.0);
        let busy = c.initiator_cpu + driven;
        let r = &mut st.ranks[rank];
        let issue_start = r.clock.max(r.cpu_free_at);
        r.clock = issue_start + busy;
        r.cpu_free_at = r.clock;
        r.stats.comm_busy_time += busy;
        r.stats.transfers += 1;
        match c.path {
            Path::Network => r.stats.bytes_network += spec.bytes,
            Path::SharedMemory | Path::ShmChannel => r.stats.bytes_shm += spec.bytes,
        }
        let done_at = end.max(r.clock);
        r.stats.inflight_time += done_at - r.clock;
        r.done_at.push(done_at);

        if self.cfg.trace {
            st.trace.push(TraceEvent {
                rank,
                t0: now,
                t1: done_at,
                kind: TraceKind::Transfer,
                label: spec.label,
                bytes: spec.bytes,
            });
        }
    }

    fn apply_wait(&self, st: &mut KState, rank: usize, id: TransferId) {
        let r = &mut st.ranks[rank];
        let done_at = r.done_at[id.0];
        if done_at > r.clock {
            let wait = done_at - r.clock;
            r.stats.wait_time += wait;
            if self.cfg.trace {
                let t0 = r.clock;
                st.trace.push(TraceEvent {
                    rank,
                    t0,
                    t1: done_at,
                    kind: TraceKind::Wait,
                    label: String::new(),
                    bytes: 0,
                });
            }
            let r = &mut st.ranks[rank];
            r.clock = done_at;
            r.cpu_free_at = r.cpu_free_at.max(done_at);
        }
    }

    fn apply_post(&self, st: &mut KState, rank: usize, dst: usize, tag: u64, msg: Msg) {
        st.ranks[rank].stats.messages += 1;
        let key: MsgKey = (rank, dst, tag);
        st.mailbox.entry(key).or_default().push_back(msg);
        if let Some(waiter) = st.recv_waiting.remove(&key) {
            // The waiter re-runs its receive when its turn comes and
            // picks the message up with correct wait accounting.
            st.ranks[waiter].status = Status::Active;
            st.requeue(waiter);
        }
    }

    fn apply_recv(&self, st: &mut KState, rank: usize, src: usize, tag: u64) {
        let key: MsgKey = (src, rank, tag);
        if let Some(queue) = st.mailbox.get_mut(&key) {
            if let Some(msg) = queue.pop_front() {
                if queue.is_empty() {
                    st.mailbox.remove(&key);
                }
                let r = &mut st.ranks[rank];
                if msg.avail_at > r.clock {
                    r.stats.wait_time += msg.avail_at - r.clock;
                    r.clock = msg.avail_at;
                    r.cpu_free_at = r.cpu_free_at.max(r.clock);
                }
                r.reply = Some(Reply::Msg(msg));
                return;
            }
        }
        let prev = st.recv_waiting.insert(key, rank);
        assert!(
            prev.is_none(),
            "two ranks receiving on the same (src={src}, dst={rank}, tag={tag})"
        );
        let r = &mut st.ranks[rank];
        r.status = Status::Blocked(BlockReason::Recv);
        r.queue.push_front(Op::Recv { src, tag });
    }

    fn apply_pair(&self, st: &mut KState, rank: usize, key: u64) {
        let Some((peer, peer_clock)) = st.pair_gate.remove(&key) else {
            let r = &mut st.ranks[rank];
            let my_clock = r.clock;
            r.status = Status::Blocked(BlockReason::Pair);
            st.pair_gate.insert(key, (rank, my_clock));
            return;
        };
        let t = st.ranks[rank].clock.max(peer_clock);
        for (who, waited) in [(peer, t - peer_clock), (rank, 0.0)] {
            let r = &mut st.ranks[who];
            r.stats.wait_time += waited;
            r.clock = t;
            r.cpu_free_at = r.cpu_free_at.max(t);
            r.status = Status::Active;
            st.requeue(who);
        }
    }

    fn apply_barrier(&self, st: &mut KState, rank: usize) {
        let my_clock = st.ranks[rank].clock;
        st.barrier.arrived += 1;
        st.barrier.max_clock = st.barrier.max_clock.max(my_clock);
        if st.barrier.arrived < st.ranks.len() {
            st.barrier.waiting.push(rank);
            st.ranks[rank].status = Status::Blocked(BlockReason::Barrier);
            return;
        }
        let release = st.barrier.max_clock + self.cfg.barrier_latency;
        let mut waiting = std::mem::take(&mut st.barrier.waiting);
        st.barrier = BarrierState::default();
        waiting.push(rank);
        for w in waiting {
            let r = &mut st.ranks[w];
            r.stats.barrier_time += release - r.clock;
            r.clock = release;
            r.cpu_free_at = r.cpu_free_at.max(release);
            r.status = Status::Active;
            r.reply = Some(Reply::Unit);
            st.requeue(w);
        }
    }

    // ----- results -------------------------------------------------------

    /// The run's statistics and trace; call after all ranks finished.
    pub(crate) fn collect(&self) -> (RunStats, Vec<TraceEvent>) {
        let mut st = self.lock();
        let done = st.ranks.iter().all(|r| r.status == Status::Done);
        assert!(done, "collect() before all ranks finished");
        let final_times: Vec<f64> = st.ranks.iter().map(|r| r.clock).collect();
        let stats = RunStats {
            ranks: st.ranks.iter().map(|r| r.stats).collect(),
            makespan: final_times.iter().copied().fold(0.0, f64::max),
            final_times,
            exec: None,
        };
        (stats, std::mem::take(&mut st.trace))
    }
}

/// Borrow two distinct elements of one vector mutably.
fn split_one(v: &mut [Resource], i: usize, j: usize) -> (&mut Resource, &mut Resource) {
    assert_ne!(i, j);
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_one_returns_distinct() {
        let mut v = vec![Resource::new(); 4];
        v[2].acquire(0.0, 5.0);
        let (a, b) = split_one(&mut v, 2, 0);
        assert_eq!(a.busy_until(), 5.0);
        assert_eq!(b.busy_until(), 0.0);
        let (a, b) = split_one(&mut v, 0, 2);
        assert_eq!(a.busy_until(), 0.0);
        assert_eq!(b.busy_until(), 5.0);
    }

    #[test]
    #[should_panic]
    fn split_one_same_index_panics() {
        let mut v = vec![Resource::new(); 2];
        let _ = split_one(&mut v, 1, 1);
    }
}
