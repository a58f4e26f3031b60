//! Seeded fault injection: stragglers, get-latency spikes, rank death.
//!
//! The paper's headline claim is qualitative resilience — SRUMMA's
//! one-sided gets keep overlapping when a processor falls behind, where
//! SUMMA's collectives serialize on the slowest participant. This
//! module makes that claim testable by describing *hostile conditions*
//! as data: a [`FaultPlan`] is a small, seeded, serializable-in-spirit
//! description of which ranks are slow, which gets hiccup, and which
//! rank dies at which task index. The plan itself carries no clocks and
//! no randomness state — every query ([`FaultPlan::get_spike`]) is a
//! pure function of `(seed, rank, sequence index)`, so the same plan
//! produces the same fault schedule on every backend and every rerun.
//!
//! Two application styles share the one plan:
//!
//! * the **simulator** reads the plan natively and applies it in
//!   virtual time (`SimOptions::with_faults`): a straggler's compute
//!   charges and its two-sided message costs scale by its factor, get
//!   spikes add to the modeled transfer latency, and the whole run
//!   stays bit-for-bit deterministic;
//! * the **wall-clock backends** (threads, executor) wrap their
//!   communicator in a [`ChaosComm`] decorator, which injects real
//!   sleeps after compute and on spiked gets. Wall-clock timing is
//!   never deterministic, but the *fault schedule* (who is slow, which
//!   get spikes, who dies when) still is — which is what the chaos
//!   property suite relies on for reproduction.
//!
//! The asymmetry between one-sided and two-sided traffic is the heart
//! of the model (§13 of DESIGN.md): a straggling host still *serves*
//! one-sided gets at full speed, because ARMCI gets are satisfied by
//! the NIC/memory system without the remote CPU in the loop — but a
//! two-sided message cannot complete until both hosts' MPI progress
//! engines run, so messages touching a straggler scale by its factor.

use crate::comm::{Comm, GetHandle};
use crate::dist::{DistMatrix, Landing};
use srumma_dense::{MatMut, MatRef, Operand, PackedPanel, Rng};
use srumma_model::Topology;
use srumma_trace::Recorder;
use std::time::{Duration, Instant};

/// Fail-stop death of one rank: after it has executed `after_tasks` of
/// its own SRUMMA tasks, it stops mid-run and its remaining work must
/// be re-executed by survivors (executor backend only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDeath {
    /// The rank that dies.
    pub rank: usize,
    /// How many of its own tasks it completes before dying. A value at
    /// or beyond the rank's task count means it never actually dies.
    pub after_tasks: usize,
}

/// A seeded, deterministic description of injected faults.
///
/// Construct with [`FaultPlan::healthy`], [`FaultPlan::single_straggler`]
/// or [`FaultPlan::random_stragglers`], then refine with the builder
/// methods. Cloning is cheap (one `Vec<f64>` of rank factors).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed driving the per-get spike schedule (and recorded so a
    /// failing test can print one number that reproduces everything).
    pub seed: u64,
    /// Per-rank slowdown factors (≥ 1.0); empty means all-healthy.
    slow: Vec<f64>,
    /// Probability that any given get issued by a rank is spiked.
    spike_prob: f64,
    /// Extra latency per spiked get (virtual seconds under simulation,
    /// real sleep seconds under [`ChaosComm`]).
    spike_seconds: f64,
    /// At most one fail-stop death (executor backend only).
    pub death: Option<RankDeath>,
}

/// Why a [`FaultPlan`] cannot be applied to a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The straggler table was sized for `plan` ranks, the run has `run`.
    RankCount { plan: usize, run: usize },
    /// `rank`'s slowdown factor is below 1.0 (or NaN).
    SlowFactor { rank: usize },
    /// The scripted death needs a rank the run has, and a survivor to
    /// re-execute its tasks: `rank < nranks` and `nranks >= 2`.
    DeadRank { rank: usize, nranks: usize },
    /// Fail-stop death is a scheduling event: only the work-stealing
    /// executor can hand a dead rank's machine to a survivor.
    DeathNeedsExecutor,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// No faults at all.
    pub fn healthy() -> Self {
        FaultPlan {
            seed: 0,
            slow: Vec::new(),
            spike_prob: 0.0,
            spike_seconds: 0.0,
            death: None,
        }
    }

    /// Exactly one straggler: `rank` runs `factor`× slower.
    pub fn single_straggler(nranks: usize, rank: usize, factor: f64) -> Self {
        assert!(rank < nranks, "straggler rank {rank} out of {nranks}");
        assert!(factor >= 1.0, "slowdown factor must be >= 1.0");
        let mut slow = vec![1.0; nranks];
        slow[rank] = factor;
        FaultPlan {
            seed: 0,
            slow,
            spike_prob: 0.0,
            spike_seconds: 0.0,
            death: None,
        }
    }

    /// A seeded random plan (stragglers only — no deaths, no spikes):
    /// each rank independently straggles with probability ~30%, with a
    /// factor in `[1.25, 3.0)`. Add spikes or a death with the builder
    /// methods.
    pub fn random_stragglers(seed: u64, nranks: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0xFA17_F1A9);
        let slow = (0..nranks)
            .map(|_| {
                if rng.chance(0.3) {
                    1.25 + 1.75 * (rng.unit() + 1.0) / 2.0
                } else {
                    1.0
                }
            })
            .collect();
        FaultPlan {
            seed,
            slow,
            spike_prob: 0.0,
            spike_seconds: 0.0,
            death: None,
        }
    }

    /// Spike each issued get with probability `prob`, adding `seconds`
    /// of latency. Which gets are spiked is a pure function of
    /// `(seed, rank, get index)` — deterministic across backends.
    pub fn with_get_spikes(mut self, prob: f64, seconds: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        assert!(seconds >= 0.0);
        self.spike_prob = prob;
        self.spike_seconds = seconds;
        self
    }

    /// Kill `rank` after it has run `after_tasks` of its own tasks
    /// (executor backend only — elsewhere the plan is rejected with
    /// [`FaultPlanError::DeathNeedsExecutor`]).
    pub fn with_death(mut self, rank: usize, after_tasks: usize) -> Self {
        self.death = Some(RankDeath { rank, after_tasks });
        self
    }

    /// Check the plan against a run's rank count.
    pub fn validate(&self, nranks: usize) -> Result<(), FaultPlanError> {
        if !self.slow.is_empty() && self.slow.len() != nranks {
            return Err(FaultPlanError::RankCount {
                plan: self.slow.len(),
                run: nranks,
            });
        }
        if let Some(rank) = self.slow.iter().position(|&f| f.is_nan() || f < 1.0) {
            return Err(FaultPlanError::SlowFactor { rank });
        }
        match self.death {
            Some(d) if d.rank >= nranks || nranks < 2 => Err(FaultPlanError::DeadRank {
                rank: d.rank,
                nranks,
            }),
            _ => Ok(()),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_healthy(&self) -> bool {
        self.slow.iter().all(|&f| f == 1.0) && self.spike_prob == 0.0 && self.death.is_none()
    }

    /// `rank`'s slowdown factor (1.0 = healthy).
    pub fn slow_factor(&self, rank: usize) -> f64 {
        self.slow.get(rank).copied().unwrap_or(1.0)
    }

    /// The factor applied to a **two-sided** message between `a` and
    /// `b`: MPI progress is host-driven at both endpoints, so the
    /// slower of the two gates the message.
    pub fn msg_factor(&self, a: usize, b: usize) -> f64 {
        self.slow_factor(a).max(self.slow_factor(b))
    }

    /// Extra latency (seconds) for the `seq`-th get issued by `rank`;
    /// 0.0 when unspiked. Pure and deterministic: hash of
    /// `(seed, rank, seq)`.
    pub fn get_spike(&self, rank: usize, seq: u64) -> f64 {
        if self.spike_prob <= 0.0 || self.spike_seconds <= 0.0 {
            return 0.0;
        }
        let key = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((rank as u64) << 32 | 0xC4A0)
            .wrapping_add(seq);
        if Rng::new(key).chance(self.spike_prob) {
            self.spike_seconds
        } else {
            0.0
        }
    }
}

/// Forwarding impl so a decorator (or any generic driver) can wrap a
/// borrowed communicator: `ChaosComm::new(&mut comm, plan)`.
impl<C: Comm + ?Sized> Comm for &mut C {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn nranks(&self) -> usize {
        (**self).nranks()
    }
    fn topology(&self) -> Topology {
        (**self).topology()
    }
    fn same_domain(&self, other: usize) -> bool {
        (**self).same_domain(other)
    }
    fn prefer_direct_access(&self, owner: usize) -> bool {
        (**self).prefer_direct_access(owner)
    }
    fn now(&self) -> f64 {
        (**self).now()
    }
    fn recorder(&mut self) -> &mut Recorder {
        (**self).recorder()
    }
    fn barrier(&mut self) {
        (**self).barrier()
    }
    fn fence_arrive(&mut self) -> u64 {
        (**self).fence_arrive()
    }
    fn fence_try(&mut self, fence: u64) -> bool {
        (**self).fence_try(fence)
    }
    fn barrier_try(&mut self) -> bool {
        (**self).barrier_try()
    }
    fn ws_grow_count(&self) -> u64 {
        (**self).ws_grow_count()
    }
    fn lease_buf(&mut self, panel: &mut PackedPanel) {
        (**self).lease_buf(panel)
    }
    fn return_buf(&mut self, panel: &mut PackedPanel) {
        (**self).return_buf(panel)
    }
    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        (**self).nbget(mat, owner, into)
    }
    fn wait(&mut self, h: GetHandle) {
        (**self).wait(h)
    }
    fn get(&mut self, mat: &DistMatrix, owner: usize, buf: &mut Vec<f64>) {
        (**self).get(mat, owner, buf)
    }
    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        (**self).nbput(mat, owner, data)
    }
    fn put(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) {
        (**self).put(mat, owner, data)
    }
    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        (**self).acc(mat, owner, scale, data)
    }
    fn fence(&mut self) {
        (**self).fence()
    }
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
        direct: bool,
        label: &str,
    ) {
        (**self).gemm(m, n, k, alpha, a, b, beta, c, direct, label)
    }
    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64) {
        (**self).send(dst, tag, data, bytes)
    }
    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) {
        (**self).recv(src, tag, buf, bytes)
    }
    #[allow(clippy::too_many_arguments)]
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
        (**self).sendrecv(dst, tag, send_data, send_bytes, src, recv_buf, recv_bytes)
    }
}

/// Don't let one injected delay wedge a test run: a single sleep is
/// capped here regardless of how large the measured compute was.
const MAX_INJECTED_SLEEP: f64 = 0.05;

/// Fault-injecting decorator for **wall-clock** backends: wraps any
/// [`Comm`] (by value or `&mut`) and applies a [`FaultPlan`] with real
/// sleeps — compute on a straggler is stretched to `factor ×` its
/// measured duration, and spiked gets sleep their extra latency at
/// issue. Rank death is *not* handled here (it is a scheduling event,
/// owned by the chaos rank task in `srumma-core`), and the simulator
/// applies plans natively in virtual time instead of through this
/// decorator.
pub struct ChaosComm<C: Comm> {
    inner: C,
    plan: FaultPlan,
    gets_issued: u64,
}

impl<C: Comm> ChaosComm<C> {
    /// Wrap `inner`, applying `plan` for `inner.rank()`.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        ChaosComm {
            inner,
            plan,
            gets_issued: 0,
        }
    }

    /// The wrapped communicator (for backend-specific calls like
    /// `ExecComm::fence_arrive_for`).
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn sleep(seconds: f64) {
        std::thread::sleep(Duration::from_secs_f64(seconds.min(MAX_INJECTED_SLEEP)));
    }
}

impl<C: Comm> Comm for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn topology(&self) -> Topology {
        self.inner.topology()
    }
    fn same_domain(&self, other: usize) -> bool {
        self.inner.same_domain(other)
    }
    fn prefer_direct_access(&self, owner: usize) -> bool {
        self.inner.prefer_direct_access(owner)
    }
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn recorder(&mut self) -> &mut Recorder {
        self.inner.recorder()
    }
    fn ws_grow_count(&self) -> u64 {
        self.inner.ws_grow_count()
    }
    fn lease_buf(&mut self, panel: &mut PackedPanel) {
        self.inner.lease_buf(panel)
    }
    fn return_buf(&mut self, panel: &mut PackedPanel) {
        self.inner.return_buf(panel)
    }
    fn barrier(&mut self) {
        self.inner.barrier()
    }
    fn fence_arrive(&mut self) -> u64 {
        self.inner.fence_arrive()
    }
    fn fence_try(&mut self, fence: u64) -> bool {
        self.inner.fence_try(fence)
    }
    fn barrier_try(&mut self) -> bool {
        self.inner.barrier_try()
    }

    fn nbget(&mut self, mat: &DistMatrix, owner: usize, into: Landing<'_>) -> GetHandle {
        let seq = self.gets_issued;
        self.gets_issued += 1;
        let h = self.inner.nbget(mat, owner, into);
        let spike = self.plan.get_spike(self.inner.rank(), seq);
        if spike > 0.0 {
            self.inner.recorder().count_delay();
            Self::sleep(spike);
        }
        h
    }
    fn wait(&mut self, h: GetHandle) {
        self.inner.wait(h)
    }
    fn nbput(&mut self, mat: &DistMatrix, owner: usize, data: &[f64]) -> GetHandle {
        self.inner.nbput(mat, owner, data)
    }
    fn acc(&mut self, mat: &DistMatrix, owner: usize, scale: f64, data: Option<MatRef<'_>>) {
        self.inner.acc(mat, owner, scale, data)
    }
    fn fence(&mut self) {
        self.inner.fence()
    }

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
        direct: bool,
        label: &str,
    ) {
        let f = self.plan.slow_factor(self.inner.rank());
        if f <= 1.0 {
            return self
                .inner
                .gemm(m, n, k, alpha, a, b, beta, c, direct, label);
        }
        let t0 = Instant::now();
        self.inner
            .gemm(m, n, k, alpha, a, b, beta, c, direct, label);
        let stretch = t0.elapsed().as_secs_f64() * (f - 1.0);
        self.inner.recorder().count_delay();
        Self::sleep(stretch);
    }

    fn send(&mut self, dst: usize, tag: u64, data: &[f64], bytes: u64) {
        self.inner.send(dst, tag, data, bytes)
    }
    fn recv(&mut self, src: usize, tag: u64, buf: &mut Vec<f64>, bytes: u64) {
        self.inner.recv(src, tag, buf, bytes)
    }
    #[allow(clippy::too_many_arguments)]
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
        self.inner
            .sendrecv(dst, tag, send_data, send_bytes, src, recv_buf, recv_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_schedule_is_pure_and_seed_dependent() {
        let p = FaultPlan::random_stragglers(42, 8).with_get_spikes(0.5, 1e-3);
        let a: Vec<f64> = (0..64).map(|s| p.get_spike(3, s)).collect();
        let b: Vec<f64> = (0..64).map(|s| p.get_spike(3, s)).collect();
        assert_eq!(a, b, "same (seed, rank, seq) must spike identically");
        assert!(
            a.iter().any(|&s| s > 0.0) && a.contains(&0.0),
            "a 50% spike rate over 64 gets should mix hits and misses"
        );
        let q = FaultPlan::random_stragglers(43, 8).with_get_spikes(0.5, 1e-3);
        let c: Vec<f64> = (0..64).map(|s| q.get_spike(3, s)).collect();
        assert_ne!(a, c, "different seeds should produce different schedules");
    }

    #[test]
    fn straggler_factors_respect_bounds() {
        for seed in 0..32 {
            let p = FaultPlan::random_stragglers(seed, 16);
            assert_eq!(p.validate(16), Ok(()));
            for r in 0..16 {
                let f = p.slow_factor(r);
                assert!((1.0..=3.0).contains(&f), "factor {f} out of bounds");
            }
        }
        let p = FaultPlan::single_straggler(8, 5, 2.0);
        assert_eq!(p.slow_factor(5), 2.0);
        assert_eq!(p.slow_factor(0), 1.0);
        assert_eq!(p.msg_factor(0, 5), 2.0, "either endpoint gates a message");
        assert_eq!(p.msg_factor(1, 2), 1.0);
    }

    #[test]
    fn healthy_plan_injects_nothing() {
        let p = FaultPlan::healthy();
        assert!(p.is_healthy());
        assert_eq!(p.validate(1024), Ok(()));
        assert_eq!(p.slow_factor(7), 1.0);
        assert_eq!(p.get_spike(7, 0), 0.0);
    }

    #[test]
    fn validate_names_what_is_wrong_with_a_plan() {
        let sized = FaultPlan::single_straggler(4, 1, 2.0);
        assert_eq!(
            sized.validate(6),
            Err(FaultPlanError::RankCount { plan: 4, run: 6 })
        );
        let mut shrunk = sized.clone();
        shrunk.slow[2] = 0.5;
        assert_eq!(
            shrunk.validate(4),
            Err(FaultPlanError::SlowFactor { rank: 2 })
        );
        assert_eq!(
            FaultPlan::healthy().with_death(4, 0).validate(4),
            Err(FaultPlanError::DeadRank { rank: 4, nranks: 4 })
        );
        assert_eq!(
            FaultPlan::healthy().with_death(0, 0).validate(1),
            Err(FaultPlanError::DeadRank { rank: 0, nranks: 1 })
        );
    }
}
