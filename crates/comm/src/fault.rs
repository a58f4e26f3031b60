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
//! The communicator applies the plan, on either clock:
//!
//! * the **simulator** applies it in virtual time
//!   (`SimOptions::with_faults`): a straggler's compute charges and its
//!   two-sided message costs scale by its factor, get spikes add to the
//!   modeled transfer latency, and the whole run stays bit-for-bit
//!   deterministic;
//! * the **host's executor** (`exec_run_tasks`, which takes the plan
//!   beside the topology) applies it with real sleeps:
//!   each `ExecComm` stretches its rank's compute by the rank's factor
//!   once the `Compute` span has closed, and sleeps a spiked get's extra
//!   latency once the block has landed — each delay counted
//!   (`delays_injected`) and capped at 50 ms. Wall-clock timing is
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

use srumma_dense::Rng;

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
    pub(crate) seed: u64,
    /// Per-rank slowdown factors (≥ 1.0); empty means all-healthy.
    slow: Vec<f64>,
    /// Probability that any given get issued by a rank is spiked.
    spike_prob: f64,
    /// Extra latency per spiked get (virtual seconds under simulation,
    /// real sleep seconds on the executor).
    spike_seconds: f64,
    /// At most one fail-stop death (executor backend only).
    pub death: Option<RankDeath>,
}

/// Why a [`FaultPlan`] cannot be applied to a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The straggler table was sized for `plan` ranks, the run has `run`.
    RankCount { plan: usize, run: usize },
    /// `rank`'s slowdown factor is below 1.0, infinite or NaN.
    SlowFactor { rank: usize },
    /// The extra latency of a spiked get is infinite.
    SpikeSeconds,
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
        if let Some(rank) = self
            .slow
            .iter()
            .position(|&f| !(1.0..f64::INFINITY).contains(&f))
        {
            return Err(FaultPlanError::SlowFactor { rank });
        }
        if !self.spike_seconds.is_finite() {
            return Err(FaultPlanError::SpikeSeconds);
        }
        match self.death {
            Some(d) if d.rank >= nranks || nranks < 2 => Err(FaultPlanError::DeadRank {
                rank: d.rank,
                nranks,
            }),
            _ => Ok(()),
        }
    }

    /// `rank`'s slowdown factor (1.0 = healthy).
    pub fn slow_factor(&self, rank: usize) -> f64 {
        self.slow.get(rank).copied().unwrap_or(1.0)
    }

    /// The factor applied to a **two-sided** message between `a` and
    /// `b`: MPI progress is host-driven at both endpoints, so the
    /// slower of the two gates the message.
    pub(crate) fn msg_factor(&self, a: usize, b: usize) -> f64 {
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
            FaultPlan::single_straggler(4, 1, f64::INFINITY).validate(4),
            Err(FaultPlanError::SlowFactor { rank: 1 })
        );
        assert_eq!(
            FaultPlan::healthy()
                .with_get_spikes(0.5, f64::INFINITY)
                .validate(4),
            Err(FaultPlanError::SpikeSeconds)
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
