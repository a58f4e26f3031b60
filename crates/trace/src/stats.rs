//! Per-rank and aggregate execution statistics.
//!
//! The paper reports not just GFLOP/s but *why*: how much communication
//! was overlapped (">90 % on the Linux cluster"), how much moved through
//! shared memory vs the network, and how the two shared-memory flavors
//! trade copies against direct access (Figure 5). These counters let
//! every harness print the same diagnostics from either backend.

use crate::event::{TraceEvent, TraceKind};
use crate::json::JsonObject;
use crate::recorder::Counters;

/// Counters accumulated for one rank during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Seconds spent in modeled/real computation.
    pub compute_time: f64,
    /// Seconds the rank was blocked waiting for transfers, messages, or
    /// pair synchronizations (the pipeline's stall time).
    pub wait_time: f64,
    /// Seconds spent at barriers (arrival → release).
    pub barrier_time: f64,
    /// Seconds charged for issuing/driving communication
    /// (initiator-busy portions).
    pub comm_busy_time: f64,
    /// Bytes fetched through inter-domain RMA.
    pub bytes_network: u64,
    /// Bytes copied within a shared-memory domain.
    pub bytes_shm: u64,
    /// Bytes read in place from cacheable shared memory (no copy at
    /// all — the Altix flavor's direct access).
    pub bytes_direct: u64,
    /// Number of transfers issued.
    pub transfers: u64,
    /// Number of point-to-point messages sent.
    pub messages: u64,
    /// Algorithm-level tasks executed.
    pub tasks: u64,
    /// Tasks pruned by block-sparsity masks (never executed).
    pub tasks_masked: u64,
    /// Flops the pruned tasks would have cost.
    pub(crate) flops_skipped: u64,
    /// Tasks this rank ran on behalf of a dead rank (fault injection's
    /// re-execution protocol).
    pub(crate) tasks_reexecuted: u64,
    /// Injected fault delays observed by this rank.
    pub delays_injected: u64,
    /// Bytes this rank moved across shared-memory domain boundaries
    /// (the hierarchical schedule's headline cost).
    pub bytes_internode: u64,
    /// Bytes this rank moved within its domain but between distinct
    /// ranks (staged-panel reads, intra-node puts).
    pub bytes_intragroup: u64,
    /// Sum over async transfers of their in-flight duration
    /// (issue→completion). Together with `wait_time` this yields the
    /// achieved overlap fraction.
    pub inflight_time: f64,
    /// Seconds of CPU time stolen from this rank by remote,
    /// non-zero-copy RMA operations.
    pub stolen_cpu_time: f64,
}

impl RankStats {
    /// Fraction of communication in-flight time hidden behind local
    /// work: `1 − wait/inflight`, clamped to `[0, 1]`. Returns `None`
    /// if this rank issued no asynchronous communication.
    pub fn overlap_fraction(&self) -> Option<f64> {
        if self.inflight_time <= 0.0 {
            return None;
        }
        Some((1.0 - self.wait_time / self.inflight_time).clamp(0.0, 1.0))
    }

    /// Fold a comm-layer [`Counters`] snapshot into this rank's stats
    /// (direct-access bytes and task counts are only known to the
    /// algorithm layer).
    pub fn absorb_counters(&mut self, ctr: &Counters) {
        self.bytes_direct += ctr.bytes_direct;
        self.tasks += ctr.tasks;
        self.tasks_masked += ctr.tasks_masked;
        self.flops_skipped += ctr.flops_skipped;
        self.tasks_reexecuted += ctr.tasks_reexecuted;
        self.delays_injected += ctr.delays_injected;
        self.bytes_internode += ctr.bytes_internode;
        self.bytes_intragroup += ctr.bytes_intragroup;
    }
}

/// Scheduling counters of an executor run: how N logical ranks shared W
/// polled workers (thread-per-rank is W = N), or an `exec_run`'s permits.
/// `None` on the simulator, where no scheduler sits between ranks and
/// the hardware.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Worker pool size (a closure run's permit count).
    pub workers: usize,
    /// Ranks a worker claimed from its own share of the unstarted ones
    /// plus the resumes of a rank it kept (one that yielded); a closure
    /// run's permits granted.
    pub local_pops: u64,
    /// Unstarted ranks a worker claimed from a sibling's share.
    pub steals: u64,
    /// Tasks a worker took from the global injector (wake-ups after a
    /// park).
    pub injector_pops: u64,
    /// Times a logical rank parked (barrier or message wait) instead of
    /// blocking an OS thread.
    pub parks: u64,
    /// Times a worker went to sleep for lack of runnable tasks.
    pub worker_parks: u64,
    /// Gemm-workspace grows summed over the run. Workspaces belong to
    /// the threads that run ranks, so state-machine ranks grow at most
    /// one per worker however many ranks there are.
    pub ws_grows: u64,
    /// Summed seconds workers spent running rank work (across all
    /// workers); a closure run's permits held.
    pub busy_seconds: f64,
    /// Wall-clock duration of the executor run.
    pub wall_seconds: f64,
}

impl ExecStats {
    /// Total scheduling decisions (every time a worker picked a task).
    pub fn schedules(&self) -> u64 {
        self.local_pops + self.steals + self.injector_pops
    }

    /// Fraction of scheduling decisions that were steals, in `[0, 1]`.
    /// High values mean load was imbalanced across worker shares.
    pub fn steal_rate(&self) -> f64 {
        let total = self.schedules();
        if total == 0 {
            0.0
        } else {
            self.steals as f64 / total as f64
        }
    }

    /// Fraction of the worker pool's capacity that ran rank work:
    /// `busy / (workers × wall)`, clamped to `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.workers as f64 * self.wall_seconds;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).clamp(0.0, 1.0)
        }
    }
}

/// Aggregated result of a whole run, from either backend.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-rank counters.
    pub ranks: Vec<RankStats>,
    /// Final time of each rank (virtual or wall seconds).
    pub final_times: Vec<f64>,
    /// Maximum final time — the run's makespan.
    pub makespan: f64,
    /// Executor scheduling counters (work-stealing backend only).
    pub exec: Option<ExecStats>,
}

impl RunStats {
    /// Total bytes over the network across ranks.
    pub fn total_network_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_network).sum()
    }

    /// Total bytes through shared memory across ranks.
    pub fn total_shm_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_shm).sum()
    }

    /// Total bytes fetched (network + shared-memory copies).
    pub fn total_fetched_bytes(&self) -> u64 {
        self.total_network_bytes() + self.total_shm_bytes()
    }

    /// Total bytes read directly in place (no copy).
    pub fn total_direct_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_direct).sum()
    }

    /// Total bytes moved across shared-memory domain boundaries.
    pub fn total_internode_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_internode).sum()
    }

    /// Total bytes moved within domains between distinct ranks.
    pub fn total_intragroup_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_intragroup).sum()
    }

    /// Mean achieved overlap across ranks that communicated
    /// asynchronously.
    pub fn mean_overlap(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .ranks
            .iter()
            .filter_map(|r| r.overlap_fraction())
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Total pipeline stall time: seconds any rank sat blocked on a
    /// transfer or message instead of computing.
    pub(crate) fn total_stall_time(&self) -> f64 {
        self.ranks.iter().map(|r| r.wait_time).sum()
    }

    /// Per-rank makespan skew: `(max − min final time) / makespan`,
    /// in `[0, 1]`. 0 means perfectly balanced ranks; large values mean
    /// stragglers dominate the run. Returns 0 for empty/zero runs.
    pub fn makespan_skew(&self) -> f64 {
        if self.makespan <= 0.0 || self.final_times.is_empty() {
            return 0.0;
        }
        let min = self
            .final_times
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self.final_times.iter().copied().fold(0.0, f64::max);
        ((max - min) / self.makespan).clamp(0.0, 1.0)
    }

    /// Total tasks executed across ranks.
    pub(crate) fn total_tasks(&self) -> u64 {
        self.ranks.iter().map(|r| r.tasks).sum()
    }

    /// Total tasks pruned by block-sparsity masks across ranks.
    pub(crate) fn total_tasks_masked(&self) -> u64 {
        self.ranks.iter().map(|r| r.tasks_masked).sum()
    }

    /// Total flops skipped thanks to masking, across ranks.
    pub(crate) fn total_flops_skipped(&self) -> u64 {
        self.ranks.iter().map(|r| r.flops_skipped).sum()
    }

    /// Total tasks re-executed on behalf of dead ranks.
    pub fn total_tasks_reexecuted(&self) -> u64 {
        self.ranks.iter().map(|r| r.tasks_reexecuted).sum()
    }

    /// Total injected fault delays observed across ranks.
    pub fn total_delays_injected(&self) -> u64 {
        self.ranks.iter().map(|r| r.delays_injected).sum()
    }

    /// Per-rank surviving-task imbalance: `(max − min) / max` over the
    /// per-rank executed-task counts, in `[0, 1]`. Block sparsity makes
    /// this the load imbalance the work-stealing executor must absorb
    /// (0 = balanced, →1 = a few ranks hold all the surviving work).
    /// Returns 0 for empty runs and runs where **no** rank executed a
    /// task (all-masked) — never NaN.
    pub(crate) fn task_skew(&self) -> f64 {
        let max = self.ranks.iter().map(|r| r.tasks).max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let min = self.ranks.iter().map(|r| r.tasks).min().unwrap_or(0);
        (max - min) as f64 / max as f64
    }

    /// GFLOP/s achieved for a problem of `flops` floating point
    /// operations: `flops / makespan / 1e9`.
    pub fn gflops(&self, flops: f64) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        flops / self.makespan / 1e9
    }

    /// Derive run statistics from a recorded event stream — the path of
    /// the two wall-clock backends, where no simulation kernel accounts
    /// time. `final_times[r]` becomes the latest event end on rank `r`.
    ///
    /// A `Transfer` span there is a synchronous copy on the issuing
    /// rank's own thread (its `nbget` returns `GetHandle::Ready`): the
    /// rank was blocked for the whole of it, so the span counts as
    /// waited as well as in flight, and the overlap such a run reports
    /// is the overlap it achieved — none.
    pub fn from_events(nranks: usize, events: &[TraceEvent]) -> RunStats {
        let mut ranks = vec![RankStats::default(); nranks];
        let mut final_times = vec![0.0f64; nranks];
        for e in events {
            if e.rank >= nranks {
                continue;
            }
            let r = &mut ranks[e.rank];
            let dt = e.duration().max(0.0);
            match e.kind {
                TraceKind::Compute => r.compute_time += dt,
                TraceKind::Wait => r.wait_time += dt,
                TraceKind::Barrier => r.barrier_time += dt,
                TraceKind::Transfer => {
                    r.inflight_time += dt;
                    r.wait_time += dt;
                    r.transfers += 1;
                    r.bytes_shm += e.bytes;
                }
                TraceKind::Task => {}
                // Scheduling markers are instantaneous bookkeeping, not
                // rank time: they must not move final times either.
                TraceKind::Sched => continue,
            }
            final_times[e.rank] = final_times[e.rank].max(e.t1);
        }
        let makespan = final_times.iter().copied().fold(0.0, f64::max);
        RunStats {
            ranks,
            final_times,
            makespan,
            exec: None,
        }
    }

    /// The metrics summary as a JSON object string — what the bench
    /// harnesses write to `results/BENCH_*.json`.
    pub fn summary_json(&self) -> String {
        let mut o = JsonObject::new();
        o.num("makespan_seconds", self.makespan);
        o.int("ranks", self.ranks.len() as u64);
        match self.mean_overlap() {
            Some(v) => o.num("mean_overlap", v),
            None => o.null("mean_overlap"),
        }
        o.int("bytes_network", self.total_network_bytes());
        o.int("bytes_shm", self.total_shm_bytes());
        o.int("bytes_fetched", self.total_fetched_bytes());
        o.int("bytes_direct", self.total_direct_bytes());
        o.int("internode_bytes", self.total_internode_bytes());
        o.int("intragroup_bytes", self.total_intragroup_bytes());
        o.num("stall_time_seconds", self.total_stall_time());
        o.num("makespan_skew", self.makespan_skew());
        o.int("tasks", self.total_tasks());
        o.int("tasks_masked", self.total_tasks_masked());
        o.int("flops_skipped", self.total_flops_skipped());
        o.int("tasks_reexecuted", self.total_tasks_reexecuted());
        o.int("delays_injected", self.total_delays_injected());
        o.num("task_skew", self.task_skew());
        if let Some(e) = &self.exec {
            o.int("exec_workers", e.workers as u64);
            o.num("exec_steal_rate", e.steal_rate());
            o.num("exec_occupancy", e.occupancy());
            o.int("exec_steals", e.steals);
            o.int("exec_parks", e.parks);
            o.int("exec_worker_parks", e.worker_parks);
        }
        o.raw(
            "per_rank_final_times",
            &crate::json::array_f64(&self.final_times),
        );
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_fraction_cases() {
        let mut s = RankStats::default();
        assert_eq!(s.overlap_fraction(), None);
        s.inflight_time = 10.0;
        s.wait_time = 1.0;
        assert!((s.overlap_fraction().unwrap() - 0.9).abs() < 1e-12);
        s.wait_time = 20.0; // waited longer than inflight (barrier mix)
        assert_eq!(s.overlap_fraction().unwrap(), 0.0);
    }

    /// On a wall-clock backend a get is a copy the rank makes itself:
    /// nothing ran beside it, so nothing was overlapped, and the time is
    /// part of the rank's stall.
    #[test]
    fn a_synchronous_transfer_is_waited_for_in_full() {
        let ev = |t0: f64, t1: f64, kind| TraceEvent {
            rank: 0,
            t0,
            t1,
            kind,
            label: String::new(),
            bytes: 8,
        };
        let events = [
            ev(0.0, 0.25, TraceKind::Transfer),
            ev(0.25, 1.25, TraceKind::Compute),
            ev(1.25, 1.5, TraceKind::Transfer),
        ];
        let rs = RunStats::from_events(1, &events);
        assert_eq!(rs.ranks[0].inflight_time, 0.5);
        assert_eq!(rs.ranks[0].wait_time, 0.5);
        assert_eq!(rs.ranks[0].overlap_fraction(), Some(0.0));
        assert_eq!(rs.mean_overlap(), Some(0.0));
        assert_eq!(rs.total_stall_time(), 0.5);
        assert_eq!(rs.ranks[0].transfers, 2);
    }

    #[test]
    fn run_stats_aggregation() {
        let rs = RunStats {
            ranks: vec![
                RankStats {
                    bytes_network: 100,
                    bytes_shm: 5,
                    bytes_direct: 7,
                    inflight_time: 1.0,
                    wait_time: 0.0,
                    ..Default::default()
                },
                RankStats {
                    bytes_network: 50,
                    bytes_shm: 10,
                    ..Default::default()
                },
            ],
            final_times: vec![2.0, 3.0],
            makespan: 3.0,
            exec: None,
        };
        assert_eq!(rs.total_network_bytes(), 150);
        assert_eq!(rs.total_shm_bytes(), 15);
        assert_eq!(rs.total_fetched_bytes(), 165);
        assert_eq!(rs.total_direct_bytes(), 7);
        // Only rank 0 communicated asynchronously.
        assert_eq!(rs.mean_overlap(), Some(1.0));
        assert!((rs.gflops(6e9) - 2.0).abs() < 1e-12);
        assert!((rs.makespan_skew() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gflops_of_empty_run_is_zero() {
        let rs = RunStats::default();
        assert_eq!(rs.gflops(1e9), 0.0);
        assert_eq!(rs.makespan_skew(), 0.0);
    }

    #[test]
    fn task_skew_guards_all_masked_and_empty_runs() {
        // No ranks at all → 0, not NaN.
        assert_eq!(RunStats::default().task_skew(), 0.0);
        // All ranks fully masked (zero executed tasks) → 0, not NaN.
        let all_masked = RunStats {
            ranks: vec![
                RankStats {
                    tasks_masked: 4,
                    flops_skipped: 800,
                    ..Default::default()
                };
                3
            ],
            ..Default::default()
        };
        assert_eq!(all_masked.task_skew(), 0.0);
        assert_eq!(all_masked.total_tasks_masked(), 12);
        assert_eq!(all_masked.total_flops_skipped(), 2400);
        // One rank holds all surviving work → skew 1.
        let skewed = RunStats {
            ranks: vec![
                RankStats {
                    tasks: 8,
                    ..Default::default()
                },
                RankStats::default(),
            ],
            ..Default::default()
        };
        assert_eq!(skewed.task_skew(), 1.0);
        // Balanced ranks → 0.
        let balanced = RunStats {
            ranks: vec![
                RankStats {
                    tasks: 4,
                    ..Default::default()
                };
                2
            ],
            ..Default::default()
        };
        assert_eq!(balanced.task_skew(), 0.0);
    }

    #[test]
    fn absorb_counters_folds_masked_totals() {
        let mut s = RankStats::default();
        s.absorb_counters(&Counters {
            bytes_direct: 64,
            tasks: 2,
            tasks_masked: 3,
            flops_skipped: 999,
            ..Default::default()
        });
        assert_eq!(s.tasks, 2);
        assert_eq!(s.tasks_masked, 3);
        assert_eq!(s.flops_skipped, 999);
    }

    #[test]
    fn from_events_buckets_kinds() {
        let ev = |rank, t0: f64, t1: f64, kind, bytes| TraceEvent {
            rank,
            t0,
            t1,
            kind,
            label: String::new(),
            bytes,
        };
        let events = vec![
            ev(0, 0.0, 1.0, TraceKind::Compute, 0),
            ev(0, 1.0, 1.5, TraceKind::Wait, 0),
            ev(0, 0.0, 2.0, TraceKind::Transfer, 4096),
            ev(1, 0.0, 3.0, TraceKind::Compute, 0),
            ev(1, 3.0, 3.1, TraceKind::Barrier, 0),
        ];
        let rs = RunStats::from_events(2, &events);
        assert_eq!(rs.ranks[0].compute_time, 1.0);
        // The recv wait plus the transfer, which blocked its issuer.
        assert_eq!(rs.ranks[0].wait_time, 0.5 + 2.0);
        assert_eq!(rs.ranks[0].bytes_shm, 4096);
        assert_eq!(rs.ranks[0].transfers, 1);
        assert!((rs.ranks[1].barrier_time - 0.1).abs() < 1e-12);
        assert_eq!(rs.final_times, vec![2.0, 3.1]);
        assert!((rs.makespan - 3.1).abs() < 1e-12);
    }

    #[test]
    fn summary_json_is_wellformed() {
        let rs = RunStats {
            ranks: vec![RankStats {
                bytes_network: 42,
                inflight_time: 2.0,
                wait_time: 0.5,
                tasks: 9,
                ..Default::default()
            }],
            final_times: vec![1.25],
            makespan: 1.25,
            exec: Some(ExecStats {
                workers: 2,
                local_pops: 6,
                steals: 2,
                injector_pops: 2,
                parks: 3,
                worker_parks: 1,
                ws_grows: 2,
                busy_seconds: 2.0,
                wall_seconds: 1.25,
            }),
        };
        let j = rs.summary_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"bytes_network\": 42"));
        assert!(j.contains("\"mean_overlap\": 0.75"));
        assert!(j.contains("\"tasks\": 9"));
        assert!(j.contains("\"exec_workers\": 2"));
        assert!(j.contains("\"exec_steal_rate\": 0.2"));
        assert!(j.contains("\"exec_occupancy\": 0.8"));
        assert!(j.contains("\"per_rank_final_times\": [1.25]"));
    }

    #[test]
    fn exec_stats_rates() {
        let e = ExecStats {
            workers: 4,
            local_pops: 70,
            steals: 20,
            injector_pops: 10,
            busy_seconds: 6.0,
            wall_seconds: 2.0,
            ..Default::default()
        };
        assert_eq!(e.schedules(), 100);
        assert!((e.steal_rate() - 0.2).abs() < 1e-12);
        assert!((e.occupancy() - 0.75).abs() < 1e-12);
        let idle = ExecStats::default();
        assert_eq!(idle.steal_rate(), 0.0);
        assert_eq!(idle.occupancy(), 0.0);
    }

    #[test]
    fn sched_events_do_not_bucket_time() {
        let events = vec![
            TraceEvent {
                rank: 0,
                t0: 0.0,
                t1: 1.0,
                kind: TraceKind::Compute,
                label: String::new(),
                bytes: 0,
            },
            // A sched marker far past the last real event must not
            // stretch the rank's final time.
            TraceEvent {
                rank: 0,
                t0: 9.0,
                t1: 9.0,
                kind: TraceKind::Sched,
                label: "steal w1<-w0".into(),
                bytes: 0,
            },
        ];
        let rs = RunStats::from_events(1, &events);
        assert_eq!(rs.final_times, vec![1.0]);
        assert_eq!(rs.ranks[0].compute_time, 1.0);
    }
}
