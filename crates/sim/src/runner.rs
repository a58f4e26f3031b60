//! Launching a simulation: [`PolledSim`] leaves the stepping of
//! resumable rank programs to one host thread, which costs a rank only
//! its own operations.

use crate::kernel::{Kernel, Op, SimConfig};
use crate::proc::SimProc;
use srumma_trace::{RunStats, TraceEvent};
use std::rc::Rc;

/// Everything a finished simulation returns.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Per-rank outputs of the rank programs.
    pub outputs: Vec<T>,
    /// Aggregated statistics (per-rank counters, final clocks, makespan).
    pub stats: RunStats,
    /// Trace events (empty unless `SimConfig::trace`).
    pub trace: Vec<TraceEvent>,
}

impl<T> SimResult<T> {
    /// The run's virtual wall-clock: the latest final rank time.
    pub fn makespan(&self) -> f64 {
        self.stats.makespan
    }
}

/// A simulation whose ranks the caller steps on its own thread: no
/// thread or stack per rank. Each rank is a resumable program over the
/// [`SimProc`] from [`PolledSim::proc`], whose posts only queue. The
/// loop is
///
/// ```text
/// while let Some(rank) = sim.next_rank() {
///     step rank's program;            // posts its operations
///     if it finished { sim.finish(rank) }
///     if it parked without posting what it waits for { sim.park(rank) }
/// }
/// ```
///
/// `next_rank` applies the posted operations in `(clock, rank)` order
/// and returns the rank the order waits on — one whose queue is empty —
/// so the timings depend on the operations alone, bit for bit, however
/// the programs split them into steps.
pub struct PolledSim {
    kernel: Rc<Kernel>,
}

impl PolledSim {
    pub fn new(cfg: SimConfig) -> Self {
        PolledSim {
            kernel: Rc::new(Kernel::new(cfg)),
        }
    }

    pub fn nranks(&self) -> usize {
        self.kernel.nranks()
    }

    /// `rank`'s handle.
    pub fn proc(&self, rank: usize) -> SimProc {
        SimProc::new(Rc::clone(&self.kernel), rank)
    }

    /// Apply what the order allows; the rank to step next, or `None`
    /// once every rank has finished.
    ///
    /// # Panics
    /// On deadlock — no rank can run and not every rank finished — with
    /// the blocked ranks named; and with whatever panic applying an
    /// operation raised.
    pub fn next_rank(&self) -> Option<usize> {
        self.kernel.next_rank()
    }

    /// `rank`'s program returned.
    pub fn finish(&self, rank: usize) {
        self.kernel.post(rank, Op::Finish);
    }

    /// `rank`'s program parked without posting what it waits for:
    /// nothing will wake it.
    pub fn park(&self, rank: usize) {
        self.kernel.post(rank, Op::Park);
    }

    /// Clocks, statistics and trace of the finished run, beside the
    /// ranks' `outputs`.
    pub fn into_result<T>(self, outputs: Vec<T>) -> SimResult<T> {
        let (stats, trace) = self.kernel.collect();
        SimResult {
            outputs,
            stats,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_model::Topology;

    fn cfg(nranks: usize, per_node: usize) -> SimConfig {
        SimConfig::new(Topology::new(nranks, per_node))
    }

    /// Step every rank on this thread: `step(proc, i)` is the rank's
    /// step number `i`, which returns its output when it is the last.
    fn polled<T>(cfg: SimConfig, step: impl Fn(&SimProc, usize) -> Option<T>) -> SimResult<T> {
        let sim = PolledSim::new(cfg);
        let mut steps = vec![0; sim.nranks()];
        let mut outputs: Vec<Option<T>> = (0..sim.nranks()).map(|_| None).collect();
        while let Some(rank) = sim.next_rank() {
            outputs[rank] = step(&sim.proc(rank), steps[rank]);
            steps[rank] += 1;
            if outputs[rank].is_some() {
                sim.finish(rank);
            }
        }
        sim.into_result(outputs.into_iter().map(Option::unwrap).collect())
    }

    #[test]
    fn ranks_see_their_ids() {
        let res = polled(cfg(4, 2), |p, _| Some((p.rank(), p.nranks())));
        assert_eq!(res.outputs, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn compute_advances_clock() {
        let res = polled(cfg(3, 1), |p, _| {
            p.charge_compute(1.5 * (p.rank() as f64 + 1.0), "work");
            Some(())
        });
        assert_eq!(res.stats.final_times, vec![1.5, 3.0, 4.5]);
        assert_eq!(res.makespan(), 4.5);
        assert_eq!(res.stats.ranks[2].compute_time, 4.5);
    }

    #[test]
    fn barrier_aligns_everyone() {
        let res = polled(cfg(4, 4), |p, i| match i {
            0 => {
                p.charge_compute(p.rank() as f64, "stagger");
                p.barrier_post();
                None
            }
            _ => {
                assert!(p.barrier_test(), "stepped before the release");
                Some(())
            }
        });
        // Everyone leaves at max(arrivals) + barrier latency.
        let t = res.stats.final_times[0];
        assert!(res.stats.final_times.iter().all(|&x| x == t));
        assert!(t >= 3.0);
        assert!(res.stats.ranks[0].barrier_time >= 3.0);
        assert!(res.stats.ranks[3].barrier_time < 1e-3);
    }

    /// Send `value` from rank 0 to rank 1 the way `SimComm` sends: a
    /// message posted behind a transfer, here one of pure latency `delay`.
    fn send(p: &SimProc, tag: u64, delay: f64, value: f64) {
        let id = p.issue_transfer(crate::TransferSpec {
            cost: srumma_model::TransferCost {
                latency: delay,
                ..Default::default()
            },
            src_rank: 0,
            dst_rank: 1,
            bytes: 8,
            label: String::new(),
        });
        let msg = crate::kernel::Msg {
            avail_at: 0.0,
            payload: vec![value],
            bytes: 8,
        };
        p.post_msg_after(id, 1, tag, msg);
    }

    /// Step `i` of rank 1's receive from rank 0 with `tag`: the payload,
    /// at the step the message has arrived.
    fn receive(p: &SimProc, i: usize, tag: u64) -> Option<f64> {
        if i == 0 {
            p.recv_post(0, tag);
            return None;
        }
        Some(p.recv_take().payload[0])
    }

    #[test]
    fn messages_carry_payloads_and_time() {
        let res = polled(cfg(2, 1), |p, i| {
            if p.rank() == 0 {
                p.charge_compute(2.0, "pre-send work");
                send(p, 7, 0.5, 42.0);
                Some(0.0)
            } else {
                receive(p, i, 7)
            }
        });
        assert_eq!(res.outputs[1], 42.0);
        // Receiver resumed exactly when the payload became available.
        assert!((res.stats.final_times[1] - 2.5).abs() < 1e-12);
        assert!(res.stats.ranks[1].wait_time >= 2.4);
    }

    #[test]
    fn recv_before_send_blocks_correctly() {
        // Receiver arrives first; sender shows up later.
        let res = polled(cfg(2, 1), |p, i| {
            if p.rank() == 1 {
                receive(p, i, 1).map(|value| (p.now(), value))
            } else {
                p.charge_compute(5.0, "delay");
                send(p, 1, 0.0, 9.0);
                Some((0.0, 0.0))
            }
        });
        assert_eq!(res.outputs[1], (5.0, 9.0));
    }

    #[test]
    fn pair_sync_returns_max_clock_to_both() {
        let res = polled(cfg(2, 1), |p, i| match i {
            0 => {
                p.charge_compute(if p.rank() == 0 { 1.0 } else { 4.0 }, "skew");
                p.pair(99);
                None
            }
            _ => Some(p.now()),
        });
        assert_eq!(res.outputs, vec![4.0, 4.0]);
        assert_eq!(res.stats.ranks[0].wait_time, 3.0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            polled(cfg(6, 2), |p, i| match i {
                0 => {
                    // A little asymmetric mixing of compute and barriers.
                    p.charge_compute(0.1 * ((p.rank() * 7 % 5) as f64 + 1.0), "a");
                    p.barrier_post();
                    None
                }
                _ => {
                    assert!(p.barrier_test());
                    p.charge_compute(0.05 * (p.rank() as f64 + 1.0), "b");
                    Some(())
                }
            })
            .stats
            .final_times
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "rank 0 blocked on a receive")]
    fn deadlock_is_detected() {
        // Rank 0 waits for a message nobody sends while rank 1 exits.
        polled(cfg(2, 1), |p, i| {
            if p.rank() == 0 && i == 0 {
                p.recv_post(1, 0);
                return None;
            }
            Some(())
        });
    }

    #[test]
    #[should_panic(expected = "rank body exploded")]
    fn rank_panic_propagates() {
        polled(cfg(2, 1), |p, _| {
            if p.rank() == 1 {
                panic!("rank body exploded");
            }
            Some(())
        });
    }

    /// The panic message of a simulation that must fail.
    fn failure(step: impl Fn(&SimProc, usize) -> Option<()>) -> String {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            polled(cfg(2, 2), step);
        }));
        let p = run.expect_err("the simulation should have panicked");
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    fn nan_cost() -> srumma_model::TransferCost {
        srumma_model::TransferCost {
            latency: f64::NAN,
            path: srumma_model::network::Path::SharedMemory,
            ..Default::default()
        }
    }

    #[test]
    fn a_bad_transfer_panics_naming_its_rank_and_never_hangs() {
        let msg = failure(|p, i| {
            if p.rank() == 0 {
                match i {
                    0 => p.barrier_post(),
                    _ => return Some(()),
                }
            } else {
                p.issue_transfer(crate::TransferSpec {
                    cost: nan_cost(),
                    src_rank: 0,
                    dst_rank: 1,
                    bytes: 8,
                    label: String::new(),
                });
            }
            None
        });
        assert!(
            msg.contains("rank 1") && msg.contains("bad transfer cost"),
            "{msg}"
        );
    }
}
