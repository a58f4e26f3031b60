//! Launching a simulation, deterministic either way: [`run_sim`] gives
//! each rank a scoped thread of its own and runs blocking closures;
//! [`PolledSim`] leaves the stepping of resumable rank programs to one
//! host thread, which costs a rank only its own operations.

use crate::kernel::{Aborted, Kernel, SimConfig};
use crate::proc::SimProc;
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use std::sync::Arc;

/// Everything a finished simulation returns.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Per-rank return values of the rank closures.
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

/// Run `body` once per rank under the virtual-time kernel and collect
/// outputs, statistics and traces.
///
/// `body` receives the rank's [`SimProc`] handle. Rank programs are
/// ordinary blocking code on threads of their own; the kernel applies
/// their timed operations deterministically in virtual-time order, so
/// two runs of the same program produce identical virtual timings
/// bit-for-bit, however the host schedules the threads.
///
/// # Panics
/// Re-raises the first rank panic (lowest rank id), and panics on
/// simulation deadlock. A rank panic aborts the run: the other ranks
/// unwind out of whatever kernel call they are in, and those unwinds
/// are not re-raised in its place.
pub fn run_sim<T, F>(cfg: SimConfig, body: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&SimProc) -> T + Sync,
{
    let nranks = cfg.topology.nranks();
    let kernel = Arc::new(Kernel::new(cfg));
    let mut outputs: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, slot) in outputs.iter_mut().enumerate() {
            let kernel = Arc::clone(&kernel);
            let body = &body;
            handles.push(scope.spawn(move || {
                let proc = SimProc::new(Arc::clone(&kernel), rank);
                // A panicking body must abort the run, or the ranks
                // waiting on it hang (or report a deadlock that hides
                // the panic). Catch, abort, re-raise later.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&proc))) {
                    Ok(v) => {
                        kernel.finish(rank);
                        *slot = Some(v);
                        None
                    }
                    Err(payload) => {
                        kernel.abort();
                        Some(payload)
                    }
                }
            }));
        }
        for h in handles {
            match h.join() {
                Ok(None) => {}
                Ok(Some(payload)) => panics.push(payload),
                // The thread itself panicked (e.g. deadlock detected in
                // `finish`, after the catch_unwind region).
                Err(payload) => panics.push(payload),
            }
        }
    });

    // Ranks an abort woke unwind with `Aborted`; re-raise the panic that
    // caused it.
    if !panics.is_empty() {
        let i = panics.iter().position(|p| !p.is::<Aborted>()).unwrap_or(0);
        std::panic::resume_unwind(panics.swap_remove(i));
    }

    result(&kernel, outputs.into_iter().map(|o| o.unwrap()).collect())
}

/// The finished run: the kernel's clocks, statistics and trace beside
/// the ranks' outputs.
fn result<T>(kernel: &Kernel, outputs: Vec<T>) -> SimResult<T> {
    let (times, rank_stats, trace) = kernel.collect();
    let makespan = times.iter().copied().fold(0.0, f64::max);
    SimResult {
        outputs,
        stats: RunStats {
            ranks: rank_stats,
            final_times: times,
            makespan,
            exec: None,
        },
        trace,
    }
}

/// A simulation whose ranks the caller steps on its own thread: no
/// thread, stack or condvar wait per rank. Each rank is a resumable
/// program over the [`SimProc`] from [`PolledSim::proc`], whose posts
/// only queue. The loop is
///
/// ```text
/// while let Some(rank) = sim.next_rank() {
///     step rank's program;            // posts its operations
///     if it finished { sim.finish(rank) }
///     if it parked outside the split barrier { sim.park(rank) }
/// }
/// ```
///
/// `next_rank` applies the posted operations in `(clock, rank)` order
/// and returns the rank the order waits on, so the timings are those of
/// [`run_sim`] on the same operations, bit for bit.
pub struct PolledSim {
    kernel: Arc<Kernel>,
}

impl PolledSim {
    pub fn new(cfg: SimConfig) -> Self {
        PolledSim {
            kernel: Arc::new(Kernel::polled(cfg)),
        }
    }

    pub fn nranks(&self) -> usize {
        self.kernel.nranks()
    }

    /// `rank`'s handle. Its value-returning calls (`now`, `recv_msg`,
    /// `pair_sync`, `barrier`) panic: a polled rank reaches the barrier
    /// through [`SimProc::barrier_post`] and [`SimProc::barrier_test`].
    pub fn proc(&self, rank: usize) -> SimProc {
        SimProc::new(Arc::clone(&self.kernel), rank)
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
        self.kernel.finish(rank);
    }

    /// `rank`'s program parked without arriving at the barrier: nothing
    /// will wake it.
    pub fn park(&self, rank: usize) {
        self.kernel.park(rank);
    }

    /// Clocks, statistics and trace of the finished run, beside the
    /// ranks' `outputs`.
    pub fn into_result<T>(self, outputs: Vec<T>) -> SimResult<T> {
        result(&self.kernel, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_model::Topology;

    fn cfg(nranks: usize, per_node: usize) -> SimConfig {
        SimConfig::new(Topology::new(nranks, per_node))
    }

    #[test]
    fn ranks_see_their_ids() {
        let res = run_sim(cfg(4, 2), |p| (p.rank(), p.nranks()));
        assert_eq!(res.outputs, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn compute_advances_clock() {
        let res = run_sim(cfg(3, 1), |p| {
            p.charge_compute(1.5 * (p.rank() as f64 + 1.0), "work");
            p.now()
        });
        assert_eq!(res.outputs, vec![1.5, 3.0, 4.5]);
        assert_eq!(res.makespan(), 4.5);
        assert_eq!(res.stats.ranks[2].compute_time, 4.5);
    }

    #[test]
    fn barrier_aligns_everyone() {
        let res = run_sim(cfg(4, 4), |p| {
            p.charge_compute(p.rank() as f64, "stagger");
            p.barrier();
            p.now()
        });
        // Everyone leaves at max(arrivals) + barrier latency.
        let t = res.outputs[0];
        assert!(res.outputs.iter().all(|&x| x == t));
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

    #[test]
    fn messages_carry_payloads_and_time() {
        let res = run_sim(cfg(2, 1), |p| {
            if p.rank() == 0 {
                p.charge_compute(2.0, "pre-send work");
                send(p, 7, 0.5, 42.0);
                0.0
            } else {
                let m = p.recv_msg(0, 7);
                assert_eq!(m.payload, vec![42.0]);
                p.now()
            }
        });
        // Receiver resumed exactly when the payload became available.
        assert!((res.outputs[1] - 2.5).abs() < 1e-12);
        assert!(res.stats.ranks[1].wait_time >= 2.4);
    }

    #[test]
    fn recv_before_send_blocks_correctly() {
        // Receiver arrives first; sender shows up later.
        let res = run_sim(cfg(2, 1), |p| {
            if p.rank() == 1 {
                let m = p.recv_msg(0, 1);
                (p.now(), m.payload[0])
            } else {
                p.charge_compute(5.0, "delay");
                send(p, 1, 0.0, 9.0);
                (p.now(), 0.0)
            }
        });
        assert_eq!(res.outputs[1], (5.0, 9.0));
    }

    #[test]
    fn pair_sync_returns_max_clock_to_both() {
        let res = run_sim(cfg(2, 1), |p| {
            p.charge_compute(if p.rank() == 0 { 1.0 } else { 4.0 }, "skew");
            let t = p.pair_sync(99);
            (t, p.now())
        });
        assert_eq!(res.outputs[0], (4.0, 4.0));
        assert_eq!(res.outputs[1], (4.0, 4.0));
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            run_sim(cfg(6, 2), |p| {
                // A little asymmetric mixing of compute and barriers.
                p.charge_compute(0.1 * ((p.rank() * 7 % 5) as f64 + 1.0), "a");
                p.barrier();
                p.charge_compute(0.05 * (p.rank() as f64 + 1.0), "b");
                p.now()
            })
            .outputs
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        // Rank 0 waits for a message nobody sends while rank 1 exits.
        let _ = run_sim(cfg(2, 1), |p| {
            if p.rank() == 0 {
                let _ = p.recv_msg(1, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank body exploded")]
    fn rank_panic_propagates() {
        let _ = run_sim(cfg(2, 1), |p| {
            if p.rank() == 1 {
                panic!("rank body exploded");
            }
        });
    }

    /// Run a simulation that must fail on a thread of its own, under a
    /// 10 s watchdog (a hang fails the test instead of stalling the
    /// suite), and return its panic message.
    fn failure_within_10s<F>(body: F) -> String
    where
        F: Fn(&SimProc) + Send + Sync + 'static,
        F: std::panic::RefUnwindSafe,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| run_sim(cfg(2, 2), &body));
            let _ = tx.send(run.err().map(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the simulation hung")
            .expect("the simulation should have panicked")
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
        let msg = failure_within_10s(|p| {
            if p.rank() == 0 {
                p.barrier();
            } else {
                p.issue_transfer(crate::TransferSpec {
                    cost: nan_cost(),
                    src_rank: 0,
                    dst_rank: 1,
                    bytes: 8,
                    label: String::new(),
                });
            }
        });
        assert!(
            msg.contains("rank 1") && msg.contains("bad transfer cost"),
            "{msg}"
        );
    }

    /// A panic while the kernel applies an operation lands on whichever
    /// thread is pumping; it poisons the run, so the rank waiting at the
    /// barrier unwinds too and the panic surfaces.
    #[cfg(debug_assertions)]
    #[test]
    fn a_panic_while_applying_poisons_the_run() {
        let msg = failure_within_10s(|p| {
            if p.rank() == 0 {
                p.barrier();
            } else {
                // Both ranks share a node: a network path is a model bug
                // the kernel only notices when it applies the issue.
                p.issue_transfer(crate::TransferSpec {
                    cost: srumma_model::TransferCost {
                        wire: 1e-6,
                        path: srumma_model::network::Path::Network,
                        ..Default::default()
                    },
                    src_rank: 0,
                    dst_rank: 1,
                    bytes: 8,
                    label: String::new(),
                });
            }
        });
        assert!(msg.contains("network transfer within one node"), "{msg}");
    }
}
