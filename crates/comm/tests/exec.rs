//! Executor backend integration tests: correctness of the scheduler
//! (polled tasks, and the permit-gated threads of closure runs),
//! oversubscribed collectives, message passing, scheduling statistics,
//! and poison propagation.

use srumma_comm::exec::{exec_run, exec_run_tasks, ExecComm, RankTask};
use srumma_comm::{Comm, DistMatrix, FaultPlan, Landing, ProgramTask, RankProgram, Step};
use srumma_dense::{Matrix, Op, PackedPanel, Rng, Side};
use srumma_model::ProcGrid;
use srumma_trace::TraceKind;

#[test]
fn gated_ranks_run_and_return_outputs() {
    let res = exec_run(8, 2, |c| c.rank() * 10);
    assert_eq!(res.outputs, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    let exec = res
        .stats
        .exec
        .expect("executor runs always carry ExecStats");
    assert_eq!(exec.workers, 2);
    assert!(
        exec.schedules() >= 8,
        "every rank was scheduled at least once"
    );
}

#[test]
fn oversubscribed_barriers_complete() {
    // 64 ranks on 2 workers, several barrier rounds: every round must
    // observe all increments from the previous one.
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counter = AtomicUsize::new(0);
    exec_run(64, 2, |c| {
        for round in 1..=3 {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            assert!(counter.load(Ordering::SeqCst) >= round * 64);
            c.barrier();
        }
    });
    assert_eq!(counter.load(Ordering::SeqCst), 3 * 64);
}

/// Blocking ranks run only under one of W permits: 16 ranks on 2, each
/// counting itself in while it runs and out before it blocks (in a
/// barrier or a receive), never see more than 2 running at once.
#[test]
fn blocking_ranks_never_outnumber_their_permits() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let res = exec_run(16, 2, |c| {
        let n = c.nranks();
        for round in 0..4 {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            running.fetch_sub(1, Ordering::SeqCst);
            if round % 2 == 0 {
                c.barrier();
            } else {
                let mut buf = Vec::new();
                let (right, left) = ((c.rank() + 1) % n, (c.rank() + n - 1) % n);
                c.sendrecv(right, round, &[0.0], 8, left, &mut buf, 8);
            }
        }
    });
    assert_eq!(res.stats.exec.unwrap().workers, 2);
    let peak = peak.load(Ordering::SeqCst);
    assert!((1..=2).contains(&peak), "{peak} ranks ran at once");
}

#[test]
fn ring_sendrecv_on_fewer_workers_than_ranks() {
    // Cannon-style shift: every rank blocks in recv at some point, so
    // the permits must keep passing from rank to rank.
    let res = exec_run(16, 3, |c| {
        let n = c.nranks();
        let right = (c.rank() + 1) % n;
        let left = (c.rank() + n - 1) % n;
        let mut buf = Vec::new();
        c.sendrecv(right, 1, &[c.rank() as f64], 8, left, &mut buf, 8);
        buf[0] as usize
    });
    let expect: Vec<usize> = (0..16).map(|r| (r + 15) % 16).collect();
    assert_eq!(res.outputs, expect);
}

#[test]
fn get_copies_real_blocks() {
    let grid = ProcGrid::new(2, 2);
    let mat = DistMatrix::create(grid, 8, 8);
    mat.scatter(&Matrix::random(8, 8, 7));
    let res = exec_run(4, 2, |c| {
        let mut buf = Vec::new();
        let peer = (c.rank() + 1) % 4;
        c.get(&mat, peer, &mut buf);
        buf.iter().sum::<f64>()
    });
    for (r, got) in res.outputs.iter().enumerate() {
        let peer = (r + 1) % 4;
        let block = mat.read_block(peer);
        let v = block.mat().unwrap();
        let expect: f64 = (0..v.rows()).flat_map(|i| v.row(i)).sum();
        assert!((got - expect).abs() < 1e-12);
    }
}

/// A get that lands packed is still a get of the sequence a faulted
/// `ExecComm` draws its spikes from: rank 5's alternating landings are
/// delayed exactly where the plan spikes its gets 0, 1, 2, …, and no
/// other rank issues a get or sleeps.
#[test]
fn exec_comm_counts_a_packed_landing_in_its_get_sequence() {
    const GETS: u64 = 24;
    let plan = FaultPlan::random_stragglers(9, 8).with_get_spikes(0.5, 1e-6);
    let spiked = (0..GETS)
        .filter(|&seq| plan.get_spike(5, seq) > 0.0)
        .count() as u64;
    let rows_only = (0..GETS / 2)
        .filter(|&seq| plan.get_spike(5, seq) > 0.0)
        .count() as u64;
    assert_ne!(spiked, rows_only, "pick a seed that tells the two apart");

    /// Rank 5 gets rank 3's block `GETS` times, landing it row-major
    /// and packed in turn; every rank reports `(gets, delays)`.
    struct Gets<'m>(&'m DistMatrix);

    impl RankProgram for Gets<'_> {
        type Out = (u64, u64);
        fn step<C: Comm>(&mut self, c: &mut C) -> Step<(u64, u64)> {
            if c.rank() == 5 {
                let (mut buf, mut panel) = (Vec::new(), PackedPanel::new());
                for seq in 0..GETS {
                    if seq % 2 == 0 {
                        c.nbget(self.0, 3, Landing::Rows(&mut buf));
                    } else {
                        c.nbget(self.0, 3, Landing::Packed(&mut panel, Side::A(Op::T)));
                    }
                }
            }
            let counters = &c.recorder().counters;
            Step::Done((counters.blocks_fetched, counters.delays_injected))
        }
    }

    let mat = DistMatrix::create(ProcGrid::new(2, 4), 6, 12);
    let res = exec_run_tasks(8, 2, false, None, Some(&plan), |comm| {
        Box::new(ProgramTask::new(comm, Gets(&mat)))
    });
    for (rank, &got) in res.outputs.iter().enumerate() {
        let want = if rank == 5 { (GETS, spiked) } else { (0, 0) };
        assert_eq!(got, want, "rank {rank}: (gets, delays)");
        assert_eq!(res.stats.ranks[rank].delays_injected, want.1);
    }
}

/// Each rank passes one barrier, then returns its rank.
struct BarrierThenRank;

impl RankProgram for BarrierThenRank {
    type Out = usize;
    fn step<C: Comm>(&mut self, c: &mut C) -> Step<usize> {
        match c.barrier_try() {
            true => Step::Done(c.rank()),
            false => Step::Park,
        }
    }
}

#[test]
fn traced_run_records_sched_markers_and_occupancy() {
    let res = exec_run_tasks(32, 2, true, None, None, |comm| {
        Box::new(ProgramTask::new(comm, BarrierThenRank))
    });
    assert_eq!(res.outputs, (0..32).collect::<Vec<_>>());
    let exec = res.stats.exec.unwrap();
    assert!(
        exec.parks > 0,
        "31 ranks wait in the barrier: parks must show"
    );
    assert!(exec.occupancy() >= 0.0 && exec.occupancy() <= 1.0);
    assert!(exec.steal_rate() >= 0.0 && exec.steal_rate() <= 1.0);
    assert!(
        res.trace.iter().any(|e| e.kind == TraceKind::Sched),
        "traced executor runs carry Sched events"
    );
    // Sched markers are instantaneous.
    for e in res.trace.iter().filter(|e| e.kind == TraceKind::Sched) {
        assert_eq!(e.t0, e.t1);
    }
    // Summary surfaces the executor metrics.
    let summary = res.stats.summary_json();
    assert!(summary.contains("\"exec_workers\": 2"));
    assert!(summary.contains("exec_steal_rate"));
    assert!(summary.contains("exec_occupancy"));
}

/// A deliberately chatty FSM task: counts to `limit` yielding every
/// step, then waits on the global barrier via `barrier_try`.
struct CountTask {
    comm: ExecComm,
    count: usize,
    limit: usize,
}

impl RankTask for CountTask {
    type Out = usize;
    fn step(&mut self) -> Step<usize> {
        if self.count < self.limit {
            self.count += 1;
            return Step::Yield;
        }
        if self.comm.barrier_try() {
            Step::Done(self.count)
        } else {
            Step::Park
        }
    }
}

#[test]
fn fsm_tasks_yield_park_and_finish() {
    for workers in [1, 2, 4] {
        let res = exec_run_tasks(24, workers, false, None, None, |comm| {
            let limit = 3 + comm.rank() % 5;
            Box::new(CountTask {
                comm,
                count: 0,
                limit,
            })
        });
        let expect: Vec<usize> = (0..24).map(|r| 3 + r % 5).collect();
        assert_eq!(res.outputs, expect, "workers={workers}");
        let exec = res.stats.exec.unwrap();
        assert!(
            exec.local_pops > 0,
            "yielding tasks are resumed from the local deque"
        );
    }
}

#[test]
fn fsm_blocking_barrier_is_rejected() {
    let caught = std::panic::catch_unwind(|| {
        exec_run_tasks(2, 1, false, None, None, |comm| {
            Box::new(BadBarrierTask { comm }) as Box<dyn RankTask<Out = ()> + Send>
        })
    });
    let payload = caught.expect_err("blocking barrier in an FSM task must panic");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap();
    assert!(msg.contains("barrier_try"), "got: {msg}");
}

struct BadBarrierTask {
    comm: ExecComm,
}

impl RankTask for BadBarrierTask {
    type Out = ();
    fn step(&mut self) -> Step<()> {
        self.comm.barrier(); // wrong: blocking call on an FSM rank
        Step::Done(())
    }
}

/// A polled rank's blocking `ExecComm::recv` would hold its worker while
/// the message's sender may need that very worker: it panics, naming the
/// split form, instead of waiting. (A `RankProgram` cannot make the call
/// at all: `Comm` has no blocking receive.)
#[test]
fn fsm_blocking_recv_is_rejected() {
    struct BadRecvTask {
        comm: ExecComm,
    }

    impl RankTask for BadRecvTask {
        type Out = ();
        fn step(&mut self) -> Step<()> {
            if self.comm.rank() == 0 {
                self.comm.recv(1, 4, &mut Vec::new(), 8); // wrong: blocking call on an FSM rank
            } else {
                self.comm.send(0, 4, &[1.0], 8);
            }
            Step::Done(())
        }
    }

    let caught = std::panic::catch_unwind(|| {
        exec_run_tasks(2, 1, false, None, None, |comm| {
            Box::new(BadRecvTask { comm }) as Box<dyn RankTask<Out = ()> + Send>
        })
    });
    let payload = caught.expect_err("blocking recv in an FSM task must panic");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap();
    assert!(msg.contains("recv_try"), "got: {msg}");
}

/// The blocking side of the same contract: a blocking rank's split
/// barrier never reports `false` while the rank holds a permit. If it
/// did, this poll loop would keep the only permit and the three ranks it
/// waits for could never arrive. A regression hangs, so the run sits on
/// a helper thread with a deadline.
#[test]
fn gated_ranks_can_poll_the_split_fence_on_one_worker() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let res = exec_run(4, 1, |c| {
            for _ in 0..3 {
                while !c.barrier_try() {}
            }
            c.rank()
        });
        let _ = done_tx.send(res.outputs);
    });
    let outputs = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("gated ranks polling the split fence livelocked");
    assert_eq!(outputs, vec![0, 1, 2, 3]);
}

/// Run `f` on a helper thread and fail unless it returns within 10 s: a
/// lost wake or a barrier that never completes hangs rather than fails.
fn within_10s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{what}: run panicked or hung ({e:?})"))
}

const ROUNDS: usize = 40;

/// One polled rank of [`barrier_generations_never_overlap`]: each round
/// a seeded number of yields, then a count-in and the split barrier.
struct RoundsTask {
    comm: ExecComm,
    counts: std::sync::Arc<Vec<std::sync::atomic::AtomicUsize>>,
    rng: Rng,
    round: usize,
    yields: usize,
    counted: bool,
}

impl RankTask for RoundsTask {
    type Out = usize;
    fn step(&mut self) -> Step<usize> {
        use std::sync::atomic::Ordering;
        if self.round == ROUNDS {
            return Step::Done(self.round);
        }
        if self.yields > 0 {
            self.yields -= 1;
            return Step::Yield;
        }
        if !self.counted {
            self.counts[self.round].fetch_add(1, Ordering::SeqCst);
            self.counted = true;
        }
        if !self.comm.barrier_try() {
            return Step::Park;
        }
        let n = self.comm.nranks();
        let seen = self.counts[self.round].load(Ordering::SeqCst);
        assert_eq!(
            seen, n,
            "round {} passed with {seen} of {n} arrived",
            self.round
        );
        self.round += 1;
        self.counted = false;
        self.yields = self.rng.below(4);
        Step::Yield
    }
}

/// Every rank arrives at round `r` before any rank passes it, and no
/// arrival at round `r + 1` counts towards round `r`: a rank that passes
/// its barrier sees every rank's count-in for that round, never more.
#[test]
fn barrier_generations_never_overlap() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    for workers in [1, 2, 3] {
        let outputs = within_10s("48 polled ranks", move || {
            let counts: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ROUNDS).map(|_| AtomicUsize::new(0)).collect());
            exec_run_tasks(48, workers, false, None, None, |comm| {
                let mut rng = Rng::new(0xBA77_1E55 ^ comm.rank() as u64);
                let yields = rng.below(4);
                Box::new(RoundsTask {
                    comm,
                    counts: Arc::clone(&counts),
                    rng,
                    round: 0,
                    yields,
                    counted: false,
                })
            })
            .outputs
        });
        assert_eq!(outputs, vec![ROUNDS; 48], "workers={workers}");
    }
    within_10s("32 blocking ranks", || {
        let counts: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        exec_run(32, 2, |c| {
            for (round, count) in counts.iter().enumerate() {
                count.fetch_add(1, Ordering::SeqCst);
                c.barrier();
                let seen = count.load(Ordering::SeqCst);
                assert_eq!(seen, 32, "round {round} passed with {seen} of 32 arrived");
            }
        });
    });
}

/// A task that yields `rank % 3` times, then finishes, counting its
/// finishes.
struct ClaimTask {
    comm: ExecComm,
    yields: usize,
    done: std::sync::Arc<Vec<std::sync::atomic::AtomicUsize>>,
}

impl RankTask for ClaimTask {
    type Out = usize;
    fn step(&mut self) -> Step<usize> {
        if self.yields > 0 {
            self.yields -= 1;
            return Step::Yield;
        }
        let me = self.comm.rank();
        self.done[me].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Step::Done(me)
    }
}

/// However the ranks divide among the workers — evenly or not, fewer
/// ranks than workers — each is started by exactly one claim and
/// finishes exactly once: a rank claimed twice would show as one pick
/// too many even where its empty slot made the second a no-op.
#[test]
fn every_rank_is_claimed_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    for nranks in [1, 2, 3, 7, 64, 1000] {
        for workers in [1, 2, 3, 8] {
            let (outputs, done, exec) = within_10s("claims", move || {
                let done: Arc<Vec<AtomicUsize>> =
                    Arc::new((0..nranks).map(|_| AtomicUsize::new(0)).collect());
                let res = exec_run_tasks(nranks, workers, false, None, None, |comm| {
                    Box::new(ClaimTask {
                        yields: comm.rank() % 3,
                        comm,
                        done: Arc::clone(&done),
                    })
                });
                (res.outputs, done, res.stats.exec.unwrap())
            });
            let case = format!("nranks={nranks} workers={workers}");
            assert_eq!(outputs, (0..nranks).collect::<Vec<_>>(), "{case}");
            assert!(
                done.iter().all(|d| d.load(Ordering::SeqCst) == 1),
                "{case}: a rank finished more than once or never"
            );
            // No rank parks, so every pick is a claim or the resume of
            // a yield the worker kept.
            let yields: u64 = (0..nranks).map(|r| (r % 3) as u64).sum();
            assert_eq!(
                exec.local_pops + exec.steals,
                nranks as u64 + yields,
                "{case}: {exec:?}"
            );
        }
    }
}

// ---- poison propagation ---------------------------------------------

#[test]
fn panicking_gated_rank_unwinds_parked_peers() {
    // Everyone except rank 3 parks in the barrier; rank 3 panics. The
    // run must unwind promptly with the original payload, not hang.
    let caught = std::panic::catch_unwind(|| {
        exec_run(16, 2, |c| {
            if c.rank() == 3 {
                panic!("injected rank failure");
            }
            c.barrier();
        })
    });
    let msg = *caught
        .expect_err("poisoned run must propagate the panic")
        .downcast::<&str>()
        .unwrap();
    assert_eq!(msg, "injected rank failure");
}

/// An exchange sends on its first call only, however often its receive
/// is retried: rank 0 parks in its first exchange and is stepped again,
/// and each rank's second exchange, tagged anew, must find the peer's
/// second message, not a resent first one (a tag mismatch panics).
#[test]
fn sendrecv_try_sends_on_its_first_call_only() {
    struct TwoExchanges(u64, Vec<f64>);

    impl RankProgram for TwoExchanges {
        type Out = Vec<f64>;
        fn step<C: Comm>(&mut self, c: &mut C) -> Step<Vec<f64>> {
            let peer = 1 - c.rank();
            while self.0 < 2 {
                let (data, mut buf) = ([(10 * c.rank()) as f64 + self.0 as f64], Vec::new());
                if !c.sendrecv_try(peer, self.0, &data, 8, peer, &mut buf, 8) {
                    return Step::Park;
                }
                self.1.extend(buf);
                self.0 += 1;
            }
            Step::Done(std::mem::take(&mut self.1))
        }
    }

    for workers in [1, 2] {
        let res = exec_run_tasks(2, workers, false, None, None, |comm| {
            Box::new(ProgramTask::new(comm, TwoExchanges(0, Vec::new())))
        });
        assert_eq!(res.outputs, [[10.0, 11.0], [0.0, 1.0]], "workers={workers}");
    }
}

/// Rank 0 parks in `recv_try` for a message rank 1 never sends: rank 1
/// yields, then panics. The run must not wait for rank 0's wake; it
/// unwinds with rank 1's payload, on one worker and on two.
#[test]
fn a_peer_panic_unwinds_a_rank_parked_in_recv_try() {
    struct SenderDies(usize);

    impl RankProgram for SenderDies {
        type Out = ();
        fn step<C: Comm>(&mut self, c: &mut C) -> Step<()> {
            if c.rank() == 0 {
                return match c.recv_try(1, 9, &mut Vec::new(), 8) {
                    true => Step::Done(()),
                    false => Step::Park,
                };
            }
            self.0 += 1;
            match self.0 {
                3 => panic!("sender died"),
                _ => Step::Yield,
            }
        }
    }

    for workers in [1, 2] {
        let msg = within_10s("a parked receiver", move || {
            let caught = std::panic::catch_unwind(|| {
                exec_run_tasks(2, workers, false, None, None, |comm| {
                    Box::new(ProgramTask::new(comm, SenderDies(0)))
                })
            });
            *caught.expect_err("must unwind").downcast::<&str>().unwrap()
        });
        assert_eq!(msg, "sender died", "workers={workers}");
    }
}

#[test]
fn panicking_recv_waiter_unwinds_too() {
    // Rank 0 waits for a message that never comes; rank 1 panics.
    let caught = std::panic::catch_unwind(|| {
        exec_run(2, 1, |c| {
            if c.rank() == 0 {
                let mut buf = Vec::new();
                c.recv(1, 9, &mut buf, 8);
            } else {
                panic!("sender died");
            }
        })
    });
    let msg = *caught.expect_err("must unwind").downcast::<&str>().unwrap();
    assert_eq!(msg, "sender died");
}

struct PanicAtTask {
    comm: ExecComm,
    steps: usize,
    bomb: bool,
}

impl RankTask for PanicAtTask {
    type Out = ();
    fn step(&mut self) -> Step<()> {
        if self.bomb && self.steps == 2 {
            panic!("fsm task exploded");
        }
        self.steps += 1;
        if self.steps < 4 {
            return Step::Yield;
        }
        if self.comm.barrier_try() {
            Step::Done(())
        } else {
            Step::Park
        }
    }
}

#[test]
fn panicking_fsm_task_poisons_the_run() {
    let caught = std::panic::catch_unwind(|| {
        exec_run_tasks(8, 2, false, None, None, |comm| {
            let bomb = comm.rank() == 5;
            Box::new(PanicAtTask {
                comm,
                steps: 0,
                bomb,
            })
        })
    });
    let msg = *caught.expect_err("must unwind").downcast::<&str>().unwrap();
    assert_eq!(msg, "fsm task exploded");
}
