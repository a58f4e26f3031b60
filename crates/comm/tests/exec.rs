//! Executor backend integration tests: correctness of the scheduler
//! (permit-gated threads and FSM tasks), oversubscribed collectives,
//! message passing, scheduling statistics, and poison propagation.

use srumma_comm::exec::{exec_launch, exec_run, exec_run_tasks, ExecComm, RankTask};
use srumma_comm::{Comm, DistMatrix, Step};
use srumma_dense::Matrix;
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

#[test]
fn traced_run_records_sched_markers_and_occupancy() {
    let res = exec_launch(32, 2, true, None, |c| {
        c.barrier();
        c.rank()
    });
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
        let res = exec_run_tasks(24, workers, false, None, |comm| {
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
        exec_run_tasks(2, 1, false, None, |comm| {
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

/// The blocking side of the same contract: a blocking rank's split
/// fence never reports `false` while the rank holds a permit. If it did,
/// this poll loop would keep the only permit and the three ranks it
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
            // The two halves apart: arrive twice, then test both.
            let (f0, f1) = (c.fence_arrive(), c.fence_arrive());
            assert!(f1 > f0);
            while !c.fence_try(f1) {}
            assert!(c.fence_try(f0), "an earlier fence completed first");
            c.rank()
        });
        let _ = done_tx.send(res.outputs);
    });
    let outputs = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("gated ranks polling the split fence livelocked");
    assert_eq!(outputs, vec![0, 1, 2, 3]);
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
        exec_run_tasks(8, 2, false, None, |comm| {
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
