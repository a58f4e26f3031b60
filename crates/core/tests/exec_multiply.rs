//! Executor-backend multiplies: the same algorithms, numerically
//! identical results, with ranks multiplexed onto a small worker pool.
//! SRUMMA runs as polled state machines; SUMMA and Cannon run their
//! unmodified blocking code on permit-gated threads.

use srumma_core::driver::{
    multiply_exec, multiply_exec_traced, multiply_threads, serial_reference,
};
use srumma_core::{Algorithm, Backend, GemmSpec, Run, ShmemFlavor, SrummaOptions};
use srumma_dense::{max_abs_diff, Matrix, Op};

fn check_exec(alg: &Algorithm, spec: &GemmSpec, nranks: usize, workers: usize) {
    let a = Matrix::random(spec.m, spec.k, 11);
    let b = Matrix::random(spec.k, spec.n, 12);
    // C starts zero, so beta scales zeros away: expect alpha·A·B.
    let mut expect = serial_reference(spec, &a, &b);
    for i in 0..spec.m {
        for j in 0..spec.n {
            expect[(i, j)] *= spec.alpha;
        }
    }
    let (c, res) = multiply_exec(nranks, workers, alg, spec, &a, &b);
    assert!(
        max_abs_diff(&c, &expect) < 1e-9,
        "{} {} x{nranks} on {workers} workers",
        alg.name(),
        spec.case_label()
    );
    assert!(
        res.stats.exec.is_some(),
        "executor runs must carry ExecStats"
    );
}

#[test]
fn srumma_fsm_matches_serial_across_worker_counts() {
    let spec = GemmSpec::square(48);
    for nranks in [4, 9] {
        for workers in [1, 2, 4] {
            check_exec(&Algorithm::srumma_default(), &spec, nranks, workers);
        }
    }
}

#[test]
fn srumma_fsm_handles_transposes_scalars_and_options() {
    let spec = GemmSpec::new(Op::T, Op::N, 30, 24, 36).with_scalars(1.5, -0.5);
    let opts = SrummaOptions {
        prefetch_depth: 2,
        shmem: ShmemFlavor::ForceCopy,
        ..Default::default()
    };
    check_exec(&Algorithm::Srumma(opts), &spec, 6, 2);
}

#[test]
fn summa_gated_matches_serial() {
    check_exec(&Algorithm::summa_default(), &GemmSpec::square(40), 4, 2);
}

#[test]
fn cannon_gated_matches_serial() {
    // Cannon needs a square grid; its skew+shift phases block in
    // sendrecv, passing the permits on at every step.
    check_exec(&Algorithm::Cannon, &GemmSpec::square(36), 4, 2);
}

#[test]
fn heavy_oversubscription_completes_and_matches() {
    // 64 logical ranks on 2 workers: far beyond any sane thread count,
    // trivially sized so the test stays fast.
    let spec = GemmSpec::square(64);
    check_exec(&Algorithm::srumma_default(), &spec, 64, 2);
    check_exec(&Algorithm::summa_default(), &spec, 64, 2);
}

/// Scratch belongs to the worker that is running, fetched panels to the
/// rank. 35 ranks are a 5×7 grid: 11 merged k-segments per rank, more
/// than the 8 tasks of one poll (36 ranks would be 6×6 with 6), so
/// every rank yields mid-list with panels resident and may resume on
/// another worker. The result is the thread backend's, bit for bit.
/// Copied blocks land packed, so those tasks pack nothing and no
/// workspace grows; blocks passed directly are `Plain`, and the `T` B
/// packs, so the run grows one gemm workspace per worker that ran a
/// task — at least one, never one per rank.
#[test]
fn worker_owned_scratch_survives_yield_and_steal() {
    let (nranks, workers) = (35, 3);
    let spec = GemmSpec::new(Op::N, Op::T, 70, 84, 110).with_scalars(1.5, 1.0);
    let a = Matrix::random(spec.m, spec.k, 21);
    let b = Matrix::random(spec.k, spec.n, 22);
    for (shmem, grows) in [
        (ShmemFlavor::ForceCopy, 0..=0),
        (ShmemFlavor::ForceDirect, 1..=workers as u64),
    ] {
        let alg = Algorithm::Srumma(SrummaOptions {
            shmem,
            ..Default::default()
        });
        let (want, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let (got, res) = multiply_exec(nranks, workers, &alg, &spec, &a, &b);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "{shmem:?}");
        let exec = res.stats.exec.unwrap();
        // Polls per rank: 8 tasks and a yield; the last 3 and the barrier;
        // and, for a rank that found the barrier open when it checked, the
        // wake-up. `barrier_try` arrives and checks under two separate
        // locks, so the check passes at once not only for the last arriver
        // but for any rank whose arrival the last one overtook in between —
        // it has seen every arrival, so it may go on (seen under load as
        // `parks` of 33 and 32 with 70 other polls). A worker runs one rank
        // at a time, so at most `workers` ranks skip the third poll.
        assert!(
            exec.schedules() >= (3 * nranks - workers) as u64,
            "{shmem:?} {exec:?}"
        );
        assert!(grows.contains(&exec.ws_grows), "{shmem:?} {exec:?}");
    }
}

/// The other two ways a rank reaches a workspace: a blocking body
/// computes on its own thread (one workspace per rank, as before), and a
/// dead rank's machine — fetched panels and all — is finished by a
/// survivor on that survivor's worker, bitwise as if nobody had died.
#[test]
fn gated_and_reexecuted_ranks_compute_in_the_running_threads_scratch() {
    let spec = GemmSpec::square(40);
    let a = Matrix::random(spec.m, spec.k, 31);
    let b = Matrix::random(spec.k, spec.n, 32);
    let (c, res) = multiply_exec(4, 2, &Algorithm::summa_default(), &spec, &a, &b);
    assert!(max_abs_diff(&c, &serial_reference(&spec, &a, &b)) < 1e-9);
    assert!((1..=4).contains(&res.stats.exec.unwrap().ws_grows));

    // Copied blocks land packed and pack nothing; 40 is not whole
    // 8-row slivers, so blocks passed directly pack.
    for (shmem, grows) in [
        (ShmemFlavor::ForceCopy, 0..=0),
        (ShmemFlavor::ForceDirect, 1..=2),
    ] {
        let opts = SrummaOptions {
            shmem,
            ..Default::default()
        };
        let (healthy, _) = multiply_exec(9, 2, &Algorithm::Srumma(opts), &spec, &a, &b);
        let plan = srumma_comm::FaultPlan::healthy().with_death(4, 1);
        let res = Run {
            operands: Some((&a, &b)),
            faults: Some(&plan),
            ..Run::new(
                spec,
                9,
                Algorithm::Srumma(opts),
                Backend::Exec { workers: 2 },
            )
        }
        .execute()
        .unwrap();
        assert_eq!(max_abs_diff(&res.c.unwrap(), &healthy), 0.0, "{shmem:?}");
        assert!(res.stats.total_tasks_reexecuted() > 0, "{shmem:?}");
        let exec = res.stats.exec.unwrap();
        assert!(grows.contains(&exec.ws_grows), "{shmem:?} {exec:?}");
    }
}

#[test]
fn traced_exec_run_reports_scheduling_metrics() {
    let spec = GemmSpec::square(32);
    let a = Matrix::random(32, 32, 3);
    let b = Matrix::random(32, 32, 4);
    let (c, res) = multiply_exec_traced(16, 2, &Algorithm::srumma_default(), &spec, &a, &b);
    assert!(max_abs_diff(&c, &serial_reference(&spec, &a, &b)) < 1e-9);
    let exec = res.stats.exec.unwrap();
    assert_eq!(exec.workers, 2);
    assert!(exec.schedules() >= 16);
    assert!(exec.parks > 0, "closing barrier must park waiting ranks");
    assert!((0.0..=1.0).contains(&exec.occupancy()));
    // Per-rank counters still flow through the FSM path.
    let total_tasks: u64 = res.stats.ranks.iter().map(|r| r.tasks).sum();
    assert!(total_tasks > 0, "task counters must survive the FSM path");
    // The trace carries both algorithm spans and scheduler markers.
    assert!(!res.trace.is_empty());
}

#[test]
fn panicking_fsm_rank_does_not_hang_the_run() {
    // Executor mirror of the thread backend's poison-barrier test: a
    // rank task that panics mid-multiply must unwind the whole run
    // (parked peers included), not deadlock it.
    use srumma_comm::{exec_run_tasks, ExecComm, RankTask, Step};
    struct Bomb {
        comm: ExecComm,
        ticks: usize,
    }
    impl RankTask for Bomb {
        type Out = ();
        fn step(&mut self) -> Step<()> {
            use srumma_comm::Comm;
            if self.comm.rank() == 2 && self.ticks == 1 {
                panic!("injected rank failure");
            }
            self.ticks += 1;
            if self.ticks < 3 {
                return Step::Yield;
            }
            if self.comm.barrier_try() {
                Step::Done(())
            } else {
                Step::Park
            }
        }
    }
    let result = std::panic::catch_unwind(|| {
        exec_run_tasks(8, 2, false, None, None, |comm| {
            Box::new(Bomb { comm, ticks: 0 })
        })
    });
    assert!(
        result.is_err(),
        "panic must propagate out of exec_run_tasks"
    );
}
