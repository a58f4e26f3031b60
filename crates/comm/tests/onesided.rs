//! Integration tests for the one-sided operations (put, accumulate,
//! fence) on both backends — the rest of the ARMCI surface the paper's
//! library exposes (SRUMMA itself only needs get, but `ga_dgemm`'s
//! siblings in Global Arrays use all of them).

use srumma_comm::{
    sim_run_steps, thread_run, virtual_run, Comm, DistMatrix, Landing, SimOptions, Step,
};
use srumma_dense::{MatRef, Matrix};
use srumma_model::{Machine, ProcGrid};

#[test]
fn put_moves_data_between_ranks_under_simulation() {
    let grid = ProcGrid::new(2, 2);
    let mat = DistMatrix::create(grid, 8, 8);
    let res = sim_run_steps(&SimOptions::new(Machine::linux_myrinet(), 4), |c, i| {
        // Rank 0 puts a recognizable pattern into rank 3's block.
        if c.rank() == 0 && i == 0 {
            let (r, k) = mat.block_dims(3);
            let payload: Vec<f64> = (0..r * k).map(|i| i as f64).collect();
            c.put(&mat, 3, &payload);
        }
        if !c.barrier_try() {
            return Step::Park;
        }
        // Everyone reads rank 3's block back.
        let mut buf = Vec::new();
        c.get(&mat, 3, &mut buf);
        Step::Done(buf[5])
    });
    for v in res.outputs {
        assert_eq!(v, 5.0);
    }
}

#[test]
fn nbput_with_fence_completes_in_time_order() {
    // Target on a *different* node, so the put rides the zero-copy RMA
    // path (an intra-node put is a synchronous memcpy by design).
    let grid = ProcGrid::new(2, 2);
    let mat = DistMatrix::create_virtual(grid, 512, 512);
    // Each step reads the clock the last one left at its top.
    let mut issued = 0.0;
    let res = sim_run_steps(&SimOptions::new(Machine::linux_myrinet(), 4), |c, i| {
        if c.rank() != 0 {
            return Step::Done((0.0, 0.0));
        }
        match i {
            0 => {
                let _h = c.nbput(&mat, 2, &[]);
                Step::Yield
            }
            1 => {
                issued = c.now(); // nonblocking: returns fast
                c.fence(); // must cover the outstanding put
                Step::Yield
            }
            _ => Step::Done((issued, c.now())),
        }
    });
    let (issued, fenced) = res.outputs[0];
    assert!(issued < 1e-4, "nbput blocked for {issued}s");
    // The put moves a 256x256 block over Myrinet: fence must wait it.
    assert!(fenced > 1e-3, "fence returned too early: {fenced}");
}

#[test]
fn accumulate_sums_contributions_from_all_ranks() {
    // A Global-Arrays-style assembly: every rank accumulates its
    // contribution into rank 0's block. ARMCI accumulates are atomic
    // per call; here ranks run at distinct virtual times and the
    // thread backend serializes via the write guard.
    let grid = ProcGrid::new(1, 2);
    let mat = DistMatrix::create(grid, 2, 4);
    let (r, k) = mat.block_dims(0);
    let res = thread_run(2, |c| {
        let contribution: Vec<f64> = vec![(c.rank() + 1) as f64; r * k];
        // Serialize accumulates with a crude barrier-ordered protocol.
        if c.rank() == 0 {
            c.acc(&mat, 0, 1.0, Some(MatRef::new(r, k, k, &contribution)));
        }
        c.barrier();
        if c.rank() == 1 {
            c.acc(&mat, 0, 2.0, Some(MatRef::new(r, k, k, &contribution)));
        }
        c.barrier();
        let mut buf = Vec::new();
        c.get(&mat, 0, &mut buf);
        buf[0]
    });
    // 1*1 + 2*2 = 5 in every element.
    for v in res.outputs {
        assert_eq!(v, 5.0);
    }
}

#[test]
fn acc_steals_target_cpu_under_simulation() {
    let grid = ProcGrid::new(1, 2);
    let mat = DistMatrix::create_virtual(grid, 4000, 4000);
    let res = sim_run_steps(&SimOptions::new(Machine::linux_myrinet(), 2), |c, i| {
        if c.rank() == 0 && i == 0 {
            c.acc(&mat, 1, 1.0, None);
        }
        match c.barrier_try() {
            true => Step::Done(()),
            false => Step::Park,
        }
    });
    // The accumulate handler ran on rank 1's CPU: stolen time recorded.
    assert!(
        res.stats.ranks[1].stolen_cpu_time > 0.0,
        "accumulate must charge the target CPU"
    );
}

#[test]
fn fence_with_nothing_outstanding_is_free() {
    let res = sim_run_steps(&SimOptions::new(Machine::sgi_altix(), 2), |c, _| {
        c.fence();
        Step::Done(())
    });
    for t in res.stats.final_times {
        assert_eq!(t, 0.0);
    }
}

#[test]
fn put_then_get_roundtrip_on_threads() {
    let grid = ProcGrid::new(2, 1);
    let mat = DistMatrix::create(grid, 6, 3);
    let expect = Matrix::random(3, 3, 7);
    let res = thread_run(2, |c| {
        if c.rank() == 1 {
            c.put(&mat, 0, expect.as_slice());
        }
        c.barrier();
        let mut buf = Vec::new();
        c.get(&mat, 0, &mut buf);
        buf
    });
    for out in res.outputs {
        assert_eq!(out, expect.as_slice());
    }
}

/// `fence` over gets some of which were waited gives the clock, to
/// the bit, that waiting on every handle in issue order gives.
#[test]
fn fence_after_partial_waits_is_waiting_on_every_handle() {
    let machine = Machine::linux_myrinet();
    let mat = DistMatrix::create_virtual(ProcGrid::new(2, 2), 300, 200);
    let run = |fence: bool| {
        virtual_run(&machine, 4, 2, |c, _: &mut ()| {
            let mut buf = Vec::new();
            let mut handles = Vec::new();
            for owner in [(c.rank() + 2) % 4, c.rank(), (c.rank() + 1) % 4] {
                handles.push(c.nbget(&mat, owner, Landing::Rows(&mut buf)));
            }
            c.gemm(32, 32, 32, 1.0, None, None, 1.0, None, false, "t");
            handles.push(c.nbget(&mat, 3 - c.rank(), Landing::Rows(&mut buf)));
            let issued = c.now();
            if fence {
                c.wait(handles.swap_remove(1));
                c.fence();
            } else {
                handles.into_iter().for_each(|h| c.wait(h));
            }
            (issued.to_bits(), c.now().to_bits())
        })
    };
    let (fenced, waited) = (run(true), run(false));
    assert_eq!(fenced.outputs, waited.outputs);
    assert!(fenced
        .outputs
        .iter()
        .all(|&(i, d)| f64::from_bits(d) > f64::from_bits(i)));
    assert_eq!(
        fenced.stats.makespan.to_bits(),
        waited.stats.makespan.to_bits()
    );
}

/// A rank's final clock counts its barrier waits. Rank 0 runs 64³ then
/// 640³, rank 1 320³ then 64³, one barrier between: rank 0 waits there
/// for rank 1's 320³, so both leave it at that time plus the barrier
/// latency, each final clock is that plus its own second gemm, and the
/// largest is the makespan, bit for bit.
#[test]
fn a_final_clock_counts_its_barrier_waits() {
    let machine = Machine::linux_myrinet();
    let latency = virtual_run(&machine, 2, 2, |c, _: &mut ()| c.barrier());
    let res = virtual_run(&machine, 2, 2, |c, _: &mut ()| {
        let (first, second) = if c.rank() == 0 { (64, 640) } else { (320, 64) };
        c.gemm(first, first, first, 1.0, None, None, 1.0, None, false, "t");
        c.barrier();
        c.gemm(
            second, second, second, 1.0, None, None, 1.0, None, false, "t",
        );
    });
    let t = |n| machine.cpu.gemm_time(n, n, n);
    let released = latency.stats.makespan + t(320);
    assert_eq!(res.stats.final_times, [released + t(640), released + t(64)]);
    let slowest = res.stats.final_times.iter().copied().fold(0.0, f64::max);
    assert_eq!(slowest.to_bits(), res.stats.makespan.to_bits());
}
