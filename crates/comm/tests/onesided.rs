//! Integration tests for the one-sided operations (put, accumulate,
//! fence) on both backends — the rest of the ARMCI surface the paper's
//! library exposes (SRUMMA itself only needs get, but `ga_dgemm`'s
//! siblings in Global Arrays use all of them).

use srumma_comm::{sim_run, thread_run, virtual_run, Comm, DistMatrix, Landing, SimOptions};
use srumma_dense::{MatRef, Matrix};
use srumma_model::{Machine, ProcGrid};

#[test]
fn put_moves_data_between_ranks_under_simulation() {
    let grid = ProcGrid::new(2, 2);
    let mat = DistMatrix::create(grid, 8, 8);
    let res = sim_run(&SimOptions::new(Machine::linux_myrinet(), 4), |c| {
        // Rank 0 puts a recognizable pattern into rank 3's block.
        if c.rank() == 0 {
            let (r, k) = mat.block_dims(3);
            let payload: Vec<f64> = (0..r * k).map(|i| i as f64).collect();
            c.put(&mat, 3, &payload);
        }
        c.barrier();
        // Everyone reads rank 3's block back.
        let mut buf = Vec::new();
        c.get(&mat, 3, &mut buf);
        buf[5]
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
    let res = sim_run(&SimOptions::new(Machine::linux_myrinet(), 4), |c| {
        if c.rank() == 0 {
            let t0 = c.now();
            let _h = c.nbput(&mat, 2, &[]);
            let issued = c.now() - t0; // nonblocking: returns fast
            c.fence(); // must cover the outstanding put
            let fenced = c.now() - t0;
            (issued, fenced)
        } else {
            (0.0, 0.0)
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
    let res = sim_run(&SimOptions::new(Machine::linux_myrinet(), 2), |c| {
        if c.rank() == 0 {
            c.acc(&mat, 1, 1.0, None);
        }
        c.barrier();
        c.now()
    });
    // The accumulate handler ran on rank 1's CPU: stolen time recorded.
    assert!(
        res.stats.ranks[1].stolen_cpu_time > 0.0,
        "accumulate must charge the target CPU"
    );
}

#[test]
fn fence_with_nothing_outstanding_is_free() {
    let res = sim_run(&SimOptions::new(Machine::sgi_altix(), 2), |c| {
        let t0 = c.now();
        c.fence();
        c.now() - t0
    });
    for v in res.outputs {
        assert_eq!(v, 0.0);
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
        virtual_run(&machine, 4, 2, |c| {
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
