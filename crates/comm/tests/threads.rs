//! Thread-per-rank: the executor's blocking hosting with a permit for
//! every rank ([`thread_run`]) — real threads, real gets, real barriers.

use srumma_comm::{thread_run, Comm, DistMatrix};
use srumma_dense::{Matrix, Op, Operand};
use srumma_model::ProcGrid;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn ranks_run_in_parallel_and_return() {
    let res = thread_run(4, |c| c.rank() * 10);
    assert_eq!(res.outputs, vec![0, 10, 20, 30]);
}

#[test]
fn get_copies_real_blocks() {
    let grid = ProcGrid::new(2, 2);
    let mat = DistMatrix::create(grid, 8, 8);
    let global = Matrix::random(8, 8, 3);
    mat.scatter(&global);
    let res = thread_run(4, |c| {
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
fn send_recv_and_ring_shift() {
    let res = thread_run(4, |c| {
        let n = c.nranks();
        let right = (c.rank() + 1) % n;
        let left = (c.rank() + n - 1) % n;
        let mut buf = Vec::new();
        c.sendrecv(right, 1, &[c.rank() as f64], 8, left, &mut buf, 8);
        buf[0] as usize
    });
    assert_eq!(res.outputs, vec![3, 0, 1, 2]);
}

#[test]
fn barrier_synchronizes() {
    let counter = AtomicUsize::new(0);
    thread_run(8, |c| {
        counter.fetch_add(1, Ordering::SeqCst);
        c.barrier();
        // After the barrier every increment must be visible.
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    });
}

#[test]
fn gemm_accumulates_into_c() {
    let res = thread_run(1, |c| {
        let a = Matrix::identity(4);
        let b = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut cm = Matrix::from_fn(4, 4, |_, _| 1.0);
        c.gemm(
            4,
            4,
            4,
            1.0,
            Some(Operand::Plain(a.as_ref(), Op::N)),
            Some(Operand::Plain(b.as_ref(), Op::N)),
            1.0,
            Some(cm.as_mut()),
            true,
            "t",
        );
        cm
    });
    let got = &res.outputs[0];
    assert_eq!(got[(2, 3)], 1.0 + 5.0);
}

/// With `β = 0` the gemm writes C without reading it: a C of NaN comes
/// back holding the product alone.
#[test]
fn gemm_with_beta_zero_writes_c() {
    let res = thread_run(1, |c| {
        let a = Matrix::identity(4);
        let b = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut cm = Matrix::from_fn(4, 4, |_, _| f64::NAN);
        c.gemm(
            4,
            4,
            4,
            1.0,
            Some(Operand::Plain(a.as_ref(), Op::N)),
            Some(Operand::Plain(b.as_ref(), Op::N)),
            0.0,
            Some(cm.as_mut()),
            true,
            "t",
        );
        cm
    });
    assert_eq!(res.outputs[0], Matrix::from_fn(4, 4, |i, j| (i + j) as f64));
}

#[test]
#[should_panic(expected = "tag mismatch")]
fn tag_mismatch_is_detected() {
    thread_run(2, |c| {
        if c.rank() == 0 {
            c.send(1, 5, &[1.0], 8);
        } else {
            let mut buf = Vec::new();
            c.recv(0, 6, &mut buf, 8);
        }
    });
}

/// A permit for every rank means every rank runs at once: ranks that
/// spin outside `Comm` until all of them have arrived must finish. With
/// fewer permits than ranks this hangs, so the run sits on a helper
/// thread with a deadline.
#[test]
fn every_rank_runs_at_once() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let arrived = AtomicUsize::new(0);
        let res = thread_run(8, |c| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 8 {
                std::thread::yield_now();
            }
            c.rank()
        });
        let _ = done_tx.send(res.outputs);
    });
    let outputs = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("thread_run held a rank back: fewer permits than ranks");
    assert_eq!(outputs, (0..8).collect::<Vec<_>>());
}
