//! Degenerate-shape integration tests: more ranks than rows/columns,
//! empty blocks, 1-wide dimensions. These configurations produced the
//! empty-block regression fixed in `srumma-dense` (a rank whose C block
//! is empty still sweeps A/B panels).

use srumma_comm::Comm;
use srumma_core::driver::{multiply_threads, serial_reference};
use srumma_core::{Algorithm, Backend, GemmSpec, Run};
use srumma_dense::{max_abs_diff, Matrix, Op};
use srumma_model::Machine;
use srumma_sim::RunStats;

/// Real data under the simulated `machine`: `(C, stats)`.
fn multiply_verified(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, RunStats) {
    let out = Run {
        operands: Some((a, b)),
        ..Run::new(*spec, nranks, *alg, Backend::Sim(machine))
    }
    .execute()
    .unwrap();
    (out.c.unwrap(), out.stats)
}

fn check_threads(m: usize, n: usize, k: usize, nranks: usize) {
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, m, n, k);
            let a = Matrix::random(m, k, 5);
            let b = Matrix::random(k, n, 6);
            let expect = serial_reference(&spec, &a, &b);
            for alg in [Algorithm::srumma_default(), Algorithm::summa_default()] {
                let (c, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
                assert!(
                    max_abs_diff(&c, &expect) < 1e-9,
                    "{} {} {m}x{n}x{k} x{nranks}",
                    alg.name(),
                    spec.case_label()
                );
            }
        }
    }
}

#[test]
fn more_grid_rows_than_matrix_rows() {
    // 8 ranks -> 2x4 grid; m = 1 leaves grid row 1 with empty C blocks.
    check_threads(1, 10, 10, 8);
}

#[test]
fn more_grid_cols_than_matrix_cols() {
    check_threads(10, 2, 10, 8);
}

#[test]
fn k_smaller_than_panel_count() {
    // k = 2 split over q = 4 panels: half the panels are empty.
    check_threads(9, 9, 2, 8);
}

#[test]
fn everything_tiny() {
    check_threads(1, 1, 1, 6);
    check_threads(2, 2, 2, 6);
}

#[test]
fn k_zero_is_a_scaled_copy_of_c() {
    // k = 0: the product contributes nothing; C ← β·C must still work
    // through the whole distributed machinery (empty A/B panels, no
    // kernel calls) on both backends.
    check_threads(6, 5, 0, 4);
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::new(Op::N, Op::N, 6, 5, 0);
    let a = Matrix::random(6, 0, 5);
    let b = Matrix::random(0, 5, 6);
    let expect = serial_reference(&spec, &a, &b);
    for alg in [Algorithm::srumma_default(), Algorithm::summa_default()] {
        let (c, _) = multiply_verified(&machine, 4, &alg, &spec, &a, &b);
        assert!(max_abs_diff(&c, &expect) < 1e-9, "{} k=0", alg.name());
    }
}

#[test]
fn degenerate_shapes_under_the_simulator() {
    let machine = Machine::linux_myrinet();
    for (m, n, k) in [(1, 12, 12), (12, 1, 12), (12, 12, 1), (3, 3, 17)] {
        let spec = GemmSpec::new(Op::N, Op::N, m, n, k);
        let a = Matrix::random(m, k, 1);
        let b = Matrix::random(k, n, 2);
        let expect = serial_reference(&spec, &a, &b);
        for alg in [Algorithm::srumma_default(), Algorithm::summa_default()] {
            let (c, _) = multiply_verified(&machine, 8, &alg, &spec, &a, &b);
            assert!(
                max_abs_diff(&c, &expect) < 1e-9,
                "{} {m}x{n}x{k}",
                alg.name()
            );
        }
    }
}

#[test]
fn panicking_rank_does_not_hang_the_run() {
    // The poison-barrier regression test: a panic in one rank must
    // propagate, not deadlock the others in the closing barrier.
    let result = std::panic::catch_unwind(|| {
        srumma_comm::thread_run(4, |c| {
            if c.rank() == 2 {
                panic!("injected rank failure");
            }
            c.barrier();
        })
    });
    assert!(result.is_err(), "panic must propagate out of thread_run");
}
