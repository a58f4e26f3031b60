//! End-to-end numeric verification: every algorithm × every transpose
//! case × square and rectangular shapes × both backends, checked
//! against the serial kernel.

use srumma_comm::{exec_run_tasks, DistMatrix, ProgramTask};
use srumma_core::driver::{multiply_threads, serial_reference};
use srumma_core::{
    Algorithm, Backend, GemmProgram, GemmSpec, Run, ShmemFlavor, SrummaOptions, SummaOptions,
};
use srumma_dense::{max_abs_diff, Matrix, Op};
use srumma_model::Machine;
use srumma_sim::RunStats;

/// Poll `alg`'s program of each of 4 ranks on `workers` executor
/// workers, over matrices laid out by hand.
fn poll_gemm(workers: usize, alg: &Algorithm, spec: &GemmSpec, mats: [&DistMatrix; 3]) {
    let [a, b, c] = mats;
    exec_run_tasks(4, workers, false, None, None, |comm| {
        Box::new(ProgramTask::new(comm, GemmProgram::new(alg, spec, a, b, c)))
    });
}

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

fn check_sim(machine: &Machine, nranks: usize, alg: &Algorithm, spec: &GemmSpec, seed: u64) {
    let a = Matrix::random(spec.m, spec.k, seed);
    let b = Matrix::random(spec.k, spec.n, seed + 1);
    let (c, _stats) = multiply_verified(machine, nranks, alg, spec, &a, &b);
    let expect = serial_reference(spec, &a, &b);
    let err = max_abs_diff(&c, &expect);
    assert!(
        err < 1e-9,
        "{} {:?} on {:?} x{nranks}: err {err}",
        alg.name(),
        spec,
        machine.platform
    );
}

#[test]
fn srumma_all_transpose_cases_square() {
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, 48, 48, 48);
            check_sim(&machine, 8, &Algorithm::srumma_default(), &spec, 11);
        }
    }
}

#[test]
fn srumma_rectangular_cases() {
    let machine = Machine::linux_myrinet();
    for (m, n, k) in [(40, 40, 10), (10, 10, 20), (33, 17, 25), (5, 64, 32)] {
        for ta in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, Op::N, m, n, k);
            check_sim(&machine, 6, &Algorithm::srumma_default(), &spec, 21);
        }
    }
}

#[test]
fn srumma_on_all_four_platforms() {
    let spec = GemmSpec::square(36);
    for machine in [
        Machine::linux_myrinet(),
        Machine::ibm_sp(),
        Machine::cray_x1(),
        Machine::sgi_altix(),
    ] {
        check_sim(&machine, 9, &Algorithm::srumma_default(), &spec, 31);
    }
}

#[test]
fn srumma_all_option_combinations() {
    let machine = Machine::ibm_sp();
    let spec = GemmSpec::square(32);
    for smp_first in [false, true] {
        for diagonal_shift in [false, true] {
            for prefetch_depth in [0, 1] {
                for shmem in [
                    ShmemFlavor::Auto,
                    ShmemFlavor::ForceCopy,
                    ShmemFlavor::ForceDirect,
                ] {
                    let alg = Algorithm::Srumma(SrummaOptions {
                        smp_first,
                        diagonal_shift,
                        prefetch_depth,
                        shmem,
                    });
                    check_sim(&machine, 8, &alg, &spec, 41);
                }
            }
        }
    }
}

#[test]
fn summa_all_transpose_cases() {
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        for tb in [Op::N, Op::T] {
            let spec = GemmSpec::new(ta, tb, 30, 24, 36);
            check_sim(&machine, 6, &Algorithm::summa_default(), &spec, 51);
        }
    }
}

#[test]
fn summa_with_narrow_panels() {
    let machine = Machine::sgi_altix();
    let spec = GemmSpec::square(40);
    for nb in [1, 3, 8, 64] {
        let alg = Algorithm::Summa(SummaOptions {
            panel_nb: Some(nb),
            ..Default::default()
        });
        check_sim(&machine, 4, &alg, &spec, 61);
    }
}

#[test]
fn cannon_square_grids() {
    let machine = Machine::linux_myrinet();
    for (nranks, n) in [(4, 32), (9, 27), (16, 40)] {
        let spec = GemmSpec::square(n);
        check_sim(&machine, nranks, &Algorithm::Cannon, &spec, 71);
    }
}

#[test]
fn cannon_uneven_blocks() {
    // n not divisible by the grid edge: blocks differ in size by one.
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(37);
    check_sim(&machine, 9, &Algorithm::Cannon, &spec, 81);
}

#[test]
fn all_algorithms_agree_on_threads() {
    let spec = GemmSpec::square(48);
    let a = Matrix::random(48, 48, 91);
    let b = Matrix::random(48, 48, 92);
    let expect = serial_reference(&spec, &a, &b);
    for alg in [
        Algorithm::srumma_default(),
        Algorithm::summa_default(),
        Algorithm::Cannon,
    ] {
        let (c, _secs) = multiply_threads(4, &alg, &spec, &a, &b);
        let err = max_abs_diff(&c, &expect);
        assert!(err < 1e-9, "{} on threads: err {err}", alg.name());
    }
}

#[test]
fn thread_backend_transposes_and_rectangles() {
    for (ta, tb, m, n, k) in [
        (Op::T, Op::N, 24, 30, 18),
        (Op::N, Op::T, 17, 23, 29),
        (Op::T, Op::T, 31, 19, 23),
    ] {
        let spec = GemmSpec::new(ta, tb, m, n, k);
        let a = Matrix::random(m, k, 101);
        let b = Matrix::random(k, n, 102);
        let expect = serial_reference(&spec, &a, &b);
        let (c, _) = multiply_threads(6, &Algorithm::srumma_default(), &spec, &a, &b);
        assert!(max_abs_diff(&c, &expect) < 1e-9, "{}", spec.case_label());
    }
}

#[test]
fn single_rank_degenerates_to_serial() {
    let machine = Machine::sgi_altix();
    let spec = GemmSpec::square(20);
    check_sim(&machine, 1, &Algorithm::srumma_default(), &spec, 111);
}

#[test]
fn nonsquare_grid_128_style() {
    // p=2, q=4 grid exercises the mismatched k-panel merge (the shape
    // of the paper's 128-CPU runs, which use an 8x16 grid).
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(41);
    check_sim(&machine, 8, &Algorithm::srumma_default(), &spec, 121);
    check_sim(&machine, 8, &Algorithm::summa_default(), &spec, 122);
}

#[test]
fn repeated_runs_are_deterministic_in_time() {
    let machine = Machine::ibm_sp();
    let spec = GemmSpec::square(32);
    let a = Matrix::random(32, 32, 1);
    let b = Matrix::random(32, 32, 2);
    let (_, s1) = multiply_verified(&machine, 8, &Algorithm::srumma_default(), &spec, &a, &b);
    let (_, s2) = multiply_verified(&machine, 8, &Algorithm::srumma_default(), &spec, &a, &b);
    assert_eq!(s1.makespan, s2.makespan);
    assert_eq!(s1.final_times, s2.final_times);
}

#[test]
fn pblas_alpha_beta_semantics() {
    // C ← α·op(A)op(B) + β·C with a nonzero starting C, all algorithms.
    let n = 36;
    let a = Matrix::random(n, n, 201);
    let b = Matrix::random(n, n, 202);
    let c0 = Matrix::random(n, n, 203);
    let (alpha, beta) = (2.5, -0.5);
    let spec = GemmSpec::square(n).with_scalars(alpha, beta);

    // Reference: alpha*A*B + beta*C0 via the serial kernel.
    let mut expect = c0.clone();
    srumma_dense::dgemm(
        Op::N,
        Op::N,
        alpha,
        a.as_ref(),
        b.as_ref(),
        beta,
        expect.as_mut(),
    );

    for alg in [
        Algorithm::srumma_default(),
        Algorithm::summa_default(),
        Algorithm::Cannon,
    ] {
        // Drive the layout by hand so C can be pre-loaded.
        let grid = srumma_core::driver::default_grid(4);
        let da = srumma_core::layout::dist_a(&spec, grid, true);
        let db = srumma_core::layout::dist_b(&spec, grid, true);
        let dc = srumma_core::layout::dist_c(&spec, grid, true);
        srumma_core::layout::scatter_operands(&spec, &da, &db, &a, &b);
        dc.scatter(&c0);
        poll_gemm(4, &alg, &spec, [&da, &db, &dc]);
        let got = dc.gather();
        let err = max_abs_diff(&got, &expect);
        assert!(err < 1e-9, "{} alpha/beta: err {err}", alg.name());
    }
}

/// The drivers normalise β to 0 for a C they created themselves
/// (`layout::fresh_c`); that must never reach a C the caller supplied.
/// Every algorithm polled on a worker per rank and on 2 workers, and
/// SRUMMA's own program polled bare, still accumulates onto a scattered
/// C with the caller's β.
#[test]
fn caller_supplied_c_keeps_its_beta_on_every_backend() {
    use srumma_core::srumma::SrummaProgram;
    let n = 24;
    let a = Matrix::random(n, n, 211);
    let b = Matrix::random(n, n, 212);
    let c0 = Matrix::random(n, n, 213);
    let grid = srumma_core::driver::default_grid(4);
    for beta in [1.0, 0.5, 0.0] {
        let spec = GemmSpec::square(n).with_scalars(1.5, beta);
        let mut expect = c0.clone();
        srumma_dense::dgemm(
            Op::N,
            Op::N,
            spec.alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            expect.as_mut(),
        );
        let da = srumma_core::layout::dist_a(&spec, grid, true);
        let db = srumma_core::layout::dist_b(&spec, grid, true);
        let dc = srumma_core::layout::dist_c(&spec, grid, true);
        srumma_core::layout::scatter_operands(&spec, &da, &db, &a, &b);
        let check = |what: &str| {
            let err = max_abs_diff(&dc.gather(), &expect);
            assert!(err < 1e-9, "{what} beta={beta}: err {err}");
        };
        for alg in [
            Algorithm::srumma_default(),
            Algorithm::summa_default(),
            Algorithm::Cannon,
        ] {
            for workers in [4, 2] {
                dc.scatter(&c0);
                poll_gemm(workers, &alg, &spec, [&da, &db, &dc]);
                check(&format!("{} on {workers} workers", alg.name()));
            }
        }
        dc.scatter(&c0);
        let opts = SrummaOptions::default();
        exec_run_tasks(4, 2, false, None, None, |comm| {
            let program = SrummaProgram::new(&spec, &da, &db, &dc, &opts, None);
            Box::new(ProgramTask::new(comm, program))
        });
        check("srumma on exec_run_tasks");
    }
}

#[test]
fn beta_zero_overwrites_stale_c() {
    let n = 24;
    let spec = GemmSpec::square(n).with_scalars(1.0, 0.0);
    let a = Matrix::random(n, n, 301);
    let b = Matrix::random(n, n, 302);
    let garbage = Matrix::from_fn(n, n, |_, _| 1e300);

    let grid = srumma_core::driver::default_grid(4);
    let da = srumma_core::layout::dist_a(&spec, grid, true);
    let db = srumma_core::layout::dist_b(&spec, grid, true);
    let dc = srumma_core::layout::dist_c(&spec, grid, true);
    srumma_core::layout::scatter_operands(&spec, &da, &db, &a, &b);
    dc.scatter(&garbage);
    poll_gemm(4, &Algorithm::srumma_default(), &spec, [&da, &db, &dc]);
    let got = dc.gather();
    let expect = serial_reference(&GemmSpec::square(n), &a, &b);
    assert!(max_abs_diff(&got, &expect) < 1e-9);
}

#[test]
fn summa_ring_broadcast_variant() {
    // The DIMMA-style ring schedule must be numerically identical.
    use srumma_core::summa::BcastKind;
    let machine = Machine::linux_myrinet();
    for ta in [Op::N, Op::T] {
        let spec = GemmSpec::new(ta, Op::N, 30, 24, 36);
        let alg = Algorithm::Summa(SummaOptions {
            panel_nb: None,
            bcast: BcastKind::Ring,
        });
        check_sim(&machine, 6, &alg, &spec, 401);
    }
}

#[test]
fn deep_prefetch_pipelines_are_correct() {
    // prefetch_depth > 1 (extension): more buffers, same numerics.
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(40);
    for depth in [1usize, 2, 3, 5] {
        let alg = Algorithm::Srumma(SrummaOptions {
            prefetch_depth: depth,
            ..Default::default()
        });
        check_sim(&machine, 8, &alg, &spec, 500 + depth as u64);
    }
}
