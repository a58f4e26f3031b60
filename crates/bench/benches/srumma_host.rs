//! Bench: SRUMMA on the executor with a worker per rank — the
//! shared-memory flavor running on today's hardware. Measures the wall-clock of the full
//! parallel multiply at several rank counts (expect speedup over 1 rank
//! while the host has cores to give) and compares the three algorithms
//! at a fixed configuration. Plain wall-clock harness
//! (`harness = false`).

use srumma_bench::timing::{bench_case, keep};
use srumma_core::driver::multiply_exec;
use srumma_core::{Algorithm, GemmSpec};
use srumma_dense::Matrix;

fn bench_scaling() {
    let n = 256usize;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let flops = (2 * n * n * n) as u64;
    for nranks in [1usize, 2, 4] {
        bench_case(&format!("srumma_host/rank_scaling/{nranks}"), flops, || {
            keep(multiply_exec(
                nranks,
                nranks,
                &Algorithm::srumma_default(),
                &spec,
                &a,
                &b,
            ));
        });
    }
}

fn bench_algorithms() {
    let n = 256usize;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let flops = (2 * n * n * n) as u64;
    for (alg, name) in [
        (Algorithm::srumma_default(), "srumma"),
        (Algorithm::summa_default(), "summa"),
        (Algorithm::Cannon, "cannon"),
    ] {
        bench_case(
            &format!("srumma_host/algorithms_4ranks/{name}"),
            flops,
            || {
                keep(multiply_exec(4, 4, &alg, &spec, &a, &b));
            },
        );
    }
}

fn main() {
    bench_scaling();
    bench_algorithms();
}
