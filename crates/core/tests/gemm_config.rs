//! End-to-end `GemmConfig` plumbing: an explicit kernel configuration
//! handed to `SrummaOptions::with_gemm` must reach every backend's
//! workspace via `Comm::configure_gemm` and change nothing about the
//! numerics — the config only selects *how* the same multiply is
//! computed.

use srumma_core::driver::{multiply_exec, multiply_threads, serial_reference};
use srumma_core::{Algorithm, GemmSpec, SrummaOptions};
use srumma_dense::kernel::Microkernel;
use srumma_dense::{max_abs_diff, GemmConfig, Matrix};

fn expected(spec: &GemmSpec, a: &Matrix, b: &Matrix) -> Matrix {
    let mut e = serial_reference(spec, a, b);
    for i in 0..spec.m {
        for j in 0..spec.n {
            e[(i, j)] *= spec.alpha;
        }
    }
    e
}

fn configs() -> Vec<(&'static str, GemmConfig)> {
    let mut cfgs = vec![(
        "pinned-scalar",
        GemmConfig {
            kernel: Some(Microkernel::Scalar),
            ..Default::default()
        },
    )];
    // Every SIMD kernel the host can run, pinned explicitly — the
    // plumbing must carry any of them, not just the dispatch favorite.
    for &k in Microkernel::all() {
        if k != Microkernel::Scalar && k.available() {
            cfgs.push((
                k.env_name(),
                GemmConfig {
                    kernel: Some(k),
                    ..Default::default()
                },
            ));
        }
    }
    cfgs
}

#[test]
fn with_gemm_configs_reach_the_thread_backend() {
    let spec = GemmSpec::square(72);
    let a = Matrix::random(spec.m, spec.k, 31);
    let b = Matrix::random(spec.k, spec.n, 32);
    let want = expected(&spec, &a, &b);
    for (name, cfg) in configs() {
        let opts = SrummaOptions::default().with_gemm(cfg);
        let (c, _) = multiply_threads(4, &Algorithm::Srumma(opts), &spec, &a, &b);
        let err = max_abs_diff(&c, &want);
        assert!(err < 1e-9, "threads config {name}: err {err}");
    }
}

#[test]
fn with_gemm_configs_reach_the_executor_backend() {
    let spec = GemmSpec::square(72);
    let a = Matrix::random(spec.m, spec.k, 33);
    let b = Matrix::random(spec.k, spec.n, 34);
    let want = expected(&spec, &a, &b);
    for (name, cfg) in configs() {
        let opts = SrummaOptions::default().with_gemm(cfg);
        let (c, _res) = multiply_exec(4, 2, &Algorithm::Srumma(opts), &spec, &a, &b);
        let err = max_abs_diff(&c, &want);
        assert!(err < 1e-9, "exec config {name}: err {err}");
    }
}
