//! Block-sparse SRUMMA: masked task generation across block density.
//!
//! A `BlockMask` on each operand declares whole distribution blocks
//! numerically zero; task generation prunes every `A_ik · B_kj`
//! product whose A or B block is masked *before* ordering, so the
//! surviving schedule issues no gets, no packing and no kernel calls
//! for dead blocks. With nested random masks (the mask at density d1
//! is a subset of the mask at d2 ≥ d1 by construction) the work is
//! monotone in density, so wall-clock should be too.
//!
//! This bench sweeps A's block density over {5, 10, 25, 50, 75, 100}%
//! against a dense B (the sparse-weights × dense-activations shape, so
//! surviving work scales linearly with density) on all three backends:
//!
//! * **threads** — `Backend::Exec` with a worker per rank, wall seconds;
//! * **exec** — `Backend::Exec` (work-stealing executor, ranks
//!   oversubscribed onto a bounded pool), wall seconds;
//! * **sim** — `Backend::Sim` with the SGI Altix machine model,
//!   *modeled* makespan (virtual seconds).
//!
//! Every cell is verified against `sparse_serial_reference` (masked
//! copies through the serial kernel) before it is timed, and density
//! 100% must be bitwise-identical to the dense driver. Emits
//! `results/BENCH_sparse_gemm.json`; headline metrics are
//! `speedup_sparse_<backend>_d<D>` — time at full density over time at
//! density D on the same backend (the acceptance floor is 3x at d10).
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_sparse_gemm
//! [-- --quick] [-- --smoke] [-- --out PATH]`
//!
//! `--smoke` runs the CI check instead of the sweep: density 25% on
//! the executor with 2 workers, verified, with the per-rank counter
//! invariant `tasks + masked_tasks == dense task count` asserted.

use srumma_bench::{print_table, worker_pool, BenchArgs};
use srumma_core::driver::{default_grid, multiply_exec, sparse_serial_reference, SparseMasks};
use srumma_core::{Algorithm, Backend, GemmSpec, Run, RunOutput, SrummaReport};
use srumma_dense::{max_abs_diff, BlockMask, Matrix};
use srumma_model::Machine;
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;
use std::time::Instant;

/// Logical masks for a square spec on the grid of `nranks`: block-
/// sparse A at the swept density against a dense B (the sparse-weights
/// × dense-activations shape), so the surviving task count scales
/// *linearly* with density instead of quadratically. The seed is
/// fixed, so masks at different densities nest — the work at density
/// d1 is a strict subset of the work at d2 > d1, which is what makes
/// the wall-clock sweep monotone by construction. Seed 0 is chosen so
/// every density step on the 4 x 4 grid strictly adds blocks
/// (nnz = 2, 3, 6, 10, 14, 16 across the swept densities).
fn sweep_masks(nranks: usize, density: f64) -> SparseMasks {
    let grid = default_grid(nranks);
    SparseMasks::a_only(BlockMask::random(grid.p, grid.q, density, 0))
}

/// Both operands masked — the smoke shape, where pruning composes
/// across A and B and whole ranks go empty.
fn make_masks(nranks: usize, density: f64, seed: u64) -> SparseMasks {
    let grid = default_grid(nranks);
    SparseMasks::new(
        BlockMask::random(grid.p, grid.q, density, seed),
        BlockMask::random(grid.p, grid.q, density, seed ^ 0x5eed_b10c),
    )
}

/// Block-sparse SRUMMA (default options) on real data.
fn multiply_sparse(
    backend: Backend<'_>,
    nranks: usize,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
    masks: &SparseMasks,
) -> RunOutput {
    Run {
        operands: Some((a, b)),
        masks: Some(masks),
        ..Run::new(*spec, nranks, Algorithm::srumma_default(), backend)
    }
    .execute()
    .expect("grid-shaped masks on SRUMMA are a legal plan")
}

/// Every rank's SRUMMA counters.
fn srumma_reports(out: &RunOutput) -> impl Iterator<Item = SrummaReport> + '_ {
    out.reports
        .iter()
        .map(|r| r.srumma.expect("SRUMMA ranks report"))
}

/// Best-of-samples wall seconds of `f`.
fn best_of<F: FnMut() -> f64>(samples: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        best = best.min(f());
    }
    best
}

/// CI smoke: density 25% on the oversubscribed executor, verified
/// against the masked serial reference. The counter invariant pins the
/// pruning accounting: per rank, surviving + masked tasks must equal
/// the dense task count for the same spec, and a fully-dense run must
/// report zero masked tasks.
fn smoke() {
    let (nranks, workers, n) = (8, 2, 96);
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 41);
    let b = Matrix::random(n, n, 42);
    let masks = make_masks(nranks, 0.25, 9001);
    let exec = Backend::Exec { workers };

    let expect = sparse_serial_reference(&spec, &a, &b, &masks);
    let res = multiply_sparse(exec, nranks, &spec, &a, &b, &masks);
    let diff = max_abs_diff(res.c.as_ref().expect("real operands"), &expect);
    assert!(diff < 1e-9, "smoke: |diff|={diff:e}");

    let (_, dense_res) =
        multiply_exec(nranks, workers, &Algorithm::srumma_default(), &spec, &a, &b);
    let mut masked_total = 0usize;
    let mut flops_skipped = 0u64;
    for (rank, (sparse, dense)) in srumma_reports(&res).zip(&dense_res.outputs).enumerate() {
        let dense = dense.as_ref().expect("dense exec run returns a report");
        assert_eq!(
            sparse.tasks + sparse.masked_tasks,
            dense.tasks,
            "smoke: rank {rank}: surviving + masked != dense task count"
        );
        assert_eq!(dense.masked_tasks, 0, "smoke: dense run reported masking");
        masked_total += sparse.masked_tasks;
        flops_skipped += sparse.skipped_flops;
    }
    assert!(masked_total > 0, "smoke: density 25% masked no tasks");
    println!(
        "smoke OK: n={n} on {workers} workers ({nranks} ranks): |diff|={diff:.1e}, \
         masked {masked_total} tasks, skipped {:.2} MFLOP",
        flops_skipped as f64 / 1e6
    );
}

fn main() {
    let cfg = BenchArgs::parse();
    if cfg.smoke {
        smoke();
        return;
    }

    let workers = worker_pool();
    let nranks = 16;
    // `--quick` keeps the problem size — the gate compares speedup
    // *ratios* against the checked-in baseline, and those shift with n
    // (fixed costs weigh more at small n). It only trims samples.
    let n = 768;
    let samples = if cfg.quick { 2 } else { 3 };
    let densities: &[f64] = &[0.05, 0.10, 0.25, 0.50, 0.75, 1.00];
    let machine = Machine::sgi_altix();
    let exec = Backend::Exec { workers };
    let per_rank = Backend::Exec { workers: nranks };

    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 7001);
    let b = Matrix::random(n, n, 7002);

    let mut metrics = JsonObject::new();
    metrics.num("workers", workers as f64);
    metrics.num("nranks", nranks as f64);
    metrics.num("n", n as f64);

    let mut rows: Vec<Vec<String>> = Vec::new();
    // (label, threads wall, exec wall, sim makespan), full density last.
    let mut cells: Vec<(usize, f64, f64, f64)> = Vec::new();

    for &density in densities {
        let d = (density * 100.0).round() as usize;
        let masks = sweep_masks(nranks, density);

        // Correctness first: the sweep must never time wrong answers.
        // At full density the masks are all-ones, so the sparse path
        // must agree with the dense driver bit for bit.
        let expect = sparse_serial_reference(&spec, &a, &b, &masks);
        let res = multiply_sparse(exec, nranks, &spec, &a, &b, &masks);
        let got = res.c.as_ref().expect("real operands");
        let diff = max_abs_diff(got, &expect);
        assert!(diff < 1e-6 * n as f64, "d={d}: exec |diff|={diff:e}");
        if d == 100 {
            let alg = Algorithm::srumma_default();
            let (dense, _) = multiply_exec(nranks, workers, &alg, &spec, &a, &b);
            assert_eq!(
                max_abs_diff(got, &dense),
                0.0,
                "d=100 must be bitwise identical to the dense driver"
            );
        }
        let masked: usize = srumma_reports(&res).map(|r| r.masked_tasks).sum();
        let survived: usize = srumma_reports(&res).map(|r| r.tasks).sum();
        let skipped: u64 = srumma_reports(&res).map(|r| r.skipped_flops).sum();

        // Warm both wall-clock paths, then time.
        let _ = multiply_sparse(per_rank, nranks, &spec, &a, &b, &masks);
        let t_threads = best_of(samples, || {
            multiply_sparse(per_rank, nranks, &spec, &a, &b, &masks).wall_seconds
        });
        let t_exec = best_of(samples, || {
            let t0 = Instant::now();
            let _ = multiply_sparse(exec, nranks, &spec, &a, &b, &masks);
            t0.elapsed().as_secs_f64()
        });
        let sim = multiply_sparse(Backend::Sim(&machine), nranks, &spec, &a, &b, &masks);
        let t_sim = sim.stats.makespan;

        metrics.num(&format!("seconds_threads_d{d}"), t_threads);
        metrics.num(&format!("seconds_exec_d{d}"), t_exec);
        metrics.num(&format!("seconds_sim_modeled_d{d}"), t_sim);
        metrics.num(&format!("surviving_tasks_d{d}"), survived as f64);
        metrics.num(&format!("masked_tasks_d{d}"), masked as f64);
        metrics.num(&format!("skipped_gflop_d{d}"), skipped as f64 / 1e9);
        cells.push((d, t_threads, t_exec, t_sim));

        rows.push(vec![
            format!("{d}%"),
            survived.to_string(),
            masked.to_string(),
            format!("{:.2}", t_threads * 1e3),
            format!("{:.2}", t_exec * 1e3),
            format!("{:.2}", t_sim * 1e3),
        ]);
        eprintln!(
            "d={d:>3}%: {survived} tasks ({masked} masked), threads {:.2} ms, exec {:.2} ms, \
             sim {:.2} ms",
            t_threads * 1e3,
            t_exec * 1e3,
            t_sim * 1e3
        );
    }

    let full = *cells.last().expect("density sweep is non-empty");
    assert_eq!(full.0, 100, "sweep must end at full density");
    for &(d, t_threads, t_exec, t_sim) in &cells {
        metrics.num(&format!("speedup_sparse_threads_d{d}"), full.1 / t_threads);
        metrics.num(&format!("speedup_sparse_exec_d{d}"), full.2 / t_exec);
        metrics.num(&format!("speedup_sparse_sim_d{d}"), full.3 / t_sim);
    }

    print_table(
        &format!(
            "block-sparse SRUMMA, n={n}, {nranks} ranks ({workers} workers on exec, best of \
             {samples})"
        ),
        &["density", "tasks", "masked", "thr ms", "exec ms", "sim ms"],
        &rows,
    );

    let report = bench_report_json("sparse_gemm", "host", "[]", &metrics.finish());
    cfg.write_report("sparse_gemm", &report);
}
