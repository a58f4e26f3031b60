//! Executor scaling: thousands of SRUMMA ranks on a fixed worker pool
//! versus a worker thread per rank.
//!
//! The paper ran one process per processor; studying SRUMMA's task
//! ordering and pipeline behavior at 256–1024 "processors" on a
//! laptop-class host means *oversubscription*, and thread-per-rank
//! pays for it in spawn cost and scheduler convoys (hundreds of
//! preempted threads piling into the closing barrier). The
//! work-stealing executor runs the same ranks as polled state machines
//! on `min(8, host cores)` workers; thread-per-rank polls them on a
//! worker per rank. This bench sweeps the logical rank
//! count at a fixed problem size and reports both backends' wall time
//! plus the executor's scheduling metrics (steal rate, occupancy).
//!
//! Emits `results/BENCH_executor_scaling.json`; the checked-in baseline
//! documents the crossover (executor ahead from 64 ranks on this class
//! of host).
//!
//! Usage: `cargo run --release -p srumma-bench --bin
//! bench_executor_scaling [-- --quick] [-- --smoke] [-- --out PATH]`
//!
//! `--smoke` runs the CI oversubscription check instead of the sweep:
//! 128 ranks on 2 workers (SRUMMA ranks park at the barrier, SUMMA
//! ranks on an empty mailbox), verified against the serial kernel — a
//! deadlock or mismatch fails fast.

use srumma_bench::{fmt, print_table, worker_pool, BenchArgs};
use srumma_core::driver::{multiply_exec, multiply_threads, serial_reference};
use srumma_core::{Algorithm, GemmSpec};
use srumma_dense::{max_abs_diff, Matrix};
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;

/// Samples per cell, the same under `--quick` as in the full sweep that
/// recorded the checked-in baseline: the CI gate compares like with like.
const SAMPLES: usize = 3;

/// Best-of-[`SAMPLES`] wall seconds of `f`.
fn best_of<F: FnMut() -> f64>(mut f: F) -> f64 {
    (0..SAMPLES).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// CI oversubscription smoke: correctness under heavy oversubscription,
/// bounded runtime, loud failure. 128 ranks on 2 workers covers both
/// ways a polled rank waits (SRUMMA ranks park in the closing barrier;
/// SUMMA ranks park on an empty mailbox in every broadcast).
fn smoke() {
    let nranks = 128;
    let workers = 2;
    let spec = GemmSpec::square(64);
    let a = Matrix::random(spec.m, spec.k, 21);
    let b = Matrix::random(spec.k, spec.n, 22);
    let expect = serial_reference(&spec, &a, &b);
    for alg in [Algorithm::srumma_default(), Algorithm::summa_default()] {
        let (c, res) = multiply_exec(nranks, workers, &alg, &spec, &a, &b);
        let diff = max_abs_diff(&c, &expect);
        assert!(
            diff < 1e-9,
            "smoke: {} {nranks} ranks on {workers} workers: |diff|={diff:e}",
            alg.name()
        );
        let exec = res.stats.exec.expect("executor stats present");
        println!(
            "smoke OK: {} x{nranks} on {workers} workers ({:.3}s, {} parks, steal rate {:.3})",
            alg.name(),
            res.wall_seconds,
            exec.parks,
            exec.steal_rate()
        );
    }
}

fn main() {
    let cfg = BenchArgs::parse();
    if cfg.smoke {
        smoke();
        return;
    }

    let workers = worker_pool();
    let n = 256;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 31);
    let b = Matrix::random(n, n, 32);
    let ranks: &[usize] = if cfg.quick {
        &[8, 64, 256]
    } else {
        &[8, 16, 32, 64, 128, 256, 512, 1024]
    };
    let alg = Algorithm::srumma_default();

    let mut metrics = JsonObject::new();
    metrics.num("workers", workers as f64);
    metrics.num("n", n as f64);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut worst_speedup_64plus = f64::INFINITY;

    for &r in ranks {
        // Warm both paths once (first-touch allocation, thread stacks).
        let _ = multiply_threads(r, &alg, &spec, &a, &b);
        let _ = multiply_exec(r, workers, &alg, &spec, &a, &b);

        let t_threads = best_of(|| multiply_threads(r, &alg, &spec, &a, &b).1);
        let mut steal_rate = 0.0;
        let mut occupancy = 0.0;
        let t_exec = best_of(|| {
            let (_, res) = multiply_exec(r, workers, &alg, &spec, &a, &b);
            let exec = res.stats.exec.expect("executor stats present");
            steal_rate = exec.steal_rate();
            occupancy = exec.occupancy();
            res.wall_seconds
        });
        let speedup = t_threads / t_exec;
        if r >= 64 {
            worst_speedup_64plus = worst_speedup_64plus.min(speedup);
        }

        metrics.num(&format!("wall_threads_seconds_r{r}"), t_threads);
        metrics.num(&format!("wall_exec_seconds_r{r}"), t_exec);
        metrics.num(&format!("speedup_exec_over_threads_r{r}"), speedup);
        metrics.num(&format!("exec_steal_rate_r{r}"), steal_rate);
        metrics.num(&format!("exec_occupancy_r{r}"), occupancy);

        rows.push(vec![
            r.to_string(),
            format!("{:.4}", t_threads * 1e3),
            format!("{:.4}", t_exec * 1e3),
            format!("{speedup:.2}x"),
            fmt(steal_rate),
            fmt(occupancy),
        ]);
        eprintln!(
            "ranks {r:>5}: threads {:.2} ms, exec {:.2} ms ({speedup:.2}x)",
            t_threads * 1e3,
            t_exec * 1e3
        );
    }
    if worst_speedup_64plus.is_finite() {
        metrics.num("speedup_exec_over_threads_min_64plus", worst_speedup_64plus);
    }

    print_table(
        &format!("executor vs thread-per-rank, n={n}, {workers} workers (best of {SAMPLES})"),
        &[
            "ranks",
            "threads ms",
            "exec ms",
            "exec speedup",
            "steal rate",
            "occupancy",
        ],
        &rows,
    );

    let report = bench_report_json("executor_scaling", "host", "[]", &metrics.finish());
    cfg.write_report("executor_scaling", &report);
}
