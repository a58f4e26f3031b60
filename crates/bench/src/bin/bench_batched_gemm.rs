//! Batched multi-GEMM driver versus a loop of standalone multiplies.
//!
//! SRUMMA's per-multiply fixed costs — executor spawn, fresh workspaces
//! and fetch buffers, the closing barrier — are noise for one
//! paper-scale product but dominate a *stream* of small tiles. The
//! batched driver (`srumma_core::batch`) pays them once per stream: one
//! worker pool for every entry, every operand and product read and
//! written in place, and no synchronisation between entries, so a rank
//! runs ahead into later entries while stragglers finish earlier ones.
//!
//! This bench sweeps batch size × tile size and times, wall-clock
//! around the whole call:
//!
//! * **loop** — `multiply_exec` once per entry (fresh pool and a
//!   closing barrier each);
//! * **batched** — one `multiply_batch_exec` over the same entries.
//!
//! Emits `results/BENCH_batched_gemm.json`. The headline gate metric is
//! `speedup_batched_over_loop_min_16plus`: the worst batched-vs-loop
//! speedup over all configurations with ≥ 16 entries (the acceptance
//! floor is 1.0 — batched must win there).
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_batched_gemm
//! [-- --quick] [-- --smoke] [-- --out PATH]`
//!
//! `--smoke` runs the CI check instead of the sweep: a 32-entry batch
//! of mixed-transpose tiles on a 2-worker pool, verified against the
//! serial reference, with the grow-at-most-once workspace invariant
//! asserted per rank.

use srumma_bench::{fmt, print_table, worker_pool, BenchArgs};
use srumma_core::batch::{batch_serial_reference, multiply_batch_exec, BatchEntry, BatchSpec};
use srumma_core::driver::multiply_exec;
use srumma_core::{Algorithm, GemmSpec};
use srumma_dense::{max_abs_diff, Matrix, Op};
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;
use std::time::Instant;

/// A stream of `entries` square `n×n` multiplies with a mix of
/// transpose cases (seeded, so loop and batched see identical data).
fn make_batch(entries: usize, n: usize, seed: u64) -> BatchSpec {
    let mut batch = BatchSpec::new();
    for e in 0..entries {
        let ta = if e % 2 == 0 { Op::N } else { Op::T };
        let tb = if e % 3 == 0 { Op::T } else { Op::N };
        let spec = GemmSpec::new(ta, tb, n, n, n);
        let a = Matrix::random(n, n, seed + 2 * e as u64);
        let b = Matrix::random(n, n, seed + 2 * e as u64 + 1);
        batch.push(BatchEntry::new(spec, a, b));
    }
    batch
}

/// Best-of-samples wall seconds of `f`.
fn best_of<F: FnMut() -> f64>(samples: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        best = best.min(f());
    }
    best
}

/// Wall seconds of running every entry through standalone
/// `multiply_exec` — a fresh executor and a closing barrier per entry.
/// This is the shape batching replaces.
fn run_loop(batch: &BatchSpec, nranks: usize, workers: usize) -> f64 {
    let alg = Algorithm::srumma_default();
    let t0 = Instant::now();
    for e in &batch.entries {
        let (_, _res) = multiply_exec(nranks, workers, &alg, &e.spec, &e.a, &e.b);
    }
    t0.elapsed().as_secs_f64()
}

/// CI smoke: a 32-entry mixed-transpose batch on an oversubscribed
/// 2-worker pool, checked against the serial reference. An output tile
/// that no owner wrote fails the check; a second writer of a tile
/// panics in the view's access checker.
fn smoke() {
    let (nranks, workers, entries, n) = (8, 2, 32, 48);
    let batch = make_batch(entries, n, 77);
    let expect = batch_serial_reference(&batch);
    let res = multiply_batch_exec(&batch, nranks, workers);
    for (e, (got, want)) in res.outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff < 1e-9, "smoke: entry {e}: |diff|={diff:e}");
    }
    for (rank, &g) in res.ws_grow_counts.iter().enumerate() {
        assert!(g <= 1, "smoke: rank {rank} grew its workspace {g} times");
    }
    println!(
        "smoke OK: {entries} x {n}x{n} on {workers} workers ({} ranks): wall {:.3}s, \
         overlap {:.3}",
        nranks,
        res.stats.wall_s,
        res.stats.inter_entry_overlap(),
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
    let samples = if cfg.quick { 2 } else { 3 };
    let batch_sizes: &[usize] = if cfg.quick { &[4, 32] } else { &[1, 4, 16, 64] };
    let tile_sizes: &[usize] = if cfg.quick { &[64] } else { &[48, 96] };

    let mut metrics = JsonObject::new();
    metrics.num("workers", workers as f64);
    metrics.num("nranks", nranks as f64);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut worst_speedup_16plus = f64::INFINITY;

    for &n in tile_sizes {
        for &b in batch_sizes {
            let batch = make_batch(b, n, 1000 + n as u64);

            // Correctness first: the sweep must never time wrong answers.
            let expect = batch_serial_reference(&batch);
            let check = multiply_batch_exec(&batch, nranks, workers);
            for (e, (got, want)) in check.outputs.iter().zip(&expect).enumerate() {
                let diff = max_abs_diff(got, want);
                assert!(diff < 1e-9, "b={b} n={n} entry {e}: |diff|={diff:e}");
            }

            // Warm both paths (first-touch allocation, thread stacks).
            let _ = run_loop(&batch, nranks, workers);

            let t_loop = best_of(samples, || run_loop(&batch, nranks, workers));
            let mut overlap = 0.0;
            let t_batched = best_of(samples, || {
                let t0 = Instant::now();
                let res = multiply_batch_exec(&batch, nranks, workers);
                let wall = t0.elapsed().as_secs_f64();
                overlap = res.stats.inter_entry_overlap();
                wall
            });
            let speedup = t_loop / t_batched;
            if b >= 16 {
                worst_speedup_16plus = worst_speedup_16plus.min(speedup);
            }

            metrics.num(&format!("wall_loop_seconds_b{b}_n{n}"), t_loop);
            metrics.num(&format!("wall_batched_seconds_b{b}_n{n}"), t_batched);
            metrics.num(&format!("speedup_batched_over_loop_b{b}_n{n}"), speedup);
            metrics.num(&format!("inter_entry_overlap_b{b}_n{n}"), overlap);

            rows.push(vec![
                n.to_string(),
                b.to_string(),
                format!("{:.3}", t_loop * 1e3),
                format!("{:.3}", t_batched * 1e3),
                format!("{speedup:.2}x"),
                fmt(overlap),
            ]);
            eprintln!(
                "n={n:>4} b={b:>3}: loop {:.2} ms, batched {:.2} ms ({speedup:.2}x, overlap {:.2})",
                t_loop * 1e3,
                t_batched * 1e3,
                overlap
            );
        }
    }
    if worst_speedup_16plus.is_finite() {
        metrics.num("speedup_batched_over_loop_min_16plus", worst_speedup_16plus);
    }

    print_table(
        &format!(
            "batched stream vs loop of multiplies, {nranks} ranks on {workers} workers \
             (best of {samples})"
        ),
        &["n", "entries", "loop ms", "batch ms", "speedup", "overlap"],
        &rows,
    );

    let report = bench_report_json("batched_gemm", "host", "[]", &metrics.finish());
    cfg.write_report("batched_gemm", &report);
}
