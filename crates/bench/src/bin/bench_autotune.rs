//! Self-tuning runtime versus static Auto resolution.
//!
//! The tune module (`srumma_core::tune`) adds two runtime paths on top
//! of the static `SrummaOptions` defaults: the persisted host profile
//! (written by `calibrate -- --all`, loaded by
//! `SrummaOptions::from_profile`) and the online `Tuner` that nudges
//! prefetch depth and batch window between entries of a batched
//! stream. Both must *pay for themselves*: this bench times batched
//! streams with the tuner off (static Auto options) and on
//! (profile-resolved options + `with_tuner`) and gates on the ratio.
//!
//! Two properties are enforced as hard failures, not just recorded:
//!
//! * **bitwise neutrality** — the tuner only moves fetch scheduling
//!   and fence gating, never the gemm call order, so with the same
//!   base options the tuned outputs must be *bit-identical* to the
//!   untuned outputs (`max_abs_diff == 0.0`);
//! * **non-regression** — `tuned_speedup_min` (worst static/tuned
//!   wall ratio over all configs) must stay ≥ 0.95: the tuner may
//!   fail to help on an already-well-tuned host but must never cost
//!   more than trial-phase noise.
//!
//! Emits `results/BENCH_autotune.json` with `tuned_speedup_<cfg>` per
//! configuration plus the `tuned_speedup_min` headline.
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_autotune
//! [-- --quick] [-- --smoke] [-- --out PATH]`
//!
//! `--smoke` runs the CI check instead of the sweep: one executor run
//! under `SrummaOptions::from_profile()` verified against the serial
//! reference, then a tuner-on vs tuner-off batch on an oversubscribed
//! 2-worker pool asserting bitwise-identical outputs and bounded
//! overhead.

use srumma_bench::{print_table, write_bench_json, BenchArgs};
use srumma_core::batch::{
    batch_serial_reference, multiply_batch_exec, multiply_batch_exec_tuned, BatchEntry, BatchSpec,
};
use srumma_core::driver::serial_reference;
use srumma_core::{Algorithm, Backend, GemmSpec, Run, SrummaOptions, TunerConfig};
use srumma_dense::{max_abs_diff, Matrix, Op};
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;
use std::time::Instant;

fn worker_pool() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
}

/// A stream of `entries` square `n×n` multiplies with a mix of
/// transpose cases (seeded, so every variant sees identical data).
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

/// Assert tuned and untuned outputs are *bit-identical* — the tuner
/// moves prefetch depth and the effective slot window, neither of
/// which may perturb the gemm accumulation order.
fn assert_bitwise(tag: &str, tuned: &[Matrix], untuned: &[Matrix]) {
    for (e, (got, want)) in tuned.iter().zip(untuned).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(
            diff == 0.0,
            "{tag}: entry {e}: tuned output differs from untuned (|diff|={diff:e}); \
             the tuner must be bitwise-neutral"
        );
    }
}

/// CI smoke: the profile path end-to-end plus tuner neutrality on an
/// oversubscribed pool (2 workers for 8 ranks — the shape where a
/// window/fence bug deadlocks; `timeout` in ci.sh bounds that).
fn smoke() {
    // 1. Profile-resolved options (the static defaults when no profile
    // exists): answers must match the serial reference.
    let nranks = 8;
    let n = 64;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let opts = SrummaOptions::from_profile();
    let run = Run {
        operands: Some((&a, &b)),
        ..Run::new(
            spec,
            nranks,
            Algorithm::Srumma(opts),
            Backend::Exec { workers: 0 },
        )
    };
    let c = run
        .execute()
        .expect("a plain run is valid")
        .c
        .expect("real operands");
    let expect = serial_reference(&spec, &a, &b);
    let diff = max_abs_diff(&c, &expect);
    assert!(
        diff < 1e-9,
        "smoke: profile-resolved multiply |diff|={diff:e}"
    );
    println!(
        "smoke: from_profile run OK (depth={}, gemm={:?})",
        opts.prefetch_depth, opts.gemm
    );

    // 2. Tuner neutrality + bounded overhead on a batched stream.
    let (workers, entries, bn) = (2, 24, 48);
    let base = make_batch(entries, bn, 77);
    let expect = batch_serial_reference(&base);
    let static_batch = base.clone();
    let tuned_batch = base.with_opts(SrummaOptions::default().with_tuner(TunerConfig::default()));

    let res_static = multiply_batch_exec(&static_batch, nranks, workers);
    let (res_tuned, steps) = multiply_batch_exec_tuned(&tuned_batch, nranks, workers);
    for (e, (got, want)) in res_tuned.outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff < 1e-9, "smoke: tuned batch entry {e}: |diff|={diff:e}");
    }
    assert_bitwise("smoke", &res_tuned.outputs, &res_static.outputs);

    let t_static = best_of(5, || {
        let t0 = Instant::now();
        let _ = multiply_batch_exec(&static_batch, nranks, workers);
        t0.elapsed().as_secs_f64()
    });
    let t_tuned = best_of(5, || {
        let t0 = Instant::now();
        let _ = multiply_batch_exec_tuned(&tuned_batch, nranks, workers);
        t0.elapsed().as_secs_f64()
    });
    // Sanity bound, not a perf gate (that is the full sweep's job): an
    // oversubscribed pool on a loaded CI host is noisy, so only flag
    // the pathological failure modes — per-entry tuner machinery cost
    // or a mis-gated window serializing the stream.
    assert!(
        t_tuned <= t_static * 2.0,
        "smoke: tuner overhead out of bounds: tuned {:.3}ms vs static {:.3}ms",
        t_tuned * 1e3,
        t_static * 1e3
    );
    println!(
        "smoke OK: {entries} x {bn}x{bn} on {workers} workers ({nranks} ranks): \
         static {:.2}ms, tuned {:.2}ms, {} tuner steps",
        t_static * 1e3,
        t_tuned * 1e3,
        steps.len()
    );
}

fn main() {
    let cfg = BenchArgs::parse(&[]);
    if cfg.smoke {
        smoke();
        return;
    }

    let workers = worker_pool();
    let nranks = 16;
    let samples = if cfg.quick { 2 } else { 3 };
    // (entries, n): streams long enough for the tuner's settle+trial
    // cycles to complete at least one accepted or reverted move. The
    // quick list is a subset of the full list so the CI warn gate can
    // diff `tuned_speedup_b24_n48` against the checked-in baseline.
    let configs: &[(usize, usize)] = if cfg.quick {
        &[(24, 48)]
    } else {
        &[(24, 48), (24, 96), (48, 64)]
    };

    let mut metrics = JsonObject::new();
    metrics.num("workers", workers as f64);
    metrics.num("nranks", nranks as f64);
    let profile_opts = SrummaOptions::from_profile();
    let tuned_opts = profile_opts.with_tuner(TunerConfig::default());
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut worst = f64::INFINITY;

    for &(entries, n) in configs {
        let base = make_batch(entries, n, 2000 + n as u64);

        // Correctness first, and bitwise tuner neutrality against the
        // SAME base options (the profile may legitimately pin a
        // different kernel than static Auto, so the bitwise pair must
        // share a base).
        let expect = batch_serial_reference(&base);
        let profile_batch = base.clone().with_opts(profile_opts);
        let tuned_batch = base.clone().with_opts(tuned_opts);
        let static_batch = base.with_opts(SrummaOptions::default());
        let check_profile = multiply_batch_exec(&profile_batch, nranks, workers);
        let (check_tuned, _) = multiply_batch_exec_tuned(&tuned_batch, nranks, workers);
        for (e, (got, want)) in check_tuned.outputs.iter().zip(&expect).enumerate() {
            let diff = max_abs_diff(got, want);
            assert!(diff < 1e-9, "b={entries} n={n} entry {e}: |diff|={diff:e}");
        }
        assert_bitwise(
            &format!("b={entries} n={n}"),
            &check_tuned.outputs,
            &check_profile.outputs,
        );

        // Warm both paths (first-touch allocation, thread stacks).
        let _ = multiply_batch_exec(&static_batch, nranks, workers);

        let t_static = best_of(samples, || {
            let t0 = Instant::now();
            let _ = multiply_batch_exec(&static_batch, nranks, workers);
            t0.elapsed().as_secs_f64()
        });
        let mut moves = 0usize;
        let t_tuned = best_of(samples, || {
            let t0 = Instant::now();
            let (_, steps) = multiply_batch_exec_tuned(&tuned_batch, nranks, workers);
            let wall = t0.elapsed().as_secs_f64();
            moves = steps.len();
            wall
        });
        let speedup = t_static / t_tuned;
        worst = worst.min(speedup);

        metrics.num(&format!("wall_static_seconds_b{entries}_n{n}"), t_static);
        metrics.num(&format!("wall_tuned_seconds_b{entries}_n{n}"), t_tuned);
        metrics.num(&format!("tuned_speedup_b{entries}_n{n}"), speedup);

        rows.push(vec![
            n.to_string(),
            entries.to_string(),
            format!("{:.3}", t_static * 1e3),
            format!("{:.3}", t_tuned * 1e3),
            format!("{speedup:.2}x"),
            moves.to_string(),
        ]);
        eprintln!(
            "n={n:>4} b={entries:>3}: static {:.2} ms, tuned {:.2} ms ({speedup:.2}x)",
            t_static * 1e3,
            t_tuned * 1e3
        );
    }
    if worst.is_finite() {
        metrics.num("tuned_speedup_min", worst);
    }

    print_table(
        &format!(
            "tuner-on vs static-Auto batched streams, {nranks} ranks on {workers} workers \
             (best of {samples})"
        ),
        &["n", "entries", "static ms", "tuned ms", "speedup", "steps"],
        &rows,
    );

    let report = bench_report_json("autotune", "host", "[]", &metrics.finish());
    match &cfg.out {
        Some(path) => match std::fs::write(path, &report) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        },
        None => write_bench_json("autotune", &report),
    }

    // Hard gate (the acceptance floor, enforced in-bench so a
    // regression fails loudly even without bench_diff): the tuner may
    // plateau but must never cost more than 5% on any config.
    if worst < 0.95 {
        eprintln!("FAIL: tuned_speedup_min {worst:.3} < 0.95 — the tuner is a net loss");
        std::process::exit(1);
    }
}
