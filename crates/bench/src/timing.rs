//! A plain wall-clock micro-benchmark loop.
//!
//! The workspace builds offline without a benchmarking framework, so
//! the `[[bench]]` targets (`harness = false`) use this: warm up, run
//! timed batches, report min/median and derived throughput. Minimal on
//! purpose — good enough to spot order-of-magnitude regressions and to
//! compare variants within one run; not a statistics suite.

use std::hint::black_box;
use std::time::Instant;

/// Result of one benchmark case.
#[derive(Clone, Copy, Debug)]
pub struct Sampled {
    /// Fastest observed per-iteration time (seconds).
    pub(crate) min: f64,
    /// Median per-iteration time (seconds).
    pub(crate) median: f64,
}

/// Time `f` over `samples` batches of `iters_per_sample` iterations
/// (after one warm-up batch) and print one aligned report line. When
/// `elems` is nonzero, throughput is reported as `elems / min` per
/// second (e.g. flops for gemm benches).
pub fn bench_case<F: FnMut()>(name: &str, elems: u64, mut f: F) -> Sampled {
    const SAMPLES: usize = 10;
    // Calibrate: aim for ~20ms per sample, at least 1 iteration.
    f(); // warm-up + one-shot timing probe
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.02 / once) as usize).clamp(1, 10_000);

    let mut per_iter = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let s = Sampled {
        min: per_iter[0],
        median: per_iter[SAMPLES / 2],
    };
    let mut line = format!(
        "{name:<44} min {:>10}  median {:>10}",
        fmt_time(s.min),
        fmt_time(s.median)
    );
    if elems > 0 {
        line.push_str(&format!("  {:>8.2} Gelem/s", elems as f64 / s.min / 1e9));
    }
    println!("{line}");
    s
}

/// Keep a value alive without letting the optimizer delete the work
/// that produced it (re-export of `std::hint::black_box`).
pub fn keep<T>(v: T) -> T {
    black_box(v)
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_case_returns_positive_times() {
        let mut acc = 0u64;
        let s = bench_case("noop_accumulate", 0, || {
            acc = keep(acc.wrapping_add(1));
        });
        assert!(s.min > 0.0 && s.median >= s.min);
    }

    #[test]
    fn fmt_time_bands() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2.5e-3), "2.500 ms");
        assert_eq!(fmt_time(3.2e-6), "3.200 us");
        assert_eq!(fmt_time(5e-8), "50.0 ns");
    }
}
