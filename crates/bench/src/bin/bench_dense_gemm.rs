//! Local dgemm kernel throughput: the full kernel ladder — `naive`,
//! the `scalar` micro-kernel and every available SIMD micro-kernel
//! (AVX2 4×12, AVX-512 8×24, NEON 4×8) — at the block sizes SRUMMA's
//! task loop actually feeds the serial kernel (a P-rank run of the
//! paper's N=1000..16000 problems hands out ~64–500-wide blocks; 96 and
//! 768 are the task shapes of the performance ledger's `manyrank_copy`
//! and `square_large` workloads, `benchmark/`).
//!
//! This is the compute half of the paper's story made measurable: the
//! RMA pipeline only pays off when it overlaps a *fast* local multiply,
//! so the delivered GFLOP/s of `srumma-dense` is tracked as a first-
//! class result. Emits `results/BENCH_dense_gemm.json` through the
//! shared bench-report machinery; `scripts/ci.sh` regenerates it with
//! `--quick` and diffs it against the checked-in baseline as a hard
//! perf gate (`SRUMMA_PERF_GATE=warn` downgrades it).
//!
//! Reported per size `n`:
//!
//! * `gflops_naive_n` (n ≤ 256), `gflops_scalar_n` — the two bottom
//!   ladder rungs;
//! * `gflops_<kernel>_n` for each available SIMD kernel — the raw
//!   per-kernel rates (what to read before setting `SRUMMA_KERNEL`);
//! * `gflops_simd_n` — the best SIMD rate (`max` over available SIMD
//!   kernels: the rung a host-tuned dispatch would deliver), plus the
//!   compatible `speedup_simd_over_scalar_n` gate metrics.
//!
//! The raw per-kernel numbers sit alongside the `simd` rung so
//! regressions in any single kernel stay visible to `bench_diff`.
//!
//! * `gflops_prepacked_{96,768}` — the same loop nest with both factors
//!   already in sliver order (`dgemm_operands` over two `Packed`
//!   sides, the dispatched kernel): what a SRUMMA task costs once its
//!   gets have landed packed. Read it beside `gflops_simd_n`: at 768
//!   the gap is the pack the get took over; at 96 there is little gap
//!   left, because a product that small reads its operands in place.
//!
//! * `gflops_simd_{tn,nt}_96` — `gflops_simd_96` for `op(A) = Aᵀ` and
//!   for `op(B) = Bᵀ`: the AVX-512 kernel reads a `T` A in place as it
//!   reads an `N` one, while a `T` B still packs.
//!
//! * `gflops_ldc_{96,384}_96x96x1536` and `gflops_ldc_{96,768}_96` —
//!   one rank-task of the ledger's `rect_tn` (`TN`, 96 × 96 × 1536) and
//!   `manyrank_copy` (`NN`, 96³) workloads, writing its C tile once as a
//!   private block (`ldc` 96) and once as the window of the caller's
//!   result matrix a run lends it (`ldc` 384 / 768: at 3 072 and 6 144
//!   bytes a row, rows `r` and `r + 4` / `r + 2` of a micro-tile share
//!   their low 12 address bits). The pair must read alike: the writeback
//!   issues a tile's loads before its stores, so `ldc` costs nothing.
//!
//! * `gflops_ldb_{96,512}_96` — a 96³ `NN` task whose B is read in
//!   place, once as its own block (rows 768 B apart) and once as the
//!   window of a 512-wide matrix (rows 4 KiB apart, so every k-row of a
//!   sliver shares its low 12 address bits).
//!
//! * `gflops_lda_96t_96x96x1536` and `gflops_lda_6144n_96x96x1536` —
//!   the same `rect_tn` rank-task by where its A block lies: the
//!   contiguous stored-`T` block (1536 × 96, `lda` 96) a transposing
//!   scatter used to leave in an arena, and the `N` window (96 × 1536 at
//!   `lda` 6144) of the caller's 384 × 6144 matrix a run reads now. At
//!   49 152 bytes a row the rows of one sliver share their low 12 address
//!   bits; the pair is recorded so that this is known not to cost.
//!
//! Next to the ladder, the packers that feed it: `pack_ns_per_elem_
//! {a,b}_{n,t}_{96,1536}` — nanoseconds per element to pack a whole
//! `S × S` source the way the blocked loop does (`MC × KC` panels for A,
//! `KC × NC` for B, at the dispatched kernel's `mr`/`nr`), for a
//! cache-resident source (96², the block an 8×8-rank n = 768 run hands
//! out) and an out-of-cache one (1536²). `pack_ns_per_elem_b_n_w24_*`
//! is the contiguous B pack at the AVX-512 sliver width whatever kernel
//! this host dispatches. `pack_ns_per_elem_get_{a,b}_n_96` is what a
//! get that lands packed pays per element: one whole 96 × 96 block out
//! of an `ld` = 768 window into a `PackedPanel` at full depth. Lower is
//! better.
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_dense_gemm
//! [-- --quick] [-- --out PATH]`

use srumma_bench::{fmt, print_table, BenchArgs};
use srumma_dense::aligned::AlignedBuf;
use srumma_dense::gemm::gemm_flops;
use srumma_dense::kernel::{active_kernel, Microkernel, NR_AVX512};
use srumma_dense::naive::naive_gemm;
use srumma_dense::pack::{pack_a, pack_b};
use srumma_dense::{
    dgemm_operands, dgemm_ws, BlockSizes, GemmWorkspace, Matrix, Op, Operand, PackedPanel, Side,
};
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;
use std::time::Instant;

/// Best-of-samples seconds per call of `f`.
fn best_seconds<F: FnMut()>(quick: bool, mut f: F) -> f64 {
    // Quick mode gates CI: enough samples/window that one scheduler
    // blip on a loaded runner cannot sink the best-of minimum.
    let (samples, target) = if quick { (5, 0.01) } else { (8, 0.02) };
    f(); // warm caches and the workspace
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target / once) as usize).clamp(1, 10_000);
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Best-of-samples GFLOP/s of `f` (a full `n³` multiply per call).
fn measure<F: FnMut()>(n: usize, quick: bool, f: F) -> f64 {
    gemm_flops(n, n, n) as f64 / best_seconds(quick, f) / 1e9
}

/// The four (operand, `Op`) pack cases over an `s × s` source, panel by
/// panel as `dgemm_ws` issues them, and the contiguous B pack once more
/// at width 24; returns `(key suffix, ns per element)` per case.
fn bench_pack(s: usize, quick: bool) -> Vec<(String, f64)> {
    let kernel = active_kernel();
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let BlockSizes { mc, kc, nc } = GemmWorkspace::new().blocks();
    let src = Matrix::random(s, s, 3);
    // Cache-line-aligned like the workspace's own panels: a sliver
    // group straddling two lines would be measured, but never run.
    let (mut apack, mut bpack) = (AlignedBuf::new(), AlignedBuf::new());
    apack.grow_to(mc.div_ceil(mr) * mr * kc);
    let widest = nr.max(NR_AVX512);
    bpack.grow_to(nc.div_ceil(widest) * widest * kc);
    let (apack, bpack) = (apack.as_mut_slice(), bpack.as_mut_slice());
    let per_elem = 1e9 / (s * s) as f64; // seconds per source -> ns per element
    let mut time_pack_b = |op: Op, nr: usize| {
        best_seconds(quick, || {
            for l0 in (0..s).step_by(kc) {
                for j0 in (0..s).step_by(nc) {
                    let (k, n) = (kc.min(s - l0), nc.min(s - j0));
                    pack_b(op, src.as_ref(), l0, j0, k, n, nr, bpack);
                }
            }
            std::hint::black_box(&mut *bpack);
        }) * per_elem
    };
    let mut out = Vec::new();
    for (op, tag) in [(Op::N, "n"), (Op::T, "t")] {
        let ns = best_seconds(quick, || {
            for l0 in (0..s).step_by(kc) {
                for i0 in (0..s).step_by(mc) {
                    let (m, k) = (mc.min(s - i0), kc.min(s - l0));
                    pack_a(op, src.as_ref(), i0, l0, m, k, mr, apack);
                }
            }
            std::hint::black_box(&mut *apack);
        }) * per_elem;
        out.push((format!("a_{tag}_{s}"), ns));
        out.push((format!("b_{tag}_{s}"), time_pack_b(op, nr)));
    }
    out.push((format!("b_n_w24_{s}"), time_pack_b(Op::N, NR_AVX512)));
    out
}

/// A 96 × 96 block of an 8 × 8-rank n = 768 operand, packed whole as a
/// get lands it (`N` storage: the strided mover on the A side, the
/// contiguous one on the B side); `(key suffix, ns per element)`.
fn bench_get_pack(quick: bool) -> Vec<(String, f64)> {
    let host = Matrix::random(768, 768, 5);
    let block = host.block(96, 192, 96, 96);
    let mut panel = PackedPanel::new();
    [(Side::A(Op::N), "a"), (Side::B(Op::N), "b")]
        .into_iter()
        .map(|(side, tag)| {
            let s = best_seconds(quick, || {
                panel.pack(side, active_kernel(), block);
                std::hint::black_box(&mut panel);
            });
            (format!("get_{tag}_n_96"), s * 1e9 / (96.0 * 96.0))
        })
        .collect()
}

/// One `m × n × k` rank-task on the dispatched kernel, its C tile a
/// window at leading dimension `ldc` of a wider matrix; GFLOP/s.
fn bench_ldc(ta: Op, (m, n, k): (usize, usize, usize), ldc: usize, quick: bool) -> f64 {
    let (ar, ac) = if ta == Op::N { (m, k) } else { (k, m) };
    let (a, b) = (Matrix::random(ar, ac, 7), Matrix::random(k, n, 8));
    let mut host = Matrix::zeros(m, ldc);
    let mut ws = GemmWorkspace::new();
    let secs = best_seconds(quick, || {
        let c = host.block_mut(0, ldc - n, m, n);
        dgemm_ws(ta, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.0, c, &mut ws)
    });
    gemm_flops(m, n, k) as f64 / secs / 1e9
}

/// The `rect_tn` rank-task (96 × 96 × 1536, private C) on the dispatched
/// kernel, A once as the contiguous stored-`T` block and once as the `N`
/// window of a 384 × 6144 host matrix; `(key suffix, GFLOP/s)`.
fn bench_lda(quick: bool) -> [(&'static str, f64); 2] {
    let (m, n, k) = (96, 96, 1536);
    let (stored_t, host) = (Matrix::random(k, m, 7), Matrix::random(4 * m, 4 * k, 9));
    let b = Matrix::random(k, n, 8);
    let mut c = Matrix::zeros(m, n);
    let mut ws = GemmWorkspace::new();
    [
        ("96t", Op::T, stored_t.as_ref()),
        ("6144n", Op::N, host.block(m, k, m, k)),
    ]
    .map(|(tag, ta, a)| {
        let secs = best_seconds(quick, || {
            dgemm_ws(ta, Op::N, 1.0, a, b.as_ref(), 0.0, c.as_mut(), &mut ws)
        });
        (tag, gemm_flops(m, n, k) as f64 / secs / 1e9)
    })
}

/// A 96³ `NN` task on the dispatched kernel, B once as its own block
/// (`ldb` 96) and once as a window at `ldb` 512; `(ldb, GFLOP/s)`.
fn bench_ldb(quick: bool) -> [(usize, f64); 2] {
    let n = 96;
    let a = Matrix::random(n, n, 7);
    let mut c = Matrix::zeros(n, n);
    let mut ws = GemmWorkspace::new();
    [n, 512].map(|ldb| {
        let host = Matrix::random(n, ldb, 8);
        let b = host.block(0, ldb - n, n, n);
        let secs = best_seconds(quick, || {
            dgemm_ws(Op::N, Op::N, 1.0, a.as_ref(), b, 0.0, c.as_mut(), &mut ws)
        });
        (ldb, gemm_flops(n, n, n) as f64 / secs / 1e9)
    })
}

fn main() {
    let cfg = BenchArgs::parse();
    // SRUMMA task-block sizes: a √P × √P grid over the paper's problem
    // range leaves per-task operand blocks in the 64–500 band.
    // The quick set feeds CI's hard simd-over-scalar ratio gate and
    // stays at the two sizes whose ratios repeat within its 10 % on a
    // shared runner (96 read 5.58 and 4.99 an hour apart on this host).
    let sizes: &[usize] = if cfg.quick {
        &[64, 256]
    } else {
        &[64, 96, 128, 256, 500, 768]
    };

    let simd_kernels: Vec<Microkernel> = Microkernel::all()
        .iter()
        .copied()
        .filter(|k| *k != Microkernel::Scalar && k.available())
        .collect();

    let mut metrics = JsonObject::new();
    metrics.str("kernel_scalar", Microkernel::Scalar.name());
    match simd_kernels.last() {
        // `all()` is ordered scalar → widest, so the last available
        // SIMD kernel is the one `auto` dispatch would favor.
        Some(k) => metrics.str("kernel_simd", k.name()),
        None => metrics.null("kernel_simd"),
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut transpose_row = vec!["96".to_string()];
    let mut worst_speedup = f64::INFINITY;
    for &n in sizes {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut c = Matrix::zeros(n, n);

        // Naive reference only where it finishes promptly; its point is
        // the blocked-vs-naive gap, visible at any size.
        let g_naive = if n <= 256 {
            let g = measure(n, cfg.quick, || {
                naive_gemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut())
            });
            metrics.num(&format!("gflops_naive_{n}"), g);
            Some(g)
        } else {
            None
        };

        let mut bench_kernel_ops = |k: Microkernel, (ta, tb): (Op, Op)| {
            let mut ws = GemmWorkspace::with_kernel(k);
            measure(n, cfg.quick, || {
                dgemm_ws(
                    ta,
                    tb,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                    &mut ws,
                )
            })
        };
        let mut bench_kernel = |k: Microkernel| bench_kernel_ops(k, (Op::N, Op::N));

        let g_scalar = bench_kernel(Microkernel::Scalar);
        metrics.num(&format!("gflops_scalar_{n}"), g_scalar);

        // Raw per-kernel rates, and the best-SIMD rung.
        let mut g_by_kernel: Vec<(Microkernel, f64)> = Vec::new();
        for &k in &simd_kernels {
            let g = bench_kernel(k);
            metrics.num(&format!("gflops_{}_{n}", k.env_name()), g);
            g_by_kernel.push((k, g));
        }
        let g_simd = g_by_kernel.iter().map(|&(_, g)| g).fold(f64::NAN, f64::max);
        let g_simd = if g_simd.is_nan() { None } else { Some(g_simd) };
        if let Some(g) = g_simd {
            metrics.num(&format!("gflops_simd_{n}"), g);
            let speedup = g / g_scalar;
            metrics.num(&format!("speedup_simd_over_scalar_{n}"), speedup);
            worst_speedup = worst_speedup.min(speedup);
        }

        // The other two transposes of the 96³ task, best SIMD kernel.
        if n == 96 && !simd_kernels.is_empty() {
            for (ops, tag) in [((Op::T, Op::N), "tn"), ((Op::N, Op::T), "nt")] {
                let g = (simd_kernels.iter())
                    .map(|&k| bench_kernel_ops(k, ops))
                    .fold(f64::NAN, f64::max);
                metrics.num(&format!("gflops_simd_{tag}_96"), g);
                transpose_row.push(fmt(g));
            }
        }

        // Both factors prepacked: the task shapes of `manyrank_copy`
        // and `square_large`.
        let g_prepacked = (n == 96 || n == 768).then(|| {
            let kernel = active_kernel();
            let (mut pa, mut pb) = (PackedPanel::new(), PackedPanel::new());
            pa.pack(Side::A(Op::N), kernel, a.as_ref());
            pb.pack(Side::B(Op::N), kernel, b.as_ref());
            let mut ws = GemmWorkspace::new();
            let g = measure(n, cfg.quick, || {
                let (a, b) = (Operand::Packed(pa.view()), Operand::Packed(pb.view()));
                dgemm_operands(1.0, a, b, 0.0, c.as_mut(), &mut ws)
            });
            metrics.num(&format!("gflops_prepacked_{n}"), g);
            g
        });

        // Name-based lookup so the table compiles on every arch (the
        // off-target kernel enum variants do not exist there).
        let per_kernel = |name: &str| {
            g_by_kernel
                .iter()
                .find(|&&(kk, _)| kk.env_name() == name)
                .map(|&(_, g)| fmt(g))
                .unwrap_or_else(|| "-".to_string())
        };
        rows.push(vec![
            n.to_string(),
            g_naive.map(fmt).unwrap_or_else(|| "-".to_string()),
            fmt(g_scalar),
            per_kernel("avx2"),
            per_kernel("avx512"),
            per_kernel("neon"),
            g_prepacked.map(fmt).unwrap_or_else(|| "-".to_string()),
            g_simd
                .map(|g| format!("{:.2}x", g / g_scalar))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    if worst_speedup.is_finite() {
        metrics.num("speedup_simd_over_scalar_min", worst_speedup);
    }

    print_table(
        "dense gemm kernel ladder (GFLOP/s, best of samples)",
        &[
            "n",
            "naive",
            "scalar",
            "avx2",
            "avx512",
            "neon",
            "prepacked",
            "simd/scalar",
        ],
        &rows,
    );
    if transpose_row.len() > 1 {
        print_table(
            "the 96^3 task by transpose (GFLOP/s, best SIMD kernel, best of samples)",
            &["n", "op(A) = A^T", "op(B) = B^T"],
            &[transpose_row],
        );
    }

    let mut ldc_rows: Vec<Vec<String>> = Vec::new();
    for (ta, shape, tag, ldcs) in [
        (Op::T, (96, 96, 1536), "96x96x1536", [96, 384]),
        (Op::N, (96, 96, 96), "96", [96, 768]),
    ] {
        let mut row = vec![format!("{ta:?}N {tag}")];
        for ldc in ldcs {
            let g = bench_ldc(ta, shape, ldc, cfg.quick);
            metrics.num(&format!("gflops_ldc_{ldc}_{tag}"), g);
            row.push(format!("{ldc}: {}", fmt(g)));
        }
        ldc_rows.push(row);
    }
    print_table(
        "one rank-task into a C window (GFLOP/s by ldc, best of samples)",
        &["task", "private block", "window of the result"],
        &ldc_rows,
    );

    let mut lda_row = vec!["A: TN/NN 96x96x1536".to_string()];
    for (tag, g) in bench_lda(cfg.quick) {
        metrics.num(&format!("gflops_lda_{tag}_96x96x1536"), g);
        lda_row.push(format!("{tag}: {}", fmt(g)));
    }
    let mut ldb_row = vec!["B: NN 96".to_string()];
    for (ldb, g) in bench_ldb(cfg.quick) {
        metrics.num(&format!("gflops_ldb_{ldb}_96"), g);
        ldb_row.push(format!("{ldb}: {}", fmt(g)));
    }
    print_table(
        "one rank-task by where an operand lies (GFLOP/s by lda / ldb, best of samples)",
        &["task", "own block", "window of a wider matrix"],
        &[lda_row, ldb_row],
    );

    let mut pack_rows: Vec<Vec<String>> = Vec::new();
    for s in [96, 1536] {
        let mut row = vec![s.to_string()];
        for (case, ns) in bench_pack(s, cfg.quick) {
            metrics.num(&format!("pack_ns_per_elem_{case}"), ns);
            row.push(format!("{ns:.3}"));
        }
        pack_rows.push(row);
    }
    let mut get_row = vec!["96 of ld 768, whole".to_string()];
    for (case, ns) in bench_get_pack(cfg.quick) {
        metrics.num(&format!("pack_ns_per_elem_{case}"), ns);
        get_row.push(format!("{ns:.3}"));
    }
    get_row.resize(6, "-".to_string());
    pack_rows.push(get_row);
    print_table(
        &format!(
            "pack cost (ns per element, best of samples, sliver widths {}x{})",
            active_kernel().mr(),
            active_kernel().nr()
        ),
        &["source", "A N", "B N", "A T", "B T", "B N w=24"],
        &pack_rows,
    );

    let report = bench_report_json("dense_gemm", "host", "[]", &metrics.finish());
    cfg.write_report("dense_gemm", &report);
}
