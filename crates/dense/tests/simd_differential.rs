//! Differential tests: the AVX2+FMA micro-kernel against the portable
//! scalar path, at both the micro-kernel level (randomized `kc` and
//! sliver contents) and the full blocked-gemm level (workspace pinned
//! to each kernel); and the AVX-512 micro-kernel, every width instance
//! of it, against a `f64::mul_add` chain and against its own one-vector
//! instance — bit for bit, which is what lets the tile shape change
//! without any result changing. Skips cleanly — with a note, not a
//! failure — on hosts without the instruction set.
//!
//! Tolerance notes: FMA contracts each multiply-add into one rounding,
//! so float results are *not* bitwise equal to mul-then-add. For
//! integer-valued inputs with small products every intermediate is
//! exact in both schemes, giving a bitwise-identical oracle; for float
//! inputs the comparison uses a tolerance scaled by the accumulation
//! length.

#![cfg(target_arch = "x86_64")]

use srumma_dense::blocked::{BlockSizes, KC};
use srumma_dense::kernel::{writeback, Microkernel, ACC_LEN, MR, MR_AVX512, NR_AVX2, NR_AVX512};
use srumma_dense::pack::{pack_a, pack_b};
use srumma_dense::simd::microkernel_avx512;
use srumma_dense::{
    dgemm_operands, dgemm_ws, prop_rerun, prop_seeds, GemmWorkspace, Matrix, Op, Operand,
    PackedPanel, Rng, Side,
};

fn avx2_or_skip() -> bool {
    if Microkernel::Avx2.available() {
        true
    } else {
        eprintln!("skipping: host lacks AVX2+FMA");
        false
    }
}

/// Reference accumulation for an `MR × NR_AVX2` tile, written as the
/// plainest possible triple loop (mul then add — no FMA contraction in
/// debug builds, and the test tolerance covers release-mode float
/// differences).
fn reference_tile(kc: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
    for k in 0..kc {
        for r in 0..MR {
            for c in 0..NR_AVX2 {
                acc[r * NR_AVX2 + c] += a[k * MR + r] * b[k * NR_AVX2 + c];
            }
        }
    }
}

/// Integer-valued slivers: FMA rounding equals mul+add rounding because
/// every product and partial sum is exactly representable — the
/// comparison is bitwise.
#[test]
fn microkernel_exact_on_integer_inputs() {
    if !avx2_or_skip() {
        return;
    }
    for case in 0..64u64 {
        let mut rng = Rng::new(0x51D1_FF01 + case);
        let kc = rng.range(1, 40);
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR_AVX2];
        for v in a.iter_mut() {
            *v = rng.range(0, 32) as f64 - 16.0;
        }
        for v in b.iter_mut() {
            *v = rng.range(0, 32) as f64 - 16.0;
        }
        let mut expect = vec![0.0; ACC_LEN];
        let mut got = vec![0.0; ACC_LEN];
        reference_tile(kc, &a, &b, &mut expect);
        Microkernel::Avx2.run(kc, &a, &b, &mut got);
        assert_eq!(got, expect, "case {case} kc={kc}: integer tile not exact");
    }
}

/// Random float slivers: equal up to accumulation-order rounding. The
/// bound scales with `kc` (each of the kc partial sums contributes at
/// most one ulp-scale difference between the FMA and mul+add schemes).
#[test]
fn microkernel_tight_tolerance_on_float_inputs() {
    if !avx2_or_skip() {
        return;
    }
    for case in 0..64u64 {
        let mut rng = Rng::new(0x51D1_FF02 + case);
        let kc = rng.range(1, 96);
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR_AVX2];
        for v in a.iter_mut() {
            *v = rng.unit();
        }
        for v in b.iter_mut() {
            *v = rng.unit();
        }
        // Start both accumulators from the same nonzero state to cover
        // the accumulate-in path.
        let mut expect = vec![0.25; ACC_LEN];
        let mut got = expect.clone();
        reference_tile(kc, &a, &b, &mut expect);
        Microkernel::Avx2.run(kc, &a, &b, &mut got);
        let tol = 1e-15 * kc as f64 + 1e-14;
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= tol,
                "case {case} kc={kc} acc[{i}]: {g} vs {e} (tol {tol:e})"
            );
        }
    }
}

/// Full blocked gemm with an AVX2-pinned workspace against a
/// scalar-pinned one, over randomized shapes, transposes and scalars —
/// the end-to-end guarantee that kernel choice never changes results
/// beyond rounding.
#[test]
fn blocked_gemm_avx2_matches_scalar_workspace() {
    if !avx2_or_skip() {
        return;
    }
    for case in 0..24u64 {
        let mut rng = Rng::new(0x51D1_FF03 + case);
        let m = rng.range(1, 140);
        let n = rng.range(1, 140);
        let k = rng.range(1, 140);
        let (ta, tb) = (
            if rng.chance(0.5) { Op::N } else { Op::T },
            if rng.chance(0.5) { Op::N } else { Op::T },
        );
        let alpha = rng.unit() * 2.0;
        let beta = rng.unit();
        let seed = rng.next_u64() % 1000;
        let (ar, ac) = match ta {
            Op::N => (m, k),
            Op::T => (k, m),
        };
        let (br, bc) = match tb {
            Op::N => (k, n),
            Op::T => (n, k),
        };
        let a = Matrix::random(ar, ac, seed);
        let b = Matrix::random(br, bc, seed + 1);
        let c0 = Matrix::random(m, n, seed + 2);

        // Deliberately small blocks on one side so sliver raggedness
        // differs between the two runs too.
        let mut ws_scalar =
            GemmWorkspace::with_config(Microkernel::Scalar, BlockSizes::new(48, 64, 96));
        let mut ws_avx2 = GemmWorkspace::with_kernel(Microkernel::Avx2);

        let mut want = c0.clone();
        dgemm_ws(
            ta,
            tb,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            want.as_mut(),
            &mut ws_scalar,
        );
        let mut got = c0.clone();
        dgemm_ws(
            ta,
            tb,
            alpha,
            a.as_ref(),
            b.as_ref(),
            beta,
            got.as_mut(),
            &mut ws_avx2,
        );
        let err = srumma_dense::max_abs_diff(&got, &want);
        let tol = 1e-13 * k as f64 + 1e-12;
        assert!(
            err <= tol,
            "case {case}: {m}x{n}x{k} {ta:?}{tb:?} err {err} > tol {tol}"
        );
    }
}

/// The AVX2 workspace also keeps the zero-steady-state-allocation
/// guarantee: its packing buffers grow exactly once.
#[test]
fn avx2_workspace_reuses_buffers() {
    if !avx2_or_skip() {
        return;
    }
    let mut ws = GemmWorkspace::with_kernel(Microkernel::Avx2);
    let a = Matrix::random(100, 80, 1);
    let b = Matrix::random(80, 90, 2);
    let mut c = Matrix::zeros(100, 90);
    for _ in 0..3 {
        dgemm_ws(
            Op::N,
            Op::N,
            1.0,
            a.as_ref(),
            b.as_ref(),
            0.0,
            c.as_mut(),
            &mut ws,
        );
        assert_eq!(ws.grow_count(), 1);
    }
}

fn avx512_or_skip() -> bool {
    if Microkernel::Avx512.available() {
        true
    } else {
        eprintln!("skipping: host lacks AVX-512F");
        false
    }
}

/// The `NV`-vector instance of the AVX-512 kernel, `NV` chosen at run
/// time.
fn avx512_instance(nv: usize, kc: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
    assert!(Microkernel::Avx512.available());
    // SAFETY: avx512f was detected on the line above.
    unsafe {
        match nv {
            1 => microkernel_avx512::<1>(kc, a, b, acc),
            2 => microkernel_avx512::<2>(kc, a, b, acc),
            3 => microkernel_avx512::<3>(kc, a, b, acc),
            _ => unreachable!("no {nv}-vector instance"),
        }
    }
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str, seed: u64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} is {g:?} ({:#x}), expected {w:?} ({:#x})\n{}",
            g.to_bits(),
            w.to_bits(),
            prop_rerun(seed, "avx512")
        );
    }
}

/// Every instance of the AVX-512 kernel, on slivers with 1..=24 live
/// columns (dead lanes `0.0`, as `pack_b` leaves them), at depths from
/// empty to the default `KC`, into a non-zero accumulator: each of the
/// instance's `8 * NV` columns must equal the `f64::mul_add` chain over
/// `k` in order, bit for bit, and every lane past them — of the tile
/// and of the slack behind it — must come back untouched. The dispatch
/// must pick the narrowest instance that covers the live columns.
#[test]
fn avx512_every_instance_matches_the_fma_chain_bit_for_bit() {
    if !avx512_or_skip() {
        return;
    }
    let poison = f64::from_bits(0x7FF8_0000_0BAD_ACC1);
    let (mr, nr) = (MR_AVX512, NR_AVX512);
    for seed in prop_seeds(0x0512_8024, 4) {
        let mut rng = Rng::new(seed);
        for kc in [0usize, 1, 7, 96, 256] {
            for cols in 1..=nr {
                let a: Vec<f64> = (0..kc * mr).map(|_| rng.unit() - 0.5).collect();
                let mut b = vec![0.0; kc * nr];
                for row in b.chunks_exact_mut(nr) {
                    row[..cols].fill_with(|| rng.unit() - 0.5);
                }
                let acc0: Vec<f64> = (0..ACC_LEN).map(|_| rng.unit() + 0.25).collect();
                for nv in 1..=nr / 8 {
                    let width = 8 * nv;
                    // The incoming tile: `acc0` in the instance's
                    // columns, poison everywhere else.
                    let mut start = vec![poison; ACC_LEN + 8];
                    for r in 0..mr {
                        start[r * nr..r * nr + width]
                            .copy_from_slice(&acc0[r * nr..r * nr + width]);
                    }
                    let mut want = start.clone();
                    for r in 0..mr {
                        for c in 0..width {
                            want[r * nr + c] = (0..kc).fold(acc0[r * nr + c], |s, k| {
                                a[k * mr + r].mul_add(b[k * nr + c], s)
                            });
                        }
                    }
                    let what = format!("NV={nv} cols={cols} kc={kc}");
                    let mut got = start.clone();
                    avx512_instance(nv, kc, &a, &b, &mut got);
                    assert_same_bits(&got, &want, &what, seed);
                    if nv == cols.div_ceil(8) {
                        let mut got = start;
                        Microkernel::Avx512.run_cols(cols, kc, &a, &b, &mut got);
                        assert_same_bits(&got, &want, &format!("run_cols {what}"), seed);
                    }
                }
            }
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C` through the loop nest of `dgemm_ws`
/// with the real packers, but every tile computed eight columns at a
/// time by the one-vector instance: one B load, eight broadcasts and
/// eight FMAs per `k` step — the arithmetic of the 8×8 tile this kernel
/// replaced.
fn gemm_by_one_vector_instances(
    ws: &GemmWorkspace,
    (ta, tb): (Op, Op),
    (alpha, beta): (f64, f64),
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) {
    let (m, n) = (c.rows(), c.cols());
    let k = ta.apply(a.rows(), a.cols()).1;
    let (mr, nr) = (MR_AVX512, NR_AVX512);
    let BlockSizes {
        mc: bmc,
        kc: bkc,
        nc: bnc,
    } = ws.blocks();
    c.as_mut().scale(beta);
    let mut apack = vec![0.0; bmc.div_ceil(mr) * mr * bkc];
    let mut bpack = vec![0.0; bnc.div_ceil(nr) * nr * bkc];
    for jc in (0..n).step_by(bnc) {
        let nc = bnc.min(n - jc);
        for lc in (0..k).step_by(bkc) {
            let kc = bkc.min(k - lc);
            pack_b(tb, b.as_ref(), lc, jc, kc, nc, nr, &mut bpack);
            for ic in (0..m).step_by(bmc) {
                let mc = bmc.min(m - ic);
                pack_a(ta, a.as_ref(), ic, lc, mc, kc, mr, &mut apack);
                for js in 0..nc.div_ceil(nr) {
                    let b_sliver = &bpack[js * nr * kc..(js + 1) * nr * kc];
                    for is in 0..mc.div_ceil(mr) {
                        let mut acc = [0.0; ACC_LEN];
                        let a_sliver = &apack[is * mr * kc..(is + 1) * mr * kc];
                        for v in (0..nr).step_by(8) {
                            avx512_instance(1, kc, a_sliver, &b_sliver[v..], &mut acc[v..]);
                        }
                        let (r0, c0) = (ic + is * mr, jc + js * nr);
                        let (rows, cols) = (mr.min(m - r0), nr.min(n - c0));
                        let mut tile = c.block_mut(r0, c0, rows, cols);
                        writeback(&mut acc, alpha, nr, &mut tile);
                    }
                }
            }
        }
    }
}

/// The tile shape is bit-neutral: `dgemm_ws` on the 8×24 tile (three
/// vectors on full slivers, fewer on ragged ones) equals the same loop
/// nest computed eight columns at a time, bit for bit — all four
/// transpose cases, ragged shapes that cross every blocking level (`k`
/// past the default `KC` included), three `(α, β)` pairs.
#[test]
fn avx512_dgemm_is_bit_identical_to_its_one_vector_instance() {
    if !avx512_or_skip() {
        return;
    }
    for seed in prop_seeds(0x0512_0801, 3) {
        let mut rng = Rng::new(seed);
        for blocks in [None, Some(BlockSizes::new(24, 40, 52))] {
            for (ta, tb) in [
                (Op::N, Op::N),
                (Op::T, Op::N),
                (Op::N, Op::T),
                (Op::T, Op::T),
            ] {
                for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (1.5, 0.5)] {
                    let (m, n) = (rng.range(1, 90), rng.range(1, 90));
                    let k = rng.range(1, if blocks.is_none() { 600 } else { 130 });
                    let (ar, ac) = ta.apply(m, k);
                    let (br, bc) = tb.apply(k, n);
                    let a = Matrix::random(ar, ac, rng.next_u64());
                    let b = Matrix::random(br, bc, rng.next_u64());
                    let c0 = Matrix::random(m, n, rng.next_u64());

                    let mut ws = match blocks {
                        Some(blocks) => GemmWorkspace::with_config(Microkernel::Avx512, blocks),
                        None => GemmWorkspace::with_kernel(Microkernel::Avx512),
                    };
                    let mut want = c0.clone();
                    gemm_by_one_vector_instances(&ws, (ta, tb), (alpha, beta), &a, &b, &mut want);
                    let mut got = c0.clone();
                    dgemm_ws(
                        ta,
                        tb,
                        alpha,
                        a.as_ref(),
                        b.as_ref(),
                        beta,
                        got.as_mut(),
                        &mut ws,
                    );
                    let what = format!(
                        "dgemm_ws {ta:?}{tb:?} {m}x{n}x{k} alpha={alpha} beta={beta} blocks={:?}",
                        ws.blocks()
                    );
                    assert_same_bits(got.as_slice(), want.as_slice(), &what, seed);
                }
            }
        }
    }
}

/// A prepacked side changes no bit. Each factor is a whole stored block
/// (its own full depth, a strided window of a larger matrix) of which
/// the product uses a k-segment that starts past the block's origin and
/// is longer than `KC`: the plain path multiplies the sub-blocks
/// through `dgemm_ws`, the packed paths cut the same segment out of a
/// panel packed once at full depth. (packed, plain), (plain, packed)
/// and (packed, packed) must all equal (plain, plain) bit for bit — all
/// four transposes, every kernel this host runs, the default blocks and
/// one configuration whose `mc` and `nc` are not whole slivers of any
/// kernel.
#[test]
fn packed_operands_are_bit_identical_to_plain_ones() {
    for seed in prop_seeds(0x9ACC_ED01, 2) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            for blocks in [None, Some(BlockSizes::new(21, 100, 50))] {
                for (ta, tb) in [
                    (Op::N, Op::N),
                    (Op::T, Op::N),
                    (Op::N, Op::T),
                    (Op::T, Op::T),
                ] {
                    let (m, n) = (rng.range(1, 70), rng.range(1, 70));
                    let seg = rng.range(257, 420);
                    let (rel_a, rel_b) = (rng.range(1, 40), rng.range(1, 40));
                    let (ka, kb) = (rel_a + seg + rng.range(0, 9), rel_b + seg + rng.range(0, 9));
                    let (alpha, beta) = (1.5, 0.5);

                    // Whole stored blocks, as windows with ld > cols.
                    let (ar, ac) = ta.apply(m, ka);
                    let (br, bc) = tb.apply(kb, n);
                    let big_a = Matrix::random(ar + 3, ac + 5, rng.next_u64());
                    let big_b = Matrix::random(br + 2, bc + 7, rng.next_u64());
                    let (a, b) = (big_a.block(2, 4, ar, ac), big_b.block(1, 6, br, bc));
                    let c0 = Matrix::random(m, n, rng.next_u64());
                    // The segment of each, as the plain path sees it.
                    let a_seg = match ta {
                        Op::N => a.block(0, rel_a, m, seg),
                        Op::T => a.block(rel_a, 0, seg, m),
                    };
                    let b_seg = match tb {
                        Op::N => b.block(rel_b, 0, seg, n),
                        Op::T => b.block(0, rel_b, n, seg),
                    };

                    let mut ws = match blocks {
                        Some(blocks) => GemmWorkspace::with_config(kernel, blocks),
                        None => GemmWorkspace::with_kernel(kernel),
                    };
                    let mut want = c0.clone();
                    dgemm_ws(ta, tb, alpha, a_seg, b_seg, beta, want.as_mut(), &mut ws);

                    let (mut pa, mut pb) = (PackedPanel::new(), PackedPanel::new());
                    pa.pack(Side::A(ta), kernel, a);
                    pb.pack(Side::B(tb), kernel, b);
                    let plain = (Operand::Plain(a_seg, ta), Operand::Plain(b_seg, tb));
                    let packed = (
                        Operand::Packed(pa.view().k_range(rel_a, seg)),
                        Operand::Packed(pb.view().k_range(rel_b, seg)),
                    );
                    for (which, a, b) in [
                        ("packed x plain", packed.0, plain.1),
                        ("plain x packed", plain.0, packed.1),
                        ("packed x packed", packed.0, packed.1),
                    ] {
                        let mut got = c0.clone();
                        dgemm_operands(alpha, a, b, beta, got.as_mut(), &mut ws);
                        let what = format!(
                            "{which} {} {ta:?}{tb:?} {m}x{n} seg={seg} rel={rel_a}/{rel_b} \
                             blocks={:?}",
                            kernel.name(),
                            ws.blocks()
                        );
                        assert_same_bits(got.as_slice(), want.as_slice(), &what, seed);
                    }
                }
            }
        }
    }
}

/// `β = 0` means C need not be set on input: `dgemm_ws` into a C of NaN
/// leaves the bits that `β = 1` leaves on a zeroed C — on every kernel
/// this host runs, for whole tiles and ragged edges, for depths whose
/// only panel stores and depths past `KC` and `2·KC` whose later panels
/// add, for two `α`, with C a window (`ld > cols`) whose surroundings
/// stay untouched. A NaN left behind is a store that never happened.
#[test]
fn beta_zero_into_nan_is_beta_one_onto_zeros() {
    for seed in prop_seeds(0xB0_FEED, 1) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            let (mr, nr) = (kernel.mr(), kernel.nr());
            for k in [1, 7, KC, KC + 1, 2 * KC + 3] {
                for (m, n) in [(2 * mr, 2 * nr), (2 * mr + 3, nr + 5), (1, 1)] {
                    for alpha in [1.0, -2.5] {
                        let pick = |rng: &mut Rng| if rng.chance(0.5) { Op::N } else { Op::T };
                        let (ta, tb) = (pick(&mut rng), pick(&mut rng));
                        let (ar, ac) = ta.apply(m, k);
                        let (br, bc) = tb.apply(k, n);
                        let a = Matrix::random(ar, ac, rng.next_u64());
                        let b = Matrix::random(br, bc, rng.next_u64());
                        let mut ws = GemmWorkspace::with_kernel(kernel);
                        let (a, b) = (a.as_ref(), b.as_ref());
                        // C is the window at (1, 2) of a matrix 5 wider.
                        let around = |inside: f64| {
                            Matrix::from_fn(m + 3, n + 5, |i, j| {
                                let outside = !(1..1 + m).contains(&i) || !(2..2 + n).contains(&j);
                                if outside {
                                    (i * 31 + j) as f64
                                } else {
                                    inside
                                }
                            })
                        };
                        let (mut want, mut got) = (around(0.0), around(f64::NAN));
                        let c = want.block_mut(1, 2, m, n);
                        dgemm_ws(ta, tb, alpha, a, b, 1.0, c, &mut ws);
                        let c = got.block_mut(1, 2, m, n);
                        dgemm_ws(ta, tb, alpha, a, b, 0.0, c, &mut ws);
                        let what =
                            format!("{} {ta:?}{tb:?} {m}x{n}x{k} alpha={alpha}", kernel.name());
                        assert_same_bits(got.as_slice(), want.as_slice(), &what, seed);
                    }
                }
            }
        }
    }
}

/// A panel packed for another kernel's sliver width is refused, by a
/// message that names both widths — reading it at the wrong stride
/// would be a silently wrong product.
#[test]
fn a_panel_of_another_sliver_width_is_refused() {
    let b = Matrix::random(9, 30, 1);
    let a = Matrix::random(5, 9, 2);
    let mut c = Matrix::zeros(5, 30);
    let mut panel = PackedPanel::new();
    panel.pack(Side::B(Op::N), Microkernel::Avx2, b.as_ref());
    let mut ws = GemmWorkspace::with_kernel(Microkernel::Scalar);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let a = Operand::Plain(a.as_ref(), Op::N);
        let b = Operand::Packed(panel.view());
        dgemm_operands(1.0, a, b, 0.0, c.as_mut(), &mut ws);
    }))
    .expect_err("a 12-wide panel must not reach the 4x8 kernel");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("slivers of 12") && msg.contains("slivers of 8") && msg.contains("scalar"),
        "unexpected panic message: {msg}"
    );
}
