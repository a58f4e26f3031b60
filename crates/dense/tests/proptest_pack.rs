//! Property-style tests for the operand packers (`pack_a` / `pack_b`),
//! which are otherwise only exercised indirectly through `dgemm_ws`:
//! sliver ordering, zero-padding at ragged edges, and transposed +
//! strided source views, for every sliver geometry in use (`mr = 4`
//! scalar/AVX2/NEON, `mr = 8` AVX-512; `nr = 8` scalar/AVX-512/NEON,
//! `nr = 12` AVX2).
//!
//! Buffers are pre-filled with NaN so any cell the packer fails to
//! write — padding it should have zeroed, elements it should have
//! copied — poisons the comparison instead of passing by luck.

use srumma_dense::gemm::Op;
use srumma_dense::kernel::{MR, MR_AVX512, NR, NR_AVX2};
use srumma_dense::pack::{pack_a, pack_b};
use srumma_dense::{MatRef, Matrix, Rng};

const CASES: u64 = 48;

fn random_op(rng: &mut Rng) -> Op {
    if rng.chance(0.5) {
        Op::N
    } else {
        Op::T
    }
}

/// `op(X)[i][j]` read through the view (the packers' input contract).
fn op_at(v: MatRef<'_>, trans: Op, i: usize, j: usize) -> f64 {
    match trans {
        Op::N => v.at(i, j),
        Op::T => v.at(j, i),
    }
}

/// Every packed A cell equals the corresponding `op(A)` element (sliver
/// ordering + k-major layout) or zero (edge padding past the panel),
/// for both sliver heights in use (`mr = 4` and the AVX-512 `mr = 8`).
#[test]
fn pack_a_slivers_match_logical_panel() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x00A0_9AC4_u64.wrapping_add(case));
        let trans = random_op(&mut rng);
        let mr = if rng.chance(0.5) { MR } else { MR_AVX512 };
        // Panel inside op(A), with a nonzero origin half the time.
        let mc = rng.range(1, 20);
        let kc = rng.range(1, 20);
        let i0 = rng.range(0, 6);
        let l0 = rng.range(0, 6);
        // Stored shape of A so that op(A) covers (i0+mc) x (l0+kc).
        let (vr, vc) = match trans {
            Op::N => (i0 + mc, l0 + kc),
            Op::T => (l0 + kc, i0 + mc),
        };
        // Strided view: the panel lives inside a larger allocation.
        let pr = rng.range(0, 4);
        let pc = rng.range(0, 4);
        let big = Matrix::random(vr + pr + 2, vc + pc + 3, rng.next_u64());
        let view = big.block(pr, pc, vr, vc);

        let slivers = mc.div_ceil(mr);
        let mut buf = vec![f64::NAN; slivers * mr * kc];
        pack_a(trans, view, i0, l0, mc, kc, mr, &mut buf);

        for s in 0..slivers {
            for k in 0..kc {
                for r in 0..mr {
                    let got = buf[s * mr * kc + k * mr + r];
                    let row = s * mr + r;
                    let expect = if row < mc {
                        op_at(view, trans, i0 + row, l0 + k)
                    } else {
                        0.0
                    };
                    assert!(
                        got == expect,
                        "case {case} trans={trans:?} mr={mr} s={s} k={k} r={r}: {got} != {expect}"
                    );
                }
            }
        }
    }
}

/// Same contract for B, at both sliver widths (8 and 12).
#[test]
fn pack_b_slivers_match_logical_panel_both_widths() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x00B0_9ACC_u64.wrapping_add(case));
        let trans = random_op(&mut rng);
        let nr = if rng.chance(0.5) { NR } else { NR_AVX2 };
        let kc = rng.range(1, 20);
        let nc = rng.range(1, 30);
        let l0 = rng.range(0, 6);
        let j0 = rng.range(0, 6);
        let (vr, vc) = match trans {
            Op::N => (l0 + kc, j0 + nc),
            Op::T => (j0 + nc, l0 + kc),
        };
        let pr = rng.range(0, 4);
        let pc = rng.range(0, 4);
        let big = Matrix::random(vr + pr + 1, vc + pc + 2, rng.next_u64());
        let view = big.block(pr, pc, vr, vc);

        let slivers = nc.div_ceil(nr);
        let mut buf = vec![f64::NAN; slivers * nr * kc];
        pack_b(trans, view, l0, j0, kc, nc, nr, &mut buf);

        for s in 0..slivers {
            for k in 0..kc {
                for c in 0..nr {
                    let got = buf[s * nr * kc + k * nr + c];
                    let col = s * nr + c;
                    let expect = if col < nc {
                        op_at(view, trans, l0 + k, j0 + col)
                    } else {
                        0.0
                    };
                    assert!(
                        got == expect,
                        "case {case} trans={trans:?} nr={nr} s={s} k={k} c={c}: {got} != {expect}"
                    );
                }
            }
        }
    }
}

/// Ragged final slivers are padded with real zeros even when the buffer
/// arrives poisoned — the micro-kernel reads padding as data, so NaN or
/// stale values there would corrupt C silently.
#[test]
fn ragged_edges_overwrite_poisoned_buffers_with_zeros() {
    for &(dim, nr_opt) in &[
        (1usize, None),
        (MR + 1, None),
        (MR_AVX512 + 1, None),
        (NR + 3, Some(NR)),
        (NR_AVX2 + 5, Some(NR_AVX2)),
    ] {
        let kc = 7;
        // A side: mc not a multiple of mr, at both sliver heights.
        for &mr in &[MR, MR_AVX512] {
            let mc = dim;
            let m = Matrix::random(mc, kc, 9);
            let slivers = mc.div_ceil(mr);
            let mut buf = vec![f64::NAN; slivers * mr * kc];
            pack_a(Op::N, m.as_ref(), 0, 0, mc, kc, mr, &mut buf);
            assert!(
                buf.iter().all(|v| v.is_finite()),
                "pack_a left NaN in a padded cell (mc={mc}, mr={mr})"
            );
        }

        // B side: nc not a multiple of nr.
        if let Some(nr) = nr_opt {
            let nc = dim;
            let b = Matrix::random(kc, nc, 10);
            let slivers = nc.div_ceil(nr);
            let mut buf = vec![f64::NAN; slivers * nr * kc];
            pack_b(Op::N, b.as_ref(), 0, 0, kc, nc, nr, &mut buf);
            assert!(
                buf.iter().all(|v| v.is_finite()),
                "pack_b left NaN in a padded cell (nc={nc}, nr={nr})"
            );
        }
    }
}

/// Packing a transposed view equals packing the materialized transpose:
/// `op = T` over stored X must agree with `op = N` over `X^T`.
#[test]
fn transpose_flag_equals_materialized_transpose() {
    for case in 0..CASES / 4 {
        let mut rng = Rng::new(0x7A44_5050_u64.wrapping_add(case));
        let rows = rng.range(3, 16);
        let cols = rng.range(3, 16);
        let stored = Matrix::random(rows, cols, rng.next_u64());
        let materialized = stored.transposed();

        // op(A) panel shape bounded by the transposed view: cols x rows.
        let mc = rng.range(1, cols);
        let kc = rng.range(1, rows);
        let slivers = mc.div_ceil(MR);
        let mut via_flag = vec![f64::NAN; slivers * MR * kc];
        let mut via_copy = vec![f64::NAN; slivers * MR * kc];
        pack_a(Op::T, stored.as_ref(), 0, 0, mc, kc, MR, &mut via_flag);
        pack_a(
            Op::N,
            materialized.as_ref(),
            0,
            0,
            mc,
            kc,
            MR,
            &mut via_copy,
        );
        assert_eq!(via_flag, via_copy, "case {case}: pack_a T vs materialized");

        let nc = rng.range(1, rows);
        let kcb = rng.range(1, cols);
        let slivers = nc.div_ceil(NR);
        let mut via_flag = vec![f64::NAN; slivers * NR * kcb];
        let mut via_copy = vec![f64::NAN; slivers * NR * kcb];
        pack_b(Op::T, stored.as_ref(), 0, 0, kcb, nc, NR, &mut via_flag);
        pack_b(
            Op::N,
            materialized.as_ref(),
            0,
            0,
            kcb,
            nc,
            NR,
            &mut via_copy,
        );
        assert_eq!(via_flag, via_copy, "case {case}: pack_b T vs materialized");
    }
}

// ---------------------------------------------------------------------
// Bitwise oracle: the element-by-element packers the tile movers
// replaced, kept here verbatim in behaviour. Packing only moves values,
// so the new packers must reproduce them bit for bit — NaN payloads and
// `-0.0` included — and through them `dgemm_ws` must produce the C it
// always did.
// ---------------------------------------------------------------------

use srumma_dense::kernel::{writeback, Microkernel, ACC_LEN};
use srumma_dense::{dgemm_ws, prop_rerun, prop_seeds, BlockSizes, GemmWorkspace};

/// The sliver widths under test: every `mr`/`nr` of the kernel ladder
/// plus one width the packers have no specialisation for.
const WIDTHS: [usize; 5] = [4, 8, 12, 24, 6];
/// Depths around the tile edges (the portable tile is 8 deep, the AVX2
/// one 4) and the default `KC`.
const DEPTHS: [usize; 7] = [0, 1, 7, 8, 9, 255, 256];

/// Element-wise `pack_a` / `pack_b`: `buf[s][k * w + x] ←
/// op(X)[x0 + s*w + x][k0 + k]` for A, `op(X)[k0 + k][x0 + s*w + x]`
/// for B, zero past `extent`.
#[allow(clippy::too_many_arguments)]
fn oracle_pack(
    operand_a: bool,
    trans: Op,
    v: MatRef<'_>,
    x0: usize,
    k0: usize,
    extent: usize,
    kc: usize,
    w: usize,
    buf: &mut [f64],
) {
    for s in 0..extent.div_ceil(w) {
        for k in 0..kc {
            for x in 0..w {
                let lane = s * w + x;
                buf[s * w * kc + k * w + x] = if lane >= extent {
                    0.0
                } else if operand_a {
                    op_at(v, trans, x0 + lane, k0 + k)
                } else {
                    op_at(v, trans, k0 + k, x0 + lane)
                };
            }
        }
    }
}

/// A `rows × cols` sub-view (`ld > cols`, origin off the allocation's)
/// of random data salted with the values a numeric comparison would
/// let slip: `-0.0`, infinities and NaNs with distinct payloads.
fn salted(rows: usize, cols: usize, rng: &mut Rng) -> (Matrix, usize, usize) {
    let (pr, pc) = (rng.range(0, 3), rng.range(0, 5));
    let mut big = Matrix::random(rows + pr + 1, cols + pc + rng.range(1, 9), rng.next_u64());
    for v in big.as_mut_slice() {
        if rng.chance(0.05) {
            *v = match rng.below(4) {
                0 => -0.0,
                1 => f64::NEG_INFINITY,
                _ => f64::from_bits(0x7FF8_0000_0000_0000 | (rng.next_u64() >> 13) | 1),
            };
        }
    }
    (big, pr, pc)
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str, seed: u64) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} is {g:?} ({:#x}), oracle says {w:?} ({:#x})\n{}",
            g.to_bits(),
            w.to_bits(),
            prop_rerun(seed, "packers_are_bit_identical")
        );
    }
}

/// `pack_a` and `pack_b` against the element loops:
/// every width, both `Op`s, ragged extents, origins off any multiple of
/// eight, strided sub-views, every depth in [`DEPTHS`]. The destination
/// arrives NaN-poisoned and longer than needed: padding must come back
/// `0.0` (the oracle writes it) and nothing past the slivers may change.
#[test]
fn packers_are_bit_identical_to_the_element_loops() {
    const SLACK: usize = 19;
    let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
    for seed in prop_seeds(0x9AC4_B175, 24) {
        let mut rng = Rng::new(seed);
        for &w in &WIDTHS {
            for &kc in &DEPTHS {
                let trans = random_op(&mut rng);
                // Ragged more often than not; sometimes below one sliver.
                let extent = rng.range(1, 3 * w + 2);
                let (x0, k0) = (rng.range(0, 11), rng.range(0, 11));
                let what = format!("w={w} kc={kc} {trans:?} extent={extent} x0={x0} k0={k0}");

                // op(A) spans (x0 + extent) x (k0 + kc); op(B) the transpose of that.
                let (ar, ac) = trans.apply(x0 + extent, k0 + kc);
                let (big, pr, pc) = salted(ar.max(1), ac.max(1), &mut rng);
                let a = big.block(pr, pc, ar.max(1), ac.max(1));
                let (br, bc) = trans.apply(k0 + kc, x0 + extent);
                let (bigb, pr, pc) = salted(br.max(1), bc.max(1), &mut rng);
                let b = bigb.block(pr, pc, br.max(1), bc.max(1));

                let len = extent.div_ceil(w) * w * kc;
                let mut want = vec![poison; len + SLACK];
                let mut got = want.clone();
                oracle_pack(true, trans, a, x0, k0, extent, kc, w, &mut want);
                pack_a(trans, a, x0, k0, extent, kc, w, &mut got);
                assert_same_bits(&got, &want, &format!("pack_a {what}"), seed);

                let mut want = vec![poison; len + SLACK];
                let mut got = want.clone();
                oracle_pack(false, trans, b, x0, k0, extent, kc, w, &mut want);
                pack_b(trans, b, k0, x0, kc, extent, w, &mut got);
                assert_same_bits(&got, &want, &format!("pack_b {what}"), seed);
            }
        }
    }
}

/// `MatMut::copy_transposed_from` against `dst[i][j] = src[j][i]`, on
/// uneven shapes, row and column vectors, and strided views on both
/// sides; everything outside the destination view keeps its poison.
#[test]
fn copy_transposed_from_matches_the_element_loop() {
    let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0002);
    for seed in prop_seeds(0x7A44_C0B1, 32) {
        let mut rng = Rng::new(seed);
        let (rows, cols) = match seed % 4 {
            0 => (1, rng.range(1, 70)),
            1 => (rng.range(1, 70), 1),
            // Multiples of four: no fringe left for the portable tiles.
            2 => (4 * rng.range(1, 17), 4 * rng.range(1, 17)),
            _ => (rng.range(1, 70), rng.range(1, 70)),
        };
        let (big, pr, pc) = salted(cols, rows, &mut rng);
        let src = big.block(pr, pc, cols, rows);

        let (dr, dc) = (rng.range(0, 3), rng.range(0, 5));
        let mut got = Matrix::from_fn(rows + dr + 1, cols + dc + rng.range(1, 9), |_, _| poison);
        let mut want = got.clone();
        for i in 0..rows {
            for j in 0..cols {
                want[(dr + i, dc + j)] = src.at(j, i);
            }
        }
        got.block_mut(dr, dc, rows, cols).copy_transposed_from(src);
        // And into a destination that ends with its last row.
        let tight = src.to_matrix().transposed();
        let inner = want.block(dr, dc, rows, cols).to_matrix();
        assert_same_bits(tight.as_slice(), inner.as_slice(), "transposed", seed);
        assert_same_bits(
            got.as_slice(),
            want.as_slice(),
            &format!("copy_transposed_from {rows}x{cols}"),
            seed,
        );
    }
}

/// `C ← α·op(A)·op(B) + β·C` through the blocked loop nest of
/// `dgemm_ws`, but packing with the element-loop oracles: what
/// `dgemm_ws` computed before the tile movers.
fn oracle_gemm(
    kernel: Microkernel,
    blocks: BlockSizes,
    (ta, tb): (Op, Op),
    (alpha, beta): (f64, f64),
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut Matrix,
) {
    let (m, n) = (c.rows(), c.cols());
    let k = ta.apply(a.rows(), a.cols()).1;
    let (mr, nr) = (kernel.mr(), kernel.nr());
    c.as_mut().scale(beta);
    let mut apack = vec![0.0; blocks.mc.div_ceil(mr) * mr * blocks.kc];
    let mut bpack = vec![0.0; blocks.nc.div_ceil(nr) * nr * blocks.kc];
    for jc in (0..n).step_by(blocks.nc) {
        let nc = blocks.nc.min(n - jc);
        for lc in (0..k).step_by(blocks.kc) {
            let kc = blocks.kc.min(k - lc);
            oracle_pack(false, tb, b, jc, lc, nc, kc, nr, &mut bpack);
            for ic in (0..m).step_by(blocks.mc) {
                let mc = blocks.mc.min(m - ic);
                oracle_pack(true, ta, a, ic, lc, mc, kc, mr, &mut apack);
                for js in 0..nc.div_ceil(nr) {
                    let b_sliver = &bpack[js * nr * kc..(js + 1) * nr * kc];
                    for is in 0..mc.div_ceil(mr) {
                        let mut acc = [0.0; ACC_LEN];
                        let a_sliver = &apack[is * mr * kc..(is + 1) * mr * kc];
                        kernel.run(kc, a_sliver, b_sliver, &mut acc);
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

/// C is what it was: `dgemm_ws` on random float inputs equals the
/// oracle-packed loop nest bit for bit — all four transpose cases,
/// ragged shapes that cross every blocking level, each kernel flavour
/// this host can run.
#[test]
fn dgemm_ws_is_bit_identical_to_the_element_loop_packers() {
    let blocks = BlockSizes::new(24, 40, 36);
    for seed in prop_seeds(0xC0DE_9AC4, 6) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            for (ta, tb) in [
                (Op::N, Op::N),
                (Op::T, Op::N),
                (Op::N, Op::T),
                (Op::T, Op::T),
            ] {
                let (m, n, k) = (rng.range(1, 70), rng.range(1, 70), rng.range(1, 90));
                let (ar, ac) = ta.apply(m, k);
                let (br, bc) = tb.apply(k, n);
                let a = Matrix::random(ar, ac + 3, rng.next_u64());
                let b = Matrix::random(br, bc + 1, rng.next_u64());
                let (a, b) = (a.block(0, 2, ar, ac), b.block(0, 1, br, bc));
                let (alpha, beta) = *rng.pick(&[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.25)]);
                let c0 = Matrix::random(m, n, rng.next_u64());

                let mut want = c0.clone();
                oracle_gemm(kernel, blocks, (ta, tb), (alpha, beta), a, b, &mut want);
                let mut got = c0.clone();
                let mut ws = GemmWorkspace::with_config(kernel, blocks);
                dgemm_ws(ta, tb, alpha, a, b, beta, got.as_mut(), &mut ws);
                assert_same_bits(
                    got.as_slice(),
                    want.as_slice(),
                    &format!(
                        "dgemm_ws {} {ta:?}{tb:?} {m}x{n}x{k} alpha={alpha} beta={beta}",
                        kernel.name()
                    ),
                    seed,
                );
            }
        }
    }
}

/// C where the caller reads it: `dgemm_operands` into a window of a
/// wider matrix (`ldc` > `n` — by a few columns, or up to the 512 at
/// which every row of a micro-tile shares its low address bits) leaves in
/// the window, bit for bit, what it leaves in a contiguous C, and moves
/// no element outside it — plain and prepacked factors, all four
/// transposes, shapes ragged against every micro-tile (edge tiles take
/// the portable writeback, whole ones the kernel's own), `k` past `kc`,
/// each kernel flavour this host can run.
#[test]
fn a_c_window_of_a_wider_matrix_takes_the_bits_of_a_contiguous_c() {
    use srumma_dense::{dgemm_operands, Operand, PackedPanel, Side};
    let blocks = BlockSizes::new(24, 40, 36);
    for seed in prop_seeds(0xC1_9AC4, 8) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            for (ta, tb) in [
                (Op::N, Op::N),
                (Op::T, Op::N),
                (Op::N, Op::T),
                (Op::T, Op::T),
            ] {
                let (m, n, k) = (rng.range(1, 70), rng.range(1, 70), rng.range(1, 90));
                let (ar, ac) = ta.apply(m, k);
                let (br, bc) = tb.apply(k, n);
                let a = Matrix::random(ar, ac, rng.next_u64());
                let b = Matrix::random(br, bc, rng.next_u64());
                let (mut pa, mut pb) = (PackedPanel::new(), PackedPanel::new());
                pa.pack(Side::A(ta), kernel, a.as_ref());
                pb.pack(Side::B(tb), kernel, b.as_ref());
                let (a, b) = match rng.below(3) {
                    0 => (
                        Operand::Plain(a.as_ref(), ta),
                        Operand::Plain(b.as_ref(), tb),
                    ),
                    1 => (Operand::Packed(pa.view()), Operand::Plain(b.as_ref(), tb)),
                    _ => (Operand::Packed(pa.view()), Operand::Packed(pb.view())),
                };
                let (alpha, beta) = *rng.pick(&[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.25)]);
                let what = format!(
                    "window {} {ta:?}{tb:?} {m}x{n}x{k} alpha={alpha} beta={beta}",
                    kernel.name()
                );

                let (mut host, pr, pc) = salted(m, n, &mut rng);
                if rng.chance(0.25) {
                    host = Matrix::random(host.rows(), 512, rng.next_u64());
                }
                let before = host.clone();
                let mut want = host.block(pr, pc, m, n).to_matrix();
                let mut ws = GemmWorkspace::with_config(kernel, blocks);
                dgemm_operands(alpha, a, b, beta, want.as_mut(), &mut ws);
                dgemm_operands(alpha, a, b, beta, host.block_mut(pr, pc, m, n), &mut ws);

                let got = host.block(pr, pc, m, n).to_matrix();
                assert_same_bits(got.as_slice(), want.as_slice(), &what, seed);
                let mut untouched = before;
                untouched.block_mut(pr, pc, m, n).copy_from(want.as_ref());
                let outside = format!("{what}: outside the window");
                assert_same_bits(host.as_slice(), untouched.as_slice(), &outside, seed);
            }
        }
    }
}

/// A block packed once at full depth serves every k-range of itself:
/// for each kernel of the ladder (sliver widths 4 and 8 on the A side,
/// 8, 12 and 24 on the B side), both orientations, ragged lanes and a
/// strided, salted source, the sub-range `[k0, k0 + kc)` of the panel
/// equals `pack_a` / `pack_b` of that sub-range, element for element.
/// One panel is refilled case after case, so a smaller block must not
/// see what a larger one left behind.
#[test]
fn full_depth_panel_sub_ranges_equal_packing_the_sub_range() {
    use srumma_dense::{PackedPanel, Side};
    let poison = f64::from_bits(0x7FF8_DEAD_BEEF_0002);
    let mut panel = PackedPanel::new();
    for seed in prop_seeds(0xF011_DE97, 24) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all() {
            for a_side in [true, false] {
                let op = random_op(&mut rng);
                let (side, w) = if a_side {
                    (Side::A(op), kernel.mr())
                } else {
                    (Side::B(op), kernel.nr())
                };
                let lanes = rng.range(1, 3 * w + 2);
                let depth = rng.range(1, 300);
                let k0 = rng.range(0, depth - 1);
                let kc = rng.range(1, depth - k0);
                // op(A) is lanes x depth, op(B) depth x lanes.
                let (rows, cols) = match (a_side, op) {
                    (true, Op::N) | (false, Op::T) => (lanes, depth),
                    (true, Op::T) | (false, Op::N) => (depth, lanes),
                };
                let (big, pr, pc) = salted(rows, cols, &mut rng);
                let src = big.block(pr, pc, rows, cols);
                let what = format!(
                    "{} {side:?} w={w} lanes={lanes} depth={depth} k0={k0} kc={kc}",
                    kernel.name()
                );

                panel.pack(side, kernel, src);
                let whole = panel.view();
                assert_eq!(
                    (whole.width(), whole.lanes(), whole.depth()),
                    (w, lanes, depth),
                    "{what}"
                );
                let sub = whole.k_range(k0, kc);
                assert_eq!((sub.lanes(), sub.depth()), (lanes, kc), "{what}");

                let slivers = lanes.div_ceil(w);
                let mut want = vec![poison; slivers * w * kc];
                if a_side {
                    pack_a(op, src, 0, k0, lanes, kc, w, &mut want);
                } else {
                    pack_b(op, src, k0, 0, kc, lanes, w, &mut want);
                }
                for (s, want) in want.chunks(w * kc).enumerate() {
                    assert_same_bits(sub.sliver(s), want, &format!("{what} sliver {s}"), seed);
                }
            }
        }
    }
}

/// What lets a driver read a host operand in place whatever orientation
/// it is said to be stored in: the logical `m × k` window of `op(A)`
/// packed as `Side::A(N)` is, bit for bit, the panel `Side::A(T)` builds
/// from the contiguous `k × m` transposed copy of it (what a transposing
/// scatter left in an arena), and a `k × n` window as `Side::B(N)` is
/// the panel of its `n × k` copy as `Side::B(T)`. For each kernel of the
/// ladder, on salted windows at `ld` > their width: lanes ragged against
/// the sliver width, depths below, at and past `KC`, and empty and
/// 1-lane windows.
#[test]
fn a_logical_window_packs_to_the_panel_of_its_transposed_copy() {
    use srumma_dense::blocked::KC;
    use srumma_dense::{PackedPanel, Side};
    let (mut in_place, mut copied) = (PackedPanel::new(), PackedPanel::new());
    for seed in prop_seeds(0x7045_9AC4, 16) {
        let mut rng = Rng::new(seed);
        for &kernel in Microkernel::all() {
            for a_side in [true, false] {
                let w = if a_side { kernel.mr() } else { kernel.nr() };
                let lanes = match rng.below(6) {
                    0 => 0,
                    1 => 1,
                    2 => 2 * w,
                    _ => rng.range(2, 3 * w + 2),
                };
                let depth = match rng.below(6) {
                    0 => 0,
                    1 => KC,
                    2 => KC + rng.range(1, 70),
                    _ => rng.range(1, 300),
                };
                // The logical operand: op(A) is lanes x depth, op(B) depth x lanes.
                let (rows, cols) = if a_side {
                    (lanes, depth)
                } else {
                    (depth, lanes)
                };
                let (big, pr, pc) = salted(rows, cols, &mut rng);
                let window = big.block(pr, pc, rows, cols);
                let copy = window.to_matrix().transposed();
                let (logical, stored) = if a_side {
                    (Side::A(Op::N), Side::A(Op::T))
                } else {
                    (Side::B(Op::N), Side::B(Op::T))
                };
                let what = format!(
                    "{} {logical:?} w={w} lanes={lanes} depth={depth}",
                    kernel.name()
                );

                in_place.pack(logical, kernel, window);
                copied.pack(stored, kernel, copy.as_ref());
                let (got, want) = (in_place.view(), copied.view());
                assert_eq!(in_place.is_empty(), copied.is_empty(), "{what}");
                if in_place.is_empty() {
                    continue;
                }
                assert_eq!(
                    (got.width(), got.lanes(), got.depth()),
                    (want.width(), want.lanes(), want.depth()),
                    "{what}"
                );
                for s in 0..lanes.div_ceil(w) {
                    assert_same_bits(
                        got.sliver(s),
                        want.sliver(s),
                        &format!("{what} sliver {s}"),
                        seed,
                    );
                }
            }
        }
    }
}

#[test]
fn an_unpacked_or_cleared_panel_is_empty() {
    use srumma_dense::{PackedPanel, Side};
    let mut panel = PackedPanel::new();
    assert!(panel.is_empty());
    assert_eq!(panel.view().depth(), 0);
    let m = Matrix::random(5, 7, 1);
    panel.pack(Side::B(Op::N), Microkernel::Scalar, m.as_ref());
    assert!(!panel.is_empty());
    assert_eq!((panel.view().lanes(), panel.view().depth()), (7, 5));
    panel.clear();
    assert!(panel.is_empty());
    // A block with an empty dimension holds no element either.
    panel.pack(
        Side::A(Op::T),
        Microkernel::Scalar,
        MatRef::new(0, 4, 4, &[]),
    );
    assert!(panel.is_empty());
}
