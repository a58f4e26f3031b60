//! The AVX2+FMA and AVX-512F micro-kernels (`x86_64` only).
//!
//! **AVX2** is a 4×12 register tiling of the packed-sliver product:
//! twelve 256-bit accumulators (`4` rows × `3` vectors of four `f64`),
//! three B loads and four A broadcasts per `k` step, twelve fused
//! multiply-adds — all sixteen `ymm` registers accounted for.
//!
//! **AVX-512** is an 8×24 tiling: twenty-four 512-bit accumulators
//! (`8` rows × `3` vectors of eight `f64`), three B loads and eight A
//! broadcasts per `k` step, twenty-four fused multiply-adds. The tile
//! is sized by what each `k` step has to load per FMA, because the A
//! sliver of any real `mc × kc` panel streams from L2, not L1:
//!
//! | tile | accumulators | loads + broadcasts / `k` | per FMA | A bytes / flop | `zmm` used |
//! |------|--------------|--------------------------|---------|----------------|------------|
//! | 8×8  | 8            | 1 + 8                    | 1.13    | 0.50           | 10         |
//! | 8×16 | 16           | 2 + 8                    | 0.63    | 0.25           | 19         |
//! | 8×24 | 24           | 3 + 8                    | 0.46    | 0.17           | 28         |
//!
//! (24 accumulators + 3 B vectors + 1 broadcast = 28 of the 32 `zmm`
//! registers; a fourth B vector would need 37.) The 8×8 tile is
//! load-bound as soon as its A slivers leave L1 — 47 GFLOP/s at 768³
//! where 8×16 reaches 65 and 8×24 69 on the same host (EXPERIMENTS.md,
//! "Filling the register file").
//!
//! The kernel is written once, over the 24-wide sliver: `NV` is the
//! number of B vectors it reads per `k` step, and the macro-kernel runs
//! the narrowest instance covering the live columns of a ragged last
//! sliver. Its two entries differ only in where the slivers lie:
//! [`microkernel_avx512`]`<NV>` reads packed ones at constant strides,
//! `microkernel_avx512_strided<NV>` reads an operand where it lies,
//! through the lane and `k` strides of a `kernel::Sliver`. Each C
//! element's FMA chain runs over `k` in order whatever `NV` is, and
//! wherever the slivers lie, so neither the tile shape nor the read
//! path changes a bit of the result. The packing buffers are 64-byte
//! aligned ([`crate::aligned`]); a 24-wide sliver row is three cache
//! lines.
//!
//! The AVX2 kernel and the packed AVX-512 entry consume the `k`-major
//! sliver format the scalar kernel does, at their own `mr`/`nr` (see
//! [`crate::pack`]); packed slivers are zero-padded at the edges. The
//! strided entry reads A as scalar broadcasts and B as whole vectors of
//! a row-major `N` operand, and [`crate::blocked`] hands it only whole
//! A slivers and B slivers of whole vectors — so no masked load is ever
//! needed in either.
//!
//! Everything here is `unsafe fn` + `#[target_feature]`: callers reach
//! it through [`crate::kernel::Microkernel::run`], which guarantees the
//! features were detected at dispatch time.

use crate::kernel::{MR, MR_AVX512, NR_AVX2, NR_AVX512};
use std::arch::x86_64::*;

/// Vectors per accumulator row (`NR_AVX2 / 4` lanes of f64).
const NV: usize = NR_AVX2 / 4;

/// Accumulate `a_sliver · b_sliver` into the `MR × NR_AVX2` tile at the
/// front of `acc` (element `(r, c)` at `r * NR_AVX2 + c`), with fused
/// multiply-adds.
///
/// # Safety
/// The caller must have verified `avx2` and `fma` are available on this
/// host (e.g. via [`crate::kernel::Microkernel::available`]). Slice
/// bounds are asserted.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn microkernel_avx2(kc: usize, a_sliver: &[f64], b_sliver: &[f64], acc: &mut [f64]) {
    assert!(a_sliver.len() >= kc * MR);
    assert!(b_sliver.len() >= kc * NR_AVX2);
    assert!(acc.len() >= MR * NR_AVX2);

    // Start from the caller's accumulator so the kernel keeps the same
    // accumulate-in semantics as the scalar path.
    let mut c: [[__m256d; NV]; MR] = [[_mm256_setzero_pd(); NV]; MR];
    for (r, row) in c.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = _mm256_loadu_pd(acc.as_ptr().add(r * NR_AVX2 + j * 4));
        }
    }

    let ap = a_sliver.as_ptr();
    let bp = b_sliver.as_ptr();
    for k in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(k * NR_AVX2));
        let b1 = _mm256_loadu_pd(bp.add(k * NR_AVX2 + 4));
        let b2 = _mm256_loadu_pd(bp.add(k * NR_AVX2 + 8));
        for (r, row) in c.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*ap.add(k * MR + r));
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
            row[2] = _mm256_fmadd_pd(av, b2, row[2]);
        }
    }

    for (r, row) in c.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            _mm256_storeu_pd(acc.as_mut_ptr().add(r * NR_AVX2 + j * 4), *v);
        }
    }
}

/// Lanes of one `zmm` register.
const ZMM_LANES: usize = 8;

/// Accumulate `a_sliver · b_sliver` into the first `8 * NV` columns of
/// the `MR_AVX512 × NR_AVX512` tile at the front of `acc` (element
/// `(r, c)` at `r * NR_AVX512 + c`), with fused multiply-adds. `NV` is
/// the number of B vectors read per `k` step (1..=3); columns of `acc`
/// and of `b_sliver` past `8 * NV` are neither read nor written. Both
/// slivers are packed ([`crate::pack`]).
///
/// # Safety
/// The caller must have verified `avx512f` is available on this host
/// (e.g. via [`crate::kernel::Microkernel::available`]). Slice bounds
/// are asserted.
#[target_feature(enable = "avx512f")]
pub unsafe fn microkernel_avx512<const NV: usize>(
    kc: usize,
    a_sliver: &[f64],
    b_sliver: &[f64],
    acc: &mut [f64],
) {
    const { assert!(NV >= 1 && NV * ZMM_LANES <= NR_AVX512) };
    let live = NV * ZMM_LANES;
    assert!(a_sliver.len() >= kc * MR_AVX512);
    assert!(kc == 0 || b_sliver.len() >= (kc - 1) * NR_AVX512 + live);
    assert!(acc.len() >= (MR_AVX512 - 1) * NR_AVX512 + live);
    let (a, b) = (a_sliver.as_ptr(), b_sliver.as_ptr());
    tile_avx512::<NV>(kc, (a, 1, MR_AVX512), (b, NR_AVX512), acc);
}

/// [`microkernel_avx512`] on slivers that lie where they are: element
/// `(r, k)` of the A sliver at `a[r * a_lane + k * a_depth]`, row `k` of
/// the B sliver the `8 * NV` contiguous values from `b[k * b_depth]`.
/// A sliver packed in place of either reads the same values in the same
/// order, so the tile comes out bit for bit the packed kernel's.
///
/// # Safety
/// The caller must have verified `avx512f` is available on this host.
/// Slice bounds are asserted.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn microkernel_avx512_strided<const NV: usize>(
    kc: usize,
    (a, a_lane, a_depth): (&[f64], usize, usize),
    (b, b_depth): (&[f64], usize),
    acc: &mut [f64],
) {
    const { assert!(NV >= 1 && NV * ZMM_LANES <= NR_AVX512) };
    let live = NV * ZMM_LANES;
    if kc > 0 {
        // The index of the last element read, if it has one.
        let last = |lanes: usize, lane: usize, depth: usize| {
            let far = (lanes - 1).checked_mul(lane)?;
            far.checked_add((kc - 1).checked_mul(depth)?)
        };
        assert!(last(MR_AVX512, a_lane, a_depth).is_some_and(|i| i < a.len()));
        assert!(last(live, 1, b_depth).is_some_and(|i| i < b.len()));
    }
    assert!(acc.len() >= (MR_AVX512 - 1) * NR_AVX512 + live);
    tile_avx512::<NV>(
        kc,
        (a.as_ptr(), a_lane, a_depth),
        (b.as_ptr(), b_depth),
        acc,
    );
}

/// The one body of both AVX-512 kernels: the packed one passes its
/// constant strides, which fold away.
///
/// # Safety
/// As `microkernel_avx512_strided`, with the bounds already checked.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const NV: usize>(
    kc: usize,
    (ap, a_lane, a_depth): (*const f64, usize, usize),
    (bp, b_depth): (*const f64, usize),
    acc: &mut [f64],
) {
    // Start from the caller's accumulator so the kernel keeps the same
    // accumulate-in semantics as the scalar path.
    let mut c = [[_mm512_setzero_pd(); NV]; MR_AVX512];
    for (r, row) in c.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = _mm512_loadu_pd(acc.as_ptr().add(r * NR_AVX512 + j * ZMM_LANES));
        }
    }

    for k in 0..kc {
        let mut b = [_mm512_setzero_pd(); NV];
        for (j, v) in b.iter_mut().enumerate() {
            *v = _mm512_loadu_pd(bp.add(k * b_depth + j * ZMM_LANES));
        }
        for (r, row) in c.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(r * a_lane + k * a_depth));
            for (v, bj) in row.iter_mut().zip(b) {
                *v = _mm512_fmadd_pd(av, bj, *v);
            }
        }
    }

    for (r, row) in c.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            _mm512_storeu_pd(acc.as_mut_ptr().add(r * NR_AVX512 + j * ZMM_LANES), *v);
        }
    }
}

/// [`crate::kernel::writeback`] of a whole `MR × NR_AVX2` tile, in
/// registers: `c[r][..] += alpha · acc[r][..]` with the twelve loads of
/// C issued before its first store, so no load waits behind a store to
/// a row that shares its low address bits (see `writeback`). A product
/// and a sum per element, unfused — the bits of the portable path.
///
/// # Safety
/// The caller must have verified `avx2` is available on this host, and
/// for every `r < MR` the `NR_AVX2` elements at `c + r·ldc` must be
/// valid for reads and writes and not borrowed elsewhere. The bound of
/// `acc` is asserted.
#[target_feature(enable = "avx2")]
pub unsafe fn writeback_avx2(acc: &[f64], alpha: f64, c: *mut f64, ldc: usize) {
    assert!(acc.len() >= MR * NR_AVX2);
    // Each sum is formed as its C vector is loaded, so the tile is never
    // live twice over and stays in the twelve registers it needs.
    let scale = _mm256_set1_pd(alpha);
    let mut t = [[_mm256_setzero_pd(); NV]; MR];
    for (r, row) in t.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            let s = _mm256_loadu_pd(acc.as_ptr().add(r * NR_AVX2 + j * 4));
            let s = if alpha == 1.0 {
                s
            } else {
                _mm256_mul_pd(scale, s)
            };
            *v = _mm256_add_pd(_mm256_loadu_pd(c.add(r * ldc + j * 4)), s);
        }
    }
    for (r, row) in t.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            _mm256_storeu_pd(c.add(r * ldc + j * 4), *v);
        }
    }
}

/// [`writeback_avx2`] for a whole `MR_AVX512 × NR_AVX512` tile: the
/// twenty-four `zmm` of C are loaded, summed and then stored.
///
/// # Safety
/// The caller must have verified `avx512f` is available on this host,
/// and for every `r < MR_AVX512` the `NR_AVX512` elements at `c + r·ldc`
/// must be valid for reads and writes and not borrowed elsewhere. The
/// bound of `acc` is asserted.
#[target_feature(enable = "avx512f")]
pub unsafe fn writeback_avx512(acc: &[f64], alpha: f64, c: *mut f64, ldc: usize) {
    const NV: usize = NR_AVX512 / ZMM_LANES;
    assert!(acc.len() >= MR_AVX512 * NR_AVX512);
    let scale = _mm512_set1_pd(alpha);
    let mut t = [[_mm512_setzero_pd(); NV]; MR_AVX512];
    for (r, row) in t.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            let s = _mm512_loadu_pd(acc.as_ptr().add(r * NR_AVX512 + j * ZMM_LANES));
            let s = if alpha == 1.0 {
                s
            } else {
                _mm512_mul_pd(scale, s)
            };
            *v = _mm512_add_pd(_mm512_loadu_pd(c.add(r * ldc + j * ZMM_LANES)), s);
        }
    }
    for (r, row) in t.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            _mm512_storeu_pd(c.add(r * ldc + j * ZMM_LANES), *v);
        }
    }
}

/// [`writeback_avx2`] without the C loads — [`crate::kernel::store`] of
/// a whole `MR × NR_AVX2` tile: `c[r][..] = alpha · acc[r][..]`, for a
/// tile whose old contents are not wanted (`β = 0`, the first k-panel).
///
/// # Safety
/// The caller must have verified `avx2` is available on this host, and
/// for every `r < MR` the `NR_AVX2` elements at `c + r·ldc` must be
/// valid for writes and not borrowed elsewhere. The bound of `acc` is
/// asserted.
#[target_feature(enable = "avx2")]
pub unsafe fn store_avx2(acc: &[f64], alpha: f64, c: *mut f64, ldc: usize) {
    assert!(acc.len() >= MR * NR_AVX2);
    let scale = _mm256_set1_pd(alpha);
    for r in 0..MR {
        for j in 0..NV {
            let s = _mm256_loadu_pd(acc.as_ptr().add(r * NR_AVX2 + j * 4));
            let s = if alpha == 1.0 {
                s
            } else {
                _mm256_mul_pd(scale, s)
            };
            _mm256_storeu_pd(c.add(r * ldc + j * 4), s);
        }
    }
}

/// [`store_avx2`] for a whole `MR_AVX512 × NR_AVX512` tile.
///
/// # Safety
/// The caller must have verified `avx512f` is available on this host,
/// and for every `r < MR_AVX512` the `NR_AVX512` elements at `c + r·ldc`
/// must be valid for writes and not borrowed elsewhere. The bound of
/// `acc` is asserted.
#[target_feature(enable = "avx512f")]
pub unsafe fn store_avx512(acc: &[f64], alpha: f64, c: *mut f64, ldc: usize) {
    const NV: usize = NR_AVX512 / ZMM_LANES;
    assert!(acc.len() >= MR_AVX512 * NR_AVX512);
    let scale = _mm512_set1_pd(alpha);
    for r in 0..MR_AVX512 {
        for j in 0..NV {
            let s = _mm512_loadu_pd(acc.as_ptr().add(r * NR_AVX512 + j * ZMM_LANES));
            let s = if alpha == 1.0 {
                s
            } else {
                _mm512_mul_pd(scale, s)
            };
            _mm512_storeu_pd(c.add(r * ldc + j * ZMM_LANES), s);
        }
    }
}

/// [`crate::matrix::transpose_into`] for the multiple-of-four core of
/// a block: `dst[k * dld + x] ← src[x * sld + k]` for `x < n`, `k < kk`,
/// moved as 4×4 in-register transposes. Each 256-bit input pairs the
/// low or high half of two source rows (the second half inserted
/// straight from memory), so one unpack per output vector finishes it.
/// Four source rows are streamed end to end before the next four.
///
/// # Safety
/// The caller must have verified `avx2` is available on this host, and
/// for every `k < kk` the `n` elements at `dst + k·dld` must be valid for
/// writes and not borrowed elsewhere (nothing between those rows is
/// touched). `n` and `kk` must be multiples of four; the source bounds
/// are asserted.
#[target_feature(enable = "avx2")]
pub unsafe fn transpose_avx2(
    src: &[f64],
    sld: usize,
    n: usize,
    kk: usize,
    dst: *mut f64,
    dld: usize,
) {
    assert!(n.is_multiple_of(4) && kk.is_multiple_of(4));
    if n == 0 || kk == 0 {
        return;
    }
    assert!(src.len() >= (n - 1) * sld + kk);
    for x in (0..n).step_by(4) {
        for k in (0..kk).step_by(4) {
            let p = src.as_ptr().add(x * sld + k);
            // [row0[off..off + 2] | row2[off..off + 2]], and the same
            // for rows 1 and 3.
            let halves = |off: usize| {
                let even = _mm256_castpd128_pd256(_mm_loadu_pd(p.add(off)));
                let odd = _mm256_castpd128_pd256(_mm_loadu_pd(p.add(sld + off)));
                (
                    _mm256_insertf128_pd::<1>(even, _mm_loadu_pd(p.add(2 * sld + off))),
                    _mm256_insertf128_pd::<1>(odd, _mm_loadu_pd(p.add(3 * sld + off))),
                )
            };
            let (lo_even, lo_odd) = halves(0);
            let (hi_even, hi_odd) = halves(2);
            let q = dst.add(k * dld + x);
            _mm256_storeu_pd(q, _mm256_unpacklo_pd(lo_even, lo_odd));
            _mm256_storeu_pd(q.add(dld), _mm256_unpackhi_pd(lo_even, lo_odd));
            _mm256_storeu_pd(q.add(2 * dld), _mm256_unpacklo_pd(hi_even, hi_odd));
            _mm256_storeu_pd(q.add(3 * dld), _mm256_unpackhi_pd(hi_even, hi_odd));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Microkernel;

    #[test]
    fn avx2_matches_exact_integer_products() {
        // Integer-valued inputs: FMA and mul+add round identically, so
        // the comparison is exact.
        if !Microkernel::Avx2.available() {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        let kc = 7;
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR_AVX2];
        for k in 0..kc {
            for r in 0..MR {
                a[k * MR + r] = (r + 3 * k) as f64;
            }
            for c in 0..NR_AVX2 {
                b[k * NR_AVX2 + c] = (c as f64) - 2.0 * (k as f64);
            }
        }
        let mut acc = vec![1.0; MR * NR_AVX2];
        unsafe { microkernel_avx2(kc, &a, &b, &mut acc) };
        for r in 0..MR {
            for c in 0..NR_AVX2 {
                let mut expect = 1.0; // accumulate-in semantics
                for k in 0..kc {
                    expect += ((r + 3 * k) as f64) * ((c as f64) - 2.0 * (k as f64));
                }
                assert_eq!(acc[r * NR_AVX2 + c], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn avx2_accumulates_across_calls() {
        if !Microkernel::Avx2.available() {
            eprintln!("skipping: host lacks AVX2+FMA");
            return;
        }
        let a = vec![1.0; MR];
        let b = vec![1.0; NR_AVX2];
        let mut acc = vec![0.0; MR * NR_AVX2];
        unsafe {
            microkernel_avx2(1, &a, &b, &mut acc);
            microkernel_avx2(1, &a, &b, &mut acc);
        }
        assert!(acc.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn avx512_matches_exact_integer_products() {
        if !Microkernel::Avx512.available() {
            eprintln!("skipping: host lacks AVX-512F");
            return;
        }
        let kc = 9;
        let mut a = vec![0.0; kc * MR_AVX512];
        let mut b = vec![0.0; kc * NR_AVX512];
        for k in 0..kc {
            for r in 0..MR_AVX512 {
                a[k * MR_AVX512 + r] = (r + 2 * k) as f64 - 5.0;
            }
            for c in 0..NR_AVX512 {
                b[k * NR_AVX512 + c] = 3.0 * (c as f64) - (k as f64);
            }
        }
        let mut acc = vec![1.0; MR_AVX512 * NR_AVX512];
        unsafe { microkernel_avx512::<3>(kc, &a, &b, &mut acc) };
        for r in 0..MR_AVX512 {
            for c in 0..NR_AVX512 {
                let mut expect = 1.0; // accumulate-in semantics
                for k in 0..kc {
                    expect += ((r + 2 * k) as f64 - 5.0) * (3.0 * (c as f64) - (k as f64));
                }
                assert_eq!(acc[r * NR_AVX512 + c], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn avx512_accumulates_across_calls() {
        if !Microkernel::Avx512.available() {
            eprintln!("skipping: host lacks AVX-512F");
            return;
        }
        let a = vec![1.0; MR_AVX512];
        let b = vec![1.0; NR_AVX512];
        let mut acc = vec![0.0; MR_AVX512 * NR_AVX512];
        unsafe {
            microkernel_avx512::<3>(1, &a, &b, &mut acc);
            microkernel_avx512::<3>(1, &a, &b, &mut acc);
        }
        assert!(acc.iter().all(|&v| v == 2.0));
    }
}
