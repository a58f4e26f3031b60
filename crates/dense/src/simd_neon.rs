//! The NEON micro-kernel (`aarch64` only).
//!
//! A 4×8 register tiling of the packed-sliver product: sixteen 128-bit
//! accumulators (`4` rows × `4` vectors of two `f64`), four B loads and
//! four A broadcasts per `k` step, sixteen fused multiply-adds
//! (`vfmaq_f64`) — 24 of the 32 NEON `v` registers in flight. NEON's
//! two-lane `f64` vectors make this the NEON analogue of the AVX2
//! shape: the same `mr = 4` and the scalar kernel's `nr = 8`, so the
//! packed layout is identical to the portable path's (see
//! [`crate::pack`]); slivers are zero-padded at the edges, so no lane
//! masking is ever needed.
//!
//! Everything here is `unsafe fn` + `#[target_feature]`: callers reach
//! it through [`crate::kernel::Microkernel::run`], which guarantees the
//! feature was detected at dispatch time (NEON is baseline on
//! `aarch64`, but the contract is kept uniform across kernels).

use crate::kernel::{MR, NR_NEON};
use std::arch::aarch64::*;

/// Vectors per accumulator row (`NR_NEON / 2` lanes of f64).
const NV: usize = NR_NEON / 2;

/// Accumulate `a_sliver · b_sliver` into the `MR × NR_NEON` tile at the
/// front of `acc` (element `(r, c)` at `r * NR_NEON + c`), with fused
/// multiply-adds.
///
/// # Safety
/// The caller must have verified NEON is available on this host (e.g.
/// via [`crate::kernel::Microkernel::available`]). Slice bounds are
/// asserted.
#[target_feature(enable = "neon")]
pub(crate) unsafe fn microkernel_neon(
    kc: usize,
    a_sliver: &[f64],
    b_sliver: &[f64],
    acc: &mut [f64],
) {
    assert!(a_sliver.len() >= kc * MR);
    assert!(b_sliver.len() >= kc * NR_NEON);
    assert!(acc.len() >= MR * NR_NEON);

    // Start from the caller's accumulator so the kernel keeps the same
    // accumulate-in semantics as the scalar path.
    let mut c: [[float64x2_t; NV]; MR] = [[vdupq_n_f64(0.0); NV]; MR];
    for (r, row) in c.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = vld1q_f64(acc.as_ptr().add(r * NR_NEON + j * 2));
        }
    }

    let ap = a_sliver.as_ptr();
    let bp = b_sliver.as_ptr();
    for k in 0..kc {
        let b0 = vld1q_f64(bp.add(k * NR_NEON));
        let b1 = vld1q_f64(bp.add(k * NR_NEON + 2));
        let b2 = vld1q_f64(bp.add(k * NR_NEON + 4));
        let b3 = vld1q_f64(bp.add(k * NR_NEON + 6));
        for (r, row) in c.iter_mut().enumerate() {
            let av = vdupq_n_f64(*ap.add(k * MR + r));
            row[0] = vfmaq_f64(row[0], av, b0);
            row[1] = vfmaq_f64(row[1], av, b1);
            row[2] = vfmaq_f64(row[2], av, b2);
            row[3] = vfmaq_f64(row[3], av, b3);
        }
    }

    for (r, row) in c.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            vst1q_f64(acc.as_mut_ptr().add(r * NR_NEON + j * 2), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Microkernel;

    #[test]
    fn neon_matches_exact_integer_products() {
        if !Microkernel::Neon.available() {
            eprintln!("skipping: host lacks NEON");
            return;
        }
        let kc = 7;
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR_NEON];
        for k in 0..kc {
            for r in 0..MR {
                a[k * MR + r] = (r + 3 * k) as f64;
            }
            for c in 0..NR_NEON {
                b[k * NR_NEON + c] = (c as f64) - 2.0 * (k as f64);
            }
        }
        let mut acc = vec![1.0; MR * NR_NEON];
        unsafe { microkernel_neon(kc, &a, &b, &mut acc) };
        for r in 0..MR {
            for c in 0..NR_NEON {
                let mut expect = 1.0; // accumulate-in semantics
                for k in 0..kc {
                    expect += ((r + 3 * k) as f64) * ((c as f64) - 2.0 * (k as f64));
                }
                assert_eq!(acc[r * NR_NEON + c], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn neon_accumulates_across_calls() {
        if !Microkernel::Neon.available() {
            eprintln!("skipping: host lacks NEON");
            return;
        }
        let a = vec![1.0; MR];
        let b = vec![1.0; NR_NEON];
        let mut acc = vec![0.0; MR * NR_NEON];
        unsafe {
            microkernel_neon(1, &a, &b, &mut acc);
            microkernel_neon(1, &a, &b, &mut acc);
        }
        assert!(acc.iter().all(|&v| v == 2.0));
    }
}
