//! Morton (Z-order) layout for the packed A panel — a cache-layout
//! experiment behind [`crate::blocked::PackLayout`].
//!
//! The linear packer ([`crate::pack::pack_a`]) lays an `mc × kc` panel
//! out as `ceil(mc/mr)` slivers, each a contiguous `mr × kc` strip.
//! The Z-order packer instead cuts the panel into `mr × ZT_K`
//! micro-tiles and places tile `(s, t)` (sliver `s`, `k`-chunk `t`) at
//! the Morton-interleaved index of `(s, t)` — neighbouring tiles in
//! *both* directions land in the same power-of-two-aligned region, the
//! recursive-locality trick of vorner/fastmatmult's `znot` layout and
//! the red-blue-pebbling literature. Whether it beats the linear
//! layout for an L2-resident panel is host-dependent, which is exactly
//! why `calibrate --kernels` probes both per host and the layout ships
//! **off by default**.
//!
//! Two contracts worth stating precisely:
//!
//! * **Traversal is unchanged.** The macro-kernel still walks slivers
//!   in natural order and, within a sliver, `k`-chunks in natural
//!   order; only the *storage address* of each tile moves. Each
//!   chunk's partial products accumulate into the same micro-tile
//!   accumulator in the same order as one long kernel call, so a
//!   Z-order run is **bitwise identical** to a linear run with the same
//!   kernel — asserted by tests, and what makes the layout safely
//!   toggleable per host.
//! * **Within a tile the element order is the kernel's** (`k`-major,
//!   `buf[kk * mr + r]`), so the micro-kernels consume Z-order tiles
//!   with no code changes.
//!
//! The Morton grid is padded up to powers of two; padding tiles are
//! never written or read. The worst-case footprint inflation is 4×
//! (both grid dimensions just past a power of two); at the default
//! block sizes (`mc = 64`, `kc = 256`, `ZT_K = 32`) the grid is 8×8 or
//! 16×8 exactly and the footprint matches the linear layout.

use crate::gemm::Op;
use crate::matrix::MatRef;
use crate::pack::pack_a;

/// `k`-depth of one Morton micro-tile. Large enough that the extra
/// accumulator load/store per chunked kernel call is amortized over
/// `mr × nr × ZT_K` FMAs, small enough that a tile (`mr × ZT_K` f64)
/// stays a fraction of L1.
pub const ZT_K: usize = 32;

/// Bits needed to index `n` items (`ceil(log2(n))`; 0 for `n <= 1`).
pub fn ceil_log2(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Morton index of `(x, y)` on a `2^xbits × 2^ybits` grid: the low
/// `min(xbits, ybits)` bits of each coordinate interleave (x in the
/// even positions), and the surplus high bits of the longer dimension
/// sit above them. Bijective onto `[0, 2^(xbits+ybits))`.
pub fn morton_rect(x: usize, y: usize, xbits: u32, ybits: u32) -> usize {
    debug_assert!(x < (1usize << xbits) && y < (1usize << ybits));
    let shared = xbits.min(ybits);
    let mut idx = 0usize;
    for b in 0..shared {
        idx |= ((x >> b) & 1) << (2 * b);
        idx |= ((y >> b) & 1) << (2 * b + 1);
    }
    if xbits > shared {
        idx |= (x >> shared) << (2 * shared);
    } else if ybits > shared {
        idx |= (y >> shared) << (2 * shared);
    }
    idx
}

/// Geometry of one Z-order packed A panel.
#[derive(Clone, Copy, Debug)]
pub struct ZShape {
    /// Row slivers (`ceil(mc / mr)`).
    pub slivers: usize,
    /// `k` chunks (`ceil(kc / ZT_K)`).
    pub chunks: usize,
    /// Rows per sliver.
    pub mr: usize,
    sbits: u32,
    tbits: u32,
}

impl ZShape {
    /// Shape for an `mc × kc` panel packed for an `mr`-row kernel.
    pub fn new(mc: usize, kc: usize, mr: usize) -> Self {
        let slivers = mc.div_ceil(mr).max(1);
        let chunks = kc.div_ceil(ZT_K).max(1);
        ZShape {
            slivers,
            chunks,
            mr,
            sbits: ceil_log2(slivers),
            tbits: ceil_log2(chunks),
        }
    }

    /// Buffer demand in elements (the padded power-of-two grid).
    pub fn elems(&self) -> usize {
        (1usize << (self.sbits + self.tbits)) * self.mr * ZT_K
    }

    /// Element offset of tile `(s, t)` within the packed buffer.
    #[inline]
    pub fn tile_offset(&self, s: usize, t: usize) -> usize {
        morton_rect(s, t, self.sbits, self.tbits) * self.mr * ZT_K
    }
}

/// Z-order counterpart of [`crate::pack::pack_a`]: pack an `mc × kc`
/// panel of `op(A)` (origin `(i0, l0)` in `op(A)` coordinates) into
/// Morton-placed `mr × ZT_K` tiles. Row padding past `mc` is zeroed
/// exactly like the linear packer; the `k` tail of an edge chunk is
/// left untouched (consumers pass the true chunk depth to the kernel).
/// `buf.len()` must be at least [`ZShape::elems`].
#[allow(clippy::too_many_arguments)]
pub fn pack_a_zorder(
    transa: Op,
    a: MatRef<'_>,
    i0: usize,
    l0: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    let z = ZShape::new(mc, kc, mr);
    debug_assert!(buf.len() >= z.elems());
    for s in 0..z.slivers {
        let rows = mr.min(mc - s * mr);
        for t in 0..z.chunks {
            let kt = ZT_K.min(kc - t * ZT_K);
            // One tile is a one-sliver linear panel of depth `kt`.
            let tile = &mut buf[z.tile_offset(s, t)..][..kt * mr];
            pack_a(transa, a, i0 + s * mr, l0 + t * ZT_K, rows, kt, mr, tile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn morton_rect_is_bijective_on_rect_grids() {
        for &(xb, yb) in &[(0u32, 0u32), (2, 2), (3, 1), (1, 3), (4, 2)] {
            let mut seen = vec![false; 1usize << (xb + yb)];
            for x in 0..(1usize << xb) {
                for y in 0..(1usize << yb) {
                    let idx = morton_rect(x, y, xb, yb);
                    assert!(idx < seen.len(), "({x},{y}) -> {idx} out of range");
                    assert!(!seen[idx], "({x},{y}) -> {idx} collides");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "xb={xb} yb={yb} not surjective");
        }
    }

    #[test]
    fn morton_square_matches_classic_interleave() {
        // On a square grid the rectangle variant IS classic Morton.
        assert_eq!(morton_rect(0, 0, 2, 2), 0);
        assert_eq!(morton_rect(1, 0, 2, 2), 1);
        assert_eq!(morton_rect(0, 1, 2, 2), 2);
        assert_eq!(morton_rect(1, 1, 2, 2), 3);
        assert_eq!(morton_rect(2, 0, 2, 2), 4);
        assert_eq!(morton_rect(3, 3, 2, 2), 15);
    }

    #[test]
    fn zshape_default_blocks_have_no_inflation() {
        // mc=64/mr=8 -> 8 slivers, kc=256/ZT_K -> 8 chunks: exact grid.
        let z = ZShape::new(64, 256, 8);
        assert_eq!(z.elems(), 64 * 256);
        let z = ZShape::new(64, 256, 4);
        assert_eq!(z.elems(), 64 * 256);
    }

    #[test]
    fn zorder_tiles_hold_the_same_elements_as_linear_slivers() {
        for &trans in &[Op::N, Op::T] {
            for &mr in &[4usize, 8] {
                let (mc, kc, i0, l0) = (19usize, 70usize, 2usize, 3usize);
                let (vr, vc) = match trans {
                    Op::N => (i0 + mc, l0 + kc),
                    Op::T => (l0 + kc, i0 + mc),
                };
                let stored = Matrix::random(vr, vc, 42);
                let z = ZShape::new(mc, kc, mr);
                let mut zbuf = vec![f64::NAN; z.elems()];
                pack_a_zorder(trans, stored.as_ref(), i0, l0, mc, kc, mr, &mut zbuf);

                let slivers = mc.div_ceil(mr);
                let mut lbuf = vec![f64::NAN; slivers * mr * kc];
                pack_a(trans, stored.as_ref(), i0, l0, mc, kc, mr, &mut lbuf);

                // Tile (s, t) element (r, kk) must equal the linear
                // pack's element (r, t*ZT_K + kk) of sliver s.
                for s in 0..z.slivers {
                    for t in 0..z.chunks {
                        let kt = ZT_K.min(kc - t * ZT_K);
                        let off = z.tile_offset(s, t);
                        for kk in 0..kt {
                            for r in 0..mr {
                                let got = zbuf[off + kk * mr + r];
                                let want = lbuf[s * mr * kc + (t * ZT_K + kk) * mr + r];
                                assert!(
                                    got == want,
                                    "trans={trans:?} mr={mr} s={s} t={t} kk={kk} r={r}: \
                                     {got} != {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zorder_row_padding_is_zero_not_stale() {
        let mr = 8;
        let (mc, kc) = (5usize, 40usize); // ragged in both directions
        let m = Matrix::random(mc, kc, 7);
        let z = ZShape::new(mc, kc, mr);
        let mut buf = vec![f64::NAN; z.elems()];
        pack_a_zorder(Op::N, m.as_ref(), 0, 0, mc, kc, mr, &mut buf);
        for t in 0..z.chunks {
            let kt = ZT_K.min(kc - t * ZT_K);
            let off = z.tile_offset(0, t);
            for kk in 0..kt {
                for r in mc..mr {
                    assert_eq!(buf[off + kk * mr + r], 0.0, "t={t} kk={kk} r={r}");
                }
            }
        }
    }
}
