//! Operand packing for the blocked kernel.
//!
//! GotoBLAS-style: before the macro-kernel runs, a panel of `op(A)` is
//! repacked into contiguous `mr`-row slivers and a panel of `op(B)` into
//! contiguous `nr`-column slivers, so the micro-kernel streams through
//! memory with unit stride regardless of the caller's leading dimensions
//! or transpose flags. A product small enough to sit in cache skips the
//! pack for the sides the AVX-512 kernel can read in place (the rule is
//! [`crate::blocked`]'s); every other side is packed here. Rows/columns beyond the matrix edge are padded
//! with zeros so the micro-kernel never needs edge masks on its inputs.
//!
//! A sliver is `kc` groups of `w` values (`dst[k * w + x]`), and there
//! are only two ways to fill one from a row-major source:
//!
//! * **contiguous** (`move_contig`; `pack_a` `T`, `pack_b` `N`) — the
//!   values of group `k` are adjacent in source row `k0 + k`: one copy
//!   per `k`, of a size fixed at compile time for every `mr`/`nr` of
//!   the kernel ladder (4, 8, 12, 24; [`crate::kernel::Microkernel`]).
//! * **strided** (`pack_a` `N`, `pack_b` `T`) — they sit in `w` source
//!   rows, at column `k0 + k` of each: a `w × kc` block lands
//!   transposed, tile by tile, through the crate's one transposing
//!   mover (`crate::matrix::transpose_into`). Its tiles are
//!   store-bound and measured no faster at a compile-time width.
//!
//! A ragged last sliver and any other width run through the same two
//! movers: dead lanes are written `0.0`, other widths use the run-time
//! `w`. [`pack_a`] and [`pack_b`] only choose origins and
//! destinations.
//!
//! The blocked loop packs one `kc`-deep cache block at a time into its
//! workspace. A [`PackedPanel`] is the same layout kept: one whole
//! stored block packed once at its **full** depth, so that any k-range
//! of it is already what `pack_a`/`pack_b` of that range would write —
//! sliver `s`, depths `[k0, k0 + kc)` is the contiguous run
//! `buf[(s · depth + k0) · w ..][.. kc · w]`. A one-sided get lands its
//! block in this form (`srumma-comm`'s `Landing::Packed`) and the
//! blocked loop reads it in place ([`crate::blocked::Operand::Packed`]).

use crate::aligned::AlignedBuf;
use crate::gemm::Op;
use crate::kernel::Microkernel;
use crate::matrix::{transpose_into, MatRef};

/// `dst[k * w + x] ← rows[k * ld + x]` for `x < live`, `0.0` for
/// `live <= x < w`, over the `dst.len() / w` groups of `dst`. `W` is
/// `w` when that is known at compile time, else 0.
#[inline(always)]
fn move_contig<const W: usize>(rows: &[f64], ld: usize, live: usize, w: usize, dst: &mut [f64]) {
    let w = if W == 0 { w } else { W };
    // Chunk `k` runs at least to the end of its source row, so it
    // holds the `live` values wanted.
    for (d, s) in dst.chunks_exact_mut(w).zip(rows.chunks(ld)) {
        if live == w {
            d.copy_from_slice(&s[..w]);
        } else {
            d[..live].copy_from_slice(&s[..live]);
            d[live..].fill(0.0);
        }
    }
}

/// Pack `extent` lanes starting at `x0` into `ceil(extent / w)` slivers
/// of depth `kc`. `strided` says which way a sliver lies in `src`:
/// across rows `x0..` reading columns `k0..k0 + kc` (`true`), or along
/// rows `k0..k0 + kc` reading columns `x0..` (`false`).
#[allow(clippy::too_many_arguments)]
fn pack_slivers(
    strided: bool,
    src: MatRef<'_>,
    x0: usize,
    k0: usize,
    extent: usize,
    kc: usize,
    w: usize,
    buf: &mut [f64],
) {
    let (lanes, depth) = if strided {
        (src.rows(), src.cols())
    } else {
        (src.cols(), src.rows())
    };
    debug_assert!(x0 + extent <= lanes && k0 + kc <= depth);
    debug_assert!(buf.len() >= extent.div_ceil(w) * w * kc);
    if kc == 0 {
        return;
    }
    let (data, ld) = (src.data(), src.ld());
    let slivers = buf.chunks_exact_mut(w * kc).take(extent.div_ceil(w));
    for (x, dst) in (x0..).step_by(w).zip(slivers) {
        let live = w.min(x0 + extent - x);
        if strided {
            if live < w {
                dst.fill(0.0);
            }
            transpose_into(&data[x * ld + k0..], ld, live, kc, dst, w);
        } else {
            let rows = &data[k0 * ld + x..];
            match w {
                4 => move_contig::<4>(rows, ld, live, w, dst),
                8 => move_contig::<8>(rows, ld, live, w, dst),
                12 => move_contig::<12>(rows, ld, live, w, dst),
                24 => move_contig::<24>(rows, ld, live, w, dst),
                _ => move_contig::<0>(rows, ld, live, w, dst),
            }
        }
    }
}

/// Pack an `mc × kc` panel of `op(A)` (starting at logical row `i0`,
/// logical column `l0` of `op(A)`) into `buf`, as slivers of `mr` rows.
///
/// Layout: within a sliver, element order is `k`-major
/// (`buf[sliver][k * mr + r]`), which is exactly the order the
/// micro-kernel consumes. `buf.len()` must be at least
/// `ceil(mc / mr) * mr * kc`.
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    transa: Op,
    a: MatRef<'_>,
    i0: usize,
    l0: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    buf: &mut [f64],
) {
    // op(A)[i][k] is A[i][k] (a sliver's rows are source rows) or A[k][i].
    pack_slivers(transa == Op::N, a, i0, l0, mc, kc, mr, buf);
}

/// Pack a `kc × nc` panel of `op(B)` (starting at logical row `l0`,
/// logical column `j0` of `op(B)`) into `buf`, as slivers of `nr`
/// columns.
///
/// Layout: within a sliver, element order is `k`-major
/// (`buf[sliver][k * nr + c]`). `buf.len()` must be at least
/// `ceil(nc / nr) * nr * kc`.
#[allow(clippy::too_many_arguments)]
pub fn pack_b(
    transb: Op,
    b: MatRef<'_>,
    l0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    buf: &mut [f64],
) {
    // op(B)[k][j] is B[k][j] or B[j][k] (a sliver's columns are source rows).
    pack_slivers(transb == Op::T, b, j0, l0, nc, kc, nr, buf);
}

/// Which factor of the product a stored block feeds, and the transpose
/// flag it enters with — together they fix the sliver width (`mr` or
/// `nr`) and which of the two movers fills the slivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The block is (a k-panel of) `A`; `op(A)` rows are the lanes.
    A(Op),
    /// The block is (a k-panel of) `B`; `op(B)` columns are the lanes.
    B(Op),
}

/// A whole stored block in sliver order at its full k-depth: what
/// [`pack_a`] / [`pack_b`] write for `kc` = the block's entire inner
/// dimension. The buffer is kept across packs (grown, never shrunk), so
/// a panel that is refilled block after block allocates once.
#[derive(Debug, Default)]
pub struct PackedPanel {
    buf: AlignedBuf,
    /// Sliver width the contents were packed for.
    w: usize,
    /// Live lanes (`m` of an A block, `n` of a B block).
    lanes: usize,
    /// Inner-dimension extent of the block.
    depth: usize,
}

impl PackedPanel {
    /// An empty panel; no allocation until the first [`Self::pack`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Pack the whole stored block `src` as `side` of a product run by
    /// `kernel`, replacing the previous contents — [`pack_a`] /
    /// [`pack_b`] of the entire block at its full depth.
    pub fn pack(&mut self, side: Side, kernel: Microkernel, src: MatRef<'_>) {
        let (w, strided) = match side {
            Side::A(op) => (kernel.mr(), op == Op::N),
            Side::B(op) => (kernel.nr(), op == Op::T),
        };
        let (lanes, depth) = if strided {
            (src.rows(), src.cols())
        } else {
            (src.cols(), src.rows())
        };
        self.buf.grow_to(lanes.div_ceil(w) * w * depth);
        pack_slivers(strided, src, 0, 0, lanes, depth, w, self.buf.as_mut_slice());
        (self.w, self.lanes, self.depth) = (w, lanes, depth);
    }

    /// Forget the contents (the buffer stays): nothing has landed here.
    pub fn clear(&mut self) {
        (self.lanes, self.depth) = (0, 0);
    }

    /// Whether the panel holds no element — never packed, cleared, or
    /// packed from a block with an empty dimension.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0 || self.depth == 0
    }

    /// The whole panel, every depth of every sliver.
    pub fn view(&self) -> PackedView<'_> {
        // A panel never packed has no width to divide by.
        let slivers = if self.lanes == 0 {
            0
        } else {
            self.lanes.div_ceil(self.w)
        };
        PackedView {
            data: &self.buf.as_slice()[..slivers * self.w * self.depth],
            w: self.w,
            lanes: self.lanes,
            full_depth: self.depth,
            k0: 0,
            depth: self.depth,
        }
    }
}

/// A k-range of a [`PackedPanel`]: all its slivers, depths
/// `[k0, k0 + depth)` of each.
#[derive(Clone, Copy, Debug)]
pub struct PackedView<'a> {
    data: &'a [f64],
    w: usize,
    lanes: usize,
    /// Depth of the panel the view was cut from (the sliver stride is
    /// `w · full_depth`).
    full_depth: usize,
    k0: usize,
    depth: usize,
}

impl<'a> PackedView<'a> {
    /// Sliver width the panel was packed for.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Live lanes: rows of `op(A)`, columns of `op(B)`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Inner-dimension extent of the view.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The sub-range `[rel0, rel0 + seg)` of this view's depths.
    ///
    /// # Panics
    /// Panics if the range leaves the view.
    pub fn k_range(self, rel0: usize, seg: usize) -> Self {
        assert!(
            rel0 + seg <= self.depth,
            "k-range {rel0}..{} of a packed view {} deep",
            rel0 + seg,
            self.depth
        );
        PackedView {
            k0: self.k0 + rel0,
            depth: seg,
            ..self
        }
    }

    /// Sliver `s` of the view: its `depth · w` values, `k`-major, the
    /// run [`pack_a`] / [`pack_b`] of this k-range would have written.
    pub fn sliver(&self, s: usize) -> &'a [f64] {
        &self.slivers_from(s * self.w, 0).0[..self.depth * self.w]
    }

    /// The slivers from lane `x0` (a whole number of slivers in) on,
    /// each starting at depth `lc` of the view: the slice that begins
    /// at the first of them, and the distance between two starts.
    pub(crate) fn slivers_from(&self, x0: usize, lc: usize) -> (&'a [f64], usize) {
        debug_assert!(x0.is_multiple_of(self.w) && lc <= self.depth);
        let stride = self.w * self.full_depth;
        let start = x0 / self.w * stride + (self.k0 + lc) * self.w;
        (&self.data[start..], stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{MR, NR};
    use crate::matrix::Matrix;

    fn op_at(m: &Matrix, trans: Op, i: usize, j: usize) -> f64 {
        match trans {
            Op::N => m[(i, j)],
            Op::T => m[(j, i)],
        }
    }

    #[test]
    fn pack_a_matches_logical_elements() {
        for &trans in &[Op::N, Op::T] {
            let stored = Matrix::random(13, 11, 7);
            // op(A) is 13x11 for N; pick panel inside op(A) bounds for both.
            let (mc, kc, i0, l0): (usize, usize, usize, usize) = (6, 5, 2, 3);
            let slivers = mc.div_ceil(MR);
            let mut buf = vec![f64::NAN; slivers * MR * kc];
            pack_a(trans, stored.as_ref(), i0, l0, mc, kc, MR, &mut buf);
            for s in 0..slivers {
                for k in 0..kc {
                    for r in 0..MR {
                        let got = buf[s * MR * kc + k * MR + r];
                        let row = s * MR + r;
                        let expect = if row < mc {
                            op_at(&stored, trans, i0 + row, l0 + k)
                        } else {
                            0.0
                        };
                        assert_eq!(got, expect, "trans={trans:?} s={s} k={k} r={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_matches_logical_elements() {
        for &trans in &[Op::N, Op::T] {
            let stored = Matrix::random(12, 12, 8);
            let (kc, nc, l0, j0): (usize, usize, usize, usize) = (5, 10, 1, 1);
            let slivers = nc.div_ceil(NR);
            let mut buf = vec![f64::NAN; slivers * NR * kc];
            pack_b(trans, stored.as_ref(), l0, j0, kc, nc, NR, &mut buf);
            for s in 0..slivers {
                for k in 0..kc {
                    for c in 0..NR {
                        let got = buf[s * NR * kc + k * NR + c];
                        let col = s * NR + c;
                        let expect = if col < nc {
                            op_at(&stored, trans, l0 + k, j0 + col)
                        } else {
                            0.0
                        };
                        assert_eq!(got, expect, "trans={trans:?} s={s} k={k} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_edges_are_zero_padded() {
        let stored = Matrix::from_fn(3, 3, |_, _| 1.0);
        let mc: usize = 3; // not a multiple of MR
        let kc = 3;
        let slivers = mc.div_ceil(MR);
        let mut buf = vec![f64::NAN; slivers * MR * kc];
        pack_a(Op::N, stored.as_ref(), 0, 0, mc, kc, MR, &mut buf);
        // Rows mc..slivers*MR must be zero, not NaN.
        for k in 0..kc {
            for r in mc..MR.min(slivers * MR) {
                assert_eq!(buf[k * MR + r], 0.0);
            }
        }
    }

    #[test]
    fn pack_b_wide_slivers() {
        // nr = 12 (AVX2 tile width): ragged final sliver zero-padded.
        let nr = crate::kernel::NR_AVX2;
        let stored = Matrix::random(9, 17, 3);
        let (kc, nc): (usize, usize) = (9, 17);
        let slivers = nc.div_ceil(nr);
        let mut buf = vec![f64::NAN; slivers * nr * kc];
        pack_b(Op::N, stored.as_ref(), 0, 0, kc, nc, nr, &mut buf);
        for s in 0..slivers {
            for k in 0..kc {
                for c in 0..nr {
                    let col = s * nr + c;
                    let expect = if col < nc { stored[(k, col)] } else { 0.0 };
                    assert_eq!(buf[s * nr * kc + k * nr + c], expect);
                }
            }
        }
    }
}
