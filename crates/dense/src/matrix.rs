//! Owned matrices and borrowed strided views.
//!
//! Everything in the workspace moves blocks of `f64` around; this module
//! provides the one shared representation: row-major storage with an
//! explicit leading dimension, so a view can denote a sub-block of a
//! larger allocation (a block of a distributed matrix, a sub-window of
//! the matrix's row-major window) without copying.

use std::fmt;
use std::marker::PhantomData;

/// An owned, row-major, densely packed `f64` matrix (`ld == cols`).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Build a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Deterministic pseudo-random matrix in `[-1, 1)`, seeded; used by
    /// tests and workload generators so runs are reproducible.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        // SplitMix64: tiny, seedable, and has no external dependency; the
        // statistical quality is more than enough for test data.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let data = (0..rows * cols)
            .map(|_| {
                let bits = next() >> 11; // 53 random bits
                (bits as f64 / (1u64 << 52) as f64) - 1.0
            })
            .collect();
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (distance between row starts); always `cols` for
    /// an owned matrix.
    pub fn ld(&self) -> usize {
        self.cols
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow the whole matrix as a view.
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.cols,
            data: &self.data,
        }
    }

    /// Borrow the whole matrix as a mutable view.
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut::new(self.rows, self.cols, self.cols, &mut self.data)
    }

    /// Borrow the sub-block of `nrows × ncols` starting at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> MatRef<'_> {
        self.as_ref().block(r0, c0, nrows, ncols)
    }

    /// Mutable sub-block view.
    pub fn block_mut(&mut self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> MatMut<'_> {
        self.as_mut().block(r0, c0, nrows, ncols)
    }

    /// Return a new matrix that is the transpose of `self`.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        t.as_mut().copy_transposed_from(self.as_ref());
        t
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// A borrowed, immutable, row-major strided view.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    ld: usize,
    /// Underlying storage. The element `(i, j)` lives at `data[i*ld + j]`;
    /// `data` must contain at least `(rows-1)*ld + cols` elements.
    data: &'a [f64],
}

impl<'a> MatRef<'a> {
    /// Build a view over `data` with explicit leading dimension.
    ///
    /// # Panics
    /// Panics if the buffer is too short for the described view.
    pub fn new(rows: usize, cols: usize, ld: usize, data: &'a [f64]) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            assert!(
                data.len() >= (rows - 1) * ld + cols,
                "buffer of {} too short for {rows}x{cols} ld {ld}",
                data.len()
            );
        }
        MatRef {
            rows,
            cols,
            ld,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Raw underlying storage (starting at element `(0,0)`).
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.ld + j]
    }

    /// Row `i` as a contiguous slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.ld..i * self.ld + self.cols]
    }

    /// Sub-block of `nrows × ncols` starting at `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> MatRef<'a> {
        assert!(r0 + nrows <= self.rows && c0 + ncols <= self.cols);
        // An empty block may start past the end of an empty backing
        // slice (e.g. a 0 x k block with c0 > 0); never slice there.
        let start = if nrows == 0 || ncols == 0 {
            0
        } else {
            r0 * self.ld + c0
        };
        MatRef {
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            data: &self.data[start..],
        }
    }

    /// Copy this view into a freshly allocated dense [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            out.as_mut_slice()[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(i));
        }
        out
    }
}

/// A borrowed, mutable, row-major strided view.
///
/// Unlike [`MatRef`] it is not a slice plus a stride: the windows two
/// ranks hold of one row-major matrix interleave in memory (row `i` of
/// the left neighbour's window lies between rows `i` and `i + 1` of
/// this one), so a window of `rows × cols` elements must never exist as
/// one `&mut [f64]` of `(rows − 1)·ld + cols` — that slice would claim
/// the neighbour's elements too. A `MatMut` therefore carries the base
/// pointer and the shape, touches only `[i·ld, i·ld + cols)` of each
/// row, and hands out a slice one row at a time ([`Self::row_mut`]).
pub struct MatMut<'a> {
    /// Element `(0, 0)`; element `(i, j)` lives at `ptr + i·ld + j`.
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
    /// The exclusive borrow of the window's rows.
    _rows: PhantomData<&'a mut [f64]>,
}

// SAFETY: a `MatMut` is an exclusive borrow of its rows' elements for
// `'a` — what a `&'a mut [f64]` is, which is `Send` and `Sync`; the raw
// pointer only replaces the slice so that the gaps between rows stay
// unclaimed.
unsafe impl Send for MatMut<'_> {}
unsafe impl Sync for MatMut<'_> {}

impl<'a> MatMut<'a> {
    /// Build a mutable view over `data` with explicit leading dimension.
    ///
    /// # Panics
    /// Panics if the buffer is too short for the described view.
    pub(crate) fn new(rows: usize, cols: usize, ld: usize, data: &'a mut [f64]) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        if rows > 0 && cols > 0 {
            assert!(
                data.len() >= (rows - 1) * ld + cols,
                "buffer of {} too short for {rows}x{cols} ld {ld}",
                data.len()
            );
        }
        MatMut {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            _rows: PhantomData,
        }
    }

    /// The view of `rows × cols` elements whose `(0, 0)` is at `ptr` —
    /// how a window is cut out of a matrix that other windows are being
    /// cut out of too (a rank's C tile of the caller's result matrix).
    ///
    /// # Safety
    /// For every `i < rows`, the `cols` elements at `ptr + i·ld` must be
    /// valid for reads and writes for `'a`, and during `'a` nothing but
    /// this view (and what is reborrowed from it) may access them. An
    /// empty view (`rows` or `cols` zero) asks nothing of `ptr`.
    pub unsafe fn from_raw(ptr: *mut f64, rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= cols, "leading dimension {ld} < cols {cols}");
        MatMut {
            ptr,
            rows,
            cols,
            ld,
            _rows: PhantomData,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Pointer to element `(0, 0)`, for kernels that address the tile
    /// with an explicit leading dimension. Only `[i·ld, i·ld + cols)` of
    /// each row `i < rows` belongs to the view.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols);
        // SAFETY: in range, so within row `i` of the view.
        unsafe { *self.ptr.add(i * self.ld + j) }
    }

    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        assert!(i < self.rows && j < self.cols);
        // SAFETY: in range, so within row `i` of the view, which `self`
        // borrows exclusively.
        unsafe { &mut *self.ptr.add(i * self.ld + j) }
    }

    /// Row `i` as a contiguous slice of length `cols` — the only slice a
    /// view hands out.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows);
        if self.cols == 0 {
            // A `rows × 0` view may sit on no storage at all.
            return &mut [];
        }
        // SAFETY: row `i` of a non-empty view is `cols` elements at
        // `ptr + i·ld` (`new` checked the buffer, `from_raw`'s caller
        // vouched for it), borrowed exclusively through `self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols) }
    }

    /// Reborrow mutably (shorter lifetime).
    pub fn reborrow(&mut self) -> MatMut<'_> {
        MatMut { ..*self }
    }

    /// Mutable sub-block of `nrows × ncols` starting at `(r0, c0)`.
    pub(crate) fn block(self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> MatMut<'a> {
        assert!(r0 + nrows <= self.rows && c0 + ncols <= self.cols);
        // See `MatRef::block`: an empty block must not step out of range.
        let start = if nrows == 0 || ncols == 0 {
            0
        } else {
            r0 * self.ld + c0
        };
        MatMut {
            // SAFETY: element `(r0, c0)` of a non-empty sub-block is an
            // element of this view.
            ptr: unsafe { self.ptr.add(start) },
            rows: nrows,
            cols: ncols,
            ..self
        }
    }

    /// Overwrite this view from another of the same shape.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!((self.rows, self.cols), (src.rows(), src.cols()));
        for i in 0..self.rows {
            let r = src.row(i);
            self.row_mut(i).copy_from_slice(r);
        }
    }

    /// Overwrite this view with the transpose of `src` (which is
    /// `cols × rows`), block by block so that the strided side of each
    /// block stays in L1.
    pub fn copy_transposed_from(&mut self, src: MatRef<'_>) {
        const BLOCK: usize = 32;
        assert_eq!((self.rows, self.cols), (src.cols(), src.rows()));
        for i0 in (0..self.rows).step_by(BLOCK) {
            for j0 in (0..self.cols).step_by(BLOCK) {
                let (n, kk) = (BLOCK.min(self.cols - j0), BLOCK.min(self.rows - i0));
                // SAFETY: the block lands on `[j0, j0 + n)` of rows
                // `[i0, i0 + kk)` — elements of this view.
                unsafe {
                    let dst = self.ptr.add(i0 * self.ld + j0);
                    transpose_into_raw(&src.data[j0 * src.ld + i0..], src.ld, n, kk, dst, self.ld);
                }
            }
        }
    }

    /// Fill every entry with `v`.
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Scale every entry by `beta` (the `β·C` part of gemm).
    pub fn scale(&mut self, beta: f64) {
        if beta == 1.0 {
            return;
        }
        for i in 0..self.rows {
            if beta == 0.0 {
                self.row_mut(i).fill(0.0);
            } else {
                for v in self.row_mut(i) {
                    *v *= beta;
                }
            }
        }
    }
}

/// `dst[k * dld + x] ← src[x * sld + k]` for `x < n`, `k < kk`: the
/// `n × kk` row-major block at the front of `src` lands transposed at
/// the front of `dst`. The one transposing mover — [`crate::pack`]'s
/// strided slivers and [`MatMut::copy_transposed_from`] both end here
/// ([`transpose_into_raw`]).
pub(crate) fn transpose_into(
    src: &[f64],
    sld: usize,
    n: usize,
    kk: usize,
    dst: &mut [f64],
    dld: usize,
) {
    if n == 0 || kk == 0 {
        return;
    }
    assert!(
        n <= dld && dst.len() >= (kk - 1) * dld + n,
        "block of {n} columns x {kk} rows in a destination of {} at stride {dld}",
        dst.len()
    );
    // SAFETY: just checked — every destination row lies in `dst`.
    unsafe { transpose_into_raw(src, sld, n, kk, dst.as_mut_ptr(), dld) }
}

/// [`transpose_into`] onto a destination given by pointer: only
/// `[k·dld, k·dld + n)` of each destination row `k < kk` is written, so
/// the rows may be those of a window whose gaps belong to someone else.
///
/// Moved as `n × TILE_K` tiles: each source row is sliced once per
/// tile, so no source index is checked inside one, each source cache
/// line is read once, and the destination tile stays in L1. On `x86_64`
/// with AVX2 the multiple-of-four core goes through in-register 4×4
/// transposes instead ([`crate::simd::transpose_avx2`]) and only the
/// fringe is left to the tiles.
///
/// # Safety
/// For every `k < kk`, the `n` elements at `dst + k·dld` must be valid
/// for writes and not borrowed elsewhere. Source bounds are checked.
pub(crate) unsafe fn transpose_into_raw(
    src: &[f64],
    sld: usize,
    n: usize,
    kk: usize,
    dst: *mut f64,
    dld: usize,
) {
    /// Eight `f64`: one cache line of every source row a tile reads.
    const TILE_K: usize = 8;
    /// # Safety
    /// `depth` destination rows of `n` elements from `dst`, as above.
    #[inline(always)]
    unsafe fn tile(src: &[f64], sld: usize, n: usize, depth: usize, dst: *mut f64, dld: usize) {
        for x in 0..n {
            for (i, &v) in src[x * sld..][..depth].iter().enumerate() {
                *dst.add(i * dld + x) = v;
            }
        }
    }
    if n == 0 || kk == 0 {
        return;
    }
    let mut k = 0;
    #[cfg(target_arch = "x86_64")]
    if n.is_multiple_of(4) && std::arch::is_x86_feature_detected!("avx2") {
        k = kk & !3;
        // SAFETY: avx2 was just detected; `n` and `k` are multiples of
        // four, the callee asserts its source bounds and writes rows
        // `< k ≤ kk` of the destination this function was vouched.
        unsafe { crate::simd::transpose_avx2(src, sld, n, k, dst, dld) };
    }
    while k < kk {
        let depth = TILE_K.min(kk - k);
        // SAFETY: rows `[k, k + depth)` of the caller's destination. A
        // whole tile gets a constant depth.
        unsafe {
            let d = dst.add(k * dld);
            if depth == TILE_K {
                tile(&src[k..], sld, n, TILE_K, d, dld);
            } else {
                tile(&src[k..], sld, n, depth, d, dld);
            }
        }
        k += depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 0.0);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn identity_diagonal() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Matrix::random(5, 7, 42);
        let b = Matrix::random(5, 7, 42);
        let c = Matrix::random(5, 7, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn block_view_addresses_submatrix() {
        let m = Matrix::from_fn(4, 5, |i, j| (i * 100 + j) as f64);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 3);
        assert_eq!(b.ld(), 5);
        assert_eq!(b.at(0, 0), 102.0);
        assert_eq!(b.at(1, 2), 204.0);
    }

    #[test]
    fn block_of_block_composes() {
        let m = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let outer = m.block(2, 2, 5, 5);
        let inner = outer.block(1, 1, 2, 2);
        assert_eq!(inner.at(0, 0), m[(3, 3)]);
        assert_eq!(inner.at(1, 1), m[(4, 4)]);
    }

    #[test]
    fn mutable_block_writes_through() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut b = m.block_mut(1, 1, 2, 2);
            b.fill(7.0);
        }
        assert_eq!(m[(1, 1)], 7.0);
        assert_eq!(m[(2, 2)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(3, 3)], 0.0);
    }

    #[test]
    fn copy_from_roundtrip() {
        let src = Matrix::random(3, 3, 1);
        let mut dst = Matrix::zeros(5, 5);
        dst.block_mut(1, 1, 3, 3).copy_from(src.as_ref());
        assert_eq!(dst.block(1, 1, 3, 3).to_matrix(), src);
    }

    #[test]
    fn transposed_swaps_indices() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn scale_zero_and_one() {
        let mut m = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        // beta == 0 must overwrite even NaN (BLAS convention).
        m.as_mut().scale(0.0);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        let mut m = Matrix::random(3, 3, 9);
        let before = m.clone();
        m.as_mut().scale(1.0);
        assert_eq!(m, before);
    }

    /// Two windows of one matrix, side by side, held at once: their rows
    /// interleave in memory, and every mutating operation of a view
    /// stays inside its own.
    #[test]
    fn interleaved_windows_are_written_independently() {
        let (rows, cols, split) = (37, 41, 18);
        let mut m = Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        let src = Matrix::random(cols, rows, 4);
        let base = m.as_mut_slice().as_mut_ptr();
        // SAFETY: the two windows share no element of `m`, which is
        // borrowed exclusively until both are gone.
        let (mut left, mut right) = unsafe {
            (
                MatMut::from_raw(base, rows, split, cols),
                MatMut::from_raw(base.add(split), rows, cols - split, cols),
            )
        };
        assert_eq!(
            (right.rows(), right.cols(), right.ld()),
            (rows, cols - split, cols)
        );
        left.copy_transposed_from(src.block(0, 0, split, rows));
        right.fill(2.0);
        right.scale(-1.5);
        *right.at_mut(3, 0) = 7.0;
        left.reborrow().block(1, 2, 2, 3).scale(0.0);
        right
            .row_mut(rows - 1)
            .copy_from_slice(&vec![9.0; cols - split]);
        assert_eq!((left.at(0, 1), right.at(3, 0)), (src[(1, 0)], 7.0));
        for i in 0..rows {
            for j in 0..cols {
                let want = match (i, j) {
                    (1..=2, 2..=4) => 0.0,
                    (_, j) if j < split => src[(j, i)],
                    (3, j) if j == split => 7.0,
                    (i, _) if i == rows - 1 => 9.0,
                    _ => -3.0,
                };
                assert_eq!(m[(i, j)], want, "({i},{j})");
            }
        }
    }

    /// A `rows × 0` view sits on no storage and still hands out rows.
    #[test]
    fn a_view_without_columns_has_empty_rows() {
        let mut v = MatMut::new(3, 0, 5, &mut []);
        assert!(v.row_mut(2).is_empty());
        v.fill(1.0);
        v.scale(0.0);
        assert_eq!(v.reborrow().block(1, 0, 2, 0).rows(), 2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn block_out_of_range_panics() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }

    #[test]
    fn matref_new_validates_ld() {
        let buf = vec![0.0; 10];
        let v = MatRef::new(2, 3, 5, &buf);
        assert_eq!(v.at(1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn matref_bad_ld_panics() {
        let buf = vec![0.0; 10];
        let _ = MatRef::new(2, 3, 2, &buf);
    }
}

#[cfg(test)]
mod empty_block_tests {
    use super::*;

    #[test]
    fn empty_block_views_never_slice_out_of_range() {
        // Regression: a 0 x k block is backed by an empty buffer; taking
        // a sub-block at a positive column offset must not panic.
        let empty: Vec<f64> = vec![];
        let v = MatRef::new(0, 5, 5, &empty);
        let sub = v.block(0, 3, 0, 2);
        assert_eq!(sub.rows(), 0);
        assert_eq!(sub.cols(), 2);

        let mut empty_mut: Vec<f64> = vec![];
        let vm = MatMut::new(0, 5, 5, &mut empty_mut);
        let subm = vm.block(0, 4, 0, 1);
        assert_eq!(subm.rows(), 0);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = Matrix::zeros(0, 7);
        assert_eq!(m.as_slice().len(), 0);
        let v = m.as_ref();
        assert_eq!(v.block(0, 2, 0, 3).cols(), 3);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (7, 0));
    }
}
