//! Public gemm entry points.
//!
//! [`dgemm`] is the BLAS-style call used throughout the workspace — the
//! same serial kernel backs SRUMMA, Cannon and SUMMA, mirroring the
//! paper's methodology ("the same dgemm routines from vendor optimized
//! math library were used" for all parallel algorithms). There is one
//! path from here to the micro-kernel: the blocked loop
//! [`crate::blocked::dgemm_ws`], which hot paths call directly with a
//! workspace they keep.

use crate::blocked::{dgemm_ws, GemmWorkspace};
use crate::matrix::{MatMut, MatRef};

/// Whether a gemm operand enters the product transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

impl Op {
    /// Map a stored shape `(rows, cols)` to the effective `op(X)` shape.
    pub fn apply(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Op::N => (rows, cols),
            Op::T => (cols, rows),
        }
    }

    /// One-letter BLAS-style tag, for display.
    pub fn tag(self) -> char {
        match self {
            Op::N => 'N',
            Op::T => 'T',
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C` over strided views.
///
/// `op(A)` must be `c.rows() × k` and `op(B)` must be `k × c.cols()`.
/// With `β = 0`, C need not be set on input (BLAS): it is written, never
/// read. Runs [`dgemm_ws`] on a throwaway [`GemmWorkspace`] — the convenience
/// entry for one-off calls.
///
/// # Panics
/// Panics if operand shapes are inconsistent.
///
/// # Example
/// ```
/// use srumma_dense::{dgemm, Matrix, Op};
/// let a = Matrix::random(4, 6, 1);
/// let b = Matrix::random(6, 5, 2);
/// let mut c = Matrix::zeros(4, 5);
/// dgemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
/// ```
pub fn dgemm(
    transa: Op,
    transb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    dgemm_ws(
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
        &mut GemmWorkspace::new(),
    );
}

/// Convenience wrapper: allocate and return `op(A)·op(B)`.
pub fn dgemm_into(transa: Op, transb: Op, a: MatRef<'_>, b: MatRef<'_>) -> crate::Matrix {
    let (m, k) = transa.apply(a.rows(), a.cols());
    let (k2, n) = transb.apply(b.rows(), b.cols());
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    let mut c = crate::Matrix::zeros(m, n);
    dgemm(transa, transb, 1.0, a, b, 0.0, c.as_mut());
    c
}

/// Floating-point operation count of a gemm of the given shape
/// (one multiply and one add per inner-loop step, as in the paper's
/// cost model where "the cost of the addition and multiplication floating
/// point operation takes unit time").
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn op_apply_and_tag() {
        assert_eq!(Op::N.apply(2, 3), (2, 3));
        assert_eq!(Op::T.apply(2, 3), (3, 2));
        assert_eq!(Op::N.tag(), 'N');
        assert_eq!(Op::T.tag(), 'T');
    }

    #[test]
    fn gemm_flops_counts_mul_add() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000);
        assert_eq!(gemm_flops(0, 5, 5), 0);
    }

    #[test]
    fn dgemm_into_shapes() {
        let a = Matrix::random(3, 7, 1);
        let b = Matrix::random(7, 2, 2);
        let c = dgemm_into(Op::N, Op::N, a.as_ref(), b.as_ref());
        assert_eq!((c.rows(), c.cols()), (3, 2));
        let ct = dgemm_into(Op::T, Op::T, b.as_ref(), a.as_ref());
        assert_eq!((ct.rows(), ct.cols()), (2, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dgemm_into_mismatch_panics() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let _ = dgemm_into(Op::N, Op::N, a.as_ref(), b.as_ref());
    }
}
