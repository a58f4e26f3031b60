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

    #[test]
    fn op_apply() {
        assert_eq!(Op::N.apply(2, 3), (2, 3));
        assert_eq!(Op::T.apply(2, 3), (3, 2));
    }

    #[test]
    fn gemm_flops_counts_mul_add() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000);
        assert_eq!(gemm_flops(0, 5, 5), 0);
    }
}
