//! Numeric comparison helpers shared by tests across the workspace.

use crate::matrix::Matrix;

/// Largest absolute elementwise difference between two same-shape
/// matrices — NaN if any difference is NaN, so that an element nobody
/// wrote (a debug build's NaN poison) fails every `diff < tol` check.
///
/// # Panics
/// Panics if shapes differ.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "shape mismatch: {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
}

/// Relative Frobenius-norm error `‖a − b‖_F / max(‖b‖_F, 1)`.
pub fn rel_fro_error(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let mut diff2 = 0.0;
    let mut ref2 = 0.0;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        diff2 += (x - y) * (x - y);
        ref2 += y * y;
    }
    diff2.sqrt() / ref2.sqrt().max(1.0)
}

/// Assert two matrices agree to `tol` in max-abs difference, with a
/// useful failure message locating the first offending element.
#[cfg(test)]
pub(crate) fn assert_close(got: &Matrix, expect: &Matrix, tol: f64) {
    assert_eq!(
        (got.rows(), got.cols()),
        (expect.rows(), expect.cols()),
        "shape mismatch"
    );
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (g, e) = (got[(i, j)], expect[(i, j)]);
            assert!(
                (g - e).abs() <= tol || (g.is_nan() && e.is_nan()),
                "mismatch at ({i}, {j}): got {g}, expected {e} (tol {tol}); \
                 max abs diff {}",
                max_abs_diff(got, expect)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_of_identical_is_zero() {
        let m = Matrix::random(5, 5, 1);
        assert_eq!(max_abs_diff(&m, &m), 0.0);
        assert_eq!(rel_fro_error(&m, &m), 0.0);
    }

    #[test]
    fn diff_detects_perturbation() {
        let a = Matrix::zeros(3, 3);
        let mut b = Matrix::zeros(3, 3);
        b[(1, 2)] = 0.5;
        assert_eq!(max_abs_diff(&a, &b), 0.5);
        assert!(rel_fro_error(&a, &b) > 0.0);
        b[(0, 0)] = f64::NAN;
        assert!(
            max_abs_diff(&a, &b).is_nan(),
            "a NaN is never within tolerance"
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = max_abs_diff(&a, &b);
    }

    #[test]
    #[should_panic(expected = "mismatch at (0, 1)")]
    fn assert_close_reports_position() {
        let a = Matrix::zeros(2, 2);
        let mut b = Matrix::zeros(2, 2);
        b[(0, 1)] = 1.0;
        assert_close(&a, &b, 1e-9);
    }
}
