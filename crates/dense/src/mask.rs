//! Block-sparsity masks.
//!
//! NWChem-style chemistry workloads — the applications SRUMMA was built
//! for — multiply matrices whose *blocks* are mostly zero. A
//! [`BlockMask`] records, per grid block, whether the block carries any
//! nonzero data. The distributed layers attach a mask to a
//! `DistMatrix`; the SRUMMA task builder then prunes every
//! `Σ_k A_ik·B_kj` segment whose A or B block is masked out, skipping
//! its get, packing and gemm entirely.
//!
//! This module also owns the canonical near-even 1-D partition
//! ([`chunk_start`] / [`chunk_len`]): block `(bi, bj)` of an `r × c`
//! matrix under an `rows × cols` mask covers exactly the rows
//! `chunk_start(r, rows, bi) ..+ chunk_len(r, rows, bi)` and likewise
//! for columns — the same partition the distributed block layout uses,
//! which is what lets [`BlockMask::zero_blocks`] build the masked
//! *serial reference* that verification tests compare against.

use crate::matrix::Matrix;
use crate::rng::Rng;

/// Near-even 1-D partition: the first `n % parts` chunks get one extra
/// element. Returns the start of chunk `i`.
pub fn chunk_start(n: usize, parts: usize, i: usize) -> usize {
    let base = n / parts;
    let rem = n % parts;
    i * base + i.min(rem)
}

/// Length of chunk `i` in a near-even 1-D partition.
pub fn chunk_len(n: usize, parts: usize, i: usize) -> usize {
    let base = n / parts;
    let rem = n % parts;
    base + usize::from(i < rem)
}

/// Per-block zero/nonzero structure of a block-partitioned matrix:
/// `bits[bi][bj] == true` means block `(bi, bj)` may hold nonzeros;
/// `false` declares it identically zero (whatever data the storage
/// happens to contain there is ignored by masked multiplies).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMask {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
}

impl BlockMask {
    /// A mask with every block nonzero (the dense case).
    pub fn full(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mask must have at least one block");
        BlockMask {
            rows,
            cols,
            bits: vec![true; rows * cols],
        }
    }

    /// A mask with every block zero.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mask must have at least one block");
        BlockMask {
            rows,
            cols,
            bits: vec![false; rows * cols],
        }
    }

    /// Build a mask from a predicate over block coordinates.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = BlockMask::empty(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.bits[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// A random mask where each block is independently nonzero with
    /// probability `density`. **Nested across densities**: for a fixed
    /// `seed`, every block kept at density `d₁` is also kept at any
    /// `d₂ ≥ d₁` (each block draws one uniform value and is kept while
    /// `value < density`). Density sweeps built this way are monotone
    /// by construction — lowering the density only removes work.
    pub fn random(rows: usize, cols: usize, density: f64, seed: u64) -> Self {
        BlockMask::from_fn(rows, cols, |i, j| {
            let h = seed
                ^ (0x9E37_79B9_7F4A_7C15u64
                    .wrapping_mul(i as u64 + 1)
                    .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(j as u64 + 1)));
            Rng::new(h).chance(density)
        })
    }

    /// Block rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Block columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether block `(bi, bj)` may be nonzero.
    pub fn get(&self, bi: usize, bj: usize) -> bool {
        assert!(bi < self.rows && bj < self.cols, "block out of range");
        self.bits[bi * self.cols + bj]
    }

    /// Count of nonzero blocks.
    pub fn nnz(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Fraction of blocks that are nonzero, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The transposed mask (block `(i, j)` ↦ `(j, i)`) — how a mask
    /// follows its matrix into transposed storage.
    pub fn transposed(&self) -> Self {
        BlockMask::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Zero every element of `m` that falls in a masked-out block,
    /// partitioning `m` into `rows() × cols()` near-even chunks. This
    /// materializes the mask's semantics on a dense matrix — the masked
    /// **serial reference** is `dgemm` over operands run through this.
    pub(crate) fn zero_blocks(&self, m: &mut Matrix) {
        let (mrows, mcols) = (m.rows(), m.cols());
        for bi in 0..self.rows {
            let r0 = chunk_start(mrows, self.rows, bi);
            let rl = chunk_len(mrows, self.rows, bi);
            for bj in 0..self.cols {
                if self.get(bi, bj) {
                    continue;
                }
                let c0 = chunk_start(mcols, self.cols, bj);
                let cl = chunk_len(mcols, self.cols, bj);
                for i in r0..r0 + rl {
                    for v in &mut m.as_mut_slice()[i * mcols + c0..][..cl] {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// A copy of `m` with masked-out blocks zeroed (see
    /// [`BlockMask::zero_blocks`]).
    pub fn masked_copy(&self, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        self.zero_blocks(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_matches_distributed_partition() {
        for (n, parts) in [(10, 3), (7, 7), (5, 2), (100, 16), (3, 5), (0, 2)] {
            let mut cursor = 0;
            let mut total = 0;
            for i in 0..parts {
                assert_eq!(chunk_start(n, parts, i), cursor);
                let len = chunk_len(n, parts, i);
                cursor += len;
                total += len;
            }
            assert_eq!(total, n, "n={n} parts={parts}");
        }
    }

    #[test]
    fn full_and_empty_densities() {
        let f = BlockMask::full(2, 3);
        assert_eq!(f.nnz(), 6);
        assert_eq!(f.density(), 1.0);
        let e = BlockMask::empty(2, 3);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.density(), 0.0);
    }

    #[test]
    fn transposed_flips_coords() {
        let m = BlockMask::from_fn(2, 3, |i, j| i + j == 2);
        let t = m.transposed();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
    }

    #[test]
    fn random_masks_are_nested_across_densities() {
        let lo = BlockMask::random(6, 6, 0.2, 42);
        let hi = BlockMask::random(6, 6, 0.7, 42);
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    !lo.get(i, j) || hi.get(i, j),
                    "nesting violated at ({i},{j})"
                );
            }
        }
        assert_eq!(BlockMask::random(4, 4, 1.0, 7), BlockMask::full(4, 4));
        assert_eq!(BlockMask::random(4, 4, 0.0, 7), BlockMask::empty(4, 4));
    }

    #[test]
    fn zero_blocks_zeroes_exactly_the_masked_blocks() {
        // 5x7 matrix under a 2x3 mask with only block (1, 2) nonzero.
        let mut m = Matrix::from_fn(5, 7, |_, _| 1.0);
        let mask = BlockMask::from_fn(2, 3, |i, j| (i, j) == (1, 2));
        mask.zero_blocks(&mut m);
        let live: f64 = m.as_slice().iter().sum();
        // Block (1, 2): rows chunk(5,2,1) = 3..5 (2 rows), cols
        // chunk(7,3,2) = 5..7 (2 cols) → 4 surviving ones.
        assert_eq!(live, 4.0);
        assert_eq!(m[(4, 6)], 1.0);
        assert_eq!(m[(0, 0)], 0.0);
        // Full mask leaves the matrix bitwise untouched.
        let orig = Matrix::random(5, 7, 3);
        assert_eq!(BlockMask::full(2, 3).masked_copy(&orig), orig);
    }
}
