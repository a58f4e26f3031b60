//! Distributed layouts of a multiply's operands and product.
//!
//! Every matrix of a multiply shares the C matrix's `p × q` process grid
//! and its row-major rank placement, and a distributed operand is the
//! logical one in every transpose case: A is `op(A)` (`m × k`), B is
//! `op(B)` (`k × n`). Logical block `op(A)_{i,l}` is therefore a whole
//! block of rank `(i, l)` ([`a_owner`]) and `op(B)_{l,j}` one of rank
//! `(l, j)` ([`b_owner`]) — the property that keeps a one-sided get one
//! (strided) transfer from one owner. `transa` / `transb` name the
//! paper's case; no rank program reads them.
//!
//! The k dimension is partitioned into `q` panels for A and `p` panels
//! for B; when `p ≠ q` these panels do not align, and the task builder
//! (see [`crate::taskorder`]) multiplies over the *merged* segments, so
//! every fetched block is still used whole.
//!
//! A driver is handed `op(A)` and `op(B)` themselves.
//! [`with_host_operands`] distributes both in place — read-only
//! [`DistMatrix::with_host_views`] over the C grid, no allocation and no
//! copy — and hands back the spec the ranks run over them, the
//! transposes normalised to `N`, just as `with_fresh_c` normalises `β`
//! for a C nobody has written; `with_host_operand_sets` is the same for
//! every multiply of a batch stream at once, each over its own team's
//! grid and cost map. [`dist_a`] / [`dist_b`] + [`scatter_operands`]
//! remain the copying form (owned matrices) for callers that own their
//! distributed matrices, and, shape only, the operands of a modeled run.
//!
//! The result is in place too: `with_fresh_c` lends the ranks the
//! matrix the caller will be handed as a writable
//! [`DistMatrix::with_host_views_mut`], so each owner computes its tile
//! where the caller reads it and there is no second C to gather from.
//! [`dist_c`] / [`fresh_c`] remain the owned form, for callers that own
//! their C.

use crate::options::GemmSpec;
use srumma_comm::{CostMap, DistMatrix};
use srumma_dense::{BlockMask, MatMut, MatRef, Op};
use srumma_model::ProcGrid;

/// Number of k-panels of A (one per grid column).
pub fn a_kparts(grid: ProcGrid) -> usize {
    grid.q
}

/// Number of k-panels of B (one per grid row).
pub fn b_kparts(grid: ProcGrid) -> usize {
    grid.p
}

/// A dense `rows × cols` matrix over `grid`: owned and zeroed if `real`,
/// shape only otherwise.
fn create(grid: ProcGrid, rows: usize, cols: usize, real: bool) -> DistMatrix {
    if real {
        DistMatrix::create(grid, rows, cols)
    } else {
        DistMatrix::create_virtual(grid, rows, cols)
    }
}

/// Create the distributed `op(A)` for `spec`, `m × k` on the C grid
/// (real or virtual backing), in every transpose case.
pub fn dist_a(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    create(grid, spec.m, spec.k, real)
}

/// Create the distributed `op(B)` for `spec`, `k × n` on the C grid.
pub fn dist_b(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    create(grid, spec.k, spec.n, real)
}

/// Lend `f` the distributed operands of one multiply as a driver holds
/// them — `ab` = the logical `m × k` and `k × n` matrices (any windows
/// of host matrices), or `None` for shape only — with the logical
/// `masks` (see [`crate::driver::SparseMasks`]) and `cost` attached, and
/// the spec the ranks must run over them.
///
/// A host matrix **is** `op(A)` (`op(B)`), so both are read where they
/// lie through [`DistMatrix::with_host_views`] over the C grid and the
/// spec's transposes are normalised to `N`: nothing is allocated,
/// transposed or copied, and layout and spec cannot disagree because
/// they come from this one call (the one-multiply case of
/// `with_host_operand_sets`). Shape-only operands are [`dist_a`] /
/// [`dist_b`] without elements, run under `spec` itself.
pub fn with_host_operands<R>(
    spec: &GemmSpec,
    grid: ProcGrid,
    ab: Option<(MatRef<'_>, MatRef<'_>)>,
    masks: (Option<&BlockMask>, Option<&BlockMask>),
    cost: CostMap,
    f: impl FnOnce(&GemmSpec, &DistMatrix, &DistMatrix) -> R,
) -> R {
    let Some((a, b)) = ab else {
        let (da, db) = shape_only_operands(spec, grid, masks, cost);
        return f(spec, &da, &db);
    };
    let set = HostOperands {
        spec,
        a,
        b,
        masks,
        grid,
        cost,
    };
    with_host_operand_sets([set], |specs, views| f(&specs[0], &views[0], &views[1]))
}

/// The shape-only operands of one multiply: [`dist_a`] / [`dist_b`]
/// with `masks` and `cost` attached.
pub(crate) fn shape_only_operands(
    spec: &GemmSpec,
    grid: ProcGrid,
    masks: (Option<&BlockMask>, Option<&BlockMask>),
    cost: CostMap,
) -> (DistMatrix, DistMatrix) {
    let (mut da, mut db) = (dist_a(spec, grid, false), dist_b(spec, grid, false));
    if let Some(mask) = masks.0 {
        da.set_mask(mask.clone());
    }
    if let Some(mask) = masks.1 {
        db.set_mask(mask.clone());
    }
    da.set_cost_map(cost);
    db.set_cost_map(cost);
    (da, db)
}

/// [`with_host_operands`] for many multiplies at once — every entry of a
/// batch stream, each over its own team's grid and cost map: lend `f`,
/// for each of `sets` in order, the spec the ranks must run (transposes
/// normalised to `N`) and read-only views of its logical `a` and `b`
/// over its `grid`, with its `cost` and its masks attached — multiply
/// `e`'s A is `views[2e]`, its B `views[2e + 1]`.
/// All of them are alive for the whole of `f`, and nothing is allocated,
/// transposed or copied for any of them.
///
/// # Panics
/// Panics if an `a` is not `m × k` or a `b` not `k × n` for its spec.
pub(crate) fn with_host_operand_sets<'m, R>(
    sets: impl IntoIterator<Item = HostOperands<'m>>,
    f: impl FnOnce(&[GemmSpec], &[DistMatrix]) -> R,
) -> R {
    let (mut specs, mut windows) = (Vec::new(), Vec::new());
    for HostOperands {
        spec,
        a,
        b,
        masks: (mask_a, mask_b),
        grid,
        cost,
    } in sets
    {
        assert_eq!((a.rows(), a.cols()), (spec.m, spec.k), "A must be m x k");
        assert_eq!((b.rows(), b.cols()), (spec.k, spec.n), "B must be k x n");
        specs.push(GemmSpec {
            transa: Op::N,
            transb: Op::N,
            ..*spec
        });
        windows.push((a, grid, cost, mask_a.cloned()));
        windows.push((b, grid, cost, mask_b.cloned()));
    }
    DistMatrix::with_host_views(&windows, |views| f(&specs, views))
}

/// One multiply's operands as a driver is handed them — its spec, the
/// logical `m × k` A and `k × n` B, and their logical masks — and where
/// its ranks are: the grid they multiply on and the cost map from its
/// slots to global ranks.
pub(crate) struct HostOperands<'m> {
    pub spec: &'m GemmSpec,
    pub(crate) a: MatRef<'m>,
    pub(crate) b: MatRef<'m>,
    pub masks: (Option<&'m BlockMask>, Option<&'m BlockMask>),
    pub(crate) grid: ProcGrid,
    pub cost: CostMap,
}

/// Create the distributed C for `spec`.
pub fn dist_c(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    create(grid, spec.m, spec.n, real)
}

/// [`dist_c`] for a driver that creates C itself and never writes it
/// before the multiply, plus the spec to run with. Such a C holds
/// nothing the product needs, so `β` is moot; normalising it to `0`
/// (BLAS: C need not be set on input) makes every owner's **first
/// task** the first touch of its block: the kernel *stores* that task's
/// product there — a write, by the owner, in parallel, with no pre-pass
/// and no read of C. Only an owner left with no task (every segment
/// masked, or `k = 0`) fills its block in the pre-pass instead. Left at
/// the default `β = 1` the first touch would be the kernel's read in
/// `c += α·acc`: a fault that maps the shared zero page, then a second
/// one that copies it and shoots down the other workers' TLBs. A
/// caller-supplied C keeps its real `β` (use [`dist_c`]).
pub fn fresh_c(spec: &GemmSpec, grid: ProcGrid, real: bool) -> (GemmSpec, DistMatrix) {
    (GemmSpec { beta: 0.0, ..*spec }, dist_c(spec, grid, real))
}

/// [`fresh_c`] distributed **in place**: lend `f` the spec to run with
/// and a C whose blocks are windows of `product` — the all-zero `m × n`
/// matrix (any window of one) the driver will hand its caller — or, with
/// no `product`, the shape-only C of a modeled run. `β` is normalised as
/// in [`fresh_c`] and for its reason: a just-allocated `product` has no
/// page of its own yet, and each owner's first task, which stores its
/// product into the window, is what faults them in, in parallel, on the
/// thread that computes there. Nothing is allocated or copied for C and
/// nothing is gathered: when `f` returns, `product` holds the result.
pub(crate) fn with_fresh_c<R>(
    spec: &GemmSpec,
    grid: ProcGrid,
    product: Option<MatMut<'_>>,
    f: impl FnOnce(&GemmSpec, &DistMatrix) -> R,
) -> R {
    // A shape-only C holds nothing, so making one just for its spec is free.
    let (spec, shape_only) = fresh_c(spec, grid, false);
    let Some(product) = product else {
        return f(&spec, &shape_only);
    };
    assert_eq!(
        (product.rows(), product.cols()),
        (spec.m, spec.n),
        "C must be m x n"
    );
    let lent = vec![(product, grid, CostMap::Identity)];
    DistMatrix::with_host_views_mut(lent, |c| f(&spec, &c[0]))
}

/// Rank owning logical block `op(A)_{i, la}` (C-row `i`, k-panel
/// `la`): rank `(i, la)` of the C grid, in C-grid row `i` (as SUMMA's
/// row broadcast requires).
pub fn a_owner(grid: ProcGrid, i: usize, la: usize) -> usize {
    grid.rank_at(i, la)
}

/// Rank owning logical block `op(B)_{lb, j}` (k-panel `lb`, C-col `j`):
/// rank `(lb, j)` of the C grid, in C-grid column `j`.
pub fn b_owner(grid: ProcGrid, lb: usize, j: usize) -> usize {
    grid.rank_at(lb, j)
}

/// The k-segment `[rel0, rel0 + seg)` (relative to the block's k-panel)
/// of an A block — its columns. (A block that was *fetched* is a packed
/// panel: its segment is `PackedView::k_range(rel0, seg)`.)
pub(crate) fn a_seg_view(view: MatRef<'_>, rel0: usize, seg: usize) -> MatRef<'_> {
    view.block(0, rel0, view.rows(), seg)
}

/// The k-segment of a B block — its rows.
pub(crate) fn b_seg_view(view: MatRef<'_>, rel0: usize, seg: usize) -> MatRef<'_> {
    view.block(rel0, 0, seg, view.cols())
}

/// Scatter a caller's `op(A)` (`m × k`) and `op(B)` (`k × n`) into
/// [`dist_a`] / [`dist_b`], in every transpose case. The copying form:
/// [`crate::run::Run`] itself goes through [`with_host_operands`] and
/// copies nothing.
pub fn scatter_operands(
    spec: &GemmSpec,
    dist_a: &DistMatrix,
    dist_b: &DistMatrix,
    a: &srumma_dense::Matrix,
    b: &srumma_dense::Matrix,
) {
    assert_eq!((a.rows(), a.cols()), (spec.m, spec.k), "A must be m x k");
    assert_eq!((b.rows(), b.cols()), (spec.k, spec.n), "B must be k x n");
    dist_a.scatter(a);
    dist_b.scatter(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use srumma_comm::dist::{chunk_len, chunk_start};
    use srumma_dense::Matrix;

    fn specs() -> Vec<GemmSpec> {
        let mut v = vec![];
        for ta in [Op::N, Op::T] {
            for tb in [Op::N, Op::T] {
                v.push(GemmSpec::new(ta, tb, 9, 7, 11));
            }
        }
        v
    }

    #[test]
    fn owners_cover_every_block_once() {
        let grid = ProcGrid::new(2, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..grid.p {
            for la in 0..a_kparts(grid) {
                seen.insert(a_owner(grid, i, la));
            }
        }
        assert_eq!(seen.len(), grid.nranks(), "A blocks");
        let mut seen = std::collections::HashSet::new();
        for lb in 0..b_kparts(grid) {
            for j in 0..grid.q {
                seen.insert(b_owner(grid, lb, j));
            }
        }
        assert_eq!(seen.len(), grid.nranks(), "B blocks");
    }

    #[test]
    fn a_block_contains_logical_elements_all_cases() {
        let grid = ProcGrid::new(2, 3);
        // Logical A is m x k.
        let (m, k) = (9, 11);
        let logical = Matrix::from_fn(m, k, |i, j| (i * 100 + j) as f64);
        for spec in specs() {
            let da = dist_a(&spec, grid, true);
            let db = dist_b(&spec, grid, true);
            let logical_b = Matrix::zeros(spec.k, spec.n);
            scatter_operands(&spec, &da, &db, &logical, &logical_b);
            // Logical block (i=1, la=2): rows chunk(m, p, 1), k-cols
            // chunk(k, q, 2); its element (1, 1).
            let (i, la) = (1, 2);
            let blk = da.read_block(a_owner(grid, i, la));
            let view = a_seg_view(blk.mat().unwrap(), 0, chunk_len(k, grid.q, la));
            let r0 = chunk_start(m, grid.p, i);
            let k0 = chunk_start(k, grid.q, la);
            assert_eq!(view.at(1, 1), logical[(r0 + 1, k0 + 1)], "{spec:?}");
        }
    }

    /// All four transpose cases: the distributed operands are `m × k`
    /// and `k × n` on the C grid, and `scatter_operands` stores the
    /// matrices it is handed as they are.
    #[test]
    fn scatter_operands_stores_the_operands_as_handed() {
        let grid = ProcGrid::new(2, 3);
        for spec in specs() {
            let a = Matrix::random(spec.m, spec.k, 1);
            let b = Matrix::random(spec.k, spec.n, 2);
            let (da, db) = (dist_a(&spec, grid, true), dist_b(&spec, grid, true));
            assert_eq!((da.rows(), da.cols(), da.grid()), (spec.m, spec.k, grid));
            assert_eq!((db.rows(), db.cols(), db.grid()), (spec.k, spec.n, grid));
            scatter_operands(&spec, &da, &db, &a, &b);
            assert_eq!(da.gather(), a, "{spec:?}: A");
            assert_eq!(db.gather(), b, "{spec:?}: B");
        }
    }

    #[test]
    fn seg_views_slice_the_k_range() {
        let grid = ProcGrid::new(2, 2);
        let spec = GemmSpec::new(Op::N, Op::N, 8, 8, 8);
        let (da, db) = (dist_a(&spec, grid, true), dist_b(&spec, grid, true));
        let logical = Matrix::from_fn(8, 8, |i, j| (i * 10 + j) as f64);
        da.scatter(&logical);
        db.scatter(&logical);
        // A block (0, 1): rows 0..4, k 4..8. Segment rel0=1, seg=2 → k 5..7.
        let blk = da.read_block(a_owner(grid, 0, 1));
        let v = a_seg_view(blk.mat().unwrap(), 1, 2);
        assert_eq!((v.rows(), v.cols()), (4, 2));
        assert_eq!(v.at(0, 0), logical[(0, 5)]);
        assert_eq!(v.at(3, 1), logical[(3, 6)]);
        // B block (1, 0): k 4..8, cols 0..4. The same segment is rows.
        let blk = db.read_block(b_owner(grid, 1, 0));
        let v = b_seg_view(blk.mat().unwrap(), 1, 2);
        assert_eq!((v.rows(), v.cols()), (2, 4));
        assert_eq!(v.at(1, 3), logical[(6, 3)]);
    }

    /// The rank that owns logical block `op(A)(i, la)` sees exactly
    /// `mask_a[i][la]`, and likewise for B — both masks are `p × q`.
    fn assert_masks_on_logical_owners(
        grid: ProcGrid,
        (da, db): (&DistMatrix, &DistMatrix),
        (mask_a, mask_b): (&BlockMask, &BlockMask),
    ) {
        for i in 0..grid.p {
            for j in 0..grid.q {
                let (oa, ob) = (a_owner(grid, i, j), b_owner(grid, i, j));
                assert_eq!(da.block_nonzero(oa), mask_a.get(i, j), "A ({i},{j})");
                assert_eq!(db.block_nonzero(ob), mask_b.get(i, j), "B ({i},{j})");
            }
        }
    }

    #[test]
    fn logical_masks_land_on_logical_owners_all_cases() {
        // Whatever the transpose case.
        let grid = ProcGrid::new(2, 3);
        let mask_a = BlockMask::from_fn(grid.p, a_kparts(grid), |i, la| (i + la) % 2 == 0);
        let mask_b = BlockMask::from_fn(b_kparts(grid), grid.q, |lb, j| (lb * 3 + j) % 2 == 1);
        let masks = (Some(&mask_a), Some(&mask_b));
        for spec in specs() {
            let (da, db) = shape_only_operands(&spec, grid, masks, CostMap::Identity);
            assert_masks_on_logical_owners(grid, (&da, &db), (&mask_a, &mask_b));
        }
    }

    /// Host operands are lent as views of the logical matrices under a
    /// spec whose transposes are `N` and nothing else changed: the owner
    /// of `op(A)(i, la)` holds that window of `a` and sees `mask[i][la]`.
    /// Shape-only operands have the same shapes and masks, under the
    /// spec as given.
    #[test]
    fn host_operands_are_views_under_a_normalised_spec() {
        let grid = ProcGrid::new(2, 3);
        let mask_a = BlockMask::from_fn(grid.p, a_kparts(grid), |i, la| (i + la) % 2 == 0);
        let mask_b = BlockMask::from_fn(b_kparts(grid), grid.q, |lb, j| (lb * 3 + j) % 2 == 1);
        let masks = (Some(&mask_a), Some(&mask_b));
        let id = CostMap::Identity;
        for spec in specs() {
            let a = Matrix::from_fn(spec.m, spec.k, |i, j| (i * 100 + j) as f64);
            let b = Matrix::from_fn(spec.k, spec.n, |i, j| (i * 100 + j) as f64 + 0.5);
            let ab = Some((a.as_ref(), b.as_ref()));
            with_host_operands(&spec, grid, ab, masks, id, |run, da, db| {
                let (transa, transb) = (spec.transa, spec.transb);
                assert_eq!((run.transa, run.transb), (Op::N, Op::N));
                assert_eq!(
                    GemmSpec {
                        transa,
                        transb,
                        ..*run
                    },
                    spec
                );
                assert_masks_on_logical_owners(grid, (da, db), (&mask_a, &mask_b));
                let (i, l) = (1, 2);
                let blk = da.read_block(a_owner(grid, i, l));
                let (r0, k0) = (
                    chunk_start(spec.m, grid.p, i),
                    chunk_start(spec.k, grid.q, l),
                );
                let view = a_seg_view(blk.mat().unwrap(), 0, chunk_len(spec.k, grid.q, l));
                assert_eq!(view.ld(), a.ld());
                assert_eq!(view.at(1, 1), a[(r0 + 1, k0 + 1)]);
                let (l, j) = (1, 2);
                let blk = db.read_block(b_owner(grid, l, j));
                let (k0, c0) = (
                    chunk_start(spec.k, grid.p, l),
                    chunk_start(spec.n, grid.q, j),
                );
                assert_eq!(blk.mat().unwrap().at(1, 1), b[(k0 + 1, c0 + 1)]);
            });
            with_host_operands(&spec, grid, None, masks, id, |run, da, db| {
                assert_eq!(*run, spec);
                assert_eq!((da.rows(), da.cols()), (spec.m, spec.k));
                assert_eq!((db.rows(), db.cols()), (spec.k, spec.n));
                assert!(!da.is_real() && !db.is_real());
                assert_masks_on_logical_owners(grid, (da, db), (&mask_a, &mask_b));
            });
        }
    }
}
