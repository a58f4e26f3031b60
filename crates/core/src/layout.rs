//! Distributed storage layouts for the four transpose cases.
//!
//! All matrices share the C matrix's `p × q` process grid. A distributed
//! A or B that a caller *builds* ([`dist_a`] / [`dist_b`], the
//! shape-only matrices of a modeled run) is held in
//! its *stored* orientation, gridded so that every block a task needs is
//! a **whole stored block of one rank** — the property that keeps a
//! one-sided get one (strided) transfer from one owner:
//!
//! | case | stored A | A grid | logical block `op(A)_{i,l}` lives at |
//! |------|----------|--------|--------------------------------------|
//! | `N`  | `m × k`  | `p × q` | rank `(i, l)` |
//! | `T`  | `k × m`  | `q × p` | rank `(l, i)` (transposed in place) |
//!
//! and symmetrically for B (`k × n` on `p × q`, or `n × k` on `q × p`).
//! The k dimension is therefore partitioned into `q` panels for A and
//! `p` panels for B; when `p ≠ q` these panels do not align, and the
//! task builder (see [`crate::taskorder`]) multiplies over the *merged*
//! segments, so every fetched block is still used whole.
//!
//! A **host** operand has no stored orientation to honour: a driver is
//! handed the logical `op(A)` (`m × k`) and `op(B)` (`k × n`), which are
//! the `N` row of the table already. [`with_host_operands`] therefore
//! distributes both in place — read-only [`DistMatrix::with_host_views`]
//! over the C grid, no allocation and no copy, whatever `transa` / `transb`
//! say — and hands back the spec the ranks must run over them, the
//! transposes normalised to `N`, just as [`with_fresh_c`] normalises `β`
//! for a C nobody has written; [`with_host_operand_sets`] is the same
//! for every multiply of a batch stream at once, each over its own
//! team's grid and cost map. [`dist_a`] /
//! [`dist_b`] + [`scatter_operands`] remain the copying form (owned
//! matrices in the stored orientation) for callers that own their
//! distributed matrices.
//!
//! The result is in place too: [`with_fresh_c`] lends the ranks the
//! matrix the caller will be handed as a writable
//! [`DistMatrix::with_host_views_mut`], so each owner computes its tile
//! where the caller reads it and there is no second C to gather from.
//! [`dist_c`] / [`fresh_c`] remain the owned form, for callers that own
//! their C.

use crate::options::GemmSpec;
use srumma_comm::dist::RankOrder;
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

/// Stored dimensions of A for this spec.
pub(crate) fn a_stored_dims(spec: &GemmSpec) -> (usize, usize) {
    match spec.transa {
        Op::N => (spec.m, spec.k),
        Op::T => (spec.k, spec.m),
    }
}

/// Stored dimensions of B for this spec.
pub(crate) fn b_stored_dims(spec: &GemmSpec) -> (usize, usize) {
    match spec.transb {
        Op::N => (spec.k, spec.n),
        Op::T => (spec.n, spec.k),
    }
}

/// Grid for stored A (transposed cases flip the grid so logical blocks
/// stay whole).
pub(crate) fn a_grid(spec: &GemmSpec, grid: ProcGrid) -> ProcGrid {
    match spec.transa {
        Op::N => grid,
        Op::T => ProcGrid::new(grid.q, grid.p),
    }
}

/// Grid for stored B.
pub(crate) fn b_grid(spec: &GemmSpec, grid: ProcGrid) -> ProcGrid {
    match spec.transb {
        Op::N => grid,
        Op::T => ProcGrid::new(grid.q, grid.p),
    }
}

/// Create the distributed A for `spec` (real or virtual backing).
///
/// Transposed storage uses **column-major rank placement** so that the
/// rank owning the stored block `Aᵀ(la, i)` is exactly the rank that
/// owns the logical block `op(A)(i, la)` — i.e. ownership is the same
/// as in the untransposed case, each rank simply stores its block
/// transposed in place. This keeps SUMMA's row/column broadcast
/// structure valid and gives SRUMMA symmetric locality.
pub fn dist_a(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    let (r, c) = a_stored_dims(spec);
    let g = a_grid(spec, grid);
    let order = match spec.transa {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_with_order(g, r, c, order, real)
}

/// Create the distributed B for `spec` (see [`dist_a`] for the
/// placement rule).
pub fn dist_b(spec: &GemmSpec, grid: ProcGrid, real: bool) -> DistMatrix {
    let (r, c) = b_stored_dims(spec);
    let g = b_grid(spec, grid);
    let order = match spec.transb {
        Op::N => RankOrder::RowMajor,
        Op::T => RankOrder::ColMajor,
    };
    DistMatrix::create_with_order(g, r, c, order, real)
}

/// A logical mask in the block coordinates of an operand stored as `op`.
fn stored_mask(op: Op, logical: BlockMask) -> BlockMask {
    match op {
        Op::N => logical,
        Op::T => logical.transposed(),
    }
}

/// Lend `f` the distributed operands of one multiply as a driver holds
/// them — `ab` = the logical `m × k` and `k × n` matrices (any windows
/// of host matrices), or `None` for shape only — with the **logical**
/// `masks` (see [`set_a_mask`]) and `cost` attached, and the spec the
/// ranks must run over them.
///
/// A host matrix **is** `op(A)` (`op(B)`), so both are read where they
/// lie through [`DistMatrix::with_host_views`] over the C grid and the
/// spec's transposes are normalised to `N`: nothing is allocated,
/// transposed or copied, and layout and spec cannot disagree because
/// they come from this one call (the one-multiply case of
/// [`with_host_operand_sets`]). Shape-only operands hold no data to be
/// oriented either way; they keep the stored layout `spec` names
/// ([`dist_a`] / [`dist_b`]) and `spec` itself.
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

/// The shape-only operands of one multiply: [`dist_a`] / [`dist_b`] in
/// the stored layout `spec` names, with the **logical** `masks` and `cost`
/// attached.
pub(crate) fn shape_only_operands(
    spec: &GemmSpec,
    grid: ProcGrid,
    masks: (Option<&BlockMask>, Option<&BlockMask>),
    cost: CostMap,
) -> (DistMatrix, DistMatrix) {
    let (mut da, mut db) = (dist_a(spec, grid, false), dist_b(spec, grid, false));
    if let Some(mask) = masks.0 {
        set_a_mask(spec, &mut da, mask.clone());
    }
    if let Some(mask) = masks.1 {
        set_b_mask(spec, &mut db, mask.clone());
    }
    da.set_cost_map(cost);
    db.set_cost_map(cost);
    (da, db)
}

/// [`with_host_operands`] for many multiplies at once — every entry of a
/// batch stream, each over its own team's grid and cost map: lend `f`,
/// for each of `sets` in order, the spec the ranks must run (transposes
/// normalised to `N`) and read-only views of its logical `a` and `b`
/// over its `grid`, with its `cost` and its logical masks attached,
/// unflipped — multiply `e`'s A is `views[2e]`, its B `views[2e + 1]`.
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
    if real {
        DistMatrix::create(grid, spec.m, spec.n)
    } else {
        DistMatrix::create_virtual(grid, spec.m, spec.n)
    }
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

/// Attach a **logical** block-sparsity mask to stored A. The logical
/// mask is shaped like `op(A)`'s blocking: `p` C-row blocks × `q`
/// k-panels (the C grid). For transposed storage the stored grid is
/// flipped, so the mask is transposed to stored coordinates before
/// attachment — callers always think in logical blocks.
pub fn set_a_mask(spec: &GemmSpec, da: &mut DistMatrix, logical: BlockMask) {
    da.set_mask(stored_mask(spec.transa, logical));
}

/// Attach a **logical** mask to stored B (`p` k-panels × `q` C-column
/// blocks; see [`set_a_mask`]).
pub fn set_b_mask(spec: &GemmSpec, db: &mut DistMatrix, logical: BlockMask) {
    db.set_mask(stored_mask(spec.transb, logical));
}

/// Rank owning logical block `op(A)_{i, la}` (C-row `i`, k-panel `la`).
///
/// Thanks to the column-major placement of transposed storage this is
/// the *same rank* for both transpose cases: rank `(i, la)` of the C
/// grid, which always sits in C-grid row `i` (as SUMMA's row broadcast
/// requires).
pub fn a_owner(spec: &GemmSpec, grid: ProcGrid, i: usize, la: usize) -> usize {
    let _ = spec;
    grid.rank_at(i, la)
}

/// Rank owning logical block `op(B)_{lb, j}` (k-panel `lb`, C-col `j`);
/// always rank `(lb, j)` of the C grid (in C-grid column `j`).
pub fn b_owner(spec: &GemmSpec, grid: ProcGrid, lb: usize, j: usize) -> usize {
    let _ = spec;
    grid.rank_at(lb, j)
}

/// Sub-view of a *stored* A block for the k-segment
/// `[rel0, rel0 + seg)` (relative to the block's k-panel), together
/// with the transpose flag to hand to dgemm. `view` must be the whole
/// stored block of `a_owner(spec, grid, i, la)`. (A block that was
/// *fetched* is a packed panel, already in `op(A)` order: its segment is
/// `PackedView::k_range(rel0, seg)`, with no orientation to choose.)
pub(crate) fn a_seg_view<'a>(
    spec: &GemmSpec,
    view: MatRef<'a>,
    rel0: usize,
    seg: usize,
) -> (MatRef<'a>, Op) {
    match spec.transa {
        // Stored block is (m_i × k_la): take columns.
        Op::N => (view.block(0, rel0, view.rows(), seg), Op::N),
        // Stored block is (k_la × m_i): take rows, multiply transposed.
        Op::T => (view.block(rel0, 0, seg, view.cols()), Op::T),
    }
}

/// Sub-view of a *stored* B block for the k-segment, with its dgemm op.
pub(crate) fn b_seg_view<'a>(
    spec: &GemmSpec,
    view: MatRef<'a>,
    rel0: usize,
    seg: usize,
) -> (MatRef<'a>, Op) {
    match spec.transb {
        // Stored block is (k_lb × n_j): take rows.
        Op::N => (view.block(rel0, 0, seg, view.cols()), Op::N),
        // Stored block is (n_j × k_lb): take columns, transposed.
        Op::T => (view.block(0, rel0, view.rows(), seg), Op::T),
    }
}

/// Scatter logical matrices into their stored distributions: `a` is the
/// logical `m × k` operand (untransposed), and likewise `b` (`k × n`).
/// Handles the storage transposition for the `T` cases. The copying
/// form: [`crate::run::Run`] itself goes through [`with_host_operands`]
/// and copies nothing.
pub fn scatter_operands(
    spec: &GemmSpec,
    dist_a: &DistMatrix,
    dist_b: &DistMatrix,
    a: &srumma_dense::Matrix,
    b: &srumma_dense::Matrix,
) {
    assert_eq!((a.rows(), a.cols()), (spec.m, spec.k), "A must be m x k");
    assert_eq!((b.rows(), b.cols()), (spec.k, spec.n), "B must be k x n");
    match spec.transa {
        Op::N => dist_a.scatter(a),
        Op::T => dist_a.scatter_transposed(a.as_ref()),
    }
    match spec.transb {
        Op::N => dist_b.scatter(b),
        Op::T => dist_b.scatter_transposed(b.as_ref()),
    }
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
    fn stored_dims_match_orientation() {
        let s = GemmSpec::new(Op::T, Op::T, 9, 7, 11);
        assert_eq!(a_stored_dims(&s), (11, 9));
        assert_eq!(b_stored_dims(&s), (7, 11));
    }

    #[test]
    fn owners_cover_every_block_once() {
        let grid = ProcGrid::new(2, 3);
        for spec in specs() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..grid.p {
                for la in 0..a_kparts(grid) {
                    seen.insert(a_owner(&spec, grid, i, la));
                }
            }
            assert_eq!(seen.len(), grid.nranks(), "{spec:?}: A blocks");
            let mut seen = std::collections::HashSet::new();
            for lb in 0..b_kparts(grid) {
                for j in 0..grid.q {
                    seen.insert(b_owner(&spec, grid, lb, j));
                }
            }
            assert_eq!(seen.len(), grid.nranks(), "{spec:?}: B blocks");
        }
    }

    #[test]
    fn a_block_contains_logical_elements_all_cases() {
        let grid = ProcGrid::new(2, 3);
        // Logical A is m x k.
        let (m, k) = (9, 11);
        let logical = Matrix::from_fn(m, k, |i, j| (i * 100 + j) as f64);
        for spec in specs().into_iter().filter(|s| (s.m, s.k) == (m, k)) {
            let da = dist_a(&spec, grid, true);
            let db = dist_b(&spec, grid, true);
            let logical_b = Matrix::zeros(spec.k, spec.n);
            scatter_operands(&spec, &da, &db, &logical, &logical_b);
            // Check logical block (i=1, la=2): rows chunk(m, p, 1),
            // k-cols chunk(k, q, 2).
            let (i, la) = (1, 2);
            let owner = a_owner(&spec, grid, i, la);
            let blk = da.read_block(owner);
            let view = blk.mat().unwrap();
            let (seg_view, op) = a_seg_view(&spec, view, 0, chunk_len(k, grid.q, la));
            let r0 = chunk_start(m, grid.p, i);
            let k0 = chunk_start(k, grid.q, la);
            // Element (0, 0) of the logical block:
            let logical_val = logical[(r0, k0)];
            let got = match op {
                Op::N => seg_view.at(0, 0),
                Op::T => seg_view.at(0, 0), // (k, m) storage: (0,0) is same corner
            };
            assert_eq!(got, logical_val, "{:?}", spec.transa);
        }
    }

    /// All four transpose cases: the tiled transposing scatter stores
    /// exactly what scattering an explicit transpose stored.
    #[test]
    fn scatter_operands_matches_scattering_explicit_transposes() {
        let grid = ProcGrid::new(2, 3);
        for ta in [Op::N, Op::T] {
            for tb in [Op::N, Op::T] {
                let spec = GemmSpec::new(ta, tb, 37, 21, 50);
                let a = Matrix::random(spec.m, spec.k, 1);
                let b = Matrix::random(spec.k, spec.n, 2);
                let (da, db) = (dist_a(&spec, grid, true), dist_b(&spec, grid, true));
                scatter_operands(&spec, &da, &db, &a, &b);
                let (wa, wb) = (dist_a(&spec, grid, true), dist_b(&spec, grid, true));
                wa.scatter(&if ta == Op::T { a.transposed() } else { a });
                wb.scatter(&if tb == Op::T { b.transposed() } else { b });
                assert_eq!(da.gather(), wa.gather(), "{spec:?}: A");
                assert_eq!(db.gather(), wb.gather(), "{spec:?}: B");
            }
        }
    }

    #[test]
    fn seg_views_slice_the_k_range() {
        let grid = ProcGrid::new(2, 2);
        let spec = GemmSpec::new(Op::N, Op::N, 8, 8, 8);
        let da = dist_a(&spec, grid, true);
        let logical = Matrix::from_fn(8, 8, |i, j| (i * 10 + j) as f64);
        da.scatter(&logical);
        // Block (0, 1): rows 0..4, k 4..8. Segment rel0=1, seg=2 → k 5..7.
        let owner = a_owner(&spec, grid, 0, 1);
        let blk = da.read_block(owner);
        let (v, op) = a_seg_view(&spec, blk.mat().unwrap(), 1, 2);
        assert_eq!(op, Op::N);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), logical[(0, 5)]);
        assert_eq!(v.at(3, 1), logical[(3, 6)]);
    }

    /// The rank that owns logical block `op(A)(i, la)` sees exactly
    /// `mask_a[i][la]`, and likewise for B — both masks are `p × q`.
    fn assert_masks_on_logical_owners(
        spec: &GemmSpec,
        grid: ProcGrid,
        (da, db): (&DistMatrix, &DistMatrix),
        (mask_a, mask_b): (&BlockMask, &BlockMask),
    ) {
        for i in 0..grid.p {
            for j in 0..grid.q {
                let (oa, ob) = (a_owner(spec, grid, i, j), b_owner(spec, grid, i, j));
                assert_eq!(
                    da.block_nonzero(oa),
                    mask_a.get(i, j),
                    "{spec:?} A ({i},{j})"
                );
                assert_eq!(
                    db.block_nonzero(ob),
                    mask_b.get(i, j),
                    "{spec:?} B ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn logical_masks_land_on_logical_owners_all_cases() {
        // Whatever the storage transposition.
        let grid = ProcGrid::new(2, 3);
        let mask_a = BlockMask::from_fn(grid.p, a_kparts(grid), |i, la| (i + la) % 2 == 0);
        let mask_b = BlockMask::from_fn(b_kparts(grid), grid.q, |lb, j| (lb * 3 + j) % 2 == 1);
        for spec in specs() {
            let mut da = dist_a(&spec, grid, false);
            let mut db = dist_b(&spec, grid, false);
            set_a_mask(&spec, &mut da, mask_a.clone());
            set_b_mask(&spec, &mut db, mask_b.clone());
            assert_masks_on_logical_owners(&spec, grid, (&da, &db), (&mask_a, &mask_b));
        }
    }

    /// Host operands are lent as views of the logical matrices under a
    /// spec whose transposes are `N` and nothing else changed: the owner
    /// of `op(A)(i, la)` holds that window of `a` and sees `mask[i][la]`,
    /// unflipped. Shape-only operands keep the spec, its stored layout
    /// and the flipped mask.
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
                assert_masks_on_logical_owners(run, grid, (da, db), (&mask_a, &mask_b));
                let (i, l) = (1, 2);
                let blk = da.read_block(a_owner(run, grid, i, l));
                let (r0, k0) = (
                    chunk_start(spec.m, grid.p, i),
                    chunk_start(spec.k, grid.q, l),
                );
                let (view, op) =
                    a_seg_view(run, blk.mat().unwrap(), 0, chunk_len(spec.k, grid.q, l));
                assert_eq!((op, view.ld()), (Op::N, a.ld()));
                assert_eq!(view.at(1, 1), a[(r0 + 1, k0 + 1)]);
                let (l, j) = (1, 2);
                let blk = db.read_block(b_owner(run, grid, l, j));
                let (k0, c0) = (
                    chunk_start(spec.k, grid.p, l),
                    chunk_start(spec.n, grid.q, j),
                );
                assert_eq!(blk.mat().unwrap().at(1, 1), b[(k0 + 1, c0 + 1)]);
            });
            with_host_operands(&spec, grid, None, masks, id, |run, da, db| {
                assert_eq!(*run, spec);
                assert_eq!((da.rows(), da.cols()), a_stored_dims(&spec));
                assert_eq!((db.rows(), db.cols()), b_stored_dims(&spec));
                assert!(!da.is_real() && !db.is_real());
                assert_masks_on_logical_owners(run, grid, (da, db), (&mask_a, &mask_b));
            });
        }
    }

    #[test]
    fn transposed_b_seg_view() {
        let grid = ProcGrid::new(2, 2);
        let spec = GemmSpec::new(Op::N, Op::T, 4, 6, 8);
        let db = dist_b(&spec, grid, true);
        let logical_b = Matrix::from_fn(8, 6, |i, j| (i * 10 + j) as f64); // k x n
        let da = dist_a(&spec, grid, true);
        let logical_a = Matrix::zeros(4, 8);
        scatter_operands(&spec, &da, &db, &logical_a, &logical_b);
        // op(B)_{lb=1, j=0}: k rows chunk(8, p=2, 1) = 4..8, cols chunk(6, q=2, 0) = 0..3.
        let owner = b_owner(&spec, grid, 1, 0);
        let blk = db.read_block(owner);
        let (v, op) = b_seg_view(&spec, blk.mat().unwrap(), 1, 2); // k 5..7
        assert_eq!(op, Op::T);
        // Stored B is n x k (6 x 8): block (j=0, lb=1) is rows 0..3, cols 4..8.
        // Segment: cols rel 1..3 of that block = logical k 5..7.
        // op view is (n_j x seg) = (3 x 2), transposed in dgemm.
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        // v.at(col_in_nj, seg_idx) is stored B[nj, k] = logical B[k, nj].
        assert_eq!(v.at(2, 1), logical_b[(6, 2)]);
    }
}
