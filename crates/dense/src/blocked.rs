//! Cache-blocked gemm (the "vendor dgemm" stand-in).
//!
//! Classic three-level blocking around the micro-kernel:
//!
//! ```text
//! for jc in steps of nc:          // B panel fits in L3 / stays streaming
//!   for lc in steps of kc:        // packed B panel fits in L2
//!     pack B[lc.., jc..]          //   unless B is read in place
//!     for ic in steps of mc:      // packed A panel fits in L1/L2
//!       pack A[ic.., lc..]        //   unless A is read in place
//!       macro-kernel: mr x nr micro-tiles over the two sides' slivers
//! ```
//!
//! `β` has its BLAS meaning. With `β = 0`, C need not be set on input:
//! nothing reads or clears it first, and the first `lc` slice *stores*
//! `α·acc` into every tile (`Microkernel::store`). Any other `β` scales
//! C once at the start. Every later `lc` slice accumulates into C.
//!
//! That nest is written once, [`dgemm_operands`], over two
//! [`Operand`]s. A `Plain` side (a stored matrix and its transpose
//! flag) is packed as above, or — when one shape rule says the product
//! fits in cache and the kernel can read the side's layout — read where
//! it lies; a `Packed` side is a k-range of a
//! [`crate::pack::PackedPanel`] — a whole block some earlier step (a
//! one-sided get) already left in sliver order. Only a packed `Plain`
//! side runs its `pack` line: the macro-kernel takes each side as a
//! sliver base, the step to the next sliver and the lane and k strides
//! within one (`kernel::Sliver`), and the micro-kernel reads
//! the same values in the same order whichever of the three forms they
//! come in, so no bit of C can tell them apart. [`dgemm_ws`] is the
//! nest with two `Plain` sides.
//!
//! The packing buffers live in a [`GemmWorkspace`] that callers on hot
//! paths (the `Comm::gemm` implementations, the SRUMMA task loop) keep
//! across calls, so the steady state performs **zero** heap
//! allocations. A workspace runs the process kernel — dispatched once
//! per process, see [`crate::kernel::Microkernel`] — over the constant
//! `MC`/[`KC`]/`NC`; only the differential tests and the kernel
//! ladder pin another kernel or other [`BlockSizes`] per workspace.
//!
//! `SRUMMA_KERNEL` (see [`crate::kernel`]) is the one environment knob
//! of the serial path; it is parsed strictly — an unrecognized value
//! fails fast with the list of valid spellings rather than silently
//! falling back to a default.

use crate::aligned::{AlignedBuf, ALIGN};
use crate::gemm::Op;
use crate::kernel::{active_kernel, Microkernel, Sliver, ACC_LEN};
use crate::matrix::{MatMut, MatRef};
use crate::pack::{pack_a, pack_b, PackedView};

/// Default M-dimension cache block: the packed `MC × KC` A panel
/// (128 KiB) stays in L2 while every B sliver passes over it. Like
/// `NC` it only regroups whole micro-tiles — no bit of the result
/// depends on it.
pub(crate) const MC: usize = 64;
/// Default K-dimension block. The one block size that fixes bits: each C
/// element is summed in `KC`-long FMA chains, added to C one after the
/// other, so changing it changes the rounding of every product with
/// `k > KC`. It is not retuned with the micro-tile for that reason —
/// every bitwise identity checked against the previous tile (and every
/// checked-in result file) holds because `KC` stayed — and has no room
/// to grow: one `KC × nr` B sliver is 48 KiB at `nr = 24`, the whole
/// L1d of the host the tile was sized on.
pub const KC: usize = 256;
/// Default N-dimension block. A workspace uses it rounded down to whole
/// `nr`-wide slivers of its kernel ([`GemmWorkspace::with_config`]): 512
/// as it stands would end every B panel of a wide matrix in a ragged
/// 8-column sliver under both `nr = 12` and `nr = 24`.
pub(crate) const NC: usize = 512;

/// Cache-block sizes for the three blocking levels.
///
/// Correctness never depends on these; throughput does, and `kc` fixes
/// the rounding (see [`KC`]). Every run uses the defaults; the
/// differential tests pass others to show exactly that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    /// A-panel rows per pack (`ic` step).
    pub mc: usize,
    /// Shared inner-dimension block (`lc` step).
    pub kc: usize,
    /// B-panel columns per pack (`jc` step).
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        BlockSizes {
            mc: MC,
            kc: KC,
            nc: NC,
        }
    }
}

impl BlockSizes {
    /// Explicit block sizes.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(mc: usize, kc: usize, nc: usize) -> Self {
        assert!(mc > 0 && kc > 0 && nc > 0, "block sizes must be positive");
        BlockSizes { mc, kc, nc }
    }
}

/// Reusable per-caller gemm state: the packing buffers, the cache-block
/// sizes, and the micro-kernel the packing layout is sized for.
///
/// Construct one per rank (or per thread) and pass it to [`dgemm_ws`];
/// the buffers are sized on the first call that packs into them and
/// never reallocated afterwards — [`Self::grow_count`] grows at most
/// once over any number of calls (a run of products that read every
/// side in place never allocates at all), which is what "zero per-call
/// heap allocations in the steady state" means concretely. The packing
/// buffers are 64-byte aligned ([`crate::aligned`]) so every sliver
/// starts on a cache-line/zmm boundary.
#[derive(Debug)]
pub struct GemmWorkspace {
    kernel: Microkernel,
    blocks: BlockSizes,
    apack: AlignedBuf,
    bpack: AlignedBuf,
    grows: u64,
}

impl Default for GemmWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GemmWorkspace {
    /// Workspace for the process kernel (`SRUMMA_KERNEL`, else CPU
    /// detection) and the default block sizes — what every run uses.
    pub fn new() -> Self {
        Self::with_kernel(active_kernel())
    }

    /// Workspace pinned to an explicit kernel (differential tests, the
    /// kernel ladder of `bench_dense_gemm`).
    ///
    /// # Panics
    /// Panics if `kernel` is not available on this host.
    pub fn with_kernel(kernel: Microkernel) -> Self {
        Self::with_config(kernel, BlockSizes::default())
    }

    /// Workspace with explicit kernel and block sizes (differential
    /// tests only).
    ///
    /// `blocks.mc` and `blocks.nc` take effect rounded down to a whole
    /// number of the kernel's `mr`- / `nr`-wide slivers (at least one),
    /// so that only a matrix's own last rows and columns ever make a
    /// ragged sliver, never the panel size — which is also what lets the
    /// loop step through a [`crate::pack::PackedPanel`], whose slivers
    /// were cut before any block size was known; [`Self::blocks`]
    /// reports the values in effect. Bitwise-neutral, like any choice of
    /// `mc` and `nc`.
    ///
    /// # Panics
    /// Panics if `kernel` is not available on this host.
    pub fn with_config(kernel: Microkernel, mut blocks: BlockSizes) -> Self {
        assert!(
            kernel.available(),
            "{} kernel is not available on this host",
            kernel.name()
        );
        blocks.mc = (blocks.mc / kernel.mr()).max(1) * kernel.mr();
        blocks.nc = (blocks.nc / kernel.nr()).max(1) * kernel.nr();
        GemmWorkspace {
            kernel,
            blocks,
            apack: AlignedBuf::new(),
            bpack: AlignedBuf::new(),
            grows: 0,
        }
    }

    /// The micro-kernel this workspace packs for.
    pub fn kernel(&self) -> Microkernel {
        self.kernel
    }

    /// The cache-block sizes in effect.
    pub fn blocks(&self) -> BlockSizes {
        self.blocks
    }

    /// How many times the packing buffers have grown: at most once, on
    /// the first gemm that packs — the reuse guarantee tests assert on.
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Make sure the packing buffers cover one full (mc × kc) A panel
    /// and one (kc × nc) B panel. Buffer demand depends only on the
    /// workspace configuration, so this grows at most once — and the
    /// allocation is zero-page-backed ([`AlignedBuf::grow_to`]), so a
    /// small multiply only ever touches the panel prefix it actually
    /// packs.
    fn reserve(&mut self) {
        let (mr, nr) = (self.kernel.mr(), self.kernel.nr());
        let a_need = self.blocks.mc.div_ceil(mr) * mr * self.blocks.kc;
        let b_need = self.blocks.nc.div_ceil(nr) * nr * self.blocks.kc;
        let grew_a = self.apack.grow_to(a_need);
        let grew_b = self.bpack.grow_to(b_need);
        if grew_a || grew_b {
            self.grows += 1;
        }
        debug_assert_eq!(self.apack.as_slice().as_ptr() as usize % ALIGN, 0);
        debug_assert_eq!(self.bpack.as_slice().as_ptr() as usize % ALIGN, 0);
    }
}

/// One factor of a product, in either form the blocked loop reads.
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// A stored matrix and the transpose flag it enters with; the loop
    /// packs it, one cache block at a time, into the workspace — or,
    /// for a product small enough (see [`dgemm_operands`]), the
    /// micro-kernel reads it where it lies.
    Plain(MatRef<'a>, Op),
    /// A k-range of a block already in sliver order
    /// ([`crate::pack::PackedPanel`]); the loop reads it in place.
    Packed(PackedView<'a>),
}

/// Cache-blocked `C ← α·op(A)·op(B) + β·C` with a caller-owned
/// [`GemmWorkspace`] — the entry for hot paths that issue many gemms
/// (the comm backends, the SRUMMA task loop): packing buffers are
/// allocated once per workspace, not once per call. See [`crate::dgemm`]
/// for the shape contract and what `β = 0` means.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_ws(
    transa: Op,
    transb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
    ws: &mut GemmWorkspace,
) {
    let (a, b) = (Operand::Plain(a, transa), Operand::Plain(b, transb));
    dgemm_operands(alpha, a, b, beta, c, ws);
}

/// [`dgemm_ws`] over [`Operand`]s — the one blocked loop nest. A
/// `Plain` side is packed per cache block, unless the AVX-512 kernel
/// runs a product with `max(m, n, k) ≤ 128` and the side's shape lets
/// it be read in place (`op(A)` in whole `mr`-row slivers, an `N` B in
/// whole vectors of eight columns); a `Packed` side skips the pack.
/// Either way the macro-kernel gets the same values in the same order,
/// `KC` chains starting at the operand's first depth — so the result is
/// bit-equal to `dgemm_ws` on the sub-blocks the views were packed
/// from, whichever sides are packed or read in place. The workspace
/// grows only when some side packs into it.
///
/// # Panics
/// Panics on a shape mismatch, or if a packed side's sliver width is not
/// the one `ws`'s kernel consumes.
pub fn dgemm_operands(
    alpha: f64,
    a: Operand<'_>,
    b: Operand<'_>,
    beta: f64,
    mut c: MatMut<'_>,
    ws: &mut GemmWorkspace,
) {
    let m = c.rows();
    let n = c.cols();
    let (am, ak) = match a {
        Operand::Plain(a, op) => op.apply(a.rows(), a.cols()),
        Operand::Packed(p) => (p.lanes(), p.depth()),
    };
    let (bk, bn) = match b {
        Operand::Plain(b, op) => op.apply(b.rows(), b.cols()),
        Operand::Packed(p) => (p.depth(), p.lanes()),
    };
    assert_eq!(am, m, "op(A) rows {am} != C rows {m}");
    assert_eq!(bn, n, "op(B) cols {bn} != C cols {n}");
    assert_eq!(ak, bk, "op(A) cols {ak} != op(B) rows {bk}");
    let k = ak;

    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        c.scale(beta);
        return;
    }
    // With `β = 0` the first `lc` slice stores, so C is never read.
    let store_first = beta == 0.0;
    if !store_first {
        c.scale(beta);
    }

    let kernel = ws.kernel;
    let (mr, nr) = (kernel.mr(), kernel.nr());
    for (side, w) in [(a, mr), (b, nr)] {
        if let Operand::Packed(p) = side {
            assert_eq!(
                p.width(),
                w,
                "panel packed in slivers of {}, the {} kernel reads slivers of {w}",
                p.width(),
                kernel.name()
            );
        }
    }
    let plain_op = |side: Operand<'_>| match side {
        Operand::Plain(_, op) => Some(op),
        Operand::Packed(_) => None,
    };
    let (opa, opb) = (plain_op(a), plain_op(b));
    let (a_in_place, b_in_place) = reads_in_place(kernel, (m, n, k), opa, opb);
    if (opa.is_some() && !a_in_place) || (opb.is_some() && !b_in_place) {
        ws.reserve();
    }
    // Both sides in sliver order: the packed kernel reads them.
    let packed = !a_in_place && !b_in_place;
    let BlockSizes {
        mc: bmc,
        kc: bkc,
        nc: bnc,
    } = ws.blocks;
    let GemmWorkspace { apack, bpack, .. } = ws;

    let mut jc = 0;
    while jc < n {
        let nc = bnc.min(n - jc);
        let mut lc = 0;
        while lc < k {
            let kc = bkc.min(k - lc);
            let b_slivers = match b {
                // op(B) = B: element (k, j) at k·ldb + j.
                Operand::Plain(b, _) if b_in_place => {
                    let ld = b.ld();
                    Sliver::strided(&b.data()[lc * ld + jc..], nr, 1, ld)
                }
                Operand::Plain(b, op) => {
                    pack_b(op, b, lc, jc, kc, nc, nr, bpack.as_mut_slice());
                    Sliver::packed((bpack.as_slice(), nr * kc), nr)
                }
                Operand::Packed(p) => Sliver::packed(p.slivers_from(jc, lc), nr),
            };
            let mut ic = 0;
            while ic < m {
                let mc = bmc.min(m - ic);
                let a_slivers = match a {
                    // op(A)(r, k) at r·lda + k (N) or k·lda + r (T).
                    Operand::Plain(a, op) if a_in_place => {
                        let ld = a.ld();
                        match op {
                            Op::N => Sliver::strided(&a.data()[ic * ld + lc..], mr * ld, ld, 1),
                            Op::T => Sliver::strided(&a.data()[lc * ld + ic..], mr, 1, ld),
                        }
                    }
                    Operand::Plain(a, op) => {
                        pack_a(op, a, ic, lc, mc, kc, mr, apack.as_mut_slice());
                        Sliver::packed((apack.as_slice(), mr * kc), mr)
                    }
                    Operand::Packed(p) => Sliver::packed(p.slivers_from(ic, lc), mr),
                };
                let store = store_first && lc == 0;
                // Chosen per call, not per tile, and called directly so
                // that both tile loops inline here: behind a function
                // pointer the portable kernel's loop ran 20 % slower.
                if packed {
                    macro_kernel::<true>(
                        kernel, mc, nc, kc, alpha, a_slivers, b_slivers, store, &mut c, ic, jc,
                    );
                } else {
                    macro_kernel::<false>(
                        kernel, mc, nc, kc, alpha, a_slivers, b_slivers, store, &mut c, ic, jc,
                    );
                }
                ic += bmc;
            }
            lc += bkc;
        }
        jc += bnc;
    }
}

/// The one shape rule for reading a `Plain` side where it lies instead
/// of packing it: which of `op(A)` and `op(B)` of an `m × n × k` product
/// (`None` for a side that is not `Plain`) the micro-kernel reads in
/// place, as `(a, b)`.
///
/// Only the AVX-512 kernel reads through strides, and only a product
/// that fits in cache (`max(m, n, k) ≤ 128`) gains: there the pack is a
/// large share of the work, and the operands' rows stay resident
/// however far apart they lie. A is read in place in either
/// orientation — its values are scalar broadcasts — when `m` is whole
/// `mr`-row slivers; B only as `N` (each k-row's lanes are contiguous,
/// three vector loads) when `n` is whole vectors of eight. Every sliver
/// read in place is then whole or a whole number of vectors, so no
/// load is ever masked; any other side packs.
fn reads_in_place(
    kernel: Microkernel,
    (m, n, k): (usize, usize, usize),
    opa: Option<Op>,
    opb: Option<Op>,
) -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    let strided = kernel == Microkernel::Avx512;
    #[cfg(not(target_arch = "x86_64"))]
    let strided = false;
    if !strided || m.max(n).max(k) > 128 {
        return (false, false);
    }
    let a = opa.is_some() && m.is_multiple_of(kernel.mr());
    let b = opb == Some(Op::N) && n.is_multiple_of(8);
    (a, b)
}

/// One micro-tile's accumulator, on a cache-line boundary: the kernels
/// move it a whole vector at a time.
#[repr(align(64))]
struct Acc([f64; ACC_LEN]);

/// Run the micro-kernel over every `mr × nr` tile of an `mc × nc` block,
/// storing each tile's `α·acc` into C when `store` (a first k-slice under
/// `β = 0`) and adding it otherwise. Each side is its slivers, packed or
/// where they lie: `PACKED` (both sides packed) runs the packed kernel,
/// otherwise the strided one, which reads the same values in the same
/// order.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const PACKED: bool>(
    kernel: Microkernel,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    a: Sliver<'_>,
    b: Sliver<'_>,
    store: bool,
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let m_slivers = mc.div_ceil(mr);
    let n_slivers = nc.div_ceil(nr);
    for js in 0..n_slivers {
        let b_sliver = b.nth(js);
        let cols = nr.min(nc - js * nr);
        for is in 0..m_slivers {
            let a_sliver = a.nth(is);
            let rows = mr.min(mc - is * mr);
            let mut acc = Acc([0.0; ACC_LEN]);
            let acc = &mut acc.0;
            if PACKED {
                let (a, b) = (&a_sliver.data[..mr * kc], &b_sliver.data[..nr * kc]);
                kernel.run_cols(cols, kc, a, b, acc);
            } else {
                kernel.run_strided(cols, kc, a_sliver, b_sliver, acc);
            }
            // Element (ic + is*mr, jc + js*nr) of C within its buffer.
            let r0 = ic + is * mr;
            let c0 = jc + js * nr;
            let mut tile = c.reborrow().block(r0, c0, rows, cols);
            if store {
                kernel.store(acc, alpha, &mut tile);
            } else {
                kernel.writeback(acc, alpha, &mut tile);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::dgemm;
    use crate::matrix::Matrix;
    use crate::naive::naive_gemm;
    use crate::verify::assert_close;

    #[allow(clippy::too_many_arguments)]
    fn check(m: usize, n: usize, k: usize, ta: Op, tb: Op, alpha: f64, beta: f64, seed: u64) {
        let (ar, ac) = match ta {
            Op::N => (m, k),
            Op::T => (k, m),
        };
        let (br, bc) = match tb {
            Op::N => (k, n),
            Op::T => (n, k),
        };
        let a = Matrix::random(ar, ac, seed);
        let b = Matrix::random(br, bc, seed + 1);
        let c0 = Matrix::random(m, n, seed + 2);

        let mut expect = c0.clone();
        naive_gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, expect.as_mut());
        let mut got = c0.clone();
        dgemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut());
        assert_close(&got, &expect, 1e-10);
    }

    #[test]
    fn small_square_all_transposes() {
        for &ta in &[Op::N, Op::T] {
            for &tb in &[Op::N, Op::T] {
                check(7, 9, 8, ta, tb, 1.0, 0.0, 11);
            }
        }
    }

    #[test]
    fn sizes_around_block_boundaries() {
        let mr = active_kernel().mr();
        let nr = active_kernel().nr();
        for &(m, n, k) in &[
            (1, 1, 1),
            (mr, nr, 4),
            (mr + 1, nr + 1, 5),
            (MC, NC.min(64), KC.min(64)),
            (MC + 3, 70, KC.min(40) + 3),
            (130, 70, 90),
        ] {
            check(m, n, k, Op::N, Op::N, 1.0, 0.0, (m * n + k) as u64);
        }
    }

    #[test]
    fn alpha_beta_paths() {
        check(17, 13, 19, Op::N, Op::N, 2.5, 0.5, 3);
        check(17, 13, 19, Op::T, Op::N, -1.0, 1.0, 4);
        check(17, 13, 19, Op::N, Op::T, 0.0, 2.0, 5);
    }

    #[test]
    fn rectangular_shapes() {
        check(64, 4, 128, Op::N, Op::N, 1.0, 0.0, 6);
        check(4, 64, 128, Op::T, Op::T, 1.0, 0.0, 7);
        check(100, 1, 1, Op::N, Op::N, 1.0, 0.0, 8);
        check(1, 100, 64, Op::N, Op::T, 1.0, 0.0, 9);
    }

    #[test]
    fn strided_views() {
        // C is a block of a bigger matrix; A and B too.
        let big_a = Matrix::random(40, 40, 21);
        let big_b = Matrix::random(40, 40, 22);
        let mut big_c = Matrix::zeros(40, 40);
        let (m, n, k) = (12, 10, 15);
        let a = big_a.block(3, 5, m, k);
        let b = big_b.block(1, 2, k, n);

        let mut expect = Matrix::zeros(m, n);
        naive_gemm(Op::N, Op::N, 1.0, a, b, 0.0, expect.as_mut());

        dgemm(Op::N, Op::N, 1.0, a, b, 0.0, big_c.block_mut(20, 20, m, n));
        assert_close(&big_c.block(20, 20, m, n).to_matrix(), &expect, 1e-12);
        // Outside the target block must stay zero.
        assert_eq!(big_c[(0, 0)], 0.0);
        assert_eq!(big_c[(19, 19)], 0.0);
    }

    #[test]
    fn empty_dimensions_are_noops_except_beta() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let mut c = Matrix::zeros(0, 4);
        dgemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());

        // k == 0: C ← β·C
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 2.0);
        dgemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn workspace_allocates_once_across_many_calls() {
        let mut ws = GemmWorkspace::new();
        assert_eq!(ws.grow_count(), 0, "construction must not allocate panels");
        let a = Matrix::random(130, 90, 1);
        let b = Matrix::random(90, 70, 2);
        let mut c = Matrix::zeros(130, 70);
        for i in 0..4 {
            dgemm_ws(
                Op::N,
                Op::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
                &mut ws,
            );
            assert_eq!(ws.grow_count(), 1, "call {i}: steady state must not grow");
        }
        // Larger problems still reuse the same panels: buffer demand
        // depends on the block configuration, not the problem size.
        let a2 = Matrix::random(300, 300, 3);
        let b2 = Matrix::random(300, 300, 4);
        let mut c2 = Matrix::zeros(300, 300);
        dgemm_ws(
            Op::N,
            Op::N,
            1.0,
            a2.as_ref(),
            b2.as_ref(),
            0.0,
            c2.as_mut(),
            &mut ws,
        );
        assert_eq!(ws.grow_count(), 1);
    }

    #[test]
    fn a_pack_free_product_never_grows_the_workspace() {
        #[cfg(target_arch = "x86_64")]
        {
            if !Microkernel::Avx512.available() {
                eprintln!("skipping: host lacks AVX-512F");
                return;
            }
            let mut ws = GemmWorkspace::with_kernel(Microkernel::Avx512);
            let (a, b) = (Matrix::random(96, 96, 1), Matrix::random(96, 96, 2));
            let mut c = Matrix::zeros(96, 96);
            for (ta, tb, grows) in [(Op::N, Op::N, 0), (Op::T, Op::N, 0), (Op::N, Op::T, 1)] {
                for _ in 0..2 {
                    let (a, b) = (a.as_ref(), b.as_ref());
                    dgemm_ws(ta, tb, 1.0, a, b, 0.0, c.as_mut(), &mut ws);
                    assert_eq!(ws.grow_count(), grows, "{ta:?}{tb:?} 96^3");
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("skipping: no AVX-512 kernel on this architecture");
    }

    #[test]
    fn pack_buffers_are_cache_line_aligned() {
        for kernel in Microkernel::all() {
            if !kernel.available() {
                continue;
            }
            let mut ws = GemmWorkspace::with_kernel(*kernel);
            let a = Matrix::random(70, 50, 1);
            let b = Matrix::random(50, 30, 2);
            let mut c = Matrix::zeros(70, 30);
            dgemm_ws(
                Op::N,
                Op::N,
                1.0,
                a.as_ref(),
                b.as_ref(),
                0.0,
                c.as_mut(),
                &mut ws,
            );
            assert_eq!(
                ws.apack.as_slice().as_ptr() as usize % ALIGN,
                0,
                "{} apack",
                kernel.name()
            );
            assert_eq!(
                ws.bpack.as_slice().as_ptr() as usize % ALIGN,
                0,
                "{} bpack",
                kernel.name()
            );
        }
    }

    #[test]
    fn custom_block_sizes_stay_correct() {
        // Deliberately awkward blocks (tiny, non-multiples of mr/nr)
        // must not change results.
        for &(mc, kc, nc) in &[
            (3usize, 5usize, 7usize),
            (1, 1, 1),
            (16, 8, 24),
            (128, 512, 96),
        ] {
            let mut ws = GemmWorkspace::with_config(active_kernel(), BlockSizes::new(mc, kc, nc));
            let (m, n, k) = (37, 29, 41);
            let a = Matrix::random(m, k, 60);
            let b = Matrix::random(k, n, 61);
            let c0 = Matrix::random(m, n, 62);
            let mut expect = c0.clone();
            naive_gemm(
                Op::N,
                Op::N,
                1.5,
                a.as_ref(),
                b.as_ref(),
                0.5,
                expect.as_mut(),
            );
            let mut got = c0.clone();
            dgemm_ws(
                Op::N,
                Op::N,
                1.5,
                a.as_ref(),
                b.as_ref(),
                0.5,
                got.as_mut(),
                &mut ws,
            );
            assert_close(&got, &expect, 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "block sizes must be positive")]
    fn zero_block_size_panics() {
        let _ = BlockSizes::new(0, 256, 512);
    }
}
