//! 2-D block-distributed matrices.
//!
//! SRUMMA assumes "the regular block distribution of the matrices A, B,
//! and C" over a `p × q` process grid: process `(i, j)` — rank
//! `i·q + j` — owns the `(i, j)` block of every matrix. There is one
//! placement, for an operand as for C: a distributed A is `op(A)`
//! (`m × k`), never a stored transpose. Every `DistMatrix` that holds
//! elements is one **row-major window**, and block `(i, j)` is the
//! sub-window at [`DistMatrix::block_origin`] with the window's leading
//! dimension — what Global Arrays' `ga_access` hands SRUMMA's direct
//! flavour. A `DistMatrix` is one of:
//!
//! * **virtual** — shape only, for modeled paper-scale experiments where
//!   a 16000×16000 matrix would otherwise cost 2 GiB per operand;
//! * a **read-only view** of a row-major matrix the caller already holds,
//!   distributed *in place* ([`DistMatrix::with_host_views`]): an operand;
//! * a **writable window**, lent or owned. Lent, it is a window of a
//!   caller's matrix ([`DistMatrix::with_host_views_mut`]): each rank
//!   writes its tile of C straight into the matrix the caller gets back.
//!   Owned, it is a zeroed `rows × cols` allocation of its own
//!   ([`DistMatrix::create`]), reached the same way — the stand-in for
//!   `ARMCI_Malloc` (hierarchical stage sets, and callers that keep their
//!   own distributed matrices).
//!
//! Either view constructor lends any number of windows in one scope,
//! each on its own grid and cost map — a flat run's two operands and its
//! product, a replicated run's every team product, or every operand and
//! product of a batch stream, each over its entry's team.
//! [`DistMatrix::land_block`] is the strided get of the copy flavour, the
//! `ARMCI_NbGetS`: row by row into a contiguous buffer
//! ([`Landing::Rows`]), or — what SRUMMA's task loop asks for — straight
//! into the sliver order the serial kernel reads ([`Landing::Packed`]),
//! so a fetched block is moved once, not copied and then packed.
//! Nothing is allocated or moved to build a view; see
//! [`DistMatrix::with_host_views`] for how the borrow is kept inside a
//! scope without a lifetime parameter on the type.

use crate::arena::{AccessChecker, ReadHeld, WriteHeld};
use srumma_dense::{active_kernel, BlockMask, MatMut, MatRef, Matrix, PackedPanel, Side};
use srumma_model::{ProcGrid, Topology};

// The near-even 1-D partition is canonical in `srumma_dense::mask` (the
// masked serial reference must chunk exactly like the distribution);
// re-exported here so distributed code keeps its historical import path.
pub use srumma_dense::mask::{chunk_len, chunk_start};

enum Backing {
    /// Shape only; no elements exist.
    Virtual,
    /// A read-only window of a caller's row-major matrix. `'static` is
    /// erased, not true: see [`DistMatrix::with_host_views`], the only
    /// place that builds one.
    View(MatRef<'static>),
    /// A writable row-major window: of a caller's matrix
    /// ([`DistMatrix::with_host_views_mut`]) or of this matrix's own
    /// allocation ([`DistMatrix::create`]).
    Window(HostWindowMut),
}

/// The window behind [`Backing::Window`]. Two ranks' blocks of it
/// interleave in memory, so it is never held as one slice: a block is
/// cut out by pointer, as a [`MatMut`] that touches its own rows only.
struct HostWindowMut {
    /// Element `(0, 0)` of the window, `ld` elements between row starts.
    base: *mut f64,
    ld: usize,
    /// One per grid block, by owner rank (`bi·q + bj`, so a grid row's
    /// are adjacent): "written only by its owner, not read while
    /// written" is checked here.
    checkers: Vec<AccessChecker>,
    /// The allocation `base` points into when the matrix owns it; `None`
    /// for a lent window. Only ever freed: every element is reached
    /// through `base`.
    _owned: Option<Vec<f64>>,
}

// SAFETY: `base` points into memory that this window alone reaches for
// as long as it exists — the matrix `with_host_views_mut` borrows
// exclusively, or the allocation in `_owned`, which nothing else holds —
// and threads sharing the window reach elements only through
// `write_block` / `read_block`, one block at a time, under that block's
// `AccessChecker` (atomic, hence `Sync` itself). `ld` is a plain number
// and `_owned` is never touched but to be freed.
unsafe impl Send for HostWindowMut {}
unsafe impl Sync for HostWindowMut {}

impl HostWindowMut {
    /// The window at `base` with leading dimension `ld`, checked block by
    /// block over `grid`.
    fn new(base: *mut f64, ld: usize, grid: ProcGrid, owned: Option<Vec<f64>>) -> Self {
        HostWindowMut {
            base,
            ld,
            checkers: (0..grid.nranks()).map(|_| AccessChecker::new()).collect(),
            _owned: owned,
        }
    }
}

/// How a matrix's data-slot indices map to **cost ranks** — the global
/// rank ids backends use to classify a one-sided operation's cost
/// (shared-memory copy vs network RMA) and traffic level (intra-group
/// vs inter-node).
///
/// Ordinary matrices use [`CostMap::Identity`]: slot `r` *is* rank `r`.
/// The hierarchical and replicated schedules introduce matrices whose
/// slots are not globally addressed: a replica layer's matrices index
/// slots by layer-local rank ([`CostMap::Base`] re-bases them onto the
/// layer's global rank block), and a node group's staging matrices keep
/// the original owner's slot while the data physically lives with the
/// group's elected fetcher ([`CostMap::Staged`] maps each slot to that
/// fetcher, so a groupmate's get prices as an intra-node copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CostMap {
    /// Slot `r` is global rank `r` (the flat default).
    #[default]
    Identity,
    /// Slot `r` is global rank `base + r` (replica layers).
    Base(usize),
    /// Slot `r`'s data lives with the fetcher `node`'s member
    /// `lo + r % width` elected for it (group staging regions). The
    /// same modulo formula is the election rule in the hierarchical
    /// planner — the two must agree or costs lie.
    Staged { topo: Topology, node: usize },
}

impl CostMap {
    /// The global rank whose memory serves `slot`'s block.
    #[inline]
    pub fn cost_rank(&self, slot: usize) -> usize {
        match self {
            CostMap::Identity => slot,
            CostMap::Base(base) => base + slot,
            CostMap::Staged { topo, node } => {
                let members = topo.ranks_on_node(*node);
                members.start + slot % members.len()
            }
        }
    }
}

/// Where a one-sided get puts the block it fetches
/// ([`DistMatrix::land_block`]).
pub enum Landing<'a> {
    /// Contiguous and row-major in the vector (resized to fit) — for a
    /// caller that will read or forward the block as a matrix
    /// ([`DistMatrix::copy_block_into`]).
    Rows(&'a mut Vec<f64>),
    /// In sliver order at full depth, as the given side of a product —
    /// for a caller that will multiply with it.
    Packed(&'a mut PackedPanel, Side),
}

/// A dense matrix distributed in 2-D blocks over a process grid.
pub struct DistMatrix {
    grid: ProcGrid,
    rows: usize,
    cols: usize,
    backing: Backing,
    /// Optional block-sparsity structure, indexed by grid block
    /// coordinates (`p × q` of this matrix's grid). `None` means dense.
    mask: Option<BlockMask>,
    /// Slot → cost-rank mapping (see [`CostMap`]).
    cost: CostMap,
}

impl DistMatrix {
    /// Create a distributed matrix that **owns** its elements: a zeroed,
    /// row-major `rows × cols` window (collective allocation — call once,
    /// before launching rank code, like `ARMCI_Malloc`).
    pub fn create(grid: ProcGrid, rows: usize, cols: usize) -> Self {
        let mut owned = vec![0.0; rows * cols];
        let base = owned.as_mut_ptr();
        let window = HostWindowMut::new(base, cols, grid, Some(owned));
        Self::with_backing(grid, rows, cols, Backing::Window(window))
    }

    /// Create a **virtual** distributed matrix (shape only) for modeled
    /// experiments.
    pub fn create_virtual(grid: ProcGrid, rows: usize, cols: usize) -> Self {
        Self::with_backing(grid, rows, cols, Backing::Virtual)
    }

    /// A dense `rows × cols` matrix over `grid` on `backing`, with the
    /// identity cost map.
    fn with_backing(grid: ProcGrid, rows: usize, cols: usize, backing: Backing) -> Self {
        DistMatrix {
            grid,
            rows,
            cols,
            backing,
            mask: None,
            cost: CostMap::Identity,
        }
    }

    /// Distribute each host matrix of `windows` **in place** and lend the
    /// results to `f`, in order: for `(window, grid, cost, mask)`, view
    /// `i` is a read-only `DistMatrix` over `grid` whose blocks are sub-windows of `window` (same
    /// elements, same leading dimension), with the cost map `cost` and
    /// the mask `mask` attached. Each window has its own grid and cost
    /// map, so one scope can lend matrices to ranks of different teams.
    /// No element is copied and nothing is allocated.
    ///
    /// This is the only way to obtain a host view, and what makes the
    /// borrows un-outlivable: the views exist for the duration of this
    /// call (inside the windows' borrows), `f` receives a shared slice of
    /// a lifetime it cannot name, and `DistMatrix` is not `Clone` — so
    /// neither a view nor anything borrowed from one can leave `f`. That
    /// is also why mask and cost map are constructor arguments: a
    /// `&mut DistMatrix` would let `f` swap a view out.
    ///
    /// # Panics
    /// Panics if a mask shape does not match its grid; through `f`, any
    /// write accessor panics (a view is read-only).
    pub fn with_host_views<R>(
        windows: &[(MatRef<'_>, ProcGrid, CostMap, Option<BlockMask>)],
        f: impl FnOnce(&[DistMatrix]) -> R,
    ) -> R {
        let views: Vec<DistMatrix> = windows
            .iter()
            .map(|(window, grid, cost, mask)| {
                // SAFETY: only the lifetime changes. `window`'s borrow is
                // held by the caller until this call returns; the erased
                // copy lives in `views`, a local that `f` sees by shared
                // reference only (so it cannot be moved, swapped or —
                // `DistMatrix` is not `Clone` — copied out) and that is
                // dropped before this function returns; every accessor
                // that reads `Backing::View` hands out data tied to
                // `&self`, never `'static`. The memory is therefore only
                // read while the caller's shared borrow of it is live.
                let host = unsafe { std::mem::transmute::<MatRef<'_>, MatRef<'static>>(*window) };
                let (rows, cols) = (window.rows(), window.cols());
                let mut view = Self::with_backing(*grid, rows, cols, Backing::View(host));
                view.cost = *cost;
                if let Some(mask) = mask {
                    view.set_mask(mask.clone());
                }
                view
            })
            .collect();
        f(&views)
    }

    /// Distribute each host matrix of `windows` **in place, writably**,
    /// and lend the results to `f`, in order: for `(window, grid, cost)`,
    /// view `i` is a dense `DistMatrix` over `grid` with the cost map `cost`,
    /// whose blocks are sub-windows of `window`, so what a rank writes
    /// through [`Self::write_block`] is written into the caller's matrix
    /// `i` and nowhere else. No element is copied and nothing is
    /// allocated. A lent window is the same window an owned matrix
    /// ([`Self::create`]) is, so every accessor works on both.
    ///
    /// The borrows cannot be outlived for the reasons given at
    /// [`Self::with_host_views`]; they are exclusive, so for the duration
    /// of `f` each window is reachable through its lent `DistMatrix`
    /// only. Under it the discipline of [`crate::arena`] applies block by
    /// block, with its dynamic check: a block is written by one holder at
    /// a time and not read meanwhile. One rule is the window's own: the
    /// rows of the blocks of one grid row interleave in memory, and the
    /// strided [`MatRef`] a [`BlockRead`] hands out spans the gaps
    /// between its rows — so a read of a block counts as a read of every
    /// block of its grid row, and panics while any of them is being
    /// written (a multiply never reads C while it is written: the
    /// replica reduction reads a team's C past the sweep's barrier, a
    /// test reads it after the ranks are done).
    pub fn with_host_views_mut<R>(
        mut windows: Vec<(MatMut<'_>, ProcGrid, CostMap)>,
        f: impl FnOnce(&[DistMatrix]) -> R,
    ) -> R {
        let views: Vec<DistMatrix> = windows
            .iter_mut()
            .map(|(window, grid, cost)| {
                let (rows, cols) = (window.rows(), window.cols());
                let host = HostWindowMut::new(window.as_mut_ptr(), window.ld(), *grid, None);
                let mut view = Self::with_backing(*grid, rows, cols, Backing::Window(host));
                view.cost = *cost;
                view
            })
            .collect();
        // `windows` — the exclusive borrows the bases stand for — is held
        // by this frame, unused, until `f` has returned and `views` is
        // gone (locals drop in reverse order).
        f(&views)
    }

    /// `rank`'s block of the host view `host`: the sub-window at its
    /// origin, tied to `&self`.
    fn view_block<'s>(&'s self, host: MatRef<'s>, rank: usize) -> MatRef<'s> {
        let (r0, c0) = self.block_origin(rank);
        let (rows, cols) = self.block_dims(rank);
        host.block(r0, c0, rows, cols)
    }

    /// Element `(0, 0)` of `rank`'s block of the window `host`
    /// (`host.base` itself for an empty block, which has no element).
    fn window_block(&self, host: &HostWindowMut, rank: usize) -> *mut f64 {
        let (r0, c0) = self.block_origin(rank);
        match self.block_dims(rank) {
            (0, _) | (_, 0) => host.base,
            // SAFETY: a non-empty block's origin is an element of the
            // window `host.base` was taken from.
            _ => unsafe { host.base.add(r0 * host.ld + c0) },
        }
    }

    /// Attach a non-identity slot → cost-rank mapping (hierarchical
    /// staging regions, replica-layer matrices). Set before launching
    /// rank code, like the mask.
    pub fn set_cost_map(&mut self, cost: CostMap) {
        self.cost = cost;
    }

    /// The global rank whose memory serves `slot`'s block — what
    /// backends must use for topology/cost classification of one-sided
    /// operations on this matrix (`slot` itself stays the data index).
    #[inline]
    pub(crate) fn cost_rank(&self, slot: usize) -> usize {
        self.cost.cost_rank(slot)
    }

    /// Attach a block-sparsity mask, indexed by grid block coordinates:
    /// it must be shaped exactly like this matrix's grid (`p × q`
    /// blocks).
    ///
    /// # Panics
    /// Panics if the mask shape does not match the grid.
    pub fn set_mask(&mut self, mask: BlockMask) {
        assert_eq!(
            (mask.rows(), mask.cols()),
            (self.grid.p, self.grid.q),
            "mask shape must match the {}x{} process grid",
            self.grid.p,
            self.grid.q
        );
        self.mask = Some(mask);
    }

    /// The attached block-sparsity mask, if any (`None` ≡ dense).
    pub fn mask(&self) -> Option<&BlockMask> {
        self.mask.as_ref()
    }

    /// Whether `rank`'s block may hold nonzeros. Unmasked matrices are
    /// dense: every block is nonzero.
    pub fn block_nonzero(&self, rank: usize) -> bool {
        match &self.mask {
            None => true,
            Some(m) => {
                let (bi, bj) = self.block_coords(rank);
                m.get(bi, bj)
            }
        }
    }

    /// Grid coordinates of the block owned by `rank` (row-major rank
    /// placement: block `(i, j)` is rank `i·q + j`'s).
    pub(crate) fn block_coords(&self, rank: usize) -> (usize, usize) {
        self.grid.coords(rank)
    }

    /// Whether real elements back this matrix (a view or a window).
    pub fn is_real(&self) -> bool {
        !matches!(self.backing, Backing::Virtual)
    }

    pub fn grid(&self) -> ProcGrid {
        self.grid
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the block owned by `rank`.
    pub fn block_dims(&self, rank: usize) -> (usize, usize) {
        let (pi, pj) = self.block_coords(rank);
        (
            chunk_len(self.rows, self.grid.p, pi),
            chunk_len(self.cols, self.grid.q, pj),
        )
    }

    /// Global `(row, col)` of the top-left element of `rank`'s block.
    pub fn block_origin(&self, rank: usize) -> (usize, usize) {
        let (pi, pj) = self.block_coords(rank);
        (
            chunk_start(self.rows, self.grid.p, pi),
            chunk_start(self.cols, self.grid.q, pj),
        )
    }

    /// Size in bytes of `rank`'s block.
    pub fn block_bytes(&self, rank: usize) -> u64 {
        let (r, c) = self.block_dims(rank);
        (r * c * std::mem::size_of::<f64>()) as u64
    }

    /// Read access to `rank`'s block (None data if virtual).
    pub fn read_block(&self, rank: usize) -> BlockRead<'_> {
        let (rows, cols) = self.block_dims(rank);
        let (block, held) = match &self.backing {
            Backing::Virtual => (None, Vec::new()),
            Backing::View(host) => (Some(self.view_block(*host, rank)), Vec::new()),
            Backing::Window(host) => {
                // The strided slice below spans the gaps between the
                // block's rows, where the other blocks of its grid row
                // have theirs: a reader of one is a reader of them all.
                let (q, row) = (self.grid.q, self.block_coords(rank).0);
                let held: Vec<_> = host.checkers[row * q..(row + 1) * q]
                    .iter()
                    .map(AccessChecker::read)
                    .collect();
                let span = match (rows, cols) {
                    (0, _) | (_, 0) => 0,
                    _ => (rows - 1) * host.ld + cols,
                };
                // SAFETY: `span` elements from the block's origin lie
                // inside the window (the last one is the block's last)
                // and inside the rows of this grid row's blocks, whose
                // writers `held` keeps out while the slice lives.
                let block = unsafe {
                    std::slice::from_raw_parts(self.window_block(host, rank).cast_const(), span)
                };
                (Some(MatRef::new(rows, cols, host.ld, block)), held)
            }
        };
        BlockRead {
            rows,
            cols,
            block,
            _held: held,
        }
    }

    /// Write access to `rank`'s block (no-op handle if virtual).
    ///
    /// # Panics
    /// Panics on a read-only host view, like every write accessor.
    pub fn write_block(&self, rank: usize) -> BlockWrite<'_> {
        self.write_block_for(rank, "write_block")
    }

    /// [`Self::write_block`] on behalf of the write accessor `accessor`,
    /// which a read-only view's refusal names.
    fn write_block_for(&self, rank: usize, accessor: &str) -> BlockWrite<'_> {
        let (rows, cols) = self.block_dims(rank);
        let target = match &self.backing {
            Backing::Virtual => None,
            Backing::View(_) => panic!("{accessor}(): operand views are read-only"),
            Backing::Window(host) => {
                let held = host.checkers[rank].write();
                // SAFETY: the block's rows are elements of the window
                // this matrix alone reaches, no two blocks share an
                // element, and `held` is the one writer's entry for this
                // block — so for as long as it is held (the `BlockWrite`
                // keeps it beside the view) nothing else reaches them.
                let block =
                    unsafe { MatMut::from_raw(self.window_block(host, rank), rows, cols, host.ld) };
                Some((block, held))
            }
        };
        BlockWrite { rows, cols, target }
    }

    /// Copy `rank`'s block into `dst` (resized to fit), contiguous and
    /// row-major whatever the backing — from a host view that is the
    /// strided, row-by-row get. For a virtual matrix, `dst` is cleared.
    /// Returns the block dims. This is the data-movement half of a
    /// one-sided get; the timing half lives in the backend.
    pub fn copy_block_into(&self, rank: usize, dst: &mut Vec<f64>) -> (usize, usize) {
        let block = self.read_block(rank);
        let (rows, cols) = (block.rows(), block.cols());
        dst.clear();
        if let Some(blk) = block.mat() {
            if blk.ld() == cols {
                dst.extend_from_slice(&blk.data()[..rows * cols]);
            } else {
                dst.reserve(rows * cols);
                // A `rows × 0` window has no storage to slice rows from.
                if cols > 0 {
                    for i in 0..rows {
                        dst.extend_from_slice(blk.row(i));
                    }
                }
            }
        }
        (rows, cols)
    }

    /// Land `rank`'s block where a one-sided get wants it — the one
    /// data-movement routine behind every backend's `nbget`. The
    /// [`Landing::Packed`] arm packs straight from the owner's memory
    /// (the block's window, whatever its `ld`) into the panel,
    /// in the sliver order of the process kernel: the block is moved
    /// once, and what arrives is what the micro-kernel reads. Nothing
    /// lands from virtual backing (`Rows` is cleared, `Packed` is
    /// emptied). Returns the block dims.
    pub fn land_block(&self, rank: usize, landing: Landing<'_>) -> (usize, usize) {
        match landing {
            Landing::Rows(dst) => self.copy_block_into(rank, dst),
            Landing::Packed(panel, side) => {
                let block = self.read_block(rank);
                match block.mat() {
                    Some(src) => panel.pack(side, active_kernel(), src),
                    None => panel.clear(),
                }
                (block.rows(), block.cols())
            }
        }
    }

    /// Overwrite `rank`'s block from `src` (the data-movement half of a
    /// one-sided **put**; timing lives in the backend). No-op on
    /// virtual backing. `src` may be empty (modeled runs); otherwise it
    /// must hold exactly the block's elements, row-major.
    pub(crate) fn copy_block_from(&self, rank: usize, src: &[f64]) {
        let mut w = self.write_block_for(rank, "copy_block_from");
        let (rows, cols) = (w.rows(), w.cols());
        let Some(mut dst) = w.mat_mut() else {
            return;
        };
        if src.is_empty() && rows * cols > 0 {
            return; // modeled payload
        }
        assert_eq!(src.len(), rows * cols, "put payload size mismatch");
        dst.copy_from(MatRef::new(rows, cols, cols, src));
    }

    /// Accumulate `scale * src` into `rank`'s block elementwise (the
    /// data half of an ARMCI-style **accumulate**; `src` is shaped like
    /// the block, at any `ld`). No-op on virtual backing or a modeled
    /// payload (`None`).
    pub(crate) fn acc_block_from(&self, rank: usize, scale: f64, src: Option<MatRef<'_>>) {
        let mut w = self.write_block_for(rank, "acc_block_from");
        let (Some(mut dst), Some(src)) = (w.mat_mut(), src) else {
            return;
        };
        let (rows, cols) = (dst.rows(), dst.cols());
        assert_eq!(
            (src.rows(), src.cols()),
            (rows, cols),
            "acc payload size mismatch"
        );
        // A `rows × 0` payload may sit on no storage at all.
        for i in 0..if cols > 0 { rows } else { 0 } {
            for (d, s) in dst.row_mut(i).iter_mut().zip(src.row(i)) {
                *d += scale * s;
            }
        }
    }

    /// Scale `rank`'s block in place (the `β·C` pre-pass of a full
    /// `C ← α·op(A)op(B) + β·C`). No-op on virtual backing, and for
    /// `β = 1` on any backing — a read-only view included.
    pub fn scale_block(&self, rank: usize, beta: f64) {
        if beta == 1.0 {
            return;
        }
        let mut w = self.write_block_for(rank, "scale_block");
        if let Some(mut blk) = w.mat_mut() {
            blk.scale(beta);
        }
    }

    /// Fill all blocks from a global matrix (call from one thread
    /// between operations).
    ///
    /// # Panics
    /// Panics on shape mismatch, a virtual matrix or a read-only view.
    pub fn scatter(&self, global: &Matrix) {
        assert_eq!((global.rows(), global.cols()), (self.rows, self.cols));
        for rank in 0..self.grid.nranks() {
            let mut w = self.write_block_for(rank, "scatter");
            let Some(mut blk) = w.mat_mut() else {
                panic!("scatter() on a virtual DistMatrix");
            };
            if blk.rows() > 0 && blk.cols() > 0 {
                let (r0, c0) = self.block_origin(rank);
                blk.copy_from(global.block(r0, c0, blk.rows(), blk.cols()));
            }
        }
    }

    /// Assemble the global matrix from all blocks.
    ///
    /// # Panics
    /// Panics on a virtual matrix, which has no elements.
    pub fn gather(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for rank in 0..self.grid.nranks() {
            let (r0, c0) = self.block_origin(rank);
            let block = self.read_block(rank);
            let src = block.mat().expect("gather() on a virtual DistMatrix");
            if src.rows() > 0 && src.cols() > 0 {
                out.block_mut(r0, c0, src.rows(), src.cols()).copy_from(src);
            }
        }
        out
    }
}

/// Read handle to one block: dims always, data only if real-backed.
pub struct BlockRead<'a> {
    rows: usize,
    cols: usize,
    block: Option<MatRef<'a>>,
    /// A window reader's entries in the checkers of the block's grid row.
    _held: Vec<ReadHeld<'a>>,
}

impl BlockRead<'_> {
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Strided view of the block, if real-backed: the block's window of
    /// the matrix, with its `ld` — address elements through
    /// [`MatRef::at`] / [`MatRef::row`], not as one contiguous run.
    pub fn mat(&self) -> Option<MatRef<'_>> {
        self.block
    }
}

/// Write handle to one block. `Send`, whatever it writes to: a rank
/// machine that dies mid-run moves, C handle and all, to its survivor.
pub struct BlockWrite<'a> {
    rows: usize,
    cols: usize,
    /// The block's rows of the window, with the writer's entry in the
    /// block's checker; `None` if virtual.
    target: Option<(MatMut<'a>, WriteHeld<'a>)>,
}

impl BlockWrite<'_> {
    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable view of the block, if real-backed: the block's rows of the
    /// window, with its `ld`.
    pub fn mat_mut(&mut self) -> Option<MatMut<'_>> {
        self.target.as_mut().map(|(block, _)| block.reborrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_near_even_and_covers() {
        for (n, parts) in [(10, 3), (7, 7), (5, 2), (100, 16), (3, 5)] {
            let mut total = 0;
            let mut prev_end = 0;
            for i in 0..parts {
                assert_eq!(chunk_start(n, parts, i), prev_end);
                let len = chunk_len(n, parts, i);
                total += len;
                prev_end += len;
            }
            assert_eq!(total, n, "n={n} parts={parts}");
            // Sizes differ by at most one.
            let sizes: Vec<usize> = (0..parts).map(|i| chunk_len(n, parts, i)).collect();
            let mx = *sizes.iter().max().unwrap();
            let mn = *sizes.iter().min().unwrap();
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn block_dims_tile_the_matrix() {
        let grid = ProcGrid::new(3, 4);
        let m = DistMatrix::create(grid, 10, 9);
        let total: usize = (0..grid.nranks())
            .map(|r| {
                let (a, b) = m.block_dims(r);
                a * b
            })
            .sum();
        assert_eq!(total, 90);
        // Block origins + dims must land exactly on neighbours.
        let (o, _) = m.block_origin(grid.rank_at(1, 0));
        let (d, _) = m.block_dims(grid.rank_at(0, 0));
        assert_eq!(o, d);
    }

    /// Owned, and lent in place.
    #[test]
    fn scatter_gather_roundtrip() {
        let grid = ProcGrid::new(2, 3);
        let global = Matrix::random(7, 8, 99);
        let m = DistMatrix::create(grid, 7, 8);
        m.scatter(&global);
        assert_eq!(m.gather(), global);
        let mut host = Matrix::random(9, 11, 98);
        let window = host.block_mut(1, 2, 7, 8);
        DistMatrix::with_host_views_mut(vec![(window, grid, CostMap::Identity)], |c| {
            c[0].scatter(&global);
            assert_eq!(c[0].gather(), global);
        });
        assert_eq!(host.block(1, 2, 7, 8).to_matrix(), global);
    }

    #[test]
    fn block_views_address_the_right_elements() {
        let grid = ProcGrid::new(2, 2);
        let m = DistMatrix::create(grid, 4, 4);
        let global = Matrix::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        m.scatter(&global);
        // Rank 3 owns the bottom-right 2x2 block.
        let b = m.read_block(3);
        let v = b.mat().unwrap();
        assert_eq!(v.at(0, 0), 22.0);
        assert_eq!(v.at(1, 1), 33.0);
    }

    #[test]
    fn write_block_modifies_gather() {
        let grid = ProcGrid::new(2, 2);
        let m = DistMatrix::create(grid, 4, 4);
        {
            let mut w = m.write_block(0);
            w.mat_mut().unwrap().fill(5.0);
        }
        let g = m.gather();
        assert_eq!(g[(0, 0)], 5.0);
        assert_eq!(g[(1, 1)], 5.0);
        assert_eq!(g[(2, 2)], 0.0);
    }

    #[test]
    fn copy_block_into_matches_read() {
        let grid = ProcGrid::new(2, 2);
        let m = DistMatrix::create(grid, 5, 5);
        let global = Matrix::random(5, 5, 7);
        m.scatter(&global);
        let mut buf = Vec::new();
        let (r, c) = m.copy_block_into(2, &mut buf);
        assert_eq!(buf.len(), r * c);
        let b = m.read_block(2);
        let v = b.mat().unwrap();
        assert_eq!(
            (0..r).flat_map(|i| v.row(i)).copied().collect::<Vec<_>>(),
            buf
        );
    }

    /// A host view serves every block exactly as an owned matrix
    /// scattered from the same matrix does — uneven blocks, more grid rows than
    /// matrix rows, a `rows × 0` matrix, a `1 × N` one, a window
    /// narrower than its host (`ld > cols`).
    #[test]
    fn host_view_serves_what_a_scattered_arena_serves() {
        for (rows, cols, p, q) in VIEW_SHAPES {
            let grid = ProcGrid::new(p, q);
            // The operand is a window at (2, 3) of a wider host matrix.
            let host = Matrix::random(rows + 5, cols + 4, 11);
            let window = host.block(2, 3, rows, cols);
            let mask = BlockMask::from_fn(p, q, |i, j| (i + 2 * j) % 3 != 0);
            let mut owned = DistMatrix::create(grid, rows, cols);
            owned.scatter(&window.to_matrix());
            owned.set_mask(mask.clone());
            let lent = [(window, grid, CostMap::Base(7), Some(mask))];
            DistMatrix::with_host_views(&lent, |views| {
                let what = format!("{rows}x{cols} on {p}x{q}");
                assert_eq!(views.len(), 1);
                assert_eq!(views[0].cost_rank(1), 8, "{what}");
                assert_serves_like(&views[0], &owned, &what);
            });
        }
        // A `rows × 0` window over no storage at all, `ld > 0`: there is
        // no tail to slice row `i > 0` from.
        let (grid, empty) = (ProcGrid::new(2, 3), MatRef::new(6, 0, 5, &[]));
        DistMatrix::with_host_views(&[(empty, grid, CostMap::Identity, None)], |views| {
            let mut buf = vec![1.0];
            for r in 0..grid.nranks() {
                assert_eq!(views[0].copy_block_into(r, &mut buf), (3, 0));
                assert!(buf.is_empty());
                assert_eq!(views[0].read_block(r).mat().map(|v| v.rows()), Some(3));
            }
        });
    }

    /// `(rows, cols, p, q)`: uneven blocks, more grid rows (columns) than
    /// matrix rows (columns), empty matrices, a `1 × N` one, a `1 × 1` grid.
    const VIEW_SHAPES: [(usize, usize, usize, usize); 8] = [
        (10, 9, 3, 4),
        (41, 37, 2, 3),
        (2, 7, 5, 2),
        (7, 2, 2, 5),
        (6, 0, 2, 3),
        (0, 6, 3, 2),
        (1, 13, 4, 4),
        (8, 8, 1, 1),
    ];

    /// `view` serves every block — dims, origin, bytes, mask bit,
    /// elements, gets — exactly as `owned` does.
    fn assert_serves_like(view: &DistMatrix, owned: &DistMatrix, what: &str) {
        assert!(view.is_real());
        assert_eq!(
            (view.rows(), view.cols()),
            (owned.rows(), owned.cols()),
            "{what}"
        );
        let (mut got, mut want) = (vec![1.0], vec![2.0]);
        for r in 0..view.grid().nranks() {
            assert_eq!(view.block_dims(r), owned.block_dims(r), "{what} rank {r}");
            assert_eq!(view.block_origin(r), owned.block_origin(r), "{what}");
            assert_eq!(view.block_bytes(r), owned.block_bytes(r), "{what}");
            assert_eq!(view.block_nonzero(r), owned.block_nonzero(r), "{what}");
            let (vb, ob) = (view.read_block(r), owned.read_block(r));
            let (v, a) = (vb.mat().unwrap(), ob.mat().unwrap());
            assert_eq!((v.rows(), v.cols()), (a.rows(), a.cols()), "{what}");
            assert_eq!((v.rows(), v.cols()), (vb.rows(), vb.cols()), "{what}");
            for i in 0..v.rows() {
                for j in 0..v.cols() {
                    assert_eq!(v.at(i, j), a.at(i, j), "{what} rank {r} ({i},{j})");
                }
            }
            assert_eq!(
                view.copy_block_into(r, &mut got),
                owned.copy_block_into(r, &mut want),
                "{what} rank {r}"
            );
            assert_eq!(got, want, "{what} rank {r}");
        }
    }

    /// Many read-only views lent in one scope — different shapes, some
    /// windows of one host matrix, each on its own grid and cost map and
    /// with its own mask or none — each serve their own window, grid,
    /// cost map and mask and nobody else's.
    #[test]
    fn views_lent_together_each_see_their_own_window_and_mask() {
        let grids = [(2, 3), (1, 1), (2, 2), (3, 1), (1, 4)].map(|(p, q)| ProcGrid::new(p, q));
        let hosts: Vec<Matrix> = (0..4).map(|s| Matrix::random(30, 28, 40 + s)).collect();
        // Two windows of host 0 (overlapping), then hosts 1..4 whole or cut.
        let windows = [
            hosts[0].block(2, 3, 17, 11),
            hosts[0].block(5, 1, 9, 20),
            hosts[1].as_ref(),
            hosts[2].block(0, 0, 1, 13),
            hosts[3].block(4, 4, 6, 0),
        ];
        let masks: Vec<Option<BlockMask>> = (grids.iter().enumerate())
            .map(|(i, g)| {
                (i % 2 == 0).then(|| BlockMask::from_fn(g.p, g.q, |a, b| (a + b + i) % 3 != 0))
            })
            .collect();
        let lent: Vec<_> = (0..windows.len())
            .map(|i| {
                (
                    windows[i],
                    grids[i],
                    CostMap::Base(10 * i),
                    masks[i].clone(),
                )
            })
            .collect();
        DistMatrix::with_host_views(&lent, |views| {
            assert_eq!(views.len(), windows.len());
            for (i, (view, window)) in views.iter().zip(&windows).enumerate() {
                let mut owned = DistMatrix::create(grids[i], window.rows(), window.cols());
                owned.scatter(&window.to_matrix());
                if let Some(mask) = &masks[i] {
                    owned.set_mask(mask.clone());
                }
                assert_eq!(view.grid(), grids[i], "view {i}");
                assert_eq!(view.cost_rank(0), 10 * i, "view {i}");
                assert_eq!(view.mask(), masks[i].as_ref(), "view {i}");
                assert_serves_like(view, &owned, &format!("view {i}"));
            }
        });
    }

    #[test]
    fn virtual_matrix_has_shape_but_no_data() {
        let grid = ProcGrid::new(4, 4);
        let m = DistMatrix::create_virtual(grid, 16000, 16000);
        assert!(!m.is_real());
        assert_eq!(m.block_dims(0), (4000, 4000));
        assert_eq!(m.block_bytes(0), 128_000_000);
        assert!(m.read_block(0).mat().is_none());
        let mut buf = vec![1.0];
        let (r, c) = m.copy_block_into(0, &mut buf);
        assert_eq!((r, c), (4000, 4000));
        assert!(buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "virtual DistMatrix")]
    fn scatter_virtual_panics() {
        let m = DistMatrix::create_virtual(ProcGrid::new(1, 1), 2, 2);
        m.scatter(&Matrix::zeros(2, 2));
    }

    #[test]
    fn uneven_distribution_block_origins() {
        // 5 rows over p=2: rows 0..3 and 3..5.
        let grid = ProcGrid::new(2, 1);
        let m = DistMatrix::create(grid, 5, 4);
        assert_eq!(m.block_dims(0), (3, 4));
        assert_eq!(m.block_dims(1), (2, 4));
        assert_eq!(m.block_origin(1), (3, 0));
    }

    #[test]
    fn owner_matches_grid() {
        let grid = ProcGrid::new(3, 2);
        let m = DistMatrix::create_virtual(grid, 6, 6);
        assert_eq!(m.block_coords(grid.rank_at(2, 1)), (2, 1));
    }

    #[test]
    fn mask_follows_block_coords() {
        let grid = ProcGrid::new(2, 3);
        let mask = BlockMask::from_fn(2, 3, |i, j| (i, j) == (1, 2));
        let mut m = DistMatrix::create_virtual(grid, 6, 6);
        assert!(m.mask().is_none());
        assert!((0..grid.nranks()).all(|r| m.block_nonzero(r)));
        m.set_mask(mask);
        for r in 0..grid.nranks() {
            assert_eq!(m.block_nonzero(r), r == grid.rank_at(1, 2), "rank {r}");
        }
        assert_eq!(m.mask().unwrap().nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "mask shape must match")]
    fn mismatched_mask_shape_panics() {
        let mut m = DistMatrix::create_virtual(ProcGrid::new(2, 2), 4, 4);
        m.set_mask(BlockMask::full(3, 3));
    }
}

#[cfg(test)]
mod put_acc_tests {
    use super::*;

    #[test]
    fn put_overwrites_a_block() {
        let grid = ProcGrid::new(2, 2);
        let m = DistMatrix::create(grid, 4, 4);
        let payload = vec![7.0; 4];
        m.copy_block_from(3, &payload);
        let b = m.read_block(3);
        let v = b.mat().unwrap();
        assert!((0..v.rows()).all(|i| v.row(i).iter().all(|&x| x == 7.0)));
    }

    #[test]
    fn acc_accumulates_scaled() {
        let grid = ProcGrid::new(1, 1);
        let m = DistMatrix::create(grid, 2, 2);
        m.copy_block_from(0, &[1.0, 2.0, 3.0, 4.0]);
        m.acc_block_from(0, 0.5, Some(MatRef::new(2, 2, 2, &[2.0; 4])));
        let b = m.read_block(0);
        let v = b.mat().unwrap();
        assert_eq!([v.row(0), v.row(1)].concat(), [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn scale_block_handles_zero_and_identity() {
        let grid = ProcGrid::new(1, 1);
        let m = DistMatrix::create(grid, 2, 2);
        m.copy_block_from(0, &[1.0, f64::NAN, 3.0, 4.0]);
        m.scale_block(0, 1.0); // no-op, NaN preserved
        assert!(m.read_block(0).mat().unwrap().at(0, 1).is_nan());
        m.scale_block(0, 0.0); // must clear even NaN
        assert_eq!(m.gather(), Matrix::zeros(2, 2));
    }

    #[test]
    fn virtual_put_acc_are_noops() {
        let grid = ProcGrid::new(2, 2);
        let m = DistMatrix::create_virtual(grid, 8, 8);
        m.copy_block_from(0, &[]);
        m.acc_block_from(1, 2.0, None);
        m.scale_block(2, 0.0);
    }

    #[test]
    #[should_panic(expected = "put payload size mismatch")]
    fn put_wrong_size_panics() {
        let grid = ProcGrid::new(1, 1);
        let m = DistMatrix::create(grid, 2, 2);
        m.copy_block_from(0, &[1.0]);
    }

    /// `f` on a 2 x 2-grid view of a 4 x 4 host matrix, lent beside a
    /// view of another: a read-only view refuses writes however many are
    /// lent with it.
    fn on_view(f: impl FnOnce(&DistMatrix)) {
        let (other, host) = (Matrix::random(6, 5, 2), Matrix::random(4, 4, 3));
        let (grid, id) = (ProcGrid::new(2, 2), CostMap::Identity);
        let lent = [
            (other.as_ref(), grid, id, None),
            (host.as_ref(), grid, id, None),
        ];
        DistMatrix::with_host_views(&lent, |views| f(&views[1]));
    }

    #[test]
    #[should_panic(expected = "operand views are read-only")]
    fn view_refuses_write_block() {
        on_view(|v| drop(v.write_block(0)));
    }

    #[test]
    #[should_panic(expected = "operand views are read-only")]
    fn view_refuses_put() {
        on_view(|v| v.copy_block_from(0, &[0.0; 4]));
    }

    /// Even the payload-free put of a modeled run.
    #[test]
    #[should_panic(expected = "operand views are read-only")]
    fn view_refuses_modeled_put() {
        on_view(|v| v.copy_block_from(0, &[]));
    }

    #[test]
    #[should_panic(expected = "operand views are read-only")]
    fn view_refuses_acc() {
        on_view(|v| v.acc_block_from(0, 1.0, Some(MatRef::new(2, 2, 2, &[0.0; 4]))));
    }

    /// The refusal names the accessor that was refused.
    #[test]
    #[should_panic(expected = "scale_block(): operand views are read-only")]
    fn view_refuses_scale() {
        on_view(|v| v.scale_block(0, 0.5));
    }

    /// `β = 1` writes nothing, so there is nothing to refuse.
    #[test]
    fn view_skips_the_identity_scale() {
        on_view(|v| v.scale_block(0, 1.0));
    }

    #[test]
    #[should_panic(expected = "operand views are read-only")]
    fn view_refuses_scatter() {
        on_view(|v| v.scatter(&Matrix::zeros(4, 4)));
    }
}

/// The writable window, lent (C distributed in place) or owned.
#[cfg(test)]
mod window_tests {
    use super::*;

    /// `(rows, cols, p, q)`: uneven blocks, more grid rows (columns) than
    /// matrix rows (columns) so some blocks are empty, `1 × q` and
    /// `p × 1` grids, an empty matrix.
    const SHAPES: [(usize, usize, usize, usize); 8] = [
        (10, 9, 3, 4),
        (41, 37, 2, 3),
        (2, 7, 5, 2),
        (7, 2, 2, 5),
        (5, 13, 1, 4),
        (13, 5, 4, 1),
        (6, 0, 2, 3),
        (8, 8, 1, 1),
    ];
    /// Where the window sits in its (wider, taller) host matrix.
    const AT: (usize, usize) = (2, 3);

    fn host_for(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::random(rows + 5, cols + 4, seed)
    }

    /// The rank whose block of a `rows × cols` window at [`AT`],
    /// distributed over `grid`, holds host element `(i, j)` — `None`
    /// outside the window.
    fn owner_of(
        grid: ProcGrid,
        (rows, cols): (usize, usize),
        (i, j): (usize, usize),
    ) -> Option<usize> {
        let inside = (AT.0..AT.0 + rows).contains(&i) && (AT.1..AT.1 + cols).contains(&j);
        inside.then(|| owner_in(grid, (rows, cols), (i - AT.0, j - AT.1)))
    }

    /// The rank whose block of a `rows × cols` matrix distributed over
    /// `grid` holds its element `(i, j)`.
    fn owner_in(grid: ProcGrid, (rows, cols): (usize, usize), (i, j): (usize, usize)) -> usize {
        let bi = (0..grid.p)
            .rfind(|&b| chunk_start(rows, grid.p, b) <= i)
            .unwrap();
        let bj = (0..grid.q)
            .rfind(|&b| chunk_start(cols, grid.q, b) <= j)
            .unwrap();
        grid.rank_at(bi, bj)
    }

    /// `f` on the `rows × cols` window at [`AT`] of `host`, distributed
    /// in place over `p × q`.
    fn on_window(
        host: &mut Matrix,
        (rows, cols, p, q): (usize, usize, usize, usize),
        f: impl FnOnce(&DistMatrix),
    ) {
        let window = host.block_mut(AT.0, AT.1, rows, cols);
        let lent = vec![(window, ProcGrid::new(p, q), CostMap::Identity)];
        DistMatrix::with_host_views_mut(lent, |views| f(&views[0]));
    }

    /// `f` on every matrix a window test takes for `shape`: the window at
    /// [`AT`] of `host_for(rows, cols, seed)`, lent in place, then an
    /// owned matrix. Returns the `rows × cols` elements `f` left in each;
    /// no host element outside the lent window may move.
    fn on_inputs(
        shape @ (rows, cols, p, q): (usize, usize, usize, usize),
        seed: u64,
        mut f: impl FnMut(&DistMatrix),
    ) -> [Matrix; 2] {
        let grid = ProcGrid::new(p, q);
        let before = host_for(rows, cols, seed);
        let mut host = before.clone();
        on_window(&mut host, shape, &mut f);
        for i in 0..host.rows() {
            for j in 0..host.cols() {
                if owner_of(grid, (rows, cols), (i, j)).is_none() {
                    let (got, want) = (host[(i, j)].to_bits(), before[(i, j)].to_bits());
                    assert_eq!(got, want, "{shape:?} ({i},{j}) is outside the window");
                }
            }
        }
        let owned = DistMatrix::create(grid, rows, cols);
        f(&owned);
        [
            host.block(AT.0, AT.1, rows, cols).to_matrix(),
            owned.gather(),
        ]
    }

    /// `f` on every input [`on_inputs`] makes for `shape`, each of which
    /// must panic, and all with one message; then that panic again, for
    /// a `should_panic` test to match.
    fn panics_on_every_input(shape: (usize, usize, usize, usize), f: impl Fn(&DistMatrix)) {
        let mut messages = Vec::new();
        on_inputs(shape, 1, |c| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c)))
                .expect_err("every input must panic");
            let message = (payload.downcast_ref::<&str>().map(|m| m.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned());
            messages.push(message.expect("a panic message"));
        });
        assert_eq!(messages.len(), 2);
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
        panic!("{}", messages[0]);
    }

    /// Every rank writes its id over its block: each element of the
    /// window then names the rank `block_origin`/`block_dims` give it to
    /// — the blocks are disjoint and cover the window — and no element
    /// outside the window moved.
    #[test]
    fn blocks_are_disjoint_and_cover_the_window() {
        for shape @ (rows, cols, p, q) in SHAPES {
            let left = on_inputs(shape, 21, |c| {
                assert!(c.is_real());
                assert_eq!((c.rows(), c.cols()), (rows, cols));
                // All at once, as the ranks of a run hold them.
                let mut held: Vec<_> = (0..p * q).map(|r| c.write_block(r)).collect();
                for (r, w) in held.iter_mut().enumerate() {
                    assert_eq!((w.rows(), w.cols()), c.block_dims(r));
                    let mut blk = w.mat_mut().expect("a window is real");
                    assert_eq!((blk.rows(), blk.cols()), c.block_dims(r));
                    blk.fill(r as f64);
                }
            });
            let grid = ProcGrid::new(p, q);
            for got in left {
                for i in 0..rows {
                    for j in 0..cols {
                        let want = owner_in(grid, (rows, cols), (i, j)) as f64;
                        assert_eq!(got[(i, j)], want, "{shape:?} ({i},{j})");
                    }
                }
            }
        }
    }

    /// Each write accessor leaves in the lent window, bit for bit, what
    /// its twin leaves in an owned matrix scattered from the same
    /// elements — and the window serves reads and gets as that one does.
    #[test]
    fn write_accessors_match_their_arena_twins() {
        for shape @ (rows, cols, p, q) in SHAPES {
            let grid = ProcGrid::new(p, q);
            let mut host = host_for(rows, cols, 22);
            let before = host.clone();
            let owned = DistMatrix::create(grid, rows, cols);
            owned.scatter(&host.block(AT.0, AT.1, rows, cols).to_matrix());
            // One accessor per rank, by turns; payloads carry a NaN and a
            // negative zero, which only a bitwise copy preserves.
            let apply = |m: &DistMatrix| {
                for r in 0..grid.nranks() {
                    let (br, bc) = m.block_dims(r);
                    let mut payload = Matrix::random(br, bc, 30 + r as u64);
                    if let [first, second, ..] = payload.as_mut_slice() {
                        (*first, *second) = (f64::NAN, -0.0);
                    }
                    let payload = payload.as_slice();
                    match r % 6 {
                        0 => m.copy_block_from(r, payload),
                        1 => m.acc_block_from(r, -1.5, Some(MatRef::new(br, bc, bc, payload))),
                        2 => m.scale_block(r, 0.0),
                        3 => m.scale_block(r, 0.75),
                        4 => {
                            m.scale_block(r, 1.0);
                            m.copy_block_from(r, &[]); // modeled payloads:
                            m.acc_block_from(r, 2.0, None); // nothing moves
                        }
                        _ => {
                            let mut w = m.write_block(r);
                            let mut blk = w.mat_mut().unwrap();
                            for i in 0..br {
                                for (j, v) in blk.row_mut(i).iter_mut().enumerate() {
                                    *v = *v * 3.0 + (i * bc + j) as f64;
                                }
                            }
                        }
                    }
                }
            };
            apply(&owned);
            on_window(&mut host, shape, |c| {
                apply(c);
                let (mut got, mut want) = (vec![1.0], vec![2.0]);
                for r in 0..grid.nranks() {
                    let what = format!("{shape:?} rank {r}");
                    assert_eq!(c.block_bytes(r), owned.block_bytes(r), "{what}");
                    assert_eq!(
                        c.copy_block_into(r, &mut got),
                        owned.copy_block_into(r, &mut want),
                        "{what}"
                    );
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    let (cb, ob) = (c.read_block(r), owned.read_block(r));
                    let (v, a) = (cb.mat().unwrap(), ob.mat().unwrap());
                    assert_eq!((v.rows(), v.cols()), (a.rows(), a.cols()), "{what}");
                    // A `rows × 0` window has no storage to slice rows from.
                    for i in 0..if v.cols() > 0 { v.rows() } else { 0 } {
                        assert_eq!(bits(v.row(i)), bits(a.row(i)), "{what} row {i}");
                    }
                }
            });
            let want = owned.gather();
            for i in 0..host.rows() {
                for j in 0..host.cols() {
                    let inside =
                        (AT.0..AT.0 + rows).contains(&i) && (AT.1..AT.1 + cols).contains(&j);
                    let want = if inside {
                        want[(i - AT.0, j - AT.1)]
                    } else {
                        before[(i, j)]
                    };
                    assert_eq!(
                        host[(i, j)].to_bits(),
                        want.to_bits(),
                        "{shape:?} ({i},{j})"
                    );
                }
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The ranks of a run write their blocks at the same time, from
    /// their own threads, each holding its handle throughout.
    #[test]
    fn owners_write_concurrently() {
        let shape @ (_, _, p, q) = (41, 37, 2, 3);
        on_inputs(shape, 23, |c| {
            let all_hold = std::sync::Barrier::new(p * q);
            std::thread::scope(|s| {
                for r in 0..p * q {
                    let all_hold = &all_hold;
                    s.spawn(move || {
                        let mut w = c.write_block(r);
                        all_hold.wait();
                        w.mat_mut().unwrap().fill(r as f64);
                    });
                }
            });
            for r in 0..p * q {
                let block = c.read_block(r);
                let blk = block.mat().unwrap();
                assert!((0..blk.rows()).all(|i| blk.row(i).iter().all(|&v| v == r as f64)));
            }
        });
    }

    #[test]
    #[should_panic(expected = "discipline violation: write of a block under access")]
    fn a_second_writer_of_a_held_block_is_caught() {
        on_window(&mut host_for(4, 4, 1), (4, 4, 2, 2), |c| {
            let _owner = c.write_block(1);
            // Another rank's put lands on the block its owner is computing.
            c.copy_block_from(1, &[0.0; 4]);
        });
    }

    /// The slice a read hands out spans the rows of its grid-row
    /// neighbours: reading beside a writer of another grid row is fine,
    /// beside one of its own it is caught.
    #[test]
    #[should_panic(expected = "discipline violation: read of a block under write")]
    fn a_read_beside_a_writer_of_its_grid_row_is_caught() {
        panics_on_every_input((4, 4, 2, 2), |c| {
            let _owner = c.write_block(c.grid().rank_at(1, 0));
            assert_eq!(
                c.read_block(c.grid().rank_at(0, 0)).mat().map(|m| m.rows()),
                Some(2)
            );
            assert_eq!(
                c.read_block(c.grid().rank_at(0, 1)).mat().map(|m| m.cols()),
                Some(2)
            );
            let _ = c.read_block(c.grid().rank_at(1, 1));
        });
    }

    #[test]
    #[should_panic(expected = "discipline violation: write of a block under access")]
    fn a_write_beside_a_reader_of_its_grid_row_is_caught() {
        panics_on_every_input((4, 4, 2, 2), |c| {
            let _reader = c.read_block(c.grid().rank_at(0, 0));
            let _ = c.write_block(c.grid().rank_at(0, 1));
        });
    }

    /// Many products lent in one scope, as a batch stream lends them,
    /// each on its own grid and cost map (an entry's team): every rank
    /// holds its block of every view at once and writes `1000·e + rank`
    /// over it. Afterwards each host matrix holds, inside its window, the
    /// value of view `e` and the rank view `e`'s grid gives each element
    /// to — view `e` wrote into output `e` only — and nothing outside its
    /// window moved.
    #[test]
    fn writable_view_e_writes_only_into_output_e() {
        let grids =
            [(2, 3), (1, 1), (3, 2), (2, 2), (2, 3), (1, 4)].map(|(p, q)| ProcGrid::new(p, q));
        let shapes = [(10, 9), (41, 37), (1, 7), (7, 2), (6, 0), (4, 4)];
        let before: Vec<Matrix> = (shapes.iter().zip(50..))
            .map(|(&(rows, cols), seed)| host_for(rows, cols, seed))
            .collect();
        let mut hosts = before.clone();
        let windows = (hosts.iter_mut().zip(shapes).enumerate())
            .map(|(e, (host, (rows, cols)))| {
                let window = host.block_mut(AT.0, AT.1, rows, cols);
                (window, grids[e], CostMap::Base(10 * e))
            })
            .collect();
        DistMatrix::with_host_views_mut(windows, |views| {
            assert_eq!(views.len(), shapes.len());
            let mut held = Vec::new();
            for (e, view) in views.iter().enumerate() {
                assert_eq!((view.rows(), view.cols()), shapes[e]);
                assert_eq!((view.grid(), view.cost_rank(1)), (grids[e], 10 * e + 1));
                for r in 0..grids[e].nranks() {
                    held.push((1000 * e + r, view.write_block(r)));
                }
            }
            for (value, w) in &mut held {
                w.mat_mut().expect("a window is real").fill(*value as f64);
            }
        });
        for (e, (host, (rows, cols))) in hosts.iter().zip(shapes).enumerate() {
            for i in 0..host.rows() {
                for j in 0..host.cols() {
                    let want = match owner_of(grids[e], (rows, cols), (i, j)) {
                        Some(r) => (1000 * e + r) as f64,
                        None => before[e][(i, j)],
                    };
                    assert_eq!(host[(i, j)], want, "output {e} ({i},{j})");
                }
            }
        }
    }

    /// Each view keeps its own checkers: the owner of block 2 of one
    /// product does not stop anyone writing block 2 of another, but a
    /// second writer of the block it holds is caught.
    #[test]
    #[should_panic(expected = "discipline violation: write of a block under access")]
    fn a_non_owner_write_into_a_lent_product_is_caught() {
        let (mut x, mut y) = (host_for(4, 4, 1), host_for(4, 4, 2));
        let (grid, id) = (ProcGrid::new(2, 2), CostMap::Identity);
        let windows = vec![
            (x.block_mut(AT.0, AT.1, 4, 4), grid, id),
            (y.block_mut(AT.0, AT.1, 4, 4), grid, id),
        ];
        DistMatrix::with_host_views_mut(windows, |views| {
            let _owner = views[1].write_block(2);
            drop(views[0].write_block(2));
            // Another rank's put lands on the block its owner is computing.
            views[1].copy_block_from(2, &[0.0; 4]);
        });
    }
}
