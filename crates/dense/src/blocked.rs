//! Cache-blocked gemm (the "vendor dgemm" stand-in).
//!
//! Classic three-level blocking around the packed micro-kernel:
//!
//! ```text
//! for jc in steps of nc:          // B panel fits in L3 / stays streaming
//!   for lc in steps of kc:        // packed B panel fits in L2
//!     pack B[lc.., jc..]
//!     for ic in steps of mc:      // packed A panel fits in L1/L2
//!       pack A[ic.., lc..]
//!       macro-kernel: mr x nr micro-tiles over the packed panels
//! ```
//!
//! `β·C` is applied exactly once at the start (BLAS semantics), after
//! which every `(lc)` slice accumulates into C.
//!
//! The packing buffers live in a [`GemmWorkspace`] that callers on hot
//! paths (the `Comm::gemm` implementations, the SRUMMA task loop) keep
//! across calls, so the steady state performs **zero** heap
//! allocations; the cache-block sizes are per-workspace [`BlockSizes`]
//! the `calibrate` harness can probe instead of hard-coded constants.
//! The micro-kernel itself is dispatched once per process (or pinned
//! per workspace) — see [`crate::kernel::Microkernel`].
//!
//! Beyond kernel and blocks, a workspace carries two opt-in experiment
//! knobs, both defaulting off and both probeable by `calibrate`:
//!
//! * [`PackLayout`] — linear slivers (the classic layout) or Morton
//!   Z-order micro-tiles for the A panel ([`crate::zorder`]). Bitwise
//!   identical results either way.
//! * A Strassen cutoff — `Some(n)` routes [`crate::dgemm_ws`] through
//!   the Strassen recursion ([`crate::strassen`]) for tiles whose
//!   minimum dimension exceeds `n`.
//!
//! Every knob also has a strict environment override (`SRUMMA_LAYOUT`,
//! `SRUMMA_STRASSEN`, and `SRUMMA_KERNEL` in [`crate::kernel`]):
//! unrecognized values fail fast with the list of valid spellings
//! rather than silently falling back to a default.

use crate::aligned::{AlignedBuf, ALIGN};
use crate::gemm::Op;
use crate::kernel::{active_kernel, writeback, Microkernel, ACC_LEN};
use crate::matrix::{MatMut, MatRef};
use crate::pack::{pack_a, pack_b};
use crate::zorder::{pack_a_zorder, ZShape, ZT_K};
use std::sync::OnceLock;

/// Default M-dimension cache block: the packed `MC × KC` A panel
/// (128 KiB) stays in L2 while every B sliver passes over it. Like
/// [`NC`] it only regroups whole micro-tiles — no bit of the result
/// depends on it.
pub const MC: usize = 64;
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
/// `nr`-wide slivers of its kernel ([`GemmWorkspace::configured`]): 512
/// as configured would end every B panel of a wide matrix in a ragged
/// 8-column sliver under both `nr = 12` and `nr = 24`.
pub const NC: usize = 512;

/// Smallest permitted Strassen cutoff. Below this the recursion
/// overhead (quadrant temps, odd-dimension peeling) swamps the saved
/// multiply, and the classic-algorithm error analysis the tolerance
/// tests rely on assumes leaves of at least this size.
pub const STRASSEN_MIN_CUTOFF: usize = 16;

/// Cutoff used when Strassen is switched on without an explicit value
/// (`SRUMMA_STRASSEN=on`). Conservative: well above the break-even
/// point measured by `calibrate --strassen` on small hosts.
pub const STRASSEN_DEFAULT_CUTOFF: usize = 512;

/// Tunable cache-block sizes for the three blocking levels.
///
/// Correctness never depends on these; throughput does. The defaults
/// match the historical constants; `cargo run --bin calibrate` probes a
/// candidate grid on the host and reports the best-performing set.
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

/// Storage layout of the packed A panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PackLayout {
    /// Contiguous `mr × kc` slivers (the classic GotoBLAS layout).
    #[default]
    Linear,
    /// Morton-interleaved `mr × ZT_K` micro-tiles (see [`crate::zorder`]).
    ZOrder,
}

impl PackLayout {
    /// Short name, matching the `SRUMMA_LAYOUT` spelling.
    pub fn name(self) -> &'static str {
        match self {
            PackLayout::Linear => "linear",
            PackLayout::ZOrder => "zorder",
        }
    }
}

/// Parse a `SRUMMA_LAYOUT` value. Strict: anything other than a known
/// spelling is an error naming the valid set, so typos fail fast
/// instead of silently benchmarking the wrong layout.
pub fn parse_layout(raw: &str) -> Result<PackLayout, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "linear" | "auto" | "" => Ok(PackLayout::Linear),
        "zorder" | "z-order" | "morton" => Ok(PackLayout::ZOrder),
        other => Err(format!(
            "unrecognized SRUMMA_LAYOUT value `{other}`; valid values are linear|zorder|auto"
        )),
    }
}

/// Parse a `SRUMMA_STRASSEN` value into an optional cutoff. Strict on
/// unknown spellings; accepted values:
///
/// * `off` / `none` / `0` — Strassen disabled (the default),
/// * `on` — enabled at [`STRASSEN_DEFAULT_CUTOFF`],
/// * an integer `>= STRASSEN_MIN_CUTOFF` — enabled at that cutoff.
pub fn parse_strassen(raw: &str) -> Result<Option<usize>, String> {
    let norm = raw.trim().to_ascii_lowercase();
    match norm.as_str() {
        "off" | "none" | "0" | "" => Ok(None),
        "on" => Ok(Some(STRASSEN_DEFAULT_CUTOFF)),
        other => match other.parse::<usize>() {
            Ok(n) if n >= STRASSEN_MIN_CUTOFF => Ok(Some(n)),
            Ok(n) => Err(format!(
                "SRUMMA_STRASSEN cutoff {n} is below the minimum {STRASSEN_MIN_CUTOFF}"
            )),
            Err(_) => Err(format!(
                "unrecognized SRUMMA_STRASSEN value `{other}`; valid values are \
                 off|on|<cutoff >= {STRASSEN_MIN_CUTOFF}>"
            )),
        },
    }
}

fn env_layout() -> PackLayout {
    static CACHE: OnceLock<PackLayout> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("SRUMMA_LAYOUT") {
        Ok(raw) => parse_layout(&raw).unwrap_or_else(|msg| panic!("{msg}")),
        Err(_) => PackLayout::Linear,
    })
}

fn env_strassen() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("SRUMMA_STRASSEN") {
        Ok(raw) => parse_strassen(&raw).unwrap_or_else(|msg| panic!("{msg}")),
        Err(_) => None,
    })
}

/// A complete gemm configuration: which kernel, which cache blocks,
/// which pack layout, and whether/when to recurse with Strassen.
///
/// `None` fields mean "resolve at workspace construction" (the
/// process-wide dispatched kernel, the default block sizes), so a
/// `GemmConfig::default()` reproduces historical behaviour exactly.
/// [`GemmConfig::from_env`] additionally folds in the environment
/// toggles; it is what [`GemmWorkspace::new`] uses, and what the comm
/// backends start from before applying per-run option overrides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct GemmConfig {
    /// Pinned micro-kernel, or `None` for the dispatched one.
    pub kernel: Option<Microkernel>,
    /// Explicit cache blocks, or `None` for the defaults.
    pub blocks: Option<BlockSizes>,
    /// A-panel pack layout.
    pub layout: PackLayout,
    /// Strassen recursion cutoff; `None` disables Strassen.
    pub strassen_cutoff: Option<usize>,
}

impl GemmConfig {
    /// The default configuration with `SRUMMA_LAYOUT` / `SRUMMA_STRASSEN`
    /// applied (strictly parsed; see [`parse_layout`], [`parse_strassen`]).
    ///
    /// # Panics
    /// Panics on an unrecognized environment value.
    pub fn from_env() -> Self {
        GemmConfig {
            kernel: None,
            blocks: None,
            layout: env_layout(),
            strassen_cutoff: env_strassen(),
        }
    }

    /// Clamp explicit cache blocks to a known problem shape (or a
    /// stream's high-water shape): `min(block, dim)` per dimension.
    ///
    /// A cache block that already covers a dimension tiles it as one
    /// chunk whether it is `dim` or ten times `dim`, so for every gemm
    /// call whose dims fit the clamp this changes nothing — outputs
    /// stay bitwise identical. What does change is the workspace
    /// demand ([`GemmWorkspace::reserve`] sizes `apack`/`bpack` from
    /// the configured blocks): a host profile calibrated at paper
    /// scale (say `kc = nc = 512`) would otherwise make every rank of
    /// a small-stream pool allocate — and first-touch — megabytes of
    /// panel it can never use. Auto blocks (`None`) are left to the
    /// resolver untouched.
    pub fn clamped_to(mut self, m: usize, k: usize, n: usize) -> Self {
        if let Some(b) = &mut self.blocks {
            b.mc = b.mc.min(m.max(1));
            b.kc = b.kc.min(k.max(1));
            b.nc = b.nc.min(n.max(1));
        }
        self
    }
}

/// The environment knobs an explicit `cfg` overrides: for each of
/// `SRUMMA_KERNEL` / `SRUMMA_LAYOUT` / `SRUMMA_STRASSEN` that is both
/// *set* and *contradicted* by the config, the variable's name. Empty
/// when no knob is set or the config agrees with the environment (a
/// `GemmConfig::from_env()`-derived config never conflicts).
///
/// Precedence is uniform everywhere: an explicit `GemmConfig` (whether
/// set directly, through `SrummaOptions`, or resolved from a host
/// profile) beats the environment. [`GemmWorkspace::configured`] calls
/// this and warns **once per process** when the override is exercised,
/// so a user who exported `SRUMMA_KERNEL=avx2` and then ran a
/// profile-pinned benchmark learns which setting actually applied.
pub fn explicit_env_conflicts(cfg: &GemmConfig) -> Vec<&'static str> {
    let mut conflicts = Vec::new();
    if let Some(kernel) = cfg.kernel {
        if std::env::var("SRUMMA_KERNEL").is_ok() && kernel != active_kernel() {
            conflicts.push("SRUMMA_KERNEL");
        }
    }
    if std::env::var("SRUMMA_LAYOUT").is_ok() && cfg.layout != env_layout() {
        conflicts.push("SRUMMA_LAYOUT");
    }
    if std::env::var("SRUMMA_STRASSEN").is_ok() && cfg.strassen_cutoff != env_strassen() {
        conflicts.push("SRUMMA_STRASSEN");
    }
    conflicts
}

fn warn_env_overridden(cfg: &GemmConfig) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    let conflicts = explicit_env_conflicts(cfg);
    if !conflicts.is_empty() {
        WARNED.call_once(|| {
            eprintln!(
                "srumma: explicit gemm configuration overrides {} (explicit config wins \
                 over environment; this is reported once)",
                conflicts.join(", ")
            );
        });
    }
}

/// Reusable per-caller gemm state: the packing buffers, the cache-block
/// sizes, and the micro-kernel the packing layout is sized for.
///
/// Construct one per rank (or per thread) and pass it to
/// [`blocked_gemm_ws`] / [`crate::dgemm_ws`]; the buffers are sized on
/// first use and never reallocated afterwards — [`Self::grow_count`]
/// stays at 1 over any number of calls, which is what "zero per-call
/// heap allocations in the steady state" means concretely. The packing
/// buffers are 64-byte aligned ([`crate::aligned`]) so every sliver
/// starts on a cache-line/zmm boundary.
///
/// The Strassen scratch arena is tracked separately
/// ([`Self::strassen_grow_count`]): it is sized by the first
/// Strassen-routed call for that problem shape and reused afterwards,
/// preserving the same steady-state guarantee.
#[derive(Debug)]
pub struct GemmWorkspace {
    kernel: Microkernel,
    blocks: BlockSizes,
    layout: PackLayout,
    strassen_cutoff: Option<usize>,
    apack: AlignedBuf,
    bpack: AlignedBuf,
    sarena: Vec<f64>,
    grows: u64,
    sgrows: u64,
}

impl Default for GemmWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GemmWorkspace {
    /// Workspace for the process-wide dispatched kernel, default block
    /// sizes, and the environment's layout/Strassen toggles.
    pub fn new() -> Self {
        Self::configured(GemmConfig::from_env())
    }

    /// Workspace pinned to an explicit kernel (differential tests, CI
    /// fallback runs).
    ///
    /// # Panics
    /// Panics if `kernel` is not available on this host.
    pub fn with_kernel(kernel: Microkernel) -> Self {
        Self::configured(GemmConfig {
            kernel: Some(kernel),
            ..GemmConfig::from_env()
        })
    }

    /// Workspace with explicit block sizes (the `calibrate` probe).
    pub fn with_blocks(blocks: BlockSizes) -> Self {
        Self::configured(GemmConfig {
            blocks: Some(blocks),
            ..GemmConfig::from_env()
        })
    }

    /// Workspace with explicit kernel and block sizes.
    ///
    /// # Panics
    /// Panics if `kernel` is not available on this host.
    pub fn with_config(kernel: Microkernel, blocks: BlockSizes) -> Self {
        Self::configured(GemmConfig {
            kernel: Some(kernel),
            blocks: Some(blocks),
            ..GemmConfig::from_env()
        })
    }

    /// Workspace from a full [`GemmConfig`].
    ///
    /// The configured `nc` takes effect rounded down to a whole number
    /// of the kernel's `nr`-wide slivers (at least one), so that only a
    /// matrix's own last columns ever make a ragged sliver, never the
    /// panel width; [`Self::blocks`] and [`Self::config`] report the
    /// value in effect. Bitwise-neutral, like any choice of `nc`.
    ///
    /// # Panics
    /// Panics if the pinned kernel is not available on this host.
    pub fn configured(cfg: GemmConfig) -> Self {
        warn_env_overridden(&cfg);
        let kernel = cfg.kernel.unwrap_or_else(active_kernel);
        assert!(
            kernel.available(),
            "{} kernel is not available on this host",
            kernel.name()
        );
        let mut blocks = cfg.blocks.unwrap_or_default();
        blocks.nc = (blocks.nc / kernel.nr()).max(1) * kernel.nr();
        GemmWorkspace {
            kernel,
            blocks,
            layout: cfg.layout,
            strassen_cutoff: cfg.strassen_cutoff.map(|c| c.max(STRASSEN_MIN_CUTOFF)),
            apack: AlignedBuf::new(),
            bpack: AlignedBuf::new(),
            sarena: Vec::new(),
            grows: 0,
            sgrows: 0,
        }
    }

    /// Builder-style layout override (consumes and returns the
    /// workspace so call sites read `GemmWorkspace::new().with_layout(..)`).
    pub fn with_layout(mut self, layout: PackLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Builder-style Strassen override; `None` disables the recursion,
    /// `Some(n)` enables it with cutoff `max(n, STRASSEN_MIN_CUTOFF)`.
    pub fn with_strassen(mut self, cutoff: Option<usize>) -> Self {
        self.strassen_cutoff = cutoff.map(|c| c.max(STRASSEN_MIN_CUTOFF));
        self
    }

    /// The micro-kernel this workspace packs for.
    pub fn kernel(&self) -> Microkernel {
        self.kernel
    }

    /// The cache-block sizes in effect.
    pub fn blocks(&self) -> BlockSizes {
        self.blocks
    }

    /// The A-panel pack layout in effect.
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// The Strassen cutoff in effect (`None` = Strassen disabled).
    pub fn strassen_cutoff(&self) -> Option<usize> {
        self.strassen_cutoff
    }

    /// The full configuration this workspace was resolved to, suitable
    /// for idempotence checks (rebuild only when the config changed).
    pub fn config(&self) -> GemmConfig {
        GemmConfig {
            kernel: Some(self.kernel),
            blocks: Some(self.blocks),
            layout: self.layout,
            strassen_cutoff: self.strassen_cutoff,
        }
    }

    /// How many times the packing buffers have grown. After the first
    /// gemm this stays constant — the reuse guarantee tests assert on.
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// How many times the Strassen scratch arena has grown. Stays at 1
    /// across repeated calls of the same (or smaller) problem shape.
    pub fn strassen_grow_count(&self) -> u64 {
        self.sgrows
    }

    /// Make sure the packing buffers cover one full (mc × kc) A panel
    /// and one (kc × nc) B panel. Buffer demand depends only on the
    /// workspace configuration, so this grows at most once — and the
    /// allocation is zero-page-backed ([`AlignedBuf::grow_to`]), so a
    /// small multiply under a big-block configuration (e.g. a host
    /// profile calibrated at paper scale) only ever touches the panel
    /// prefix it actually packs.
    fn reserve(&mut self) {
        let (mr, nr) = (self.kernel.mr(), self.kernel.nr());
        let a_need = match self.layout {
            PackLayout::Linear => self.blocks.mc.div_ceil(mr) * mr * self.blocks.kc,
            PackLayout::ZOrder => ZShape::new(self.blocks.mc, self.blocks.kc, mr).elems(),
        };
        let b_need = self.blocks.nc.div_ceil(nr) * nr * self.blocks.kc;
        let grew_a = self.apack.grow_to(a_need);
        let grew_b = self.bpack.grow_to(b_need);
        if grew_a || grew_b {
            self.grows += 1;
        }
        debug_assert_eq!(self.apack.as_slice().as_ptr() as usize % ALIGN, 0);
        debug_assert_eq!(self.bpack.as_slice().as_ptr() as usize % ALIGN, 0);
    }

    /// Make sure the Strassen scratch arena holds at least `elems`
    /// f64s. Demand depends only on the problem shape and cutoff, so
    /// this grows at most once per high-water shape.
    pub(crate) fn strassen_reserve(&mut self, elems: usize) {
        if self.sarena.len() < elems {
            self.sarena.resize(elems, 0.0);
            self.sgrows += 1;
        }
    }

    /// Detach the Strassen arena (so the recursion can hold `&mut` to
    /// both the arena and the workspace). Pair with
    /// [`Self::strassen_put`].
    pub(crate) fn strassen_take(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.sarena)
    }

    /// Re-attach the Strassen arena taken by [`Self::strassen_take`].
    pub(crate) fn strassen_put(&mut self, arena: Vec<f64>) {
        self.sarena = arena;
    }
}

/// Cache-blocked `C ← α·op(A)·op(B) + β·C` with caller-owned workspace.
/// See [`crate::dgemm`] for the shape contract.
#[allow(clippy::too_many_arguments)]
pub fn blocked_gemm_ws(
    transa: Op,
    transb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
    ws: &mut GemmWorkspace,
) {
    let m = c.rows();
    let n = c.cols();
    let (am, ak) = transa.apply(a.rows(), a.cols());
    let (bk, bn) = transb.apply(b.rows(), b.cols());
    assert_eq!(am, m, "op(A) rows {am} != C rows {m}");
    assert_eq!(bn, n, "op(B) cols {bn} != C cols {n}");
    assert_eq!(ak, bk, "op(A) cols {ak} != op(B) rows {bk}");
    let k = ak;

    c.scale(beta);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }

    ws.reserve();
    let kernel = ws.kernel;
    let layout = ws.layout;
    let BlockSizes {
        mc: bmc,
        kc: bkc,
        nc: bnc,
    } = ws.blocks;

    let mut jc = 0;
    while jc < n {
        let nc = bnc.min(n - jc);
        let mut lc = 0;
        while lc < k {
            let kc = bkc.min(k - lc);
            pack_b(
                transb,
                b,
                lc,
                jc,
                kc,
                nc,
                kernel.nr(),
                ws.bpack.as_mut_slice(),
            );
            let mut ic = 0;
            while ic < m {
                let mc = bmc.min(m - ic);
                match layout {
                    PackLayout::Linear => {
                        pack_a(
                            transa,
                            a,
                            ic,
                            lc,
                            mc,
                            kc,
                            kernel.mr(),
                            ws.apack.as_mut_slice(),
                        );
                        macro_kernel(
                            kernel,
                            mc,
                            nc,
                            kc,
                            alpha,
                            ws.apack.as_slice(),
                            ws.bpack.as_slice(),
                            &mut c,
                            ic,
                            jc,
                        );
                    }
                    PackLayout::ZOrder => {
                        pack_a_zorder(
                            transa,
                            a,
                            ic,
                            lc,
                            mc,
                            kc,
                            kernel.mr(),
                            ws.apack.as_mut_slice(),
                        );
                        macro_kernel_z(
                            kernel,
                            mc,
                            nc,
                            kc,
                            alpha,
                            ws.apack.as_slice(),
                            ws.bpack.as_slice(),
                            &mut c,
                            ic,
                            jc,
                        );
                    }
                }
                ic += bmc;
            }
            lc += bkc;
        }
        jc += bnc;
    }
}

/// Cache-blocked gemm with a throwaway workspace — the convenience
/// entry for one-off calls; hot paths should hold a [`GemmWorkspace`]
/// and call [`blocked_gemm_ws`].
pub fn blocked_gemm(
    transa: Op,
    transb: Op,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    let mut ws = GemmWorkspace::new();
    blocked_gemm_ws(transa, transb, alpha, a, b, beta, c, &mut ws);
}

/// Run the micro-kernel over every `mr × nr` tile of an `mc × nc` block.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    kernel: Microkernel,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let m_slivers = mc.div_ceil(mr);
    let n_slivers = nc.div_ceil(nr);
    for js in 0..n_slivers {
        let b_sliver = &bpack[js * nr * kc..(js + 1) * nr * kc];
        let cols = nr.min(nc - js * nr);
        for is in 0..m_slivers {
            let a_sliver = &apack[is * mr * kc..(is + 1) * mr * kc];
            let rows = mr.min(mc - is * mr);
            let mut acc = [0.0; ACC_LEN];
            kernel.run_cols(cols, kc, a_sliver, b_sliver, &mut acc);
            // Element (ic + is*mr, jc + js*nr) of C within its buffer.
            let r0 = ic + is * mr;
            let c0 = jc + js * nr;
            let mut tile = c.reborrow().block(r0, c0, rows, cols);
            let ldc = tile.ld();
            writeback(&acc, alpha, rows, cols, nr, tile.data_mut(), ldc);
        }
    }
}

/// Z-order variant of [`macro_kernel`]: identical traversal (slivers in
/// natural order, `k`-chunks in natural order within a sliver), but each
/// sliver's `k` range is consumed as a sequence of Morton-placed
/// `mr × ZT_K` tiles, accumulating into one micro-tile accumulator. The
/// chunked calls preserve the exact `k`-summation order of one long
/// kernel call, so results are bitwise identical to the linear layout.
#[allow(clippy::too_many_arguments)]
fn macro_kernel_z(
    kernel: Microkernel,
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    let (mr, nr) = (kernel.mr(), kernel.nr());
    let z = ZShape::new(mc, kc, mr);
    let n_slivers = nc.div_ceil(nr);
    for js in 0..n_slivers {
        let b_sliver = &bpack[js * nr * kc..(js + 1) * nr * kc];
        let cols = nr.min(nc - js * nr);
        for is in 0..z.slivers {
            let rows = mr.min(mc - is * mr);
            let mut acc = [0.0; ACC_LEN];
            let mut l = 0;
            let mut t = 0;
            while l < kc {
                let kt = ZT_K.min(kc - l);
                let off = z.tile_offset(is, t);
                kernel.run_cols(
                    cols,
                    kt,
                    &apack[off..off + kt * mr],
                    &b_sliver[l * nr..],
                    &mut acc,
                );
                l += ZT_K;
                t += 1;
            }
            let r0 = ic + is * mr;
            let c0 = jc + js * nr;
            let mut tile = c.reborrow().block(r0, c0, rows, cols);
            let ldc = tile.ld();
            writeback(&acc, alpha, rows, cols, nr, tile.data_mut(), ldc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        blocked_gemm(ta, tb, alpha, a.as_ref(), b.as_ref(), beta, got.as_mut());
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

        blocked_gemm(Op::N, Op::N, 1.0, a, b, 0.0, big_c.block_mut(20, 20, m, n));
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
        blocked_gemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());

        // k == 0: C ← β·C
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 2.0);
        blocked_gemm(Op::N, Op::N, 1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut());
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
            blocked_gemm_ws(
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
        blocked_gemm_ws(
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
    fn pack_buffers_are_cache_line_aligned() {
        for kernel in Microkernel::all() {
            if !kernel.available() {
                continue;
            }
            for layout in [PackLayout::Linear, PackLayout::ZOrder] {
                let mut ws = GemmWorkspace::with_kernel(*kernel).with_layout(layout);
                let a = Matrix::random(70, 50, 1);
                let b = Matrix::random(50, 30, 2);
                let mut c = Matrix::zeros(70, 30);
                blocked_gemm_ws(
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
                    "{} {layout:?} apack",
                    kernel.name()
                );
                assert_eq!(
                    ws.bpack.as_slice().as_ptr() as usize % ALIGN,
                    0,
                    "{} {layout:?} bpack",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn zorder_layout_is_bitwise_identical_to_linear() {
        // The Z-order pack relocates tiles without changing the k
        // summation order, so results must match bit for bit — under
        // every available kernel and at ragged shapes.
        for kernel in Microkernel::all() {
            if !kernel.available() {
                continue;
            }
            for &(m, n, k) in &[(1usize, 1usize, 1usize), (37, 29, 41), (130, 70, 300)] {
                let a = Matrix::random(m, k, 80);
                let b = Matrix::random(n, k, 81); // stored transposed, used via Op::T
                let c0 = Matrix::random(m, n, 82);

                let mut lin = c0.clone();
                let mut ws_lin = GemmWorkspace::with_kernel(*kernel);
                blocked_gemm_ws(
                    Op::N,
                    Op::T,
                    1.5,
                    a.as_ref(),
                    b.as_ref(),
                    0.5,
                    lin.as_mut(),
                    &mut ws_lin,
                );

                let mut zed = c0.clone();
                let mut ws_z = GemmWorkspace::with_kernel(*kernel).with_layout(PackLayout::ZOrder);
                blocked_gemm_ws(
                    Op::N,
                    Op::T,
                    1.5,
                    a.as_ref(),
                    b.as_ref(),
                    0.5,
                    zed.as_mut(),
                    &mut ws_z,
                );

                for (i, (x, y)) in lin.as_slice().iter().zip(zed.as_slice()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{} ({m},{n},{k}) elem {i}: {x} != {y}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn custom_block_sizes_stay_correct() {
        // Deliberately awkward blocks (tiny, non-multiples of mr/nr)
        // must not change results — under both layouts.
        for &(mc, kc, nc) in &[
            (3usize, 5usize, 7usize),
            (1, 1, 1),
            (16, 8, 24),
            (128, 512, 96),
        ] {
            for layout in [PackLayout::Linear, PackLayout::ZOrder] {
                let mut ws =
                    GemmWorkspace::with_blocks(BlockSizes::new(mc, kc, nc)).with_layout(layout);
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
                blocked_gemm_ws(
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
    }

    #[test]
    fn layout_parsing_is_strict() {
        assert_eq!(parse_layout("linear"), Ok(PackLayout::Linear));
        assert_eq!(parse_layout("auto"), Ok(PackLayout::Linear));
        assert_eq!(parse_layout("ZOrder"), Ok(PackLayout::ZOrder));
        assert_eq!(parse_layout("morton"), Ok(PackLayout::ZOrder));
        assert_eq!(parse_layout(" z-order "), Ok(PackLayout::ZOrder));
        let err = parse_layout("zordr").unwrap_err();
        assert!(err.contains("linear|zorder|auto"), "{err}");
    }

    #[test]
    fn strassen_parsing_is_strict() {
        assert_eq!(parse_strassen("off"), Ok(None));
        assert_eq!(parse_strassen("0"), Ok(None));
        assert_eq!(parse_strassen("on"), Ok(Some(STRASSEN_DEFAULT_CUTOFF)));
        assert_eq!(parse_strassen("384"), Ok(Some(384)));
        assert!(parse_strassen("8").unwrap_err().contains("minimum"));
        let err = parse_strassen("always").unwrap_err();
        assert!(err.contains("off|on|<cutoff"), "{err}");
    }

    #[test]
    #[should_panic(expected = "block sizes must be positive")]
    fn zero_block_size_panics() {
        let _ = BlockSizes::new(0, 256, 512);
    }
}
