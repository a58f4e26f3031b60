//! Register-blocked micro-kernels and their runtime dispatch.
//!
//! Four micro-kernels compute an `mr × nr` tile of the product from
//! packed operand slivers (see [`crate::pack`]); the AVX-512 one also
//! from operands read where they lie, through strides (`Sliver`,
//! `Microkernel::run_strided`):
//!
//! * **scalar** (`mr = 4`, `nr = 8`) — portable Rust; the accumulator
//!   lives in a local array the compiler keeps in vector registers, and
//!   LLVM autovectorizes the 32 multiply-adds per `k` step to whatever
//!   the build target allows (SSE2 on a default `x86_64` build). This is
//!   the fallback on every architecture and the differential-test
//!   oracle for the SIMD paths.
//! * **AVX2+FMA** (`mr = 4`, `nr = 12`, [`crate::simd`]) — explicit
//!   `std::arch` intrinsics behind *runtime* feature detection: a 4×12
//!   register tiling holding twelve 256-bit accumulators (plus three
//!   B-vector and one broadcast register — exactly the sixteen `ymm`
//!   registers AVX2 offers), three loads + four broadcasts + twelve
//!   FMAs per `k` step.
//! * **AVX-512F** (`mr = 8`, `nr = 24`, [`crate::simd`]) — twenty-four
//!   512-bit accumulators (8 rows × 3 vectors of eight `f64`) plus
//!   three B-vector and one broadcast register: 28 of the 32 `zmm`
//!   registers. Three loads + eight broadcasts + twenty-four FMAs per
//!   `k` step, against one load + eight broadcasts for eight FMAs in an
//!   8×8 tile: 0.46 instead of 1.13 loads per FMA, and a third of the A
//!   bytes per flop — which is what matters once the A slivers of an
//!   `mc × kc` panel stream from L2 (the table is in [`crate::simd`]).
//!   A ragged last sliver runs a narrower instance of the same kernel
//!   ([`Microkernel::run_cols`]). Packing adapts because
//!   `pack_a`/`pack_b` take `mr`/`nr` as parameters. A small product
//!   skips them: the same kernel body reads `op(A)` and an `N` B in
//!   place ([`crate::blocked`] says when).
//! * **NEON** (`mr = 4`, `nr = 8`, `crate::simd_neon`, `aarch64`
//!   only) — sixteen 128-bit accumulators (4 rows × 4 vectors of two
//!   `f64`), four B loads + four broadcasts + sixteen FMAs per `k`
//!   step, using `vfmaq_f64`.
//!
//! Dispatch is resolved **once per process** ([`active_kernel`], cached
//! in a `OnceLock`) — never per call — and can be forced with the
//! `SRUMMA_KERNEL` environment variable (`scalar`, `avx2`, `avx512`,
//! `neon`, `auto`), which is how CI runs the whole suite once per
//! kernel flavor. Parsing is strict: an unrecognized value is a hard
//! error listing the valid names and their availability on this host
//! (a typo silently falling back to `auto` would un-test the flavor CI
//! thinks it is testing). A *recognized* kernel that this host cannot
//! run (e.g. `neon` on x86) logs the reason and falls back to
//! detection — never a panic — so one CI script can loop over every
//! flavor name on any runner.

use crate::matrix::MatMut;
use std::sync::OnceLock;

/// Micro-tile rows of the scalar, AVX2 and NEON kernels.
pub const MR: usize = 4;
/// Micro-tile rows of the AVX-512 kernel.
pub const MR_AVX512: usize = 8;
/// Largest `mr` any kernel uses.
pub(crate) const MR_MAX: usize = 8;
/// Micro-tile columns of the scalar kernel.
pub const NR: usize = 8;
/// Micro-tile columns of the AVX2 kernel.
pub const NR_AVX2: usize = 12;
/// Micro-tile columns of the AVX-512 kernel.
pub const NR_AVX512: usize = 24;
/// Micro-tile columns of the NEON kernel.
#[cfg(target_arch = "aarch64")]
pub(crate) const NR_NEON: usize = 8;
/// Largest `nr` any kernel uses.
#[cfg(test)]
const NR_MAX: usize = 24;
/// Accumulator length covering every kernel's `mr × nr` tile
/// (the largest tile is the AVX-512 kernel's 8×24 = 192).
pub const ACC_LEN: usize = 192;

/// A selectable micro-kernel implementation.
///
/// The variant fixes the register tiling (`mr × nr`) and therefore the
/// packed-sliver layout the kernel consumes; [`crate::blocked`] sizes
/// its packing to whichever kernel a [`crate::blocked::GemmWorkspace`]
/// carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Microkernel {
    /// Portable scalar/autovectorized kernel (`4 × 8`).
    Scalar,
    /// AVX2+FMA intrinsics kernel (`4 × 12`). Construct it only on
    /// hosts where [`Microkernel::available`] is true (running it
    /// elsewhere is undefined behavior); [`active_kernel`] and
    /// [`crate::blocked::GemmWorkspace`] enforce this.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F intrinsics kernel (`8 × 24`). Same availability
    /// contract as [`Microkernel::Avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON intrinsics kernel (`4 × 8`). NEON is baseline on
    /// `aarch64`, so this is always available there.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl Microkernel {
    /// Every kernel variant this *build* knows about, portable first.
    /// Callers must still check [`Microkernel::available`] before
    /// constructing a workspace around one.
    pub fn all() -> &'static [Microkernel] {
        #[cfg(target_arch = "x86_64")]
        {
            &[Microkernel::Scalar, Microkernel::Avx2, Microkernel::Avx512]
        }
        #[cfg(target_arch = "aarch64")]
        {
            &[Microkernel::Scalar, Microkernel::Neon]
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            &[Microkernel::Scalar]
        }
    }

    /// Register-tile rows.
    #[inline]
    pub fn mr(self) -> usize {
        match self {
            Microkernel::Scalar => MR,
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => MR,
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => MR_AVX512,
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => MR,
        }
    }

    /// Register-tile columns (the packed B sliver width).
    #[inline]
    pub fn nr(self) -> usize {
        match self {
            Microkernel::Scalar => NR,
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => NR_AVX2,
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => NR_AVX512,
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => NR_NEON,
        }
    }

    /// Human-readable kernel name (for bench reports and traces).
    pub fn name(self) -> &'static str {
        match self {
            Microkernel::Scalar => "scalar-4x8",
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => "avx2-4x12",
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => "avx512-8x24",
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => "neon-4x8",
        }
    }

    /// The `SRUMMA_KERNEL` value that forces this kernel.
    pub fn env_name(self) -> &'static str {
        match self {
            Microkernel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => "avx512",
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => "neon",
        }
    }

    /// Whether this kernel can run on the current host.
    pub fn available(self) -> bool {
        match self {
            Microkernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        }
    }

    /// Accumulate `a_sliver · b_sliver` into the `mr() × nr()` tile at
    /// the front of `acc` (row `r`, column `c` at `acc[r * nr() + c]`).
    ///
    /// * `a_sliver` — packed `mr × kc` sliver, element `(r, k)` at
    ///   `k * mr + r`.
    /// * `b_sliver` — packed `kc × nr` sliver, element `(k, c)` at
    ///   `k * nr + c`.
    #[inline]
    pub fn run(self, kc: usize, a_sliver: &[f64], b_sliver: &[f64], acc: &mut [f64]) {
        self.run_cols(self.nr(), kc, a_sliver, b_sliver, acc);
    }

    /// [`Self::run`] for a tile of which only the first `cols` columns
    /// are wanted (the ragged last sliver of a panel): those columns of
    /// `acc` come back exactly as `run` would leave them; the rest are
    /// unspecified — updated or untouched, as is cheapest for the
    /// kernel. The AVX-512 kernel skips the B vectors that hold no
    /// wanted column; the narrower kernels run their whole tile.
    #[inline]
    pub fn run_cols(
        self,
        cols: usize,
        kc: usize,
        a_sliver: &[f64],
        b_sliver: &[f64],
        acc: &mut [f64],
    ) {
        debug_assert!(cols <= self.nr());
        match self {
            Microkernel::Scalar => microkernel(kc, a_sliver, b_sliver, acc),
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx2 => {
                debug_assert!(self.available(), "Avx2 kernel on a non-AVX2 host");
                // SAFETY: the Avx2 variant is only constructed on hosts
                // where runtime detection confirmed avx2+fma (see the
                // variant docs); sliver/acc bounds are checked inside.
                unsafe { crate::simd::microkernel_avx2(kc, a_sliver, b_sliver, acc) }
            }
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => {
                debug_assert!(self.available(), "Avx512 kernel on a non-AVX512F host");
                // SAFETY: same contract — constructed only after
                // runtime detection confirmed avx512f.
                unsafe {
                    use crate::simd::microkernel_avx512 as kernel;
                    match cols.div_ceil(8) {
                        ..=1 => kernel::<1>(kc, a_sliver, b_sliver, acc),
                        2 => kernel::<2>(kc, a_sliver, b_sliver, acc),
                        _ => kernel::<3>(kc, a_sliver, b_sliver, acc),
                    }
                }
            }
            #[cfg(target_arch = "aarch64")]
            Microkernel::Neon => {
                debug_assert!(self.available(), "Neon kernel without NEON support");
                // SAFETY: NEON is baseline on aarch64 and detection
                // confirmed it at construction time.
                unsafe { crate::simd_neon::microkernel_neon(kc, a_sliver, b_sliver, acc) }
            }
        }
    }

    /// [`Self::run_cols`] over two [`Sliver`]s wherever they lie — an
    /// operand read in place — through their strides, B lanes always
    /// contiguous. Only the AVX-512 kernel reads through strides; packed
    /// slivers (`lane = 1`, `depth` = `mr` / `nr`) read this way give the
    /// packed kernel's values in the same order, so the same bits.
    ///
    /// # Panics
    /// Panics on any kernel but AVX-512, or on a B sliver whose lanes
    /// are not contiguous.
    #[inline]
    pub(crate) fn run_strided(
        self,
        cols: usize,
        kc: usize,
        a: Sliver<'_>,
        b: Sliver<'_>,
        acc: &mut [f64],
    ) {
        assert_eq!(b.lane, 1, "B sliver lanes must be contiguous");
        match self {
            #[cfg(target_arch = "x86_64")]
            Microkernel::Avx512 => {
                debug_assert!(self.available(), "Avx512 kernel on a non-AVX512F host");
                // SAFETY: constructed only after runtime detection
                // confirmed avx512f; sliver bounds are checked inside.
                unsafe {
                    use crate::simd::microkernel_avx512_strided as kernel;
                    let (a, b) = ((a.data, a.lane, a.depth), (b.data, b.depth));
                    match cols.div_ceil(8) {
                        ..=1 => kernel::<1>(kc, a, b, acc),
                        2 => kernel::<2>(kc, a, b, acc),
                        _ => kernel::<3>(kc, a, b, acc),
                    }
                }
            }
            _ => panic!("the {} kernel reads packed slivers only", self.name()),
        }
    }

    /// [`writeback`] of a tile this kernel produced (`acc` is `nr()`
    /// wide). A whole `mr() × nr()` tile of the AVX2 and AVX-512 kernels
    /// is summed in registers — all of its loads, then all of its stores
    /// ([`crate::simd`]); ragged edge tiles and the other kernels take
    /// the portable path. The same sums either way, bit for bit.
    #[inline]
    pub(crate) fn writeback(self, acc: &mut [f64], alpha: f64, tile: &mut MatMut<'_>) {
        #[cfg(target_arch = "x86_64")]
        if (tile.rows(), tile.cols()) == (self.mr(), self.nr()) {
            let ldc = tile.ld();
            // SAFETY: the variants are only constructed where their
            // features were detected (see the variant docs); the tile is
            // `mr × nr`, so the `mr` rows of `nr` elements the routines
            // touch are the view's own, borrowed exclusively.
            match self {
                Microkernel::Avx2 => {
                    return unsafe {
                        crate::simd::writeback_avx2(acc, alpha, tile.as_mut_ptr(), ldc)
                    }
                }
                Microkernel::Avx512 => {
                    return unsafe {
                        crate::simd::writeback_avx512(acc, alpha, tile.as_mut_ptr(), ldc)
                    }
                }
                _ => {}
            }
        }
        writeback(acc, alpha, self.nr(), tile);
    }

    /// `store` of a tile this kernel produced: `tile = alpha · acc`,
    /// with no load of C — the writeback of a product's first k-panel
    /// when `β = 0` says C need not be set. A whole tile of the AVX2 and
    /// AVX-512 kernels leaves from registers ([`crate::simd`]); the rest
    /// takes the portable path. The bits of [`Self::writeback`] onto a
    /// zero tile, but for the sign of an exact zero (`0 + (−0)` is `+0`).
    #[inline]
    pub(crate) fn store(self, acc: &[f64], alpha: f64, tile: &mut MatMut<'_>) {
        #[cfg(target_arch = "x86_64")]
        if (tile.rows(), tile.cols()) == (self.mr(), self.nr()) {
            let ldc = tile.ld();
            // SAFETY: as in `writeback`; these routines only write the
            // `mr` rows of `nr` elements.
            match self {
                Microkernel::Avx2 => {
                    return unsafe { crate::simd::store_avx2(acc, alpha, tile.as_mut_ptr(), ldc) }
                }
                Microkernel::Avx512 => {
                    return unsafe { crate::simd::store_avx512(acc, alpha, tile.as_mut_ptr(), ldc) }
                }
                _ => {}
            }
        }
        store(acc, alpha, self.nr(), tile);
    }
}

/// One operand sliver as a micro-kernel reads it: element `(x, k)` —
/// lane `x` (a row of `op(A)`, a column of `op(B)`), depth `k` — at
/// `data[x * lane + k * depth]`, and the next sliver of the same side
/// `step` values on. A packed sliver ([`crate::pack`]) is `lane = 1`,
/// `depth = w`; a row-major operand read where it lies has its leading
/// dimension in one of the two.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sliver<'a> {
    /// The values from element `(0, 0)` on.
    pub(crate) data: &'a [f64],
    /// Distance between two lanes at one depth.
    pub(crate) lane: usize,
    /// Distance between two depths of one lane.
    pub(crate) depth: usize,
    /// Distance to the next sliver.
    pub(crate) step: usize,
}

impl<'a> Sliver<'a> {
    /// Packed slivers `w` wide, `step` apart: `w · kc` in a workspace
    /// panel, `w ·` the full depth in a [`crate::pack::PackedPanel`].
    pub(crate) fn packed((data, step): (&'a [f64], usize), w: usize) -> Self {
        Self::strided(data, step, 1, w)
    }

    pub(crate) fn strided(data: &'a [f64], step: usize, lane: usize, depth: usize) -> Self {
        Sliver {
            data,
            lane,
            depth,
            step,
        }
    }

    /// The sliver `s` steps on; the micro-kernel asserts its bounds.
    pub(crate) fn nth(self, s: usize) -> Self {
        Sliver {
            data: &self.data[s * self.step..],
            ..self
        }
    }
}

/// A parsed `SRUMMA_KERNEL` request. Parsing is architecture-neutral —
/// `neon` parses fine on x86 — so one CI loop can iterate every flavor
/// name on any runner; resolution against the host happens in
/// [`detect_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KernelRequest {
    /// Detect the best available kernel (`auto`, or unset).
    Auto,
    /// `scalar` / `portable`.
    Scalar,
    /// `avx2`.
    Avx2,
    /// `avx512`.
    Avx512,
    /// `neon`.
    Neon,
    /// `simd`: the best non-scalar kernel, warn + scalar if none.
    BestSimd,
}

/// One line per valid kernel name with its availability on this host,
/// for the strict-parse error.
fn host_kernel_summary() -> String {
    let mut lines = Vec::new();
    for k in Microkernel::all() {
        lines.push(format!(
            "{} ({}): {}",
            k.env_name(),
            k.name(),
            if k.available() {
                "available"
            } else {
                "unavailable on this host"
            }
        ));
    }
    #[cfg(not(target_arch = "aarch64"))]
    lines.push("neon: not built for this architecture".to_string());
    #[cfg(not(target_arch = "x86_64"))]
    {
        lines.push("avx2: not built for this architecture".to_string());
        lines.push("avx512: not built for this architecture".to_string());
    }
    lines.join("\n  ")
}

/// Strictly parse a `SRUMMA_KERNEL` value. Unrecognized values are an
/// error (the caller hard-fails) so a typo cannot silently degrade to
/// auto-detection; the error lists every valid name and whether it can
/// run on this host.
pub(crate) fn parse_kernel_request(raw: &str) -> Result<KernelRequest, String> {
    match raw {
        "auto" => Ok(KernelRequest::Auto),
        "scalar" | "portable" => Ok(KernelRequest::Scalar),
        "avx2" => Ok(KernelRequest::Avx2),
        "avx512" => Ok(KernelRequest::Avx512),
        "neon" => Ok(KernelRequest::Neon),
        "simd" => Ok(KernelRequest::BestSimd),
        other => Err(format!(
            "invalid SRUMMA_KERNEL={other:?}: valid values are \
             scalar|avx2|avx512|neon|simd|auto\n  {}",
            host_kernel_summary()
        )),
    }
}

/// The best available kernel by static preference (widest vectors
/// first); `SRUMMA_KERNEL` exists because the static order is not
/// always the measured order (`bench_dense_gemm` prints the ladder).
fn best_available() -> Microkernel {
    #[cfg(target_arch = "x86_64")]
    {
        if Microkernel::Avx512.available() {
            return Microkernel::Avx512;
        }
        if Microkernel::Avx2.available() {
            return Microkernel::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    if Microkernel::Neon.available() {
        return Microkernel::Neon;
    }
    Microkernel::Scalar
}

/// Resolve a parsed request against this host. Recognized-but-
/// unrunnable requests (wrong architecture, missing CPU feature) log
/// why and fall back to detection — they never panic, so flavor loops
/// in CI scripts run unmodified on any runner.
fn resolve_request(req: KernelRequest) -> Microkernel {
    let fallback = |name: &str, why: &str| {
        let best = best_available();
        eprintln!("SRUMMA_KERNEL={name} skipped: {why}; using {}", best.name());
        best
    };
    match req {
        KernelRequest::Auto => best_available(),
        KernelRequest::Scalar => Microkernel::Scalar,
        KernelRequest::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if Microkernel::Avx2.available() {
                    Microkernel::Avx2
                } else {
                    fallback("avx2", "host CPU lacks avx2+fma")
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                fallback("avx2", "not an x86_64 build")
            }
        }
        KernelRequest::Avx512 => {
            #[cfg(target_arch = "x86_64")]
            {
                if Microkernel::Avx512.available() {
                    Microkernel::Avx512
                } else {
                    fallback("avx512", "host CPU lacks avx512f")
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                fallback("avx512", "not an x86_64 build")
            }
        }
        KernelRequest::Neon => {
            #[cfg(target_arch = "aarch64")]
            {
                if Microkernel::Neon.available() {
                    Microkernel::Neon
                } else {
                    fallback("neon", "host CPU lacks NEON")
                }
            }
            #[cfg(not(target_arch = "aarch64"))]
            {
                fallback("neon", "not an aarch64 build")
            }
        }
        KernelRequest::BestSimd => {
            let best = best_available();
            if best == Microkernel::Scalar {
                eprintln!("SRUMMA_KERNEL=simd: no SIMD kernel available; using scalar");
            }
            best
        }
    }
}

/// The process-wide dispatched kernel: detected once, cached forever.
///
/// Order of precedence: `SRUMMA_KERNEL` env var (strictly parsed — see
/// `parse_kernel_request`), then runtime CPU feature detection
/// preferring the widest vectors.
pub fn active_kernel() -> Microkernel {
    static ACTIVE: OnceLock<Microkernel> = OnceLock::new();
    *ACTIVE.get_or_init(detect_kernel)
}

/// One detection pass (uncached — [`active_kernel`] is the entry
/// point).
///
/// # Panics
/// Panics on an unrecognized `SRUMMA_KERNEL` value: the strict-parse
/// contract. Recognized-but-unavailable kernels fall back with a log
/// line instead.
pub(crate) fn detect_kernel() -> Microkernel {
    match std::env::var("SRUMMA_KERNEL") {
        Ok(raw) => match parse_kernel_request(&raw) {
            Ok(req) => resolve_request(req),
            Err(msg) => panic!("{msg}"),
        },
        Err(_) => best_available(),
    }
}

/// The portable scalar micro-kernel: accumulate `a_sliver · b_sliver`
/// into the `MR × NR` tile at the front of `acc`.
///
/// * `a_sliver` — packed `MR × kc` sliver, element `(r, k)` at `k*MR + r`.
/// * `b_sliver` — packed `kc × NR` sliver, element `(k, c)` at `k*NR + c`.
/// * `acc` — accumulator, element `(r, c)` at `r*NR + c`.
#[inline]
pub(crate) fn microkernel(kc: usize, a_sliver: &[f64], b_sliver: &[f64], acc: &mut [f64]) {
    debug_assert!(a_sliver.len() >= kc * MR);
    debug_assert!(b_sliver.len() >= kc * NR);
    debug_assert!(acc.len() >= MR * NR);
    for k in 0..kc {
        let a_k = &a_sliver[k * MR..k * MR + MR];
        let b_k = &b_sliver[k * NR..k * NR + NR];
        for r in 0..MR {
            let a_val = a_k[r];
            let row = &mut acc[r * NR..r * NR + NR];
            for c in 0..NR {
                row[c] += a_val * b_k[c];
            }
        }
    }
}

/// Add an accumulator tile into its tile of `C`: `tile += alpha · acc`
/// over the tile's valid (non-padded) extent. This is the portable
/// writeback path — what `Microkernel::writeback` runs for every tile
/// it has no register-resident routine for — and the oracle for those.
///
/// `acc` holds an `nr`-wide tile (element `(r, c)` at `r*nr + c`) and is
/// used up: it comes back holding the sums. `beta` is applied by the
/// caller once per whole-matrix pass (BLAS convention), so this routine
/// only accumulates; a first k-panel with `β = 0` takes `store`
/// instead.
///
/// Every element of the tile is read before the first one is written:
/// at a leading dimension that is a multiple of 512 (a C window of a
/// wide matrix), rows `r` and `r + k` of a tile share their low 12
/// address bits, and a load issued behind such a store waits for it —
/// summed and stored row by row, a tile would cost more at such an `ldc`.
#[inline]
pub fn writeback(acc: &mut [f64], alpha: f64, nr: usize, tile: &mut MatMut<'_>) {
    let (rows, cols) = (tile.rows(), tile.cols());
    debug_assert!(rows <= MR_MAX && cols <= nr);
    for r in 0..rows {
        let sums = &mut acc[r * nr..r * nr + cols];
        let old = tile.row_mut(r);
        if alpha == 1.0 {
            for (s, c) in sums.iter_mut().zip(old.iter()) {
                *s += *c;
            }
        } else {
            for (s, c) in sums.iter_mut().zip(old.iter()) {
                *s = *c + alpha * *s;
            }
        }
    }
    for r in 0..rows {
        tile.row_mut(r).copy_from_slice(&acc[r * nr..r * nr + cols]);
    }
}

/// [`writeback`] onto a tile whose old contents are not wanted:
/// `tile = alpha · acc` over the tile's valid extent, C never read —
/// the portable path of [`Microkernel::store`], and its oracle.
#[inline]
pub(crate) fn store(acc: &[f64], alpha: f64, nr: usize, tile: &mut MatMut<'_>) {
    let (rows, cols) = (tile.rows(), tile.cols());
    debug_assert!(rows <= MR_MAX && cols <= nr);
    for r in 0..rows {
        let sums = &acc[r * nr..r * nr + cols];
        let row = tile.row_mut(r);
        if alpha == 1.0 {
            row.copy_from_slice(sums);
        } else {
            for (c, s) in row.iter_mut().zip(sums) {
                *c = alpha * *s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_matches_scalar_product() {
        let kc = 5;
        // a_sliver: op(A) tile MR x kc with element (r,k) = r + 10k
        let mut a = vec![0.0; kc * MR];
        let mut b = vec![0.0; kc * NR];
        for k in 0..kc {
            for r in 0..MR {
                a[k * MR + r] = (r + 10 * k) as f64;
            }
            for c in 0..NR {
                b[k * NR + c] = (c as f64) - (k as f64);
            }
        }
        let mut acc = [0.0; MR * NR];
        microkernel(kc, &a, &b, &mut acc);
        for r in 0..MR {
            for c in 0..NR {
                let mut expect = 0.0;
                for k in 0..kc {
                    expect += ((r + 10 * k) as f64) * ((c as f64) - (k as f64));
                }
                assert_eq!(acc[r * NR + c], expect);
            }
        }
    }

    #[test]
    fn microkernel_accumulates_across_calls() {
        let a = vec![1.0; MR];
        let b = vec![1.0; NR];
        let mut acc = [0.0; MR * NR];
        microkernel(1, &a, &b, &mut acc);
        microkernel(1, &a, &b, &mut acc);
        assert!(acc.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn writeback_respects_partial_tile_and_alpha() {
        let mut acc = [0.0; MR * NR];
        for (i, v) in acc.iter_mut().enumerate() {
            *v = i as f64;
        }
        let ldc = 10;
        let mut c = vec![1.0; MR * ldc];
        let mut tile = MatMut::new(3, 5, ldc, &mut c);
        writeback(&mut acc.clone(), 2.0, NR, &mut tile);
        for r in 0..MR {
            for j in 0..ldc {
                let expect = if r < 3 && j < 5 {
                    1.0 + 2.0 * acc[r * NR + j]
                } else {
                    1.0
                };
                assert_eq!(c[r * ldc + j], expect, "r={r} j={j}");
            }
        }
    }

    #[test]
    fn writeback_handles_wide_tiles() {
        // The AVX2 (4 × 12) and AVX-512 (8 × 24) tile layouts.
        for (mr, nr) in [(MR, NR_AVX2), (MR_AVX512, NR_AVX512)] {
            let mut acc = vec![0.0; mr * nr];
            for (i, v) in acc.iter_mut().enumerate() {
                *v = i as f64;
            }
            let ldc = nr + 4;
            let mut c = vec![0.5; mr * ldc];
            writeback(
                &mut acc.clone(),
                1.0,
                nr,
                &mut MatMut::new(mr, nr, ldc, &mut c),
            );
            for r in 0..mr {
                for j in 0..ldc {
                    let expect = if j < nr { 0.5 + acc[r * nr + j] } else { 0.5 };
                    assert_eq!(c[r * ldc + j], expect, "nr={nr} r={r} j={j}");
                }
            }
        }
    }

    #[test]
    fn writeback_handles_tall_tiles() {
        // mr = 8 layout (the AVX-512 tile height), ragged extent.
        let nr = NR_AVX512;
        let mut acc = vec![0.0; MR_AVX512 * nr];
        for (i, v) in acc.iter_mut().enumerate() {
            *v = i as f64 + 1.0;
        }
        let ldc = 11;
        let mut c = vec![0.0; MR_AVX512 * ldc];
        writeback(
            &mut acc.clone(),
            1.0,
            nr,
            &mut MatMut::new(7, 5, ldc, &mut c),
        );
        for r in 0..MR_AVX512 {
            for j in 0..ldc {
                let expect = if r < 7 && j < 5 { acc[r * nr + j] } else { 0.0 };
                assert_eq!(c[r * ldc + j], expect, "r={r} j={j}");
            }
        }
    }

    /// A kernel's own writeback (whole tiles of the SIMD kernels are
    /// summed in registers) leaves the bits of the portable one, for
    /// whole and ragged tiles, `α = 1` and not, at a leading dimension
    /// that shares the low address bits of every row (512) and one that
    /// does not — and touches nothing outside the tile.
    #[test]
    fn kernel_writeback_matches_the_portable_one() {
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            let (mr, nr) = (kernel.mr(), kernel.nr());
            for (rows, cols) in [(mr, nr), (mr - 1, nr), (mr, nr - 3), (1, 1)] {
                for (alpha, ldc) in [(1.0, nr + 5), (-0.5, 512), (1.0, 512), (3.0, nr)] {
                    let mut acc = [0.0; ACC_LEN];
                    for (i, v) in acc.iter_mut().enumerate() {
                        *v = 1.0 / (i as f64 + 3.0);
                    }
                    acc[0] = f64::NAN;
                    acc[1] = -0.0;
                    let c0: Vec<f64> = (0..mr * ldc).map(|i| (i as f64).sin()).collect();
                    let (mut want, mut got) = (c0.clone(), c0);
                    writeback(
                        &mut acc.clone(),
                        alpha,
                        nr,
                        &mut MatMut::new(rows, cols, ldc, &mut want),
                    );
                    kernel.writeback(&mut acc, alpha, &mut MatMut::new(rows, cols, ldc, &mut got));
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} {rows}x{cols} alpha={alpha} ldc={ldc}",
                        kernel.name()
                    );
                }
            }
        }
    }

    /// A kernel's store into a tile of NaN leaves the bits the portable
    /// writeback leaves on a zeroed tile — whole and ragged tiles, every
    /// `α` and `ldc` above — reads nothing of the tile (a NaN read would
    /// survive) and writes nothing outside it.
    #[test]
    fn kernel_store_is_writeback_onto_zeros() {
        for &kernel in Microkernel::all().iter().filter(|k| k.available()) {
            let (mr, nr) = (kernel.mr(), kernel.nr());
            for (rows, cols) in [(mr, nr), (mr - 1, nr), (mr, nr - 3), (1, 1)] {
                for (alpha, ldc) in [(1.0, nr + 5), (-0.5, 512), (1.0, 512), (3.0, nr)] {
                    let mut acc = [0.0; ACC_LEN];
                    for (i, v) in acc.iter_mut().enumerate() {
                        *v = 1.0 / (i as f64 + 3.0) - 0.7;
                    }
                    let c0: Vec<f64> = (0..mr * ldc).map(|i| (i as f64).sin()).collect();
                    let in_tile = |i: usize| i / ldc < rows && i % ldc < cols;
                    let poisoned = |v: f64| {
                        c0.iter()
                            .enumerate()
                            .map(move |(i, &x)| if in_tile(i) { v } else { x })
                    };
                    let (mut want, mut got): (Vec<f64>, Vec<f64>) =
                        (poisoned(0.0).collect(), poisoned(f64::NAN).collect());
                    writeback(
                        &mut acc.clone(),
                        alpha,
                        nr,
                        &mut MatMut::new(rows, cols, ldc, &mut want),
                    );
                    kernel.store(&acc, alpha, &mut MatMut::new(rows, cols, ldc, &mut got));
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} {rows}x{cols} alpha={alpha} ldc={ldc}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_is_stable_and_available() {
        let k = active_kernel();
        assert!(k.available());
        assert_eq!(k, active_kernel(), "dispatch must be cached, not re-rolled");
        assert!(k.mr() <= MR_MAX);
        assert!(k.nr() <= NR_MAX);
        assert!(k.mr() * k.nr() <= ACC_LEN);
        assert!(!k.name().is_empty());
    }

    #[test]
    fn kernel_shapes() {
        assert_eq!(Microkernel::Scalar.mr(), 4);
        assert_eq!(Microkernel::Scalar.nr(), 8);
        assert!(Microkernel::Scalar.available());
        for &k in Microkernel::all() {
            assert!(
                k.mr() * k.nr() <= ACC_LEN,
                "{} tile exceeds ACC_LEN",
                k.name()
            );
            assert!(k.mr() <= MR_MAX && k.nr() <= NR_MAX);
            assert!(!k.env_name().is_empty());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_kernel_shapes() {
        assert_eq!(Microkernel::Avx2.mr(), 4);
        assert_eq!(Microkernel::Avx2.nr(), 12);
        assert_eq!(Microkernel::Avx2.name(), "avx2-4x12");
        assert_eq!(Microkernel::Avx512.mr(), 8);
        assert_eq!(Microkernel::Avx512.nr(), 24);
        assert_eq!(Microkernel::Avx512.name(), "avx512-8x24");
    }

    #[test]
    fn parse_accepts_every_valid_name() {
        assert_eq!(parse_kernel_request("auto"), Ok(KernelRequest::Auto));
        assert_eq!(parse_kernel_request("scalar"), Ok(KernelRequest::Scalar));
        assert_eq!(parse_kernel_request("portable"), Ok(KernelRequest::Scalar));
        assert_eq!(parse_kernel_request("avx2"), Ok(KernelRequest::Avx2));
        assert_eq!(parse_kernel_request("avx512"), Ok(KernelRequest::Avx512));
        assert_eq!(parse_kernel_request("neon"), Ok(KernelRequest::Neon));
        assert_eq!(parse_kernel_request("simd"), Ok(KernelRequest::BestSimd));
    }

    #[test]
    fn parse_rejects_unknown_names_with_host_summary() {
        for bad in ["avx", "AVX2", "scaler", "fast", ""] {
            let err = parse_kernel_request(bad).unwrap_err();
            assert!(err.contains("valid values"), "{bad:?}: {err}");
            assert!(err.contains("scalar"), "{bad:?}: {err}");
            assert!(err.contains("available"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn recognized_but_unavailable_requests_fall_back_not_panic() {
        // `neon` parses on every arch; resolving it off-aarch64 must
        // log + fall back. On aarch64 it resolves to the NEON kernel.
        let k = resolve_request(KernelRequest::Neon);
        assert!(k.available());
        let k = resolve_request(KernelRequest::BestSimd);
        assert!(k.available());
    }

    #[test]
    fn host_summary_names_every_flavor() {
        let s = host_kernel_summary();
        for name in ["scalar", "avx2", "avx512", "neon"] {
            assert!(s.contains(name), "summary missing {name}: {s}");
        }
    }

    #[test]
    fn run_dispatches_scalar_variant() {
        let kc = 3;
        let a = vec![1.0; kc * MR];
        let b = vec![2.0; kc * NR];
        let mut acc = [0.0; ACC_LEN];
        Microkernel::Scalar.run(kc, &a, &b, &mut acc);
        let nr = Microkernel::Scalar.nr();
        for r in 0..MR {
            for c in 0..nr {
                assert_eq!(acc[r * nr + c], 2.0 * kc as f64);
            }
        }
    }
}
