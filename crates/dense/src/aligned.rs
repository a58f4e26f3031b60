//! Cache-line-aligned `f64` buffers for the packing workspace.
//!
//! `Vec<f64>` only guarantees 8-byte alignment, which is enough for the
//! unaligned loads the AVX2 kernel issues but leaves the AVX-512 kernel
//! (and any future aligned-load variant) straddling cache lines at the
//! start of a sliver. [`AlignedBuf`] over-allocates by one cache line
//! and hands out a slice whose first element sits on a 64-byte
//! boundary, so every packed sliver (slivers are whole multiples of
//! `mr`/`nr` elements) starts cache-line- and zmm-aligned.
//!
//! The buffer deliberately mirrors the `Vec` API surface the workspace
//! uses (`len`, `resize`-style growth, slice access) and nothing more.

/// Alignment in bytes: one x86 cache line, also the width of a zmm
/// register — the strictest alignment any kernel in [`crate::kernel`]
/// benefits from.
pub(crate) const ALIGN: usize = 64;

const ALIGN_ELEMS: usize = ALIGN / std::mem::size_of::<f64>();

/// A growable `f64` buffer whose data start is 64-byte aligned.
#[derive(Debug, Default)]
pub struct AlignedBuf {
    raw: Vec<f64>,
    /// Offset of the first aligned element within `raw`.
    off: usize,
    /// Logical length (elements) exposed to callers.
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer; no allocation until the first [`Self::grow_to`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to at least `n` elements (zero-filling new space) and
    /// re-derive the aligned offset. Never shrinks. Returns `true` when
    /// a (re)allocation actually happened, so callers can keep
    /// grow-at-most-once accounting.
    ///
    /// The allocation deliberately goes through `vec![0.0; n]` rather
    /// than `resize`: `from_elem(0.0, n)` lowers to `alloc_zeroed`, so
    /// the zero fill is untouched kernel pages, not 8-byte stores. A
    /// workspace's panels are sized for full cache blocks (≈ 1.1 MB at
    /// the default `MC`/`KC`/`NC`), so a small multiply then costs only
    /// the pages its packers actually touch — measured 6× on a 48×48
    /// multiply with 128/512/512 blocks, where eager zeroing of 16
    /// ranks' panels dwarfed the actual compute.
    pub fn grow_to(&mut self, n: usize) -> bool {
        if n <= self.len {
            return false;
        }
        self.raw = vec![0.0; n + ALIGN_ELEMS];
        let addr = self.raw.as_ptr() as usize;
        self.off = (ALIGN - (addr % ALIGN)) % ALIGN / std::mem::size_of::<f64>();
        self.len = n;
        debug_assert!(self.off + self.len <= self.raw.len());
        debug_assert_eq!(self.as_slice().as_ptr() as usize % ALIGN, 0);
        true
    }

    /// The aligned contents.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.raw[self.off..self.off + self.len]
    }

    /// The aligned contents, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.raw[self.off..self.off + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_has_no_allocation() {
        let b = AlignedBuf::new();
        assert!(b.as_slice().is_empty());
    }

    #[test]
    fn grow_aligns_to_cache_line() {
        for n in [1usize, 7, 64, 1000, 4096] {
            let mut b = AlignedBuf::new();
            assert!(b.grow_to(n));
            assert_eq!(b.as_slice().len(), n);
            assert_eq!(b.as_slice().as_ptr() as usize % ALIGN, 0, "n={n}");
            assert_eq!(b.as_mut_slice().as_ptr() as usize % ALIGN, 0, "n={n}");
            assert!(b.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn grow_is_monotone_and_reports_reallocation() {
        let mut b = AlignedBuf::new();
        assert!(b.grow_to(100));
        b.as_mut_slice()[0] = 3.5;
        // Same or smaller demand: no reallocation, contents kept.
        assert!(!b.grow_to(100));
        assert!(!b.grow_to(10));
        assert_eq!(b.as_slice().len(), 100);
        assert_eq!(b.as_slice()[0], 3.5);
        // Larger demand reallocates (contents need not survive — the
        // packers rewrite every cell they read) and stays aligned.
        assert!(b.grow_to(1000));
        assert_eq!(b.as_slice().len(), 1000);
        assert_eq!(b.as_slice().as_ptr() as usize % ALIGN, 0);
    }
}
