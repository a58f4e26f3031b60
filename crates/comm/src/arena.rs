//! The shared arena — our `ARMCI_Malloc`.
//!
//! ARMCI's collective allocator returns, to every process, the addresses
//! of *all* processes' segments, so that intra-node peers can load/store
//! each other's data directly. Here the "segments" are ranges of one
//! large `f64` allocation shared by all rank threads.
//!
//! ## Safety discipline
//!
//! Rust cannot statically check cross-thread aliasing through a shared
//! arena, so the discipline is the matrix-multiplication contract the
//! paper relies on (and that tests enforce dynamically in debug builds):
//!
//! * operand matrices (A, B) are **read-only** during an operation;
//! * each C block is written **only by its owner** ("owner computes");
//! * operations are separated by barriers.
//!
//! Debug builds wire every access through an epoch checker
//! ([`AccessChecker`]) that counts concurrent readers/writers per
//! region and panics on a read/write or write/write overlap — a tiny
//! race detector for the discipline itself.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// A shared, fixed-size `f64` arena accessible from every rank thread.
pub struct SharedArena {
    data: UnsafeCell<Box<[f64]>>,
    /// One reader/writer counter per region (region granularity is
    /// chosen by the allocator: one region per rank block).
    checkers: Vec<AccessChecker>,
    /// Region table: `(offset, len)` per region id.
    regions: Vec<(usize, usize)>,
}

// SAFETY: all aliasing is governed by the documented discipline; debug
// builds verify it dynamically. The arena itself is just bytes.
unsafe impl Sync for SharedArena {}
unsafe impl Send for SharedArena {}

impl SharedArena {
    /// Collectively allocate an arena with the given region layout
    /// (`regions[i] = length of region i`, in elements). Regions are
    /// laid out contiguously. Returns the arena and each region's
    /// starting offset.
    pub fn new(region_lens: &[usize]) -> (Arc<Self>, Vec<usize>) {
        let total: usize = region_lens.iter().sum();
        let mut offsets = Vec::with_capacity(region_lens.len());
        let mut acc = 0;
        for &len in region_lens {
            offsets.push(acc);
            acc += len;
        }
        let regions = offsets
            .iter()
            .zip(region_lens)
            .map(|(&o, &l)| (o, l))
            .collect();
        let arena = Arc::new(SharedArena {
            data: UnsafeCell::new(vec![0.0; total].into_boxed_slice()),
            checkers: region_lens.iter().map(|_| AccessChecker::new()).collect(),
            regions,
        });
        (arena, offsets)
    }

    /// Total length in elements.
    pub fn len(&self) -> usize {
        unsafe { (&*self.data.get()).len() }
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of regions.
    pub fn nregions(&self) -> usize {
        self.regions.len()
    }

    /// `(offset, len)` of region `id`.
    pub fn region(&self, id: usize) -> (usize, usize) {
        self.regions[id]
    }

    /// Immutable view of region `id`.
    ///
    /// # Safety
    /// Caller must uphold the arena discipline: no concurrent mutable
    /// access to this region. Debug builds verify dynamically.
    pub unsafe fn region_slice(&self, id: usize) -> &[f64] {
        let (off, len) = self.regions[id];
        debug_assert!(
            self.checkers[id].would_allow_read(),
            "region {id} is being written"
        );
        let data = unsafe { &*self.data.get() };
        &data[off..off + len]
    }

    /// Mutable view of region `id`.
    ///
    /// # Safety
    /// Caller must uphold the arena discipline: this region must not be
    /// accessed by any other thread for the lifetime of the returned
    /// slice. Debug builds verify dynamically.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn region_slice_mut(&self, id: usize) -> &mut [f64] {
        let (off, len) = self.regions[id];
        debug_assert!(
            self.checkers[id].would_allow_write(),
            "region {id} is being accessed"
        );
        let data = unsafe { &mut *self.data.get() };
        &mut data[off..off + len]
    }

    /// RAII-guarded read access (used by the debug checker paths).
    pub fn read_guard(&self, id: usize) -> ReadGuard<'_> {
        let _held = self.checkers[id].read();
        ReadGuard {
            arena: self,
            id,
            _held,
        }
    }

    /// RAII-guarded write access.
    pub fn write_guard(&self, id: usize) -> WriteGuard<'_> {
        let _held = self.checkers[id].write();
        WriteGuard {
            arena: self,
            id,
            _held,
        }
    }
}

/// Access conflict detector for one region — an arena region, or one
/// rank's block of a host matrix distributed in place
/// ([`crate::DistMatrix::with_host_views_mut`]): a counter that is
/// positive while readers hold the region and `-1` while a writer does.
pub struct AccessChecker {
    state: AtomicI32,
}

impl AccessChecker {
    pub(crate) fn new() -> Self {
        AccessChecker {
            state: AtomicI32::new(0),
        }
    }

    /// Enter as a reader until the token drops.
    ///
    /// # Panics
    /// Panics if a writer holds the region.
    pub(crate) fn read(&self) -> ReadHeld<'_> {
        let prev = self.state.fetch_add(1, Ordering::AcqRel);
        assert!(
            prev >= 0,
            "arena discipline violation: read of a region under write"
        );
        ReadHeld(self)
    }

    /// Enter as the writer until the token drops.
    ///
    /// # Panics
    /// Panics if anyone holds the region.
    pub(crate) fn write(&self) -> WriteHeld<'_> {
        let prev = self
            .state
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            prev.is_ok(),
            "arena discipline violation: write of a region under access"
        );
        WriteHeld(self)
    }

    fn would_allow_read(&self) -> bool {
        self.state.load(Ordering::Acquire) >= 0
    }

    fn would_allow_write(&self) -> bool {
        let s = self.state.load(Ordering::Acquire);
        s == 0 || s == -1 // -1: our own guard already holds it
    }
}

/// A reader's entry in an [`AccessChecker`], left on drop.
pub(crate) struct ReadHeld<'a>(&'a AccessChecker);

impl Drop for ReadHeld<'_> {
    fn drop(&mut self) {
        self.0.state.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The writer's entry in an [`AccessChecker`], left on drop.
pub(crate) struct WriteHeld<'a>(&'a AccessChecker);

impl Drop for WriteHeld<'_> {
    fn drop(&mut self) {
        self.0.state.store(0, Ordering::Release);
    }
}

/// Guard proving read access to a region.
pub struct ReadGuard<'a> {
    arena: &'a SharedArena,
    id: usize,
    _held: ReadHeld<'a>,
}

impl ReadGuard<'_> {
    /// The protected slice.
    pub fn slice(&self) -> &[f64] {
        // SAFETY: the guard holds the read count.
        unsafe { self.arena.region_slice(self.id) }
    }
}

/// Guard proving exclusive write access to a region.
pub struct WriteGuard<'a> {
    arena: &'a SharedArena,
    id: usize,
    _held: WriteHeld<'a>,
}

impl WriteGuard<'_> {
    /// The protected slice.
    pub fn slice_mut(&mut self) -> &mut [f64] {
        // SAFETY: the guard holds exclusive access.
        unsafe { self.arena.region_slice_mut(self.id) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        let (arena, offsets) = SharedArena::new(&[3, 5, 2]);
        assert_eq!(offsets, vec![0, 3, 8]);
        assert_eq!(arena.len(), 10);
        assert_eq!(arena.nregions(), 3);
        assert_eq!(arena.region(1), (3, 5));
    }

    #[test]
    fn writes_are_visible_to_reads() {
        let (arena, _) = SharedArena::new(&[4, 4]);
        {
            let mut w = arena.write_guard(0);
            w.slice_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        }
        let r = arena.read_guard(0);
        assert_eq!(r.slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concurrent_reads_are_fine() {
        let (arena, _) = SharedArena::new(&[4]);
        let r1 = arena.read_guard(0);
        let r2 = arena.read_guard(0);
        assert_eq!(r1.slice().len(), 4);
        assert_eq!(r2.slice().len(), 4);
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn write_under_read_is_caught() {
        let (arena, _) = SharedArena::new(&[4]);
        let _r = arena.read_guard(0);
        let _w = arena.write_guard(0);
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn read_under_write_is_caught() {
        let (arena, _) = SharedArena::new(&[4]);
        let _w = arena.write_guard(0);
        let _r = arena.read_guard(0);
    }

    #[test]
    fn distinct_regions_do_not_conflict() {
        let (arena, _) = SharedArena::new(&[4, 4]);
        let _w0 = arena.write_guard(0);
        let _w1 = arena.write_guard(1);
        let (_, len) = arena.region(1);
        assert_eq!(len, 4);
    }

    #[test]
    fn cross_thread_visibility() {
        let (arena, _) = SharedArena::new(&[8]);
        std::thread::scope(|s| {
            let a = Arc::clone(&arena);
            s.spawn(move || {
                let mut w = a.write_guard(0);
                for (i, v) in w.slice_mut().iter_mut().enumerate() {
                    *v = i as f64;
                }
            })
            .join()
            .unwrap();
        });
        let r = arena.read_guard(0);
        assert_eq!(r.slice()[7], 7.0);
    }

    #[test]
    fn empty_arena() {
        let (arena, offsets) = SharedArena::new(&[]);
        assert!(arena.is_empty());
        assert!(offsets.is_empty());
    }
}
