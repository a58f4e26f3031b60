//! The shared-memory discipline, checked.
//!
//! ARMCI's collective allocator returns, to every process, the addresses
//! of *all* processes' segments, so that intra-node peers can load/store
//! each other's data directly. Here every [`crate::DistMatrix`] that
//! holds elements is such memory: one row-major window that every rank
//! thread reaches by pointer — a matrix the caller lends, or an
//! allocation the `DistMatrix` owns — and a rank's block is a sub-window
//! of it.
//!
//! Rust cannot statically check cross-thread aliasing through a window
//! shared that way, so the discipline is the matrix-multiplication
//! contract the paper relies on:
//!
//! * operand matrices (A, B) are **read-only** during an operation;
//! * each C block is written **only by its owner** ("owner computes");
//! * operations are separated by barriers.
//!
//! Every block access goes through an [`AccessChecker`] that counts
//! concurrent readers/writers of the block and panics on a read/write or
//! write/write overlap — a tiny race detector for the discipline itself.

use std::sync::atomic::{AtomicI32, Ordering};

/// Access conflict detector for one block of a window: a counter that
/// is positive while readers hold the block and `-1` while a writer
/// does.
pub(crate) struct AccessChecker {
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
    /// Panics if a writer holds the block.
    pub(crate) fn read(&self) -> ReadHeld<'_> {
        let prev = self.state.fetch_add(1, Ordering::AcqRel);
        assert!(
            prev >= 0,
            "access discipline violation: read of a block under write"
        );
        ReadHeld(self)
    }

    /// Enter as the writer until the token drops.
    ///
    /// # Panics
    /// Panics if anyone holds the block.
    pub(crate) fn write(&self) -> WriteHeld<'_> {
        let prev = self
            .state
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire);
        assert!(
            prev.is_ok(),
            "access discipline violation: write of a block under access"
        );
        WriteHeld(self)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_reads_are_fine() {
        let checker = AccessChecker::new();
        let r1 = checker.read();
        let _r2 = checker.read();
        drop(r1);
        let _r3 = checker.read();
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn write_under_read_is_caught() {
        let checker = AccessChecker::new();
        let _r = checker.read();
        let _w = checker.write();
    }

    #[test]
    #[should_panic(expected = "discipline violation")]
    fn read_under_write_is_caught() {
        let checker = AccessChecker::new();
        let _w = checker.write();
        let _r = checker.read();
    }

    /// Each block has its own checker, and a released one is free again.
    #[test]
    fn distinct_regions_do_not_conflict() {
        let (c0, c1) = (AccessChecker::new(), AccessChecker::new());
        let (_w0, w1) = (c0.write(), c1.write());
        drop(w1);
        let _r1 = c1.read();
    }
}
