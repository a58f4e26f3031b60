//! FIFO busy-until resources.
//!
//! Every shared piece of hardware in the model — a node's NIC send/recv
//! channel, a memory-bandwidth group, a rank's CPU as seen by *other*
//! ranks — is a [`Resource`]: a single-server FIFO queue characterized
//! only by the time it next becomes free. A request arriving at `now`
//! for `dur` seconds starts at `max(now, busy_until)` and pushes
//! `busy_until` to its end. This is the standard store-and-forward
//! contention abstraction of LogGP-style simulators: cheap, determinate,
//! and enough to express the serialization the paper's diagonal-shift
//! ordering is designed to avoid.

/// A single-server FIFO resource.
#[derive(Clone, Copy, Debug, Default)]
pub struct Resource {
    busy_until: f64,
}

impl Resource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource for `dur` seconds starting no earlier than
    /// `now`. Returns `(start, end)` of the granted slot.
    pub fn acquire(&mut self, now: f64, dur: f64) -> (f64, f64) {
        debug_assert!(dur >= 0.0 && now.is_finite());
        let start = now.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        (start, end)
    }

    /// When the resource next becomes free.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }
}

/// Reserve a slot that must hold **several** resources simultaneously
/// (e.g. a network transfer occupies the source node's out-channel and
/// the destination node's in-channel for the same interval). The slot
/// starts when all of them are free and marks all of them busy to its
/// end.
pub(crate) fn acquire_joint(resources: &mut [&mut Resource], now: f64, dur: f64) -> (f64, f64) {
    let start = resources.iter().map(|r| r.busy_until).fold(now, f64::max);
    let end = start + dur;
    for r in resources.iter_mut() {
        r.busy_until = end;
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_grants_immediately() {
        let mut r = Resource::new();
        let (s, e) = r.acquire(5.0, 2.0);
        assert_eq!((s, e), (5.0, 7.0));
        assert_eq!(r.busy_until(), 7.0);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = Resource::new();
        r.acquire(0.0, 10.0);
        let (s, e) = r.acquire(1.0, 5.0); // arrives while busy
        assert_eq!((s, e), (10.0, 15.0));
        let (s2, _) = r.acquire(20.0, 1.0); // arrives after idle gap
        assert_eq!(s2, 20.0);
    }

    #[test]
    fn contention_serializes_equal_arrivals() {
        // Four ranks pulling from one node at t=0 with 1s transfers
        // finish at 1, 2, 3, 4 — the Figure 4 contention pattern.
        let mut nic = Resource::new();
        let ends: Vec<f64> = (0..4).map(|_| nic.acquire(0.0, 1.0).1).collect();
        assert_eq!(ends, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn joint_acquisition_waits_for_all() {
        let mut a = Resource::new();
        let mut b = Resource::new();
        a.acquire(0.0, 4.0); // a free at 4
        b.acquire(0.0, 1.0); // b free at 1
        let (s, e) = acquire_joint(&mut [&mut a, &mut b], 2.0, 3.0);
        assert_eq!((s, e), (4.0, 7.0));
        assert_eq!(a.busy_until(), 7.0);
        assert_eq!(b.busy_until(), 7.0);
    }

    #[test]
    fn zero_duration_acquire_is_free() {
        let mut r = Resource::new();
        let (s, e) = r.acquire(3.0, 0.0);
        assert_eq!((s, e), (3.0, 3.0));
        let (s2, _) = r.acquire(3.0, 1.0);
        assert_eq!(s2, 3.0);
    }
}
