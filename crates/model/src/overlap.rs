//! Analytic communication/computation overlap potential (Figure 7).
//!
//! The paper measures, for each protocol and message size, how much of
//! the communication time a nonblocking caller can hide behind its own
//! computation ("potential degree of overlap"). ARMCI's zero-copy
//! nonblocking get approaches 99 % for medium/large messages; MPI's
//! overlap collapses above the eager threshold (16 KiB) because the
//! rendezvous protocol only makes progress inside MPI library calls —
//! the same effect reported by COMB \[38\] and White & Bova \[39\].

use crate::machine::Machine;
use crate::protocol::{protocol_cost, Protocol};

/// Fraction of a `bytes`-sized transfer's time that an ideal
/// nonblocking caller can overlap with its own computation.
pub(crate) fn overlap_potential(m: &Machine, proto: Protocol, bytes: usize) -> f64 {
    protocol_cost(m, proto, bytes, true).overlap_potential()
}

/// One row of the Figure 7 sweep.
#[derive(Clone, Copy, Debug)]
pub struct OverlapPoint {
    /// Message size in bytes.
    pub bytes: usize,
    /// ARMCI nonblocking-get overlap potential, 0..=1.
    pub armci: f64,
    /// MPI nonblocking (isend/irecv) overlap potential, 0..=1.
    pub mpi: f64,
}

/// The Figure 7 curve for one machine: overlap vs message size.
pub fn overlap_curve(m: &Machine) -> Vec<OverlapPoint> {
    (10..=20) // 1 KiB .. 1 MiB, the paper's x-range
        .map(|e| {
            let bytes = 1usize << e;
            OverlapPoint {
                bytes,
                armci: overlap_potential(m, Protocol::ArmciGet, bytes),
                mpi: overlap_potential(m, Protocol::MpiSendRecv, bytes),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armci_overlap_is_high_and_grows() {
        for m in [Machine::linux_myrinet(), Machine::ibm_sp()] {
            let curve = overlap_curve(&m);
            assert!(curve.last().unwrap().armci > 0.97, "{:?}", m.platform);
            for w in curve.windows(2) {
                assert!(w[1].armci >= w[0].armci - 1e-9);
            }
        }
    }

    #[test]
    fn mpi_overlap_collapses_above_eager_threshold() {
        let m = Machine::linux_myrinet();
        let curve = overlap_curve(&m);
        let below: Vec<_> = curve
            .iter()
            .filter(|p| p.bytes <= m.net.eager_threshold)
            .collect();
        let above: Vec<_> = curve
            .iter()
            .filter(|p| p.bytes > m.net.eager_threshold)
            .collect();
        assert!(!below.is_empty() && !above.is_empty());
        let min_below = below.iter().map(|p| p.mpi).fold(f64::MAX, f64::min);
        let max_above = above.iter().map(|p| p.mpi).fold(0.0, f64::max);
        assert!(
            min_below > max_above + 0.2,
            "no cliff: min below {min_below}, max above {max_above}"
        );
    }

    #[test]
    fn armci_beats_mpi_at_every_size_beyond_eager() {
        for m in [Machine::linux_myrinet(), Machine::ibm_sp()] {
            for p in overlap_curve(&m) {
                if p.bytes > m.net.eager_threshold {
                    // Just past the threshold the handshake latency
                    // still hides a little; the gap must widen to a
                    // chasm for large messages (the paper's ≈99% vs
                    // near-zero).
                    let margin = if p.bytes >= 8 * m.net.eager_threshold {
                        0.5
                    } else {
                        0.25
                    };
                    assert!(
                        p.armci > p.mpi + margin,
                        "{:?} at {} bytes: {} vs {}",
                        m.platform,
                        p.bytes,
                        p.armci,
                        p.mpi
                    );
                }
            }
        }
    }

    #[test]
    fn overlap_always_in_unit_interval() {
        for m in [
            Machine::linux_myrinet(),
            Machine::ibm_sp(),
            Machine::cray_x1(),
            Machine::sgi_altix(),
        ] {
            for p in overlap_curve(&m) {
                assert!((0.0..=1.0).contains(&p.armci));
                assert!((0.0..=1.0).contains(&p.mpi));
            }
        }
    }
}
