//! Analytic protocol bandwidth curves (Figures 6 and 8).
//!
//! The paper's Figures 6 and 8 plot achieved bandwidth against message
//! size for MPI send/recv vs ARMCI get (and, on the X1, vs raw shared
//! memory). Those are pure protocol measurements — no matmul involved —
//! so we evaluate the cost model directly instead of spinning up the
//! event simulator.

use crate::machine::Machine;
use crate::protocol::{protocol_cost, Protocol};

/// Achieved bandwidth (bytes/s) moving one `bytes`-sized message with
/// `proto` between two ranks (`cross` as in
/// [`crate::protocol::protocol_cost`]).
pub fn achieved_bandwidth(m: &Machine, proto: Protocol, bytes: usize, cross: bool) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let c = protocol_cost(m, proto, bytes, cross);
    let t = match proto {
        // Direct load/store moves the data during compute; its
        // *effective* copy bandwidth is the remote-copy stream rate the
        // hardware sustains for uncached/cached remote lines.
        Protocol::DirectLoadStore => {
            return m.shm.remote_copy_bandwidth;
        }
        _ => c.blocking_time(),
    };
    bytes as f64 / t
}

/// A standard sweep of message sizes, 8 B … 4 MiB, powers of two — the
/// x-axis used by the paper's bandwidth plots.
pub fn standard_sizes() -> Vec<usize> {
    (3..=22).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_monotone_within_each_protocol_regime() {
        // Real MPI bandwidth curves dip once at the eager→rendezvous
        // switch (the handshake latency kicks in); within each regime
        // the curve must rise with message size.
        for m in [
            Machine::linux_myrinet(),
            Machine::ibm_sp(),
            Machine::cray_x1(),
        ] {
            for proto in [Protocol::ArmciGet, Protocol::MpiSendRecv] {
                let sizes = standard_sizes();
                for w in sizes.windows(2) {
                    let crosses_threshold = proto == Protocol::MpiSendRecv
                        && w[0] <= m.net.eager_threshold
                        && w[1] > m.net.eager_threshold;
                    if crosses_threshold {
                        continue;
                    }
                    let [lo, hi] =
                        [w[0], w[1]].map(|bytes| achieved_bandwidth(&m, proto, bytes, true));
                    assert!(
                        hi >= lo * 0.99,
                        "{proto:?} on {:?} not monotone: {lo} -> {hi}",
                        m.platform
                    );
                }
            }
        }
    }

    #[test]
    fn asymptote_approaches_wire_rate() {
        let m = Machine::linux_myrinet();
        let bw = achieved_bandwidth(&m, Protocol::ArmciGet, 4 << 20, true);
        assert!(bw > 0.9 * m.net.rma_bandwidth);
        assert!(bw <= m.net.rma_bandwidth);
    }

    #[test]
    fn crossover_mpi_first_rma_later() {
        // Figure 8's shape: MPI wins at small messages (lower latency),
        // ARMCI get wins from the mid-range on.
        let m = Machine::linux_myrinet();
        let small = 64;
        assert!(
            achieved_bandwidth(&m, Protocol::MpiSendRecv, small, true)
                > achieved_bandwidth(&m, Protocol::ArmciGet, small, true)
        );
        let big = 1 << 20;
        assert!(
            achieved_bandwidth(&m, Protocol::ArmciGet, big, true)
                > achieved_bandwidth(&m, Protocol::MpiSendRecv, big, true)
        );
    }

    #[test]
    fn x1_shm_dominates_mpi_everywhere_beyond_small() {
        let m = Machine::cray_x1();
        for bytes in [4096, 1 << 16, 1 << 20, 4 << 20] {
            assert!(
                achieved_bandwidth(&m, Protocol::ShmCopy, bytes, true)
                    > achieved_bandwidth(&m, Protocol::MpiSendRecv, bytes, true),
                "shm should beat MPI at {bytes}"
            );
        }
    }

    #[test]
    fn standard_sizes_span_the_paper_axis() {
        let s = standard_sizes();
        assert_eq!(*s.first().unwrap(), 8);
        assert_eq!(*s.last().unwrap(), 4 << 20);
    }

    #[test]
    fn zero_bytes_bandwidth_is_zero() {
        let m = Machine::linux_myrinet();
        assert_eq!(achieved_bandwidth(&m, Protocol::ArmciGet, 0, true), 0.0);
    }
}
