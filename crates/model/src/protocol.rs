//! Per-protocol cost functions.
//!
//! Each function reduces one data movement to a [`TransferCost`]. The
//! semantics of the fields (see [`crate::network`]):
//!
//! * completion (uncontended, blocking) = `latency + initiator_cpu +
//!   max(wire, membw)`;
//! * the initiator's CPU is additionally busy for the non-`async`
//!   fraction of the `max(wire, membw)` phase (a nonblocking caller can
//!   only hide the async part);
//! * `remote_cpu` is pure *theft* accounting — time stolen from the
//!   target rank's processor (its duration impact on the transfer itself
//!   is already folded into the effective bandwidth).

use crate::machine::Machine;
use crate::network::{membw_group, Path, TransferCost};
use crate::topology::Topology;

/// The protocols the paper measures against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ARMCI one-sided get (request + streamed reply).
    ArmciGet,
    /// MPI two-sided send/receive (half round-trip, as in the paper's
    /// bandwidth plots).
    MpiSendRecv,
    /// Intra-domain block copy (memcpy through shared memory).
    ShmCopy,
    /// Direct load/store access without any copy (the Altix flavor).
    DirectLoadStore,
}

/// One-sided RMA **get** of `bytes` from a rank in another domain.
///
/// A get is a request/reply pair, so it pays the one-way latency twice —
/// the reason the paper sees *higher* latency than MPI for short
/// messages but better bandwidth beyond (§4.1). With zero-copy the NIC
/// streams straight from the remote user buffer (initiator free after
/// issue, remote CPU untouched). Without it (IBM LAPI) the remote host
/// CPU must copy user data into DMA buffers: effective bandwidth drops
/// to the harmonic combination and the remote rank loses compute time.
pub(crate) fn rma_get(m: &Machine, bytes: usize) -> TransferCost {
    let net = &m.net;
    let b = bytes as f64;
    let (wire, remote_cpu) = if net.zero_copy {
        (b / net.rma_bandwidth, 0.0)
    } else {
        let eff_bw = 1.0 / (1.0 / net.rma_bandwidth + 1.0 / net.host_copy_bandwidth);
        (b / eff_bw, b / net.host_copy_bandwidth)
    };
    TransferCost {
        latency: 2.0 * net.rma_latency,
        initiator_cpu: net.rma_issue_overhead,
        remote_cpu,
        wire,
        membw: 0.0,
        path: Path::Network,
        // NIC-driven either way: the *initiator* is free after issue
        // (on LAPI it is the remote side that pays).
        async_fraction: 1.0,
    }
}

/// One-sided RMA **put** — single traversal, no reply to wait for
/// (completion semantics aside), hence one latency.
pub(crate) fn rma_put(m: &Machine, bytes: usize) -> TransferCost {
    let mut c = rma_get(m, bytes);
    c.latency = m.net.rma_latency;
    c
}

/// Intra-domain block fetch through shared memory (explicit memcpy by
/// the calling rank — ARMCI get within an SMP node, or the X1/Altix
/// copy-based flavor). `cross_numa` selects the remote-brick bandwidth
/// on machine-wide domains.
pub(crate) fn shm_copy(m: &Machine, bytes: usize, cross_numa: bool) -> TransferCost {
    let shm = &m.shm;
    let bw = if cross_numa {
        shm.remote_copy_bandwidth
    } else {
        shm.local_copy_bandwidth
    };
    TransferCost {
        latency: shm.latency,
        initiator_cpu: 0.0,
        remote_cpu: 0.0,
        wire: 0.0,
        membw: bytes as f64 / bw,
        path: Path::SharedMemory,
        // The initiator's own CPU performs the copy: nothing overlaps.
        async_fraction: 0.0,
    }
}

/// Which level of the memory hierarchy serves a one-sided transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// The initiator's own memory.
    Own,
    /// Another rank of the initiator's shared-memory domain.
    Domain,
    /// A rank in another domain, across the network.
    Network,
}

impl Served {
    /// The level at which `me` reaches the memory of rank `serve`
    /// under `topo`.
    pub fn of(topo: &Topology, me: usize, serve: usize) -> Served {
        if serve == me {
            Served::Own
        } else if topo.same_domain(me, serve) {
            Served::Domain
        } else {
            Served::Network
        }
    }
}

/// The uncontended price of a one-sided transfer of `bytes` between
/// `me` and the rank `serve` whose memory it touches — a get, or with
/// `put` a put or accumulate — and the level that served it: a local
/// copy from our own memory, a shared-memory copy within the domain
/// (at the remote-brick bandwidth across memory-bandwidth groups), an
/// RMA get or put across the network.
pub fn onesided(
    m: &Machine,
    topo: &Topology,
    me: usize,
    serve: usize,
    bytes: usize,
    put: bool,
) -> (TransferCost, Served) {
    let served = Served::of(topo, me, serve);
    let group = |r| membw_group(r, m.shm.membw_group_size);
    let cross = served == Served::Domain && group(me) != group(serve);
    (onesided_cost(m, served, cross, bytes, put), served)
}

/// [`onesided`]'s price once the endpoints are classified: served at
/// `served`, from another memory-bandwidth group when `cross_membw`. A
/// pure function of its arguments, so a caller may keep what it
/// returned for the same key.
pub fn onesided_cost(
    m: &Machine,
    served: Served,
    cross_membw: bool,
    bytes: usize,
    put: bool,
) -> TransferCost {
    match served {
        Served::Own => shm_copy(m, bytes, false),
        Served::Domain => shm_copy(m, bytes, cross_membw),
        Served::Network if put => rma_put(m, bytes),
        Served::Network => rma_get(m, bytes),
    }
}

/// Direct load/store access: no transfer happens at all — the cost moves
/// into the *compute* phase via [`Machine::shm`]`.direct_access_eff`.
/// Returned for uniformity (zero bytes moved ahead of time).
pub(crate) fn direct_access(m: &Machine) -> TransferCost {
    TransferCost {
        latency: m.shm.latency,
        initiator_cpu: 0.0,
        remote_cpu: 0.0,
        wire: 0.0,
        membw: 0.0,
        path: Path::SharedMemory,
        async_fraction: 0.0,
    }
}

/// Two-sided MPI message of `bytes` (cost charged to the transfer as a
/// whole; the simulator's MPI layer splits sender/receiver roles).
///
/// * `same_domain`: the message moves through shared memory (two copies
///   through a shared buffer) instead of the NIC.
/// * Above `eager_threshold` the rendezvous protocol kicks in: an extra
///   handshake round-trip, and — crucially for Figure 7 — the transfer
///   only progresses while the host is inside the MPI library
///   (`rndv_progress_fraction` is all a nonblocking caller can hide).
pub fn mpi_send_recv(m: &Machine, bytes: usize, same_domain: bool) -> TransferCost {
    let net = &m.net;
    let b = bytes as f64;
    if same_domain {
        // Intra-domain MPI: staged through the MPI library's shared
        // progress channel. Large messages still pay the rendezvous
        // handshake; everything serializes at `mpi_shm_bandwidth`
        // domain-wide (Path::ShmChannel).
        let eager = bytes <= net.eager_threshold;
        return TransferCost {
            latency: if eager {
                net.mpi_shm_latency
            } else {
                3.0 * net.mpi_shm_latency
            },
            initiator_cpu: 0.0,
            remote_cpu: 0.0,
            wire: 0.0,
            membw: b / net.mpi_shm_bandwidth,
            path: Path::ShmChannel,
            async_fraction: if eager {
                0.9
            } else {
                net.rndv_progress_fraction
            },
        };
    }
    let eager = bytes <= net.eager_threshold;
    if eager {
        // Sender copies into a system buffer, NIC streams it out, the
        // receiver copies out on match. The buffer copies are host work.
        let copies = 2.0 * b / net.host_copy_bandwidth;
        let wire = b / net.mpi_bandwidth;
        TransferCost {
            latency: net.mpi_latency,
            initiator_cpu: copies,
            remote_cpu: 0.0,
            wire,
            membw: 0.0,
            path: Path::Network,
            // Once buffered, the NIC drains the message asynchronously.
            async_fraction: 0.9,
        }
    } else {
        // Rendezvous: request-to-send / clear-to-send handshake, then a
        // transfer driven from within the MPI library. On machines
        // whose network stack is not zero-copy (IBM LAPI — and IBM MPI
        // sits on the same adapter path) *both* hosts copy through DMA
        // buffers, so the effective stream rate folds two host copies;
        // a one-sided get folds only the remote one, which is why the
        // paper's Figure 8 shows ARMCI_Get above MPI at large sizes on
        // the SP despite its higher small-message latency.
        let eff_bw = if net.zero_copy {
            net.mpi_bandwidth
        } else {
            1.0 / (1.0 / net.mpi_bandwidth + 2.0 / net.host_copy_bandwidth)
        };
        TransferCost {
            latency: 3.0 * net.mpi_latency,
            initiator_cpu: 0.0,
            remote_cpu: 0.0,
            wire: b / eff_bw,
            membw: 0.0,
            path: Path::Network,
            async_fraction: net.rndv_progress_fraction,
        }
    }
}

/// Dispatch a protocol tag to its cost (used by the analytic figures;
/// `cross` = inter-domain for network protocols / cross-NUMA for shm).
pub(crate) fn protocol_cost(
    m: &Machine,
    proto: Protocol,
    bytes: usize,
    cross: bool,
) -> TransferCost {
    match proto {
        Protocol::ArmciGet => rma_get(m, bytes),
        Protocol::MpiSendRecv => mpi_send_recv(m, bytes, !cross),
        Protocol::ShmCopy => shm_copy(m, bytes, cross),
        Protocol::DirectLoadStore => direct_access(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn get_pays_two_latencies_put_pays_one() {
        let m = Machine::linux_myrinet();
        let g = rma_get(&m, 8);
        let p = rma_put(&m, 8);
        assert!((g.latency - 2.0 * m.net.rma_latency).abs() < 1e-12);
        assert!((p.latency - m.net.rma_latency).abs() < 1e-12);
    }

    #[test]
    fn zero_copy_get_frees_both_cpus() {
        let m = Machine::linux_myrinet();
        let c = rma_get(&m, 1 << 20);
        assert_eq!(c.remote_cpu, 0.0);
        assert!(c.initiator_cpu < 2e-6);
        assert!(c.overlap_potential() > 0.95);
    }

    #[test]
    fn non_zero_copy_get_steals_remote_cpu_and_bandwidth() {
        let m = Machine::ibm_sp(); // LAPI: zero_copy = false
        let zc = rma_get(&Machine::linux_myrinet(), 1 << 20);
        let nzc = rma_get(&m, 1 << 20);
        assert!(nzc.remote_cpu > 0.0);
        // Effective bandwidth strictly below the wire rate.
        let eff_bw = (1 << 20) as f64 / nzc.wire;
        assert!(eff_bw < m.net.rma_bandwidth);
        let _ = zc;
    }

    #[test]
    fn disabling_zero_copy_slows_the_same_machine() {
        let on = Machine::linux_myrinet();
        let off = on.clone().without_zero_copy();
        let big = 1 << 20;
        assert!(
            rma_get(&off, big).blocking_time() > rma_get(&on, big).blocking_time(),
            "zero-copy must strictly help bandwidth"
        );
        assert!(rma_get(&off, big).remote_cpu > 0.0);
    }

    #[test]
    fn mpi_rendezvous_cliff_at_threshold() {
        let m = Machine::linux_myrinet();
        let below = mpi_send_recv(&m, m.net.eager_threshold, false);
        let just_above = mpi_send_recv(&m, m.net.eager_threshold + 1, false);
        let above = mpi_send_recv(&m, 8 * m.net.eager_threshold, false);
        // Overlap collapses above the eager threshold (Fig 7): latency
        // still hides a little just past the switch, then overlap sinks
        // toward the rendezvous progress fraction for larger messages.
        assert!(below.overlap_potential() > 0.4);
        assert!(just_above.overlap_potential() < below.overlap_potential());
        assert!(above.overlap_potential() < 0.15);
        // And the handshake adds latency.
        assert!(just_above.latency > below.latency);
    }

    #[test]
    fn armci_overlap_beats_mpi_for_large_messages() {
        for m in [Machine::linux_myrinet(), Machine::ibm_sp()] {
            for bytes in [64 * 1024, 1 << 20] {
                let a = rma_get(&m, bytes).overlap_potential();
                let p = mpi_send_recv(&m, bytes, false).overlap_potential();
                assert!(a > 0.9, "{:?} ARMCI overlap {a}", m.platform);
                assert!(a > p + 0.5, "{:?} ARMCI {a} vs MPI {p}", m.platform);
            }
        }
    }

    #[test]
    fn short_message_latency_mpi_wins_bandwidth_rma_wins() {
        // Paper §4.1: get involves request+reply → higher latency; but
        // RMA bandwidth is better for large messages.
        let m = Machine::linux_myrinet();
        let small = 8;
        assert!(
            rma_get(&m, small).blocking_time() > mpi_send_recv(&m, small, false).blocking_time()
        );
        let big = 1 << 22;
        assert!(rma_get(&m, big).blocking_time() < mpi_send_recv(&m, big, false).blocking_time());
    }

    #[test]
    fn shm_copy_uses_membw_not_wire() {
        let m = Machine::sgi_altix();
        let c = shm_copy(&m, 1 << 20, true);
        assert_eq!(c.wire, 0.0);
        assert!(c.membw > 0.0);
        assert_eq!(c.path, Path::SharedMemory);
        // Cross-NUMA strictly slower than local.
        assert!(shm_copy(&m, 1 << 20, true).membw > shm_copy(&m, 1 << 20, false).membw);
    }

    #[test]
    fn mpi_within_domain_goes_through_the_shm_channel() {
        let m = Machine::ibm_sp();
        let c = mpi_send_recv(&m, 32 * 1024, true);
        assert_eq!(c.path, Path::ShmChannel);
        assert_eq!(c.wire, 0.0);
        assert!(c.membw > 0.0);
        // MPI-over-shm must be slower than a raw ARMCI memcpy: the
        // paper's whole point on the shared-memory machines.
        let raw = shm_copy(&m, 32 * 1024, false);
        assert!(c.blocking_time() > raw.blocking_time());
    }

    #[test]
    fn x1_shm_far_outruns_mpi() {
        // Figure 6's headline: on the X1, load/store style copies beat
        // MPI by a wide margin at large sizes.
        let m = Machine::cray_x1();
        let bytes = 1 << 22;
        let shm_t = shm_copy(&m, bytes, true).blocking_time();
        let mpi_t = mpi_send_recv(&m, bytes, false).blocking_time();
        assert!(mpi_t > 3.0 * shm_t, "mpi {mpi_t} vs shm {shm_t}");
    }

    #[test]
    fn protocol_dispatch_matches_direct_calls() {
        let m = Machine::linux_myrinet();
        assert_eq!(
            protocol_cost(&m, Protocol::ArmciGet, 1024, true),
            rma_get(&m, 1024)
        );
        assert_eq!(
            protocol_cost(&m, Protocol::ShmCopy, 1024, false),
            shm_copy(&m, 1024, false)
        );
    }
}
