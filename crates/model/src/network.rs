//! Raw model parameters and the universal transfer-cost decomposition.
//!
//! Every protocol in [`crate::protocol`] reduces a data movement of `S`
//! bytes to a [`TransferCost`]: which *resources* are occupied for how
//! long, plus pure pipeline latency that occupies nothing. The
//! discrete-event simulator schedules these occupancies on FIFO
//! resources; the analytic figures sum them directly.

/// Inter-node network parameters (the RMA/MPI path through the NIC).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetParams {
    /// One-way small-message latency of the native RMA protocol (s).
    /// A *get* pays this twice (request + reply), which is why the paper
    /// observes higher get latency than MPI send/recv for short messages.
    pub rma_latency: f64,
    /// Wire bandwidth available to a single RMA stream (bytes/s).
    pub rma_bandwidth: f64,
    /// One-way MPI send/recv latency (s).
    pub mpi_latency: f64,
    /// Wire bandwidth of the MPI path (bytes/s). Often a bit below the
    /// RMA path because of protocol overheads (packetization, matching).
    pub mpi_bandwidth: f64,
    /// MPI eager→rendezvous switch point (bytes). The paper measures the
    /// overlap collapse at 16 KiB on its clusters.
    pub eager_threshold: usize,
    /// Whether the RMA implementation is zero-copy (NIC moves user
    /// buffers directly: Myrinet GM yes, IBM LAPI no). When `false`, the
    /// *remote host CPU* spends `bytes / host_copy_bandwidth` feeding the
    /// NIC, stealing cycles from whatever that rank was computing.
    pub zero_copy: bool,
    /// Host memory-copy bandwidth used for protocol copies
    /// (user↔DMA buffers), bytes/s.
    pub host_copy_bandwidth: f64,
    /// CPU time the initiator spends to issue one nonblocking RMA op (s);
    /// the remainder of a zero-copy transfer is NIC-driven.
    pub rma_issue_overhead: f64,
    /// Fraction of a *rendezvous* MPI transfer that can progress without
    /// the host re-entering the MPI library. Near zero for the
    /// single-threaded 2004-era MPIs measured in the paper (and in COMB
    /// [38] / White & Bova [39]).
    pub rndv_progress_fraction: f64,
    /// Effective throughput of MPI *within* a shared-memory domain
    /// (bytes/s). This is **not** the hardware memcpy rate: 2004-era
    /// MPIs funneled intra-domain traffic through a shared progress
    /// engine / staging-buffer pool, so the whole domain's MPI traffic
    /// serializes at roughly this rate — the mechanism behind
    /// ScaLAPACK's collapse on the Altix and X1 in Figure 10 (and the
    /// shm-vs-MPI gap of Figure 6). SRUMMA's direct load/store and
    /// ARMCI memcpys bypass it entirely.
    pub mpi_shm_bandwidth: f64,
    /// Latency of an intra-domain MPI message (s).
    pub mpi_shm_latency: f64,
    /// Parallel progress channels for intra-domain MPI traffic. The
    /// 2004 SGI MPT funneled everything through one engine (1); the
    /// Cray X1 ran one per node module. Domain aggregate MPI
    /// throughput = `mpi_shm_bandwidth × mpi_shm_channels`.
    pub mpi_shm_channels: usize,
    /// Independent NIC planes per node (Colony had two). A single
    /// message still moves at the per-stream rates above; the planes
    /// multiply the node's aggregate injection/ejection throughput.
    pub nic_channels: usize,
}

/// Shared-memory (intra-domain) parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShmParams {
    /// Latency to initiate an intra-domain block copy (s): essentially a
    /// couple of cache misses plus address arithmetic.
    pub latency: f64,
    /// memcpy bandwidth achieved by one rank copying within its own
    /// node's memory (bytes/s).
    pub local_copy_bandwidth: f64,
    /// memcpy bandwidth when the source lives on a *different* physical
    /// node of a NUMA shared-memory machine (Altix NUMAlink, X1
    /// inter-node load/store). Equal to `local_copy_bandwidth` on a
    /// cluster (where "remote" never goes through shm anyway).
    pub remote_copy_bandwidth: f64,
    /// Aggregate memory bandwidth of one membw-sharing group (bytes/s).
    /// Concurrent copies/compute within a group share this. This is what
    /// makes N=12000 on 128 Altix CPUs stop scaling in Figure 10.
    pub group_mem_bandwidth: f64,
    /// Number of ranks sharing one memory-bandwidth group (Altix brick:
    /// 2; X1 node: 4; SP node: 16; Xeon node: 2).
    pub membw_group_size: usize,
    /// Whether remote shared memory is cacheable (SGI Altix: yes; Cray
    /// X1: no, its coherency protocol forbids caching remote lines).
    pub cacheable_remote: bool,
    /// Multiplier on serial-dgemm efficiency when the kernel reads its
    /// operands *directly* from remote shared memory instead of a local
    /// copy. ≈1 slightly below 1 when remote lines are cacheable
    /// (Altix); ≪1 when every access goes to the network uncached (X1).
    pub direct_access_eff: f64,
}

/// The memory-bandwidth group (NUMA brick) `rank` belongs to when
/// groups are `group_size` consecutive ranks
/// ([`ShmParams::membw_group_size`]): the one grouping the simulator's
/// bandwidth resources and every one-sided price ([`crate::protocol::onesided`])
/// agree on.
pub fn membw_group(rank: usize, group_size: usize) -> usize {
    rank / group_size.max(1)
}

/// Per-processor compute parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuParams {
    /// Peak double-precision FLOP/s of one processor.
    pub peak_flops: f64,
    /// Serial dgemm efficiency surface (see [`srumma_dense::EffModel`]).
    pub eff: srumma_dense::EffModel,
}

impl CpuParams {
    /// Modeled wall time of a serial `m × n × k` dgemm on this CPU.
    pub fn gemm_time(&self, m: usize, n: usize, k: usize) -> f64 {
        self.eff.time(self.peak_flops, m, n, k)
    }
}

/// Where the bytes of a transfer flow, for resource accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Path {
    /// Within one shared-memory domain: consumes memory bandwidth of
    /// the groups involved, no NIC. (The default for zero-value costs.)
    #[default]
    SharedMemory,
    /// Between domains: consumes NIC channels on both ends.
    Network,
    /// Intra-domain MPI traffic: serializes on the domain's single MPI
    /// progress channel (see [`NetParams::mpi_shm_bandwidth`]) instead
    /// of the raw memory system.
    ShmChannel,
}

/// The universal decomposition of one data movement.
///
/// All times in seconds for the *uncontended* case; the simulator
/// stretches occupancies when resources are shared.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferCost {
    /// Pure pipeline latency: delays completion, occupies nothing.
    pub latency: f64,
    /// Occupancy of the initiator's CPU (protocol processing, copies the
    /// initiator performs itself). The initiator cannot compute during
    /// this time even for a "nonblocking" operation.
    pub initiator_cpu: f64,
    /// Occupancy of the *target host's* CPU (non-zero-copy protocols
    /// interrupt the remote processor to copy data).
    pub remote_cpu: f64,
    /// Occupancy of the wire / NIC channels (bytes ÷ bandwidth). Zero
    /// for intra-domain movements.
    pub wire: f64,
    /// Occupancy of memory-bandwidth groups (intra-domain copies and the
    /// local end of protocol copies).
    pub membw: f64,
    /// Which fabric the bytes traverse.
    pub path: Path,
    /// Fraction of the non-initiator part that proceeds without the
    /// initiator re-entering the communication library (drives how much
    /// a *nonblocking* version can overlap).
    pub async_fraction: f64,
}

impl TransferCost {
    /// Total uncontended completion time as seen by a *blocking* caller.
    pub fn blocking_time(&self) -> f64 {
        self.latency + self.initiator_cpu + self.wire.max(self.membw)
    }

    /// Time the initiator is necessarily busy even when nonblocking
    /// (issue overhead, its own copies, and the non-asynchronous part of
    /// the transfer it must drive).
    pub fn initiator_busy_time(&self) -> f64 {
        let driven = (1.0 - self.async_fraction) * self.wire.max(self.membw);
        self.initiator_cpu + driven
    }

    /// Idealized overlappable fraction: what a perfect nonblocking user
    /// can hide, `1 − busy/total` (the quantity Figure 7 plots).
    pub(crate) fn overlap_potential(&self) -> f64 {
        let total = self.blocking_time();
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.initiator_busy_time() / total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(latency: f64, icpu: f64, wire: f64, af: f64) -> TransferCost {
        TransferCost {
            latency,
            initiator_cpu: icpu,
            remote_cpu: 0.0,
            wire,
            membw: 0.0,
            path: Path::Network,
            async_fraction: af,
        }
    }

    #[test]
    fn blocking_time_sums_components() {
        let c = cost(1e-6, 2e-6, 10e-6, 1.0);
        assert!((c.blocking_time() - 13e-6).abs() < 1e-12);
    }

    #[test]
    fn fully_async_transfer_overlaps_almost_everything() {
        let c = cost(1e-6, 0.1e-6, 100e-6, 1.0);
        assert!(c.overlap_potential() > 0.99);
    }

    #[test]
    fn non_async_transfer_overlaps_nothing_but_latency() {
        let c = cost(1e-6, 0.0, 100e-6, 0.0);
        // Initiator must drive the whole wire time; only latency hides.
        assert!(c.overlap_potential() < 0.02);
    }

    #[test]
    fn overlap_bounded() {
        for af in [0.0, 0.3, 0.9, 1.0] {
            for icpu in [0.0, 5e-6, 50e-6] {
                let c = cost(1e-6, icpu, 20e-6, af);
                let o = c.overlap_potential();
                assert!((0.0..=1.0).contains(&o), "overlap {o} out of range");
            }
        }
    }

    #[test]
    fn membw_and_wire_do_not_double_count() {
        // A shm transfer has membw occupancy but no wire; blocking time
        // must use max, not sum.
        let c = TransferCost {
            latency: 0.0,
            initiator_cpu: 0.0,
            remote_cpu: 0.0,
            wire: 0.0,
            membw: 7e-6,
            path: Path::SharedMemory,
            async_fraction: 0.0,
        };
        assert!((c.blocking_time() - 7e-6).abs() < 1e-15);
    }

    #[test]
    fn cpu_gemm_time_positive() {
        let cpu = CpuParams {
            peak_flops: 4.8e9,
            eff: srumma_dense::EffModel::microprocessor(),
        };
        let t = cpu.gemm_time(500, 500, 500);
        assert!(t > 2.0 * 500f64.powi(3) / 4.8e9); // below peak
        assert!(t < 10.0 * 2.0 * 500f64.powi(3) / 4.8e9);
    }
}
