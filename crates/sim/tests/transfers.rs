//! Integration tests for transfer scheduling: contention, overlap,
//! remote-CPU theft — the mechanisms the SRUMMA paper's experiments
//! manipulate.

mod common;

use common::clocks;
use srumma_model::network::Path;
use srumma_model::{Topology, TransferCost};
use srumma_sim::{SimConfig, TransferSpec};

fn net_cost(latency: f64, wire: f64, async_fraction: f64) -> TransferCost {
    TransferCost {
        latency,
        initiator_cpu: 0.0,
        remote_cpu: 0.0,
        wire,
        membw: 0.0,
        path: Path::Network,
        async_fraction,
    }
}

fn spec(src_rank: usize, dst_rank: usize, cost: TransferCost) -> TransferSpec {
    TransferSpec {
        cost,
        src_rank,
        dst_rank,
        bytes: 1000,
        label: String::new(),
    }
}

#[test]
fn blocking_transfer_takes_latency_plus_wire() {
    // 2 nodes, 1 rank each; rank 0 gets from rank 1.
    let cfg = SimConfig::new(Topology::new(2, 1));
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, net_cost(2e-6, 10e-6, 1.0)));
            p.wait_transfer(t);
        }
    });
    assert!((res.outputs[0] - 12e-6).abs() < 1e-12);
    assert_eq!(res.outputs[1], 0.0);
    assert_eq!(res.stats.ranks[0].bytes_network, 1000);
}

#[test]
fn nonblocking_transfer_overlaps_with_compute() {
    let cfg = SimConfig::new(Topology::new(2, 1));
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, net_cost(0.0, 10e-6, 1.0)));
            p.charge_compute(10e-6, "overlapped work");
            p.wait_transfer(t); // should already be done
        }
    });
    // Total time = max(compute, transfer) = 10 µs, not 20 µs.
    assert!((res.outputs[0] - 10e-6).abs() < 1e-12);
    let s = &res.stats.ranks[0];
    assert!(s.wait_time < 1e-12, "wait_time = {}", s.wait_time);
    assert_eq!(s.overlap_fraction(), Some(1.0));
}

#[test]
fn without_compute_the_same_transfer_is_all_wait() {
    let cfg = SimConfig::new(Topology::new(2, 1));
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, net_cost(0.0, 10e-6, 1.0)));
            p.wait_transfer(t);
        }
    });
    let s = &res.stats.ranks[0];
    assert!((s.wait_time - 10e-6).abs() < 1e-12);
    assert_eq!(s.overlap_fraction(), Some(0.0));
}

#[test]
fn nic_contention_serializes_pulls_from_one_node() {
    // 4 single-rank nodes + 1 source node. Ranks 0..4 all pull from
    // rank 4 simultaneously: the source node's out-channel serializes
    // them — the exact contention SRUMMA's diagonal shift avoids.
    let cfg = SimConfig::new(Topology::new(5, 1));
    let res = clocks(cfg, |p| {
        if p.rank() < 4 {
            let t = p.issue_transfer(spec(4, p.rank(), net_cost(0.0, 1e-3, 1.0)));
            p.wait_transfer(t);
        }
    });
    let mut finish: Vec<f64> = res.outputs[..4].to_vec();
    finish.sort_by(f64::total_cmp);
    for (i, t) in finish.iter().enumerate() {
        assert!(
            (t - 1e-3 * (i + 1) as f64).abs() < 1e-9,
            "rank finished at {t}, expected {}",
            1e-3 * (i + 1) as f64
        );
    }
}

#[test]
fn pulls_from_distinct_nodes_proceed_in_parallel() {
    // Diagonal-shift pattern: each of ranks 0..4 pulls from a distinct
    // source node — no shared resource, all finish together.
    let cfg = SimConfig::new(Topology::new(8, 1));
    let res = clocks(cfg, |p| {
        if p.rank() < 4 {
            let src = 4 + p.rank();
            let t = p.issue_transfer(spec(src, p.rank(), net_cost(0.0, 1e-3, 1.0)));
            p.wait_transfer(t);
        }
    });
    for r in 0..4 {
        assert!((res.outputs[r] - 1e-3).abs() < 1e-9);
    }
}

#[test]
fn remote_cpu_theft_delays_victims_compute() {
    // Non-zero-copy get: rank 0 pulls from rank 1, stealing 5 ms of
    // rank 1's CPU; rank 1's own 10 ms of compute stretches to 15 ms.
    let cfg = SimConfig::new(Topology::new(2, 1));
    let steal = TransferCost {
        remote_cpu: 5e-3,
        ..net_cost(0.0, 1e-3, 1.0)
    };
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, steal));
            p.wait_transfer(t);
        } else {
            p.charge_compute(10e-3, "victim work");
        }
    });
    assert!(
        res.outputs[1] >= 15e-3 - 1e-9,
        "victim finished at {}, theft not applied",
        res.outputs[1]
    );
    assert!(res.stats.ranks[1].stolen_cpu_time >= 5e-3 - 1e-9);
}

#[test]
fn zero_copy_steals_nothing() {
    let cfg = SimConfig::new(Topology::new(2, 1));
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, net_cost(0.0, 1e-3, 1.0)));
            p.wait_transfer(t);
        } else {
            p.charge_compute(10e-3, "undisturbed");
        }
    });
    assert!((res.outputs[1] - 10e-3).abs() < 1e-12);
    assert_eq!(res.stats.ranks[1].stolen_cpu_time, 0.0);
}

#[test]
fn shm_transfers_share_membw_groups() {
    // One 4-rank node, membw group = whole node. Two ranks copy 1 MB
    // "simultaneously": the group's bandwidth serializes them.
    let topo = Topology::new(4, 4);
    let cfg = SimConfig {
        membw_group_size: 4,
        ..SimConfig::new(topo)
    };
    let shm = TransferCost {
        latency: 0.0,
        initiator_cpu: 0.0,
        remote_cpu: 0.0,
        wire: 0.0,
        membw: 2e-3,
        path: Path::SharedMemory,
        async_fraction: 0.0,
    };
    let res = clocks(cfg, |p| {
        if p.rank() < 2 {
            let t = p.issue_transfer(TransferSpec {
                cost: shm,
                src_rank: 2 + p.rank(),
                dst_rank: p.rank(),
                bytes: 1 << 20,
                label: String::new(),
            });
            p.wait_transfer(t);
        }
    });
    let mut t: Vec<f64> = res.outputs[..2].to_vec();
    t.sort_by(f64::total_cmp);
    assert!((t[0] - 2e-3).abs() < 1e-9);
    assert!((t[1] - 4e-3).abs() < 1e-9, "second copy must queue: {t:?}");
    assert_eq!(res.stats.total_shm_bytes(), 2 << 20);
}

#[test]
fn driven_transfer_charges_initiator() {
    // async_fraction = 0 means the initiator drives the whole wire
    // phase: no overlap is possible even if it "computes" after.
    let cfg = SimConfig::new(Topology::new(2, 1));
    let res = clocks(cfg, |p| {
        if p.rank() == 0 {
            let t = p.issue_transfer(spec(1, 0, net_cost(0.0, 10e-6, 0.0)));
            p.charge_compute(10e-6, "not actually overlapped");
            p.wait_transfer(t);
        }
    });
    // Busy issue (10 µs) then compute (10 µs): 20 µs total.
    assert!(res.outputs[0] >= 20e-6 - 1e-12, "t = {}", res.outputs[0]);
    assert!(res.stats.ranks[0].comm_busy_time >= 10e-6 - 1e-12);
}

#[test]
fn transfer_timings_are_deterministic() {
    let run = || {
        let cfg = SimConfig::new(Topology::new(6, 2));
        clocks(cfg, |p| {
            let n = p.nranks();
            let topo = p.topology();
            for step in 1..n {
                let src = (p.rank() + step) % n;
                if !topo.same_domain(p.rank(), src) {
                    let t = p.issue_transfer(spec(
                        src,
                        p.rank(),
                        net_cost(1e-6, 3e-6 * (1 + p.rank() % 3) as f64, 1.0),
                    ));
                    p.charge_compute(2e-6, "w");
                    p.wait_transfer(t);
                }
            }
        })
        .outputs
    };
    assert_eq!(run(), run());
}
