//! The virtual-clock plan against its references: the staging duties
//! and the task list each equal the slower build they replaced, on
//! every small shape, and the flat and staged virtual runs reproduce
//! pinned makespan bits and inter-node bytes.

use srumma_comm::dist::chunk_start;
use srumma_core::hier::{
    measure_flat_virtual, measure_hier_virtual, members_in_col, members_in_row, staging_duties,
};
use srumma_core::taskorder::{build_tasks_into, Task};
use srumma_core::{Algorithm, Backend, GemmSpec, Run, SparseMasks, SrummaOptions};
use srumma_dense::BlockMask;
use srumma_model::machine::RanksPerDomain;
use srumma_model::{Machine, ProcGrid, Topology};

/// The sort-and-dedup build the one-pass merge replaced: every
/// boundary of both partitions, sorted, each segment's panels found
/// by division.
fn sorted_bounds_tasks(k: usize, aparts: usize, bparts: usize) -> Vec<Task> {
    let mut bounds: Vec<usize> = (0..aparts).map(|i| chunk_start(k, aparts, i)).collect();
    bounds.extend((0..bparts).map(|i| chunk_start(k, bparts, i)));
    bounds.push(k);
    bounds.sort_unstable();
    bounds.dedup();
    let panel_of = |parts: usize, x: usize| {
        let (base, rem) = (k / parts, k % parts);
        if x < rem * (base + 1) {
            x / (base + 1)
        } else {
            rem + (x - rem * (base + 1)) / base.max(1)
        }
    };
    let mut tasks = Vec::new();
    for w in bounds.windows(2).filter(|w| w[1] > w[0]) {
        let (la, lb) = (panel_of(aparts, w[0]), panel_of(bparts, w[0]));
        tasks.push(Task {
            k0: w[0],
            k1: w[1],
            la,
            lb,
            k0_rel_a: w[0] - chunk_start(k, aparts, la),
            k0_rel_b: w[0] - chunk_start(k, bparts, lb),
        });
    }
    tasks
}

#[test]
fn merged_task_list_matches_sorted_bounds() {
    let mut tasks = Vec::new();
    let mut shapes = 0;
    let small = (0..300).flat_map(|k| (1..40).flat_map(move |a| (1..40).map(move |b| (k, a, b))));
    for (k, a, b) in small.chain([(4096, 64, 64), (8000, 16, 8)]) {
        build_tasks_into(&mut tasks, k, a, b);
        assert_eq!(
            tasks,
            sorted_bounds_tasks(k, a, b),
            "k={k} aparts={a} bparts={b}"
        );
        shapes += 1;
    }
    assert_eq!(shapes, 300 * 39 * 39 + 2);
}

/// The full scan `staging_duties` replaced: every elected slot of
/// the window, tested for both sides.
fn full_scan_duties(
    grid: ProcGrid,
    topo: Topology,
    me: usize,
    base: usize,
) -> (Vec<usize>, Vec<usize>) {
    let members = topo.ranks_on_node(topo.node_of(me));
    let local = (members.start - base)..(members.end - base);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut slot = me - members.start;
    while slot < grid.nranks() {
        if !topo.same_domain(me, base + slot) {
            if members_in_row(grid, local.clone(), slot / grid.q) >= 2 {
                a.push(slot);
            }
            if members_in_col(grid, local.clone(), slot % grid.q) >= 2 {
                b.push(slot);
            }
        }
        slot += members.len();
    }
    (a, b)
}

/// Duties from the group's own rows equal the full scan on every
/// grid up to 12 × 12, node width up to 16 (a ragged last node when
/// the window is alone) and one to three team windows.
#[test]
fn staging_duties_match_the_full_scan() {
    let mut cases = 0;
    for p in 1..=12 {
        for q in 1..=12 {
            let grid = ProcGrid::new(p, q);
            let window = p * q;
            for w in 1..=16 {
                for teams in 1..=3 {
                    if teams > 1 && window % w != 0 {
                        continue;
                    }
                    let topo = Topology::new(teams * window, w);
                    for base in (0..teams).map(|t| t * window) {
                        for me in base..base + window {
                            assert_eq!(
                                staging_duties(grid, topo, me, base),
                                full_scan_duties(grid, topo, me, base),
                                "grid {p}x{q} w={w} base={base} me={me}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 278_389);
}

/// The Myrinet profile on 8-way nodes: the virtual-clock crossover
/// study's machine.
fn wide_node_cluster() -> Machine {
    let mut m = Machine::linux_myrinet();
    m.ranks_per_domain = RanksPerDomain::Fixed(8);
    m
}

/// The virtual-clock runs' makespan bits and inter-node bytes, flat
/// and staged, on 8-way Myrinet nodes, on one to three workers:
/// constants recorded before the staging duties, task list and get
/// handles stopped rescanning.
#[test]
fn virtual_runs_match_the_pinned_clocks() {
    let machine = wide_node_cluster();
    let opts = SrummaOptions::default();
    for (nranks, n, flat_bits, flat_bytes, hier_bits, hier_bytes) in [
        (
            256,
            1024,
            0x3f69a2d6ea841efd_u64,
            192_937_984,
            0x3f6d434364e04e6f_u64,
            134_217_728,
        ),
        (
            1024,
            2048,
            0x3f78c29deb7f33ef,
            1_845_493_760,
            0x3f7c9bad6b294721,
            1_140_850_688,
        ),
    ] {
        let spec = GemmSpec::square(n);
        for workers in 1..=3 {
            let at = format!("at {nranks} ranks on {workers} workers");
            let flat = measure_flat_virtual(&machine, nranks, workers, &opts, &spec);
            let hier = measure_hier_virtual(&machine, nranks, workers, &opts, &spec);
            assert_eq!(flat.makespan.to_bits(), flat_bits, "flat makespan {at}");
            assert_eq!(flat.total_internode_bytes(), flat_bytes, "flat bytes {at}");
            assert_eq!(hier.makespan.to_bits(), hier_bits, "hier makespan {at}");
            assert_eq!(hier.total_internode_bytes(), hier_bytes, "hier bytes {at}");
        }
    }
}

/// Which worker claims which ranks leaks into no statistic: on 200
/// ranks (not a whole number of claimed chunks) every final clock and
/// every rank's stats, flat and staged, are the same on one, two and
/// three workers.
#[test]
fn virtual_run_stats_do_not_depend_on_the_workers() {
    let machine = wide_node_cluster();
    let (opts, spec) = (SrummaOptions::default(), GemmSpec::square(1000));
    for measure in [measure_flat_virtual, measure_hier_virtual] {
        let one = measure(&machine, 200, 1, &opts, &spec);
        assert!(one.makespan > 0.0);
        for workers in [2, 3] {
            let other = measure(&machine, 200, workers, &opts, &spec);
            assert_eq!(one.final_times, other.final_times, "{workers} workers");
            assert_eq!(one.ranks, other.ranks, "{workers} workers");
        }
    }
}

/// A worker hands each rank the task list the last one left, rebuilt
/// when a mask pruned it: masked shape-only SRUMMA on the virtual clock
/// runs and prunes, rank by rank, the tasks the simulator's ranks do,
/// on one worker and on two.
#[test]
fn a_pruned_task_list_is_not_handed_on() {
    let machine = wide_node_cluster();
    let masks = SparseMasks::new(
        BlockMask::random(8, 8, 0.6, 0xA),
        BlockMask::random(8, 8, 0.6, 0xB),
    );
    let counts = |backend| {
        let run = Run {
            masks: Some(&masks),
            ..Run::new(
                GemmSpec::square(256),
                64,
                Algorithm::srumma_default(),
                backend,
            )
        };
        let ranks = run.execute().expect("a legal plan").stats.ranks;
        ranks
            .iter()
            .map(|r| (r.tasks, r.tasks_masked))
            .collect::<Vec<_>>()
    };
    let sim = counts(Backend::Sim(&machine));
    assert!(sim.iter().any(|&(_, masked)| masked > 0));
    for workers in [1, 2] {
        let virt = counts(Backend::Virtual {
            machine: &machine,
            workers,
        });
        assert_eq!(virt, sim, "{workers} workers");
    }
}
