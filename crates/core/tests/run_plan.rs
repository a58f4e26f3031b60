//! `Run::validate`: every way a plan can be illegal is a typed
//! `RunError` variant, decided before any matrix is allocated or any
//! thread is started. And, at the end, two legal plans named for how
//! the executor hosts them, and the differentials that say distributing
//! the host matrices in place — the operands read where they lie, the
//! product written where the caller reads it — changed nothing a rank
//! can observe.

use srumma_comm::{
    drive, exec_launch, sim_run_programs, Comm, CostMap, DistMatrix, FaultPlan, FaultPlanError,
    SimOptions,
};
use srumma_core::driver::{default_grid, serial_reference, sparse_serial_reference};
use srumma_core::layout::{
    dist_a, dist_b, fresh_c, scatter_operands, set_a_mask, set_b_mask, with_host_operands,
};
use srumma_core::{
    parallel_gemm, Algorithm, Backend, GemmProgram, GemmSpec, HierStageSet, RankReport,
    ReplicationFactor, Run, RunError, ShmemFlavor, SparseMasks, SrummaOptions, SrummaProgram,
    SummaOptions,
};
use srumma_dense::{max_abs_diff, BlockMask, Matrix, Op};
use srumma_model::machine::RanksPerDomain;
use srumma_model::{Machine, Topology};
use srumma_trace::RunStats;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn operands(spec: &GemmSpec) -> (Matrix, Matrix) {
    (
        Matrix::random(spec.m, spec.k, 1),
        Matrix::random(spec.k, spec.n, 2),
    )
}

/// A legal plain plan on `backend` to break one field at a time.
fn plain<'a>(backend: Backend<'a>, ab: &'a (Matrix, Matrix)) -> Run<'a> {
    let spec = GemmSpec::new(Op::N, Op::N, 12, 10, 14);
    Run {
        operands: Some((&ab.0, &ab.1)),
        ..Run::new(spec, 8, Algorithm::srumma_default(), backend)
    }
}

#[test]
fn a_plain_plan_is_legal_on_every_backend() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let machine = Machine::linux_myrinet();
    for backend in [
        Backend::Threads,
        Backend::Exec { workers: 2 },
        Backend::Sim(&machine),
    ] {
        assert_eq!(plain(backend, &ab).validate(), Ok(()));
    }
    let shape_only = Run {
        operands: None,
        ..plain(Backend::Sim(&machine), &ab)
    };
    assert_eq!(shape_only.validate(), Ok(()));
    let backend = Backend::Virtual {
        machine: &machine,
        workers: 2,
    };
    assert_eq!(
        Run {
            backend,
            ..shape_only
        }
        .validate(),
        Ok(())
    );
}

#[test]
fn zero_ranks() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let run = Run {
        nranks: 0,
        ..plain(Backend::Threads, &ab)
    };
    assert_eq!(run.validate(), Err(RunError::NoRanks));
}

#[test]
fn operand_and_mask_shapes() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let run = plain(Backend::Threads, &ab);
    // A is 12 x 14: passing it as B (which must be 14 x 10) is caught.
    let swapped = Run {
        operands: Some((&ab.0, &ab.0)),
        ..run
    };
    assert_eq!(
        swapped.validate(),
        Err(RunError::Shape {
            what: "B",
            want: (14, 10),
            got: (12, 14)
        })
    );
    // 8 ranks are a 2 x 4 grid; a 4 x 2 mask is for another grid.
    let grid = default_grid(8);
    let masks = SparseMasks::a_only(BlockMask::full(grid.q, grid.p));
    let masked = Run {
        masks: Some(&masks),
        ..run
    };
    assert_eq!(
        masked.validate(),
        Err(RunError::Shape {
            what: "mask A",
            want: (2, 4),
            got: (4, 2)
        })
    );
}

#[test]
fn fault_plans_that_do_not_fit() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let run = plain(Backend::Exec { workers: 2 }, &ab);
    let sized_for_four = FaultPlan::single_straggler(4, 0, 2.0);
    let faults = |plan| Run {
        faults: Some(plan),
        ..run
    };
    assert_eq!(
        faults(&sized_for_four).validate(),
        Err(RunError::Faults(FaultPlanError::RankCount {
            plan: 4,
            run: 8
        }))
    );
    let dead_rank_8 = FaultPlan::healthy().with_death(8, 0);
    assert_eq!(
        faults(&dead_rank_8).validate(),
        Err(RunError::Faults(FaultPlanError::DeadRank {
            rank: 8,
            nranks: 8
        }))
    );
    // The same death on the executor is a legal plan.
    let dead_rank_3 = FaultPlan::healthy().with_death(3, 1);
    assert_eq!(faults(&dead_rank_3).validate(), Ok(()));
}

/// An infinite slowdown factor or spike is refused by `validate()`, and
/// by `execute()` before any rank runs: on the simulator either would
/// reach the kernel as an infinite transfer cost and panic there.
#[test]
fn infinite_delays_are_refused_on_every_clock() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let inf_factor = FaultPlan::single_straggler(8, 1, f64::INFINITY);
    let inf_spike = FaultPlan::healthy().with_get_spikes(0.5, f64::INFINITY);
    let machine = Machine::linux_myrinet();
    for backend in [Backend::Sim(&machine), Backend::Exec { workers: 2 }] {
        for (plan, want) in [
            (&inf_factor, FaultPlanError::SlowFactor { rank: 1 }),
            (&inf_spike, FaultPlanError::SpikeSeconds),
        ] {
            let run = Run {
                faults: Some(plan),
                ..plain(backend, &ab)
            };
            let want = RunError::Faults(want);
            assert_eq!(run.validate(), Err(want), "{backend:?}");
            let got = catch_unwind(AssertUnwindSafe(|| run.execute().err()));
            assert_eq!(got.ok().flatten(), Some(want), "{backend:?}");
        }
    }
}

/// Death is a scheduling event only the executor implements — and the
/// refusal comes from `validate()`, before anything is allocated: ten
/// thousand rank threads (or a 100 x 100 grid of blocks) would be
/// noticed.
#[test]
fn death_off_the_executor_is_refused_before_any_thread_starts() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let plan = FaultPlan::healthy().with_death(1, 0);
    let machine = Machine::linux_myrinet();
    for backend in [Backend::Threads, Backend::Sim(&machine)] {
        let run = Run {
            nranks: 10_000,
            faults: Some(&plan),
            ..plain(backend, &ab)
        };
        let t0 = std::time::Instant::now();
        assert_eq!(
            run.execute().err(),
            Some(RunError::Faults(FaultPlanError::DeathNeedsExecutor))
        );
        assert!(
            t0.elapsed().as_secs_f64() < 0.5,
            "the refusal did real work"
        );
    }
}

#[test]
fn node_groups_that_do_not_tile() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let run = plain(Backend::Threads, &ab);
    // Nodes of 3 cannot tile 8 ranks for staging ...
    let staged = Run {
        ranks_per_node: Some(3),
        hier: true,
        ..run
    };
    let window_of = |window| {
        Err(RunError::NodeGroups {
            window,
            ranks_per_node: 3,
        })
    };
    assert_eq!(staged.validate(), window_of(8));
    // ... though a flat run under that topology is fine.
    assert_eq!(
        Run {
            hier: false,
            ..staged
        }
        .validate(),
        Ok(())
    );
    // On the simulator the node width is the machine's.
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(3);
    let on_sim = Run {
        backend: Backend::Sim(&machine),
        ranks_per_node: None,
        ..staged
    };
    assert_eq!(on_sim.validate(), window_of(8));
    // Replica teams are the staging windows: in one shared-memory
    // domain of 8, two teams of 4 are not whole nodes.
    let teams = Run {
        ranks_per_node: None,
        hier: true,
        replication: ReplicationFactor::Fixed(2),
        ..run
    };
    assert_eq!(
        teams.validate(),
        Err(RunError::NodeGroups {
            window: 4,
            ranks_per_node: 8
        })
    );
}

#[test]
fn inadmissible_replication_factor() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let run = Run {
        ranks_per_node: Some(4),
        ..plain(Backend::Threads, &ab)
    };
    let fixed = |c| Run {
        replication: ReplicationFactor::Fixed(c),
        ..run
    };
    let refused = |c| {
        Err(RunError::Replication {
            c,
            nranks: 8,
            ranks_per_node: 4,
            k: 14,
        })
    };
    assert_eq!(fixed(3).validate(), refused(3)); // does not divide 8
    assert_eq!(fixed(4).validate(), refused(4)); // teams of 2 split 4-rank nodes
    assert_eq!(fixed(0).validate(), refused(0));
    assert_eq!(fixed(2).validate(), Ok(()));
    // Auto never fails: it falls back to c = 1.
    let auto = Run {
        replication: ReplicationFactor::Auto { budget_bytes: 0 },
        ..run
    };
    assert_eq!(auto.execute().map(|out| out.replication), Ok(1));
}

/// Field combinations no code path can honour are `Unsupported`, never
/// a silently ignored field — and the answer is the same every time.
#[test]
fn unsupported_combinations() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let machine = Machine::linux_myrinet();
    let grid = default_grid(8);
    let masks = SparseMasks::a_only(BlockMask::full(grid.p, grid.q));
    let death = FaultPlan::healthy().with_death(1, 0);
    let stragglers = FaultPlan::random_stragglers(7, 8);
    let threads = plain(Backend::Threads, &ab);
    let exec = plain(Backend::Exec { workers: 2 }, &ab);
    let sim = plain(Backend::Sim(&machine), &ab);
    let virt = Run {
        operands: None,
        backend: Backend::Virtual {
            machine: &machine,
            workers: 2,
        },
        ..sim
    };
    let summa = Algorithm::Summa(SummaOptions::default());
    let plans = [
        // What the backend needs.
        Run {
            operands: None,
            ..threads
        },
        Run {
            ranks_per_node: Some(2),
            ..sim
        },
        Run {
            ranks_per_node: Some(0),
            ..threads
        },
        // SRUMMA schedules on the baselines.
        Run {
            algorithm: summa,
            masks: Some(&masks),
            ..threads
        },
        Run {
            algorithm: summa,
            hier: true,
            ..threads
        },
        Run {
            algorithm: Algorithm::Cannon,
            replication: ReplicationFactor::Fixed(2),
            ..threads
        },
        // Cannon's own preconditions: 8 ranks are 2 x 4.
        Run {
            algorithm: Algorithm::Cannon,
            ..threads
        },
        Run {
            algorithm: Algorithm::Cannon,
            nranks: 4,
            spec: GemmSpec::new(Op::T, Op::N, 12, 10, 14),
            ..sim
        },
        // The virtual-clock backend.
        Run {
            operands: threads.operands,
            ..virt
        },
        Run {
            algorithm: summa,
            ..virt
        },
        Run {
            trace: true,
            ..virt
        },
        Run {
            faults: Some(&stragglers),
            ..virt
        },
        // Masks on replica teams; death beyond the flat SRUMMA machine.
        Run {
            masks: Some(&masks),
            replication: ReplicationFactor::Fixed(2),
            ..threads
        },
        Run {
            faults: Some(&death),
            hier: true,
            ..exec
        },
        Run {
            faults: Some(&death),
            replication: ReplicationFactor::Fixed(2),
            ..exec
        },
        Run {
            faults: Some(&death),
            algorithm: summa,
            ..exec
        },
    ];
    for (i, run) in plans.iter().enumerate() {
        let first = run.validate();
        assert!(
            matches!(first, Err(RunError::Unsupported(_))),
            "plan {i}: {first:?}"
        );
        assert_eq!(run.validate(), first, "plan {i}: unstable answer");
        assert_eq!(run.execute().err(), first.err(), "plan {i}");
    }
}

/// A SUMMA panel of width 0 would cut no k-segment at all: every backend
/// refuses the plan before a rank starts, rather than a rank panicking.
#[test]
fn a_zero_width_summa_panel_is_refused_on_every_backend() {
    let ab = operands(&GemmSpec::new(Op::N, Op::N, 12, 10, 14));
    let machine = Machine::linux_myrinet();
    let summa = Algorithm::Summa(SummaOptions {
        panel_nb: Some(0),
        ..SummaOptions::default()
    });
    let virt = Backend::Virtual {
        machine: &machine,
        workers: 2,
    };
    for backend in [
        Backend::Threads,
        Backend::Exec { workers: 2 },
        Backend::Sim(&machine),
        virt,
    ] {
        let run = Run {
            algorithm: summa,
            operands: (!matches!(backend, Backend::Virtual { .. })).then_some((&ab.0, &ab.1)),
            ..plain(backend, &ab)
        };
        let err = run.validate();
        assert!(
            matches!(err, Err(RunError::Unsupported(_))),
            "{backend:?}: {err:?}"
        );
        assert_eq!(run.execute().err(), err.err(), "{backend:?}");
    }
}

// ---- how the executor hosts the one SRUMMA program -------------------

/// Entries in −4..=4: every partial sum is exact in f64, so any schedule
/// must produce the serial product bit for bit.
fn int_operands(spec: &GemmSpec) -> (Matrix, Matrix) {
    let mut rng = srumma_dense::Rng::new(17);
    let mut int = |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.below(9) as f64 - 4.0);
    (int(spec.m, spec.k), int(spec.k, spec.n))
}

/// Staged SRUMMA on one executor worker. Nodes of 2 are half a row of
/// the 2 x 4 (team) grid, so every rank has panels to stage.
fn staged_on_one_worker<'a>(spec: GemmSpec, ab: &'a (Matrix, Matrix), nranks: usize) -> Run<'a> {
    let backend = Backend::Exec { workers: 1 };
    Run {
        operands: Some((&ab.0, &ab.1)),
        ranks_per_node: Some(2),
        hier: true,
        ..Run::new(spec, nranks, Algorithm::srumma_default(), backend)
    }
}

/// Under a death-free fault plan it is the polled program on an
/// `ExecComm` that applies the plan: eight ranks and their staging
/// fences on one thread. What each rank staged and ran is what the thread-per-rank
/// host of the same program reports.
#[test]
fn staged_srumma_with_stragglers_is_polled_on_one_worker() {
    let spec = GemmSpec::new(Op::N, Op::N, 23, 19, 29);
    let ab = int_operands(&spec);
    let plan = FaultPlan::random_stragglers(7, 8).with_get_spikes(0.25, 1e-4);
    let on_exec = Run {
        faults: Some(&plan),
        ..staged_on_one_worker(spec, &ab, 8)
    };
    let exec = on_exec.execute().unwrap();
    let threads = Run {
        backend: Backend::Threads,
        ..on_exec
    }
    .execute()
    .unwrap();
    let want = serial_reference(&spec, &ab.0, &ab.1);
    assert_eq!(max_abs_diff(&exec.c.unwrap(), &want), 0.0);
    assert_eq!(exec.reports, threads.reports);
    assert!(exec.reports.iter().all(|r| r.staged_panels > 0));
    assert!(exec.reports.iter().all(|r| r.srumma.unwrap().tasks > 0));
}

/// In two replica teams it is a blocking body: sixteen permit-gated
/// threads, each driving the program through a `SubComm`, taking turns
/// on one permit — the split fence of a blocking rank must give the
/// permit back rather than report `false`.
#[test]
fn staged_replica_teams_drive_the_program_from_gated_threads_on_one_worker() {
    let spec = GemmSpec::new(Op::N, Op::N, 23, 19, 29);
    let ab = int_operands(&spec);
    let out = Run {
        replication: ReplicationFactor::Fixed(2),
        ..staged_on_one_worker(spec, &ab, 16)
    }
    .execute()
    .unwrap();
    assert_eq!(out.replication, 2);
    let want = serial_reference(&spec, &ab.0, &ab.1);
    assert_eq!(max_abs_diff(&out.c.unwrap(), &want), 0.0);
    let teams: Vec<usize> = out.reports.iter().map(|r| r.team).collect();
    assert_eq!(teams, [[0; 8], [1; 8]].concat());
    assert!(out.reports.iter().all(|r| r.staged_panels > 0));
}

// ---- host operands in place ≡ operands scattered into arenas ---------

/// `run`'s rank program — flat or staged SRUMMA, SUMMA, Cannon — driven
/// by hand over distributed matrices the caller built, on `run`'s backend
/// and topology.
fn launch_over(
    run: &Run,
    spec: &GemmSpec,
    (da, db, dc): (&DistMatrix, &DistMatrix, &DistMatrix),
) -> (Vec<RankReport>, RunStats) {
    let grid = default_grid(run.nranks);
    let topo = match run.backend {
        Backend::Sim(machine) => machine.topology(run.nranks),
        _ => Topology::new(run.nranks, run.ranks_per_node.unwrap_or(run.nranks)),
    };
    let stages = run
        .hier
        .then(|| HierStageSet::create(spec, grid, topo, true));
    fn body<C: Comm>(
        comm: &mut C,
        run: &Run,
        spec: &GemmSpec,
        (da, db, dc): (&DistMatrix, &DistMatrix, &DistMatrix),
        stages: Option<&HierStageSet>,
    ) -> RankReport {
        match &run.algorithm {
            Algorithm::Srumma(opts) => {
                drive(comm, SrummaProgram::new(spec, da, db, dc, opts, stages))
            }
            other => RankReport {
                srumma: parallel_gemm(comm, other, spec, da, db, dc),
                ..RankReport::default()
            },
        }
    }
    let (mats, stages) = ((da, db, dc), stages.as_ref());
    match run.backend {
        Backend::Sim(machine) => {
            let sim = SimOptions::new(machine.clone(), run.nranks);
            let res = match &run.algorithm {
                Algorithm::Srumma(opts) => {
                    sim_run_programs(&sim, |_| SrummaProgram::new(spec, da, db, dc, opts, stages))
                }
                other => sim_run_programs(&sim, |_| GemmProgram::new(other, spec, da, db, dc)),
            };
            (res.outputs, res.stats)
        }
        Backend::Threads => {
            let body = |comm: &mut _| body(comm, run, spec, mats, stages);
            let res = exec_launch(run.nranks, run.nranks, false, Some(topo), None, body);
            (res.outputs, res.stats)
        }
        Backend::Exec { workers } => {
            let body = |comm: &mut _| body(comm, run, spec, mats, stages);
            let res = exec_launch(run.nranks, workers, false, Some(topo), None, body);
            (res.outputs, res.stats)
        }
        Backend::Virtual { .. } => panic!("the virtual clock moves no data"),
    }
}

/// What `run` computes when both operands are copied into arenas first
/// (`dist_a`/`dist_b` + `scatter_operands`, the form every caller that
/// owns its distributed matrices uses), C is an arena gathered afterwards,
/// and the same rank program is driven over those, masks attached.
fn over_scattered_arenas(run: &Run) -> (Matrix, Vec<RankReport>, RunStats) {
    let grid = default_grid(run.nranks);
    let (a, b) = run.operands.expect("a differential over real data");
    let (mut da, mut db) = (dist_a(&run.spec, grid, true), dist_b(&run.spec, grid, true));
    let (spec, dc) = fresh_c(&run.spec, grid, true);
    scatter_operands(&spec, &da, &db, a, b);
    if let Some(masks) = run.masks {
        set_a_mask(&spec, &mut da, masks.a.clone().expect("both masked"));
        set_b_mask(&spec, &mut db, masks.b.clone().expect("both masked"));
    }
    let (reports, stats) = launch_over(run, &spec, (&da, &db, &dc));
    (dc.gather(), reports, stats)
}

/// The eight traffic counters of one rank.
fn traffic(r: &srumma_trace::RankStats) -> [u64; 8] {
    [
        r.bytes_network,
        r.bytes_shm,
        r.bytes_direct,
        r.transfers,
        r.bytes_internode,
        r.bytes_intragroup,
        r.tasks,
        r.tasks_masked,
    ]
}

/// `run` through [`Run::execute`] against the same plan driven by hand
/// (`by_hand`): the same C to the bit, the same per-rank reports, the same
/// traffic counter by counter, and under the simulator the same makespan
/// to the bit (model time is charged from block bytes, never from layout).
fn assert_indistinguishable(
    run: &Run,
    by_hand: impl FnOnce(&Run) -> (Matrix, Vec<RankReport>, RunStats),
    what: &str,
) {
    let out = run.execute().unwrap_or_else(|e| panic!("{what}: {e}"));
    let (c, reports, stats) = by_hand(run);
    assert_eq!(out.c.unwrap().as_slice(), c.as_slice(), "{what}: C");
    assert_eq!(out.reports, reports, "{what}: reports");
    assert_eq!(out.stats.ranks.len(), run.nranks, "{what}");
    for (rank, (v, s)) in out.stats.ranks.iter().zip(&stats.ranks).enumerate() {
        assert_eq!(traffic(v), traffic(s), "{what}: traffic of rank {rank}");
    }
    if matches!(run.backend, Backend::Sim(_)) {
        let (v, s) = (out.stats.makespan, stats.makespan);
        assert_eq!(v.to_bits(), s.to_bits(), "{what}: makespan {v} vs {s}");
    }
}

/// `f` on every plan of the 144-plan grid: NN/NT/TN/TT × every
/// shared-memory flavour × flat/staged × dense/masked × `Sim`/`Threads`/
/// `Exec`, SRUMMA on 8 ranks in nodes of 2, shapes by turns, operands
/// from `make`.
fn for_each_srumma_plan(make: fn(&GemmSpec) -> (Matrix, Matrix), f: impl Fn(&Run, &str)) {
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(2);
    let nranks = 8;
    let grid = default_grid(nranks);
    let masks = SparseMasks::new(
        BlockMask::random(grid.p, grid.q, 0.6, 0xA),
        BlockMask::random(grid.p, grid.q, 0.7, 0xB),
    );
    // Uneven blocks; fewer rows than grid rows' worth of k; a 1-row C
    // (more grid rows than C rows: the second row of tiles is empty).
    let shapes = [(23, 19, 29), (9, 31, 5), (1, 12, 17)];
    let mut case = 0;
    for (ta, tb) in [
        (Op::N, Op::N),
        (Op::N, Op::T),
        (Op::T, Op::N),
        (Op::T, Op::T),
    ] {
        for shmem in [
            ShmemFlavor::Auto,
            ShmemFlavor::ForceCopy,
            ShmemFlavor::ForceDirect,
        ] {
            for (hier, masked) in [(false, false), (false, true), (true, false), (true, true)] {
                let (m, n, k) = shapes[case % shapes.len()];
                case += 1;
                let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(2.0, 0.0);
                let ab = make(&spec);
                let algorithm = Algorithm::Srumma(SrummaOptions {
                    shmem,
                    ..SrummaOptions::default()
                });
                for backend in [
                    Backend::Sim(&machine),
                    Backend::Threads,
                    Backend::Exec { workers: 2 },
                ] {
                    let on_sim = matches!(backend, Backend::Sim(_));
                    let run = Run {
                        operands: Some((&ab.0, &ab.1)),
                        masks: masked.then_some(&masks),
                        ranks_per_node: (!on_sim).then_some(2),
                        hier,
                        ..Run::new(spec, nranks, algorithm, backend)
                    };
                    let what =
                        format!("{spec:?} {shmem:?} hier={hier} masked={masked} {backend:?}");
                    f(&run, &what);
                }
            }
        }
    }
}

/// On every plan of the grid: `Run` reads both operands through views of
/// the caller's matrices, whatever their stored orientation, and copies
/// none — and no rank can tell. On small integers (exact in any order)
/// over the whole grid; then, on the three quarters with a stored-`T`
/// operand, on random ones, where only equal panels give equal bits: the
/// `N` packer over the caller's window must build what the `T` packer
/// built from the transposed arena. Likewise under SUMMA, whose owners
/// broadcast row-major copies of their blocks.
#[test]
fn operands_in_place_are_indistinguishable_from_scattered_copies() {
    for_each_srumma_plan(int_operands, |run, what| {
        assert_indistinguishable(run, over_scattered_arenas, what)
    });
    for_each_srumma_plan(operands, |run, what| {
        if (run.spec.transa, run.spec.transb) != (Op::N, Op::N) {
            assert_indistinguishable(run, over_scattered_arenas, what)
        }
    });

    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(2);
    let spec = GemmSpec::new(Op::T, Op::N, 23, 19, 29).with_scalars(2.0, 0.0);
    let ab = operands(&spec);
    let summa = Algorithm::Summa(SummaOptions::default());
    for backend in [Backend::Sim(&machine), Backend::Threads] {
        let run = Run {
            operands: Some((&ab.0, &ab.1)),
            ..Run::new(spec, 8, summa, backend)
        };
        assert_indistinguishable(
            &run,
            over_scattered_arenas,
            &format!("SUMMA TN {backend:?}"),
        );
    }
}

/// A replica team reads its `k`-window `a[:, K_l]` of a stored-`T`
/// operand in place too. Two teams of four on random operands: the
/// product is, bit for bit, team 0's partial plus team 1's, each computed
/// flat on four ranks over stored-`T` arenas scattered from a copy of the
/// team's slice.
#[test]
fn a_replica_team_reads_its_k_window_of_a_stored_t_operand_in_place() {
    let spec = GemmSpec::new(Op::T, Op::N, 23, 19, 61).with_scalars(2.0, 0.0);
    let ab = operands(&spec);
    let backend = Backend::Threads;
    let replicated = Run {
        operands: Some((&ab.0, &ab.1)),
        replication: ReplicationFactor::Fixed(2),
        ..Run::new(spec, 8, Algorithm::srumma_default(), backend)
    };
    let got = replicated.execute().unwrap().c.unwrap();

    let partial = |k0: usize, kl: usize| {
        let slice = (
            ab.0.block(0, k0, spec.m, kl).to_matrix(),
            ab.1.block(k0, 0, kl, spec.n).to_matrix(),
        );
        let team = Run {
            operands: Some((&slice.0, &slice.1)),
            ..Run::new(
                GemmSpec { k: kl, ..spec },
                4,
                Algorithm::srumma_default(),
                backend,
            )
        };
        over_scattered_arenas(&team).0
    };
    let (c0, c1) = (partial(0, 31), partial(31, 30));
    let want: Vec<f64> = c0
        .as_slice()
        .iter()
        .zip(c1.as_slice())
        .map(|(x, y)| x + y)
        .collect();
    assert_eq!(got.as_slice(), want.as_slice());
}

// ---- C written in place ≡ a C arena, gathered ------------------------

/// What `run` computes when the ranks write C into an arena of its own
/// that is gathered afterwards (`fresh_c` + `gather`, what `Run` did
/// before it lent them the product itself), the operands distributed as
/// `Run` distributes them and the spec the one that call hands back.
fn over_a_gathered_arena(run: &Run) -> (Matrix, Vec<RankReport>, RunStats) {
    let grid = default_grid(run.nranks);
    let (a, b) = run.operands.expect("a differential over real data");
    let (spec, dc) = fresh_c(&run.spec, grid, true);
    let masks = run
        .masks
        .map_or((None, None), |m| (m.a.as_ref(), m.b.as_ref()));
    let (ab, id) = (Some((a.as_ref(), b.as_ref())), CostMap::Identity);
    let (reports, stats) = with_host_operands(&spec, grid, ab, masks, id, |spec, da, db| {
        launch_over(run, spec, (da, db, &dc))
    });
    (dc.gather(), reports, stats)
}

/// `Run` allocates the product once and lends it to the ranks as C: each
/// owner fills and accumulates its tile where the caller will read it,
/// at the product's leading dimension, beside the tiles of its
/// neighbours. No rank and no bit can tell it from a C arena gathered
/// afterwards — on the whole plan grid, under SUMMA and Cannon, and on
/// shapes whose tiles are ragged (`m`, `n` no multiple of `p`, `q`),
/// empty (fewer C rows or columns than grid rows or columns) or all in
/// one row (a `1 × q` grid; `default_grid` makes no `p × 1` one — the
/// window tests of `dist.rs` do).
#[test]
fn c_in_place_is_indistinguishable_from_a_gathered_arena() {
    for_each_srumma_plan(int_operands, |run, what| {
        assert_indistinguishable(run, over_a_gathered_arena, what)
    });

    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(2);
    let summa = Algorithm::Summa(SummaOptions::default());
    // (nranks, m, n, k): 2 x 4 ragged, 2 x 4 with one C row and three C
    // columns, 1 x 5, 1 x 7 with fewer columns than ranks, 3 x 3, 2 x 2.
    let shapes = [
        (8, 23, 19, 29),
        (8, 1, 3, 17),
        (5, 11, 13, 7),
        (7, 4, 5, 9),
        (9, 10, 11, 12),
        (4, 7, 9, 5),
    ];
    for (nranks, m, n, k) in shapes {
        let grid = default_grid(nranks);
        for (ta, tb) in [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)] {
            let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(-1.5, 0.0);
            let ab = int_operands(&spec);
            let cannon =
                (grid.p == grid.q && (ta, tb) == (Op::N, Op::N)).then_some(Algorithm::Cannon);
            for algorithm in [Some(Algorithm::srumma_default()), Some(summa), cannon] {
                let Some(algorithm) = algorithm else { continue };
                for backend in [
                    Backend::Sim(&machine),
                    Backend::Threads,
                    Backend::Exec { workers: 2 },
                ] {
                    let run = Run {
                        operands: Some((&ab.0, &ab.1)),
                        ..Run::new(spec, nranks, algorithm, backend)
                    };
                    let what = format!("{spec:?} on {nranks} ranks {algorithm:?} {backend:?}");
                    assert_indistinguishable(&run, over_a_gathered_arena, &what);
                    // `serial_reference` is the plain product; every entry
                    // is a small integer, so scaling it is exact.
                    let mut want = serial_reference(&spec, &ab.0, &ab.1);
                    want.as_mut().scale(spec.alpha);
                    let got = run.execute().unwrap().c.unwrap();
                    assert_eq!(got.as_slice(), want.as_slice(), "{what}: vs serial");
                }
            }
        }
    }
}

/// A rank that dies holds the write handle of its tile of the product;
/// the handle moves with the rest of its machine to the survivor, which
/// finishes the tile in place: the recovered product is the healthy one
/// and the gathered arena's, bit for bit.
#[test]
fn a_tile_of_the_product_changes_hands_when_its_rank_dies() {
    let spec = GemmSpec::new(Op::N, Op::T, 23, 19, 700);
    let ab = operands(&spec);
    let healthy = Run {
        operands: Some((&ab.0, &ab.1)),
        ..Run::new(
            spec,
            8,
            Algorithm::srumma_default(),
            Backend::Exec { workers: 2 },
        )
    };
    let plan = FaultPlan::healthy().with_death(5, 1);
    let recovered = Run {
        faults: Some(&plan),
        ..healthy
    }
    .execute()
    .unwrap();
    assert!(
        recovered.stats.total_tasks_reexecuted() > 0,
        "nobody adopted the dead rank's machine"
    );
    let recovered = recovered.c.unwrap();
    let (arena, ..) = over_a_gathered_arena(&healthy);
    assert_eq!(recovered.as_slice(), arena.as_slice(), "recovered vs arena");
    let healthy = healthy.execute().unwrap().c.unwrap();
    assert_eq!(
        recovered.as_slice(),
        healthy.as_slice(),
        "recovered vs healthy"
    );
}

// ---- a fetched panel lands packed ≡ a block read in place ------------

/// Under the copy flavour a fetched block lands in its pipeline slot
/// already in sliver order, at full depth, and every task that uses it
/// multiplies a k-range of that panel; under the direct flavour the
/// kernel packs the same k-range of the owner's block itself. No rank
/// and no bit can tell: on a 2 x 3 grid with `k` = 1800 the A panels are
/// 600 deep and the B panels 900, so the merged segments are
/// 600/300/300/600 — segments longer than `KC`, segments that start
/// inside a panel on either side, panels used by two tasks — and
/// `ForceCopy` equals `ForceDirect` bit for bit on random operands, and
/// the serial reference bit for bit on small-integer ones (every partial
/// sum exact), for all four transposes, on `Sim`, `Threads` and `Exec`;
/// in one domain (every block fetched, or every block direct) and in
/// nodes of 2 (a task with one fetched and one direct operand), masked,
/// and staged through the node groups.
#[test]
fn fetched_panels_multiply_to_the_bits_of_blocks_read_in_place() {
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(2);
    let nranks = 6;
    let grid = default_grid(nranks);
    assert_eq!((grid.p, grid.q), (2, 3));
    let masks = SparseMasks::new(
        BlockMask::random(grid.p, grid.q, 0.7, 0xC),
        BlockMask::random(grid.p, grid.q, 0.7, 0xD),
    );
    for (ta, tb) in [
        (Op::N, Op::N),
        (Op::N, Op::T),
        (Op::T, Op::N),
        (Op::T, Op::T),
    ] {
        let spec = GemmSpec::new(ta, tb, 41, 37, 1800);
        let (floats, ints) = (operands(&spec), int_operands(&spec));
        for (grouped, masked, hier) in [
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, false, true),
            (true, true, true),
        ] {
            for backend in [
                Backend::Sim(&machine),
                Backend::Threads,
                Backend::Exec { workers: 2 },
            ] {
                let on_sim = matches!(backend, Backend::Sim(_));
                if on_sim && !grouped {
                    continue; // the machine fixes its own domains
                }
                let what = format!(
                    "{ta:?}{tb:?} grouped={grouped} masked={masked} hier={hier} {backend:?}"
                );
                let c = |shmem, ab: &(Matrix, Matrix)| {
                    let algorithm = Algorithm::Srumma(SrummaOptions {
                        shmem,
                        ..SrummaOptions::default()
                    });
                    let run = Run {
                        operands: Some((&ab.0, &ab.1)),
                        masks: masked.then_some(&masks),
                        ranks_per_node: (grouped && !on_sim).then_some(2),
                        hier,
                        ..Run::new(spec, nranks, algorithm, backend)
                    };
                    let out = run.execute().unwrap_or_else(|e| panic!("{what}: {e}"));
                    let fetched: u64 = out.stats.ranks.iter().map(|r| r.transfers).sum();
                    (out.c.expect("real operands"), fetched)
                };
                let (copy, gets) = c(ShmemFlavor::ForceCopy, &floats);
                let (direct, _) = c(ShmemFlavor::ForceDirect, &floats);
                assert!(gets > 0, "{what}: the copy flavour fetched nothing");
                assert_eq!(copy.as_slice(), direct.as_slice(), "{what}: copy vs direct");
                let want = match masked {
                    true => sparse_serial_reference(&spec, &ints.0, &ints.1, &masks),
                    false => serial_reference(&spec, &ints.0, &ints.1),
                };
                let (copy, _) = c(ShmemFlavor::ForceCopy, &ints);
                assert_eq!(copy.as_slice(), want.as_slice(), "{what}: copy vs serial");
            }
        }
    }
}

/// A rank that dies with fetched panels in its pipeline hands them, with
/// the rest of its machine, to the survivor that finishes its tasks:
/// the recovered C is the healthy copy-flavour C, which is the direct
/// flavour's, bit for bit.
#[test]
fn a_machine_adopted_mid_run_keeps_multiplying_from_its_packed_panels() {
    let spec = GemmSpec::new(Op::T, Op::N, 41, 37, 1800);
    let ab = operands(&spec);
    let c = |shmem, faults| {
        let algorithm = Algorithm::Srumma(SrummaOptions {
            shmem,
            ..SrummaOptions::default()
        });
        let run = Run {
            operands: Some((&ab.0, &ab.1)),
            faults,
            ..Run::new(spec, 6, algorithm, Backend::Exec { workers: 2 })
        };
        let out = run.execute().unwrap();
        (out.c.unwrap(), out.stats.total_tasks_reexecuted())
    };
    let plan = FaultPlan::healthy().with_death(4, 2);
    let (recovered, reexecuted) = c(ShmemFlavor::ForceCopy, Some(&plan));
    assert!(reexecuted > 0, "nobody adopted the dead rank's machine");
    let (healthy, _) = c(ShmemFlavor::ForceCopy, None);
    let (direct, _) = c(ShmemFlavor::ForceDirect, None);
    assert_eq!(
        recovered.as_slice(),
        healthy.as_slice(),
        "recovered vs healthy"
    );
    assert_eq!(healthy.as_slice(), direct.as_slice(), "copy vs direct");
}
