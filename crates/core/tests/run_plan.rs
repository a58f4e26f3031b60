//! `Run::validate`: every way a plan can be illegal is a typed
//! `RunError` variant, decided before any matrix is allocated or any
//! thread is started.

use srumma_comm::{FaultPlan, FaultPlanError};
use srumma_core::driver::default_grid;
use srumma_core::{
    Algorithm, Backend, GemmSpec, ReplicationFactor, Run, RunError, SparseMasks, SummaOptions,
};
use srumma_dense::{BlockMask, Matrix, Op};
use srumma_model::machine::RanksPerDomain;
use srumma_model::Machine;

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
