//! Chaos property suite: randomized fault plans (stragglers, get
//! spikes, rank death) on all three backends, checked against the
//! serial kernel — hostile conditions must degrade *performance*,
//! never *correctness*.
//!
//! Every plan is seeded and every schedule is a pure function of its
//! seed, so each failure message carries a one-line rerun command.
//! Set `SRUMMA_PROP_SEED` to pin one case or `SRUMMA_PROP_CASES` to
//! widen the sweep (see `srumma::dense::prop`).

use srumma::core::driver::{default_grid, serial_reference, sparse_serial_reference};
use srumma::dense::{max_abs_diff, prop_rerun, prop_seeds, Rng};
use srumma::{
    Algorithm, BlockMask, FaultPlan, GemmSpec, Machine, Matrix, ReplicationFactor, SparseMasks,
};
use srumma::{Backend, Run, RunOutput};

const CASES: u64 = 6;

/// Per-element absolute tolerance for a k-term dot product.
fn tolerance(k: usize) -> f64 {
    1e-12 * (k.max(1) as f64) * 100.0
}

/// Wall-clock backends sleep for real on injected faults — keep the
/// injected latencies tiny so the suite stays fast.
const WALL_SPIKE_SECONDS: f64 = 2e-4;

/// SRUMMA (or `alg`) on real data under `plan`.
fn multiply_under(
    backend: Backend<'_>,
    nranks: usize,
    alg: Algorithm,
    spec: &GemmSpec,
    (a, b): (&Matrix, &Matrix),
    plan: &FaultPlan,
) -> RunOutput {
    Run {
        operands: Some((a, b)),
        faults: Some(plan),
        ..Run::new(*spec, nranks, alg, backend)
    }
    .execute()
    .unwrap()
}

/// Straggler-plus-spike plans on all three backends: the injected
/// delays stretch the schedule but the gathered C still matches the
/// serial kernel. SUMMA rides along under the simulator, exercising
/// the two-sided (`msg_factor`) fault path.
#[test]
fn straggled_backends_match_serial_reference() {
    let test = "straggled_backends_match_serial_reference";
    for seed in prop_seeds(0xC4A0_57A6, CASES) {
        let mut rng = Rng::new(seed);
        let n = rng.range(8, 32);
        let spec = GemmSpec::square(n);
        let nranks = *rng.pick(&[2usize, 4, 6, 8]);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let expect = serial_reference(&spec, &a, &b);
        let srumma = Algorithm::srumma_default();
        let plan =
            FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.25, WALL_SPIKE_SECONDS);

        let per_rank = Backend::Exec { workers: nranks };
        let per_rank = multiply_under(per_rank, nranks, srumma, &spec, (&a, &b), &plan);
        let d = max_abs_diff(&per_rank.c.unwrap(), &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: per-rank n={n} x{nranks}: |diff|={d:e}\n{}",
            prop_rerun(seed, test)
        );

        let workers = *rng.pick(&[1usize, 2, 3, 4]);
        let exec = Backend::Exec { workers };
        let exec = multiply_under(exec, nranks, srumma, &spec, (&a, &b), &plan);
        let d = max_abs_diff(&exec.c.unwrap(), &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: exec n={n} x{nranks} on {workers} workers: |diff|={d:e}\n{}",
            prop_rerun(seed, test)
        );

        // Virtual time costs nothing: spike harder under the simulator,
        // and run SUMMA too (its broadcasts cross the two-sided fault
        // path the one-sided algorithms never touch).
        let sim_plan = FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.25, 1e-3);
        let machine = Machine::linux_myrinet();
        for alg in [srumma, Algorithm::summa_default()] {
            let sim = Backend::Sim(&machine);
            let sim = multiply_under(sim, nranks, alg, &spec, (&a, &b), &sim_plan);
            let (c_sim, stats) = (sim.c.unwrap(), sim.stats);
            let d = max_abs_diff(&c_sim, &expect);
            assert!(
                d < tolerance(spec.k),
                "seed {seed:#x}: sim {} n={n} x{nranks}: |diff|={d:e}\n{}",
                alg.name(),
                prop_rerun(seed, test)
            );
            assert!(stats.makespan > 0.0);
        }
    }
}

/// Fail-stop rank death with re-execution: the chaotic run's C must be
/// **bitwise** identical to the healthy executor run — the survivor
/// drives the dead rank's machine through the same tasks in the same
/// order with the same kernel, so even roundoff agrees. Half the drawn
/// deaths come before the rank's first task completes: the survivor then
/// adopts a machine whose first task must still *store* its product (a
/// fresh C has no pre-pass), not add it to whatever the tile holds.
#[test]
fn rank_death_reexecution_is_bitwise_exact() {
    let test = "rank_death_reexecution_is_bitwise_exact";
    // (seed, nranks, workers, dead rank, tasks it completes first)
    let fixed = [(4usize, 2usize, 1usize, 0usize), (6, 3, 5, 1), (8, 2, 3, 2)];
    let fixed = fixed.map(|(nranks, workers, dead, after)| {
        let seed = (0xDEAD_0000 + nranks as u64) << 8 | dead as u64;
        (seed, nranks, workers, dead, after)
    });
    let drawn = prop_seeds(0xDEAD_F125, CASES).into_iter().map(|seed| {
        let mut rng = Rng::new(seed);
        let nranks = *rng.pick(&[4usize, 6, 8]);
        let workers = *rng.pick(&[1usize, 2, 3]);
        (seed, nranks, workers, rng.below(nranks), rng.below(2))
    });
    for (seed, nranks, workers, dead, after) in fixed.into_iter().chain(drawn) {
        let spec = GemmSpec::square(32);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let (srumma, exec) = (Algorithm::srumma_default(), Backend::Exec { workers });

        let healthy = Run {
            operands: Some((&a, &b)),
            ..Run::new(spec, nranks, srumma, exec)
        };
        let healthy = healthy.execute().unwrap().c.unwrap();
        let plan = FaultPlan::healthy().with_death(dead, after);
        let res = multiply_under(exec, nranks, srumma, &spec, (&a, &b), &plan);
        let chaotic = res.c.unwrap();

        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&chaotic) == bits(&healthy),
            "x{nranks} w{workers} death(rank={dead}, after={after}): \
             re-executed C differs from the healthy run\n{}",
            prop_rerun(seed, test)
        );
        let expect = serial_reference(&spec, &a, &b);
        let d = max_abs_diff(&chaotic, &expect);
        assert!(d < tolerance(spec.k), "vs serial: |diff|={d:e}");
        assert!(
            res.stats.total_tasks_reexecuted() > 0,
            "x{nranks} death(rank={dead}, after={after}): nobody re-executed anything"
        );
        assert_eq!(res.reports.len(), nranks, "every rank must complete");
    }
}

/// A death index at or past the rank's task count never fires: the run
/// completes as if healthy and nothing is re-executed.
#[test]
fn death_past_the_task_list_never_fires() {
    let spec = GemmSpec::square(16);
    let a = Matrix::random(spec.m, spec.k, 0xF1);
    let b = Matrix::random(spec.k, spec.n, 0xF2);
    let plan = FaultPlan::healthy().with_death(1, 1_000_000);
    let (srumma, exec) = (Algorithm::srumma_default(), Backend::Exec { workers: 2 });
    let res = multiply_under(exec, 4, srumma, &spec, (&a, &b), &plan);
    let expect = serial_reference(&spec, &a, &b);
    assert!(max_abs_diff(&res.c.unwrap(), &expect) < tolerance(spec.k));
    assert_eq!(res.stats.total_tasks_reexecuted(), 0);
}

/// Masked (block-sparse) multiplies under a straggler-and-spike plan on
/// the simulator: pruning composes with fault injection. The density-0
/// corner is the sharp one — ranks whose every task is pruned hold
/// every fence while the plan delays the ranks they wait on.
#[test]
fn sparse_sim_chaos_matches_masked_reference() {
    let test = "sparse_sim_chaos_matches_masked_reference";
    for seed in prop_seeds(0x5BA_0C4A0, CASES) {
        let mut rng = Rng::new(seed);
        let n = rng.range(8, 32);
        let spec = GemmSpec::square(n);
        let nranks = *rng.pick(&[2usize, 4, 6]);
        let grid = default_grid(nranks);
        let a = Matrix::random(spec.m, spec.k, seed ^ 0xA);
        let b = Matrix::random(spec.k, spec.n, seed ^ 0xB);
        let density = |rng: &mut Rng| match rng.below(4) {
            0 => 0.0,
            _ => 0.3 + 0.2 * rng.below(3) as f64,
        };
        let masks = SparseMasks::new(
            BlockMask::random(grid.p, grid.q, density(&mut rng), seed ^ 0xAAAA),
            BlockMask::random(grid.p, grid.q, density(&mut rng), seed ^ 0xBBBB),
        );
        let plan = FaultPlan::random_stragglers(seed, nranks).with_get_spikes(0.3, 1e-3);
        let machine = Machine::linux_myrinet();
        let run = Run::new(
            spec,
            nranks,
            Algorithm::srumma_default(),
            Backend::Sim(&machine),
        );
        let run = Run {
            operands: Some((&a, &b)),
            masks: Some(&masks),
            faults: Some(&plan),
            ..run
        };
        let c = run.execute().unwrap().c.unwrap();
        let expect = sparse_serial_reference(&spec, &a, &b, &masks);
        let d = max_abs_diff(&c, &expect);
        assert!(
            d < tolerance(spec.k),
            "seed {seed:#x}: sparse sim chaos n={n} x{nranks} da={:.2} db={:.2}: |diff|={d:e}\n{}",
            masks.a.as_ref().map_or(1.0, |m| m.density()),
            masks.b.as_ref().map_or(1.0, |m| m.density()),
            prop_rerun(seed, test)
        );
    }
}

/// The determinism guarantee itself: the same plan under the simulator
/// produces bit-for-bit identical results — C, the makespan, and the
/// injected-delay count — across repeated runs.
#[test]
fn sim_chaos_runs_are_bit_for_bit_reproducible() {
    let spec = GemmSpec::square(24);
    let nranks = 4;
    let a = Matrix::random(spec.m, spec.k, 0xD1);
    let b = Matrix::random(spec.k, spec.n, 0xD2);
    let plan = FaultPlan::random_stragglers(7, nranks).with_get_spikes(0.5, 2e-3);
    let machine = Machine::linux_myrinet();
    let (alg, sim) = (Algorithm::srumma_default(), Backend::Sim(&machine));
    let run1 = multiply_under(sim, nranks, alg, &spec, (&a, &b), &plan);
    let run2 = multiply_under(sim, nranks, alg, &spec, (&a, &b), &plan);
    let (c1, s1) = (run1.c.unwrap(), run1.stats);
    let (c2, s2) = (run2.c.unwrap(), run2.stats);
    assert_eq!(max_abs_diff(&c1, &c2), 0.0, "C must be bitwise stable");
    assert_eq!(
        s1.makespan.to_bits(),
        s2.makespan.to_bits(),
        "virtual-time makespan must be bitwise stable"
    );
    assert_eq!(s1.total_delays_injected(), s2.total_delays_injected());
    assert!(
        s1.total_delays_injected() > 0,
        "a 50% spike rate must inject at least one delay"
    );
}

/// Wall-clock delays follow the plan's schedule however many workers
/// poll the ranks. SRUMMA — flat, staged and in two replica teams —
/// sleeps on the same gemms and the same gets whether its ranks are
/// polled on a worker each (`Exec { workers: 8 }`) or on two.
/// SUMMA and Cannon, polled on two workers, take their straggler sleeps
/// there too.
#[test]
fn wall_clock_delays_follow_the_plan_on_both_hostings() {
    let spec = GemmSpec::square(24);
    let a = Matrix::random(spec.m, spec.k, 0xE1);
    let b = Matrix::random(spec.k, spec.n, 0xE2);
    let expect = serial_reference(&spec, &a, &b);
    let exec = Backend::Exec { workers: 2 };
    let run = |backend, nranks, alg, plan| Run {
        operands: Some((&a, &b)),
        faults: Some(plan),
        ..Run::new(spec, nranks, alg, backend)
    };
    let delays = |run: Run| {
        let out = run.execute().unwrap();
        assert!(max_abs_diff(&out.c.unwrap(), &expect) < tolerance(spec.k));
        let ranks = out.stats.ranks.iter();
        ranks.map(|r| r.delays_injected).collect::<Vec<u64>>()
    };

    let plan = FaultPlan::random_stragglers(7, 8).with_get_spikes(0.25, WALL_SPIKE_SECONDS);
    let straggled: Vec<usize> = (0..8).filter(|&r| plan.slow_factor(r) > 1.0).collect();
    assert!(!straggled.is_empty(), "pick a seed with a straggler");
    let srumma = Algorithm::srumma_default();
    let schedules = [
        (None, false, ReplicationFactor::One),
        (Some(2), true, ReplicationFactor::One),
        (None, false, ReplicationFactor::Fixed(2)),
    ];
    for (ranks_per_node, hier, replication) in schedules {
        let on = |backend| Run {
            ranks_per_node,
            hier,
            replication,
            ..run(backend, 8, srumma, &plan)
        };
        let per_rank = Backend::Exec { workers: 8 };
        let (per_rank, polled) = (delays(on(per_rank)), delays(on(exec)));
        let what = format!("hier {hier}, {replication:?}");
        assert_eq!(
            per_rank, polled,
            "{what}: per-rank delays differ by hosting"
        );
        for &r in &straggled {
            assert!(per_rank[r] > 0, "{what}: straggler {r} never slept");
        }
    }

    let summa = delays(run(exec, 8, Algorithm::summa_default(), &plan));
    for &r in &straggled {
        assert!(summa[r] > 0, "SUMMA: straggler {r} never slept");
    }
    let plan = FaultPlan::single_straggler(4, 1, 2.0);
    let cannon = delays(run(exec, 4, Algorithm::Cannon, &plan));
    assert!(cannon[1] > 0, "Cannon: straggler 1 never slept");
}
