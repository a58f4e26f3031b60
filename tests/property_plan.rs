//! One differential property over the whole plan space: whatever
//! combination of algorithm, backend, transposes, shape, rank count,
//! masks, fault plan, topology, staging, replication and tracing a
//! `Run` holds, it either is refused by `validate()` — with the same
//! typed error every time, and `execute()` refusing identically — or
//! computes exactly the serial product.
//!
//! Inputs are small integers (entries in −4..=4, power-of-two `α`), so
//! every partial sum is exact in f64 and *any* schedule must agree with
//! the serial kernel **bit for bit**, not merely within a tolerance.
//!
//! Random draws are seeded (SplitMix64) and each failure prints its
//! rerun line; set `SRUMMA_PROP_SEED` to replay one draw or
//! `SRUMMA_PROP_CASES` to widen the sweep (see `srumma::dense::prop`).

use srumma::core::driver::{default_grid, sparse_serial_reference};
use srumma::dense::{prop_rerun, prop_seeds, Rng};
use srumma::model::machine::RanksPerDomain;
use srumma::{
    Algorithm, Backend, BlockMask, FaultPlan, GemmSpec, Machine, Matrix, Op, ReplicationFactor,
    Run, RunError, ShmemFlavor, SparseMasks, SrummaOptions,
};

/// Wall-clock backends sleep for real on injected spikes — keep them
/// tiny.
const SPIKE_SECONDS: f64 = 1e-4;

#[derive(Clone, Copy, Debug)]
enum On {
    Sim,
    /// The executor with a worker per rank.
    PerRank,
    Exec {
        workers: usize,
    },
}

#[derive(Clone, Copy, Debug)]
enum Faults {
    None,
    Stragglers,
    /// Stragglers plus `(rank, after_tasks)` dying.
    Death(usize, usize),
}

/// One point of the plan space, as plain data.
#[derive(Clone, Copy, Debug)]
struct Draw {
    alg: Algorithm,
    on: On,
    /// `(transa, transb, m, n, k, alpha)`.
    gemm: (Op, Op, usize, usize, usize, f64),
    nranks: usize,
    /// Densities of the A and B masks.
    masks: Option<(f64, f64)>,
    faults: Faults,
    /// The `Run` field as is (the simulator must refuse `Some`).
    ranks_per_node: Option<usize>,
    /// Node width of the simulated machine.
    sim_node: usize,
    hier: bool,
    repl: Option<usize>,
    trace: bool,
}

const SRUMMA: Algorithm = Algorithm::Srumma(SrummaOptions {
    smp_first: true,
    diagonal_shift: true,
    prefetch_depth: 1,
    shmem: ShmemFlavor::Auto,
});

/// A plain SRUMMA draw: 8 ranks (a 2 x 4 grid), nodes of 2, `C = A·B`
/// with uneven blocks.
const PLAIN: Draw = Draw {
    alg: SRUMMA,
    on: On::PerRank,
    gemm: (Op::N, Op::N, 23, 19, 29, 1.0),
    nranks: 8,
    masks: None,
    faults: Faults::None,
    ranks_per_node: Some(2),
    sim_node: 2,
    hier: false,
    repl: None,
    trace: false,
};

const ON_SIM: Draw = Draw {
    on: On::Sim,
    ranks_per_node: None,
    ..PLAIN
};

const ON_EXEC: Draw = Draw {
    on: On::Exec { workers: 2 },
    ..PLAIN
};

fn int_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.below(9) as f64 - 4.0)
}

/// Run one draw. `Ok(())` when it was accepted and matched the serial
/// reference bitwise, `Err(e)` when `validate()` refused it.
fn check(draw: &Draw, seed: u64, test: &str) -> Result<(), RunError> {
    let mut rng = Rng::new(seed ^ 0xDA7A);
    let (ta, tb, m, n, k, alpha) = draw.gemm;
    let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(alpha, 0.0);
    let a = int_matrix(m, k, &mut rng);
    let b = int_matrix(k, n, &mut rng);
    let grid = default_grid(draw.nranks);
    let masks = draw.masks.map(|(da, db)| {
        SparseMasks::new(
            BlockMask::random(grid.p, grid.q, da, seed ^ 0xAAAA),
            BlockMask::random(grid.p, grid.q, db, seed ^ 0xBBBB),
        )
    });
    let stragglers =
        || FaultPlan::random_stragglers(seed, draw.nranks).with_get_spikes(0.25, SPIKE_SECONDS);
    let plan = match draw.faults {
        Faults::None => None,
        Faults::Stragglers => Some(stragglers()),
        Faults::Death(rank, after) => Some(stragglers().with_death(rank, after)),
    };
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(draw.sim_node);
    let backend = match draw.on {
        On::Sim => Backend::Sim(&machine),
        On::PerRank => Backend::Exec {
            workers: draw.nranks,
        },
        On::Exec { workers } => Backend::Exec { workers },
    };
    let run = Run {
        operands: Some((&a, &b)),
        masks: masks.as_ref(),
        faults: plan.as_ref(),
        ranks_per_node: draw.ranks_per_node,
        hier: draw.hier,
        replication: draw
            .repl
            .map_or(ReplicationFactor::One, ReplicationFactor::Fixed),
        trace: draw.trace,
        ..Run::new(spec, draw.nranks, draw.alg, backend)
    };

    let verdict = run.validate();
    assert_eq!(
        run.validate(),
        verdict,
        "{draw:?}: validate() changed its mind"
    );
    let out = match run.execute() {
        Ok(out) => out,
        Err(e) => {
            assert_eq!(
                verdict,
                Err(e),
                "{draw:?}: execute() and validate() disagree"
            );
            return Err(e);
        }
    };
    assert_eq!(verdict, Ok(()), "{draw:?}: executed a refused plan");

    let dense = SparseMasks::default();
    let mut want = sparse_serial_reference(&spec, &a, &b, masks.as_ref().unwrap_or(&dense));
    for x in want.as_mut_slice() {
        *x *= alpha;
    }
    assert_eq!(
        out.c.expect("real operands gather a C").as_slice(),
        want.as_slice(),
        "{draw:?}: C differs from the serial reference\n{}",
        prop_rerun(seed, test)
    );
    // (A traced run whose every task is masked may record nothing.)
    assert!(
        draw.trace || out.trace.is_empty(),
        "{draw:?}: untraced run recorded events"
    );
    assert_eq!(out.reports.len(), draw.nranks);
    assert_eq!(out.replication, draw.repl.unwrap_or(1), "{draw:?}");
    if matches!(draw.on, On::Sim) {
        assert!(out.stats.makespan > 0.0, "{draw:?}: no virtual time passed");
    }
    Ok(())
}

/// Plans that must be *accepted*: every combination that had no entry
/// point before `Run` (its fields compose; the old function names did
/// not), and the fixed replicated cases the per-backend drivers' unit
/// tests used to pin.
#[test]
fn pinned_plans_match_the_serial_reference_bitwise() {
    let hier = Draw {
        hier: true,
        ..PLAIN
    };
    let sparse = Some((0.5, 0.6));
    let mut plans = vec![
        // Unreachable before: no `multiply_threads_hier_traced`, ...
        Draw {
            trace: true,
            ..hier
        },
        // ... no `multiply_exec_sparse_hier`, ...
        Draw {
            masks: sparse,
            hier: true,
            ..ON_EXEC
        },
        // ... no `multiply_verified_hier_chaos`.
        Draw {
            faults: Faults::Stragglers,
            hier: true,
            ..ON_SIM
        },
        // More of the same kind: fields simply compose.
        Draw {
            masks: sparse,
            faults: Faults::Stragglers,
            trace: true,
            ..ON_EXEC
        },
        Draw {
            masks: sparse,
            faults: Faults::Death(3, 1),
            ..ON_EXEC
        },
        Draw {
            faults: Faults::Stragglers,
            hier: true,
            repl: Some(2),
            ..PLAIN
        },
        Draw {
            faults: Faults::Stragglers,
            hier: true,
            trace: true,
            ..ON_EXEC
        },
        Draw {
            alg: Algorithm::summa_default(),
            faults: Faults::Stragglers,
            trace: true,
            ..PLAIN
        },
        Draw {
            alg: Algorithm::Cannon,
            nranks: 9,
            ranks_per_node: Some(3),
            trace: true,
            ..ON_EXEC
        },
        // Replicated ≡ serial on every backend (nodes of 2).
        Draw {
            hier: true,
            repl: Some(1),
            ..PLAIN
        },
        Draw {
            hier: true,
            repl: Some(2),
            ..PLAIN
        },
        Draw {
            repl: Some(2),
            ..ON_EXEC
        },
        Draw {
            repl: Some(2),
            ..ON_SIM
        },
        Draw {
            hier: true,
            repl: Some(2),
            ..ON_SIM
        },
    ];
    for (ta, tb) in [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)] {
        for c in [1, 2, 4] {
            plans.push(Draw {
                gemm: (ta, tb, 18, 14, 22, 2.0),
                repl: Some(c),
                ..PLAIN
            });
        }
    }
    for (i, draw) in plans.iter().enumerate() {
        let verdict = check(draw, 0x9100 + i as u64, "pinned_plans");
        assert_eq!(verdict, Ok(()), "pinned plan {i} was refused: {draw:?}");
    }
}

fn random_draw(rng: &mut Rng) -> Draw {
    let op = |rng: &mut Rng| if rng.chance(0.5) { Op::T } else { Op::N };
    let alg = match rng.below(10) {
        0 => Algorithm::Cannon,
        1 | 2 => Algorithm::summa_default(),
        _ => Algorithm::Srumma(SrummaOptions {
            smp_first: rng.chance(0.5),
            diagonal_shift: rng.chance(0.5),
            prefetch_depth: {
                let nb = rng.chance(0.75);
                let d = rng.range(1, 3);
                if nb {
                    d
                } else {
                    0
                }
            },
            shmem: *rng.pick(&[
                ShmemFlavor::Auto,
                ShmemFlavor::ForceCopy,
                ShmemFlavor::ForceDirect,
            ]),
        }),
    };
    let on = match rng.below(3) {
        0 => On::Sim,
        1 => On::PerRank,
        _ => On::Exec {
            workers: rng.range(1, 4),
        },
    };
    // Mostly grids with p != q; 4 and 9 keep Cannon reachable.
    let nranks = *rng.pick(&[2usize, 3, 4, 6, 8, 9, 12]);
    let width = |rng: &mut Rng| *rng.pick(&[1usize, 2, 3, 4, nranks]);
    let density = |rng: &mut Rng| *rng.pick(&[0.0, 0.3, 0.5, 0.8, 1.0]);
    let alpha = *rng.pick(&[1.0, 2.0, -1.0, 0.5]);
    let gemm = (
        op(rng),
        op(rng),
        rng.range(5, 40),
        rng.range(5, 40),
        rng.range(5, 40),
        alpha,
    );
    // The simulator takes its topology from the machine; give it a
    // `ranks_per_node` now and then to see that refused.
    let set_width = rng.chance(if matches!(on, On::Sim) { 0.1 } else { 0.6 });
    Draw {
        alg,
        on,
        gemm,
        nranks,
        masks: rng.chance(0.35).then(|| (density(rng), density(rng))),
        faults: match rng.below(10) {
            0..=5 => Faults::None,
            6..=8 => Faults::Stragglers,
            _ => Faults::Death(rng.below(nranks), rng.below(3)),
        },
        ranks_per_node: set_width.then(|| width(rng)),
        sim_node: width(rng),
        hier: rng.chance(0.4),
        repl: rng.chance(0.3).then(|| rng.range(1, 4)),
        trace: rng.chance(0.3),
    }
}

#[test]
fn random_plans_match_the_serial_reference_bitwise_or_are_refused() {
    let test = "random_plans_match_the_serial_reference_bitwise_or_are_refused";
    let seeds = prop_seeds(0x91A2_0000, 160);
    let (mut accepted, mut refused) = (0, 0);
    for &seed in &seeds {
        let draw = random_draw(&mut Rng::new(seed));
        match check(&draw, seed, test) {
            Ok(()) => accepted += 1,
            Err(_) => refused += 1,
        }
    }
    eprintln!("{accepted} draws accepted, {refused} refused");
    // The generator must exercise both sides of `validate()`.
    if seeds.len() >= 100 {
        assert!(
            accepted >= seeds.len() / 3,
            "only {accepted} draws accepted"
        );
        assert!(refused >= seeds.len() / 10, "only {refused} draws refused");
    }
}
