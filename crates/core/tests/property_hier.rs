//! Property-style tests for the hierarchical (node-group staged) and
//! c-fold replicated SRUMMA drivers, driven by the in-repo
//! deterministic [`Rng`]: for every random shape × group size ×
//! replication factor the restructured schedules must compute the
//! *same C* as the flat driver.
//!
//! The comparison discipline mirrors the drivers' numerics:
//!
//! * **integer inputs → bitwise.** With small-integer entries every
//!   dgemm product and partial sum is exactly representable, so any
//!   summation order gives the identical result — staging, topology
//!   reordering and the replica reduction must all be value-preserving,
//!   and `max_abs_diff == 0.0` exactly.
//! * **float inputs → k-scaled tolerance.** Different task orders
//!   accumulate in different orders; the error budget grows with the
//!   reduction depth, so the bound scales with `k`.

use srumma_core::driver::{multiply_threads, serial_reference};
use srumma_core::repl::admissible_factor;
use srumma_core::{Algorithm, Backend, GemmSpec, ReplicationFactor, Run, RunOutput};
use srumma_dense::{max_abs_diff, Matrix, Op, Rng};
use srumma_model::machine::RanksPerDomain;
use srumma_model::{Machine, Topology};

/// One restructured SRUMMA run on real data: `rpn` ranks per emulated
/// node (`None` on the simulator, whose machine profile sets it),
/// staged when `hier`, split into `c` replica teams when given.
#[allow(clippy::too_many_arguments)]
fn restructured(
    backend: Backend<'_>,
    nranks: usize,
    rpn: Option<usize>,
    hier: bool,
    c: Option<usize>,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> RunOutput {
    Run {
        operands: Some((a, b)),
        ranks_per_node: rpn,
        hier,
        replication: c.map_or(ReplicationFactor::One, ReplicationFactor::Fixed),
        ..Run::new(*spec, nranks, Algorithm::srumma_default(), backend)
    }
    .execute()
    .unwrap()
}

/// Small-integer matrix (entries in −4..=4): products and partial sums
/// stay exactly representable in f64, making bitwise comparison valid
/// across *any* summation order.
fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut s = seed;
    for i in 0..rows {
        for j in 0..cols {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m[(i, j)] = ((s >> 33) % 9) as f64 - 4.0;
        }
    }
    m
}

fn random_op(rng: &mut Rng) -> Op {
    if rng.chance(0.5) {
        Op::N
    } else {
        Op::T
    }
}

/// A random spec with exact (power-of-two-friendly) scalars so integer
/// cases stay bitwise-comparable.
fn random_spec(rng: &mut Rng) -> GemmSpec {
    let m = rng.range(17, 72);
    let n = rng.range(17, 72);
    let k = rng.range(16, 72);
    let alpha = [1.0, 2.0, -1.0, 0.5][rng.below(4)];
    GemmSpec::new(random_op(rng), random_op(rng), m, n, k).with_scalars(alpha, 0.0)
}

/// A random divisor of `n` — the group-size distribution deliberately
/// includes both degenerate ends (1 and `n` itself).
fn random_divisor(rng: &mut Rng, n: usize) -> usize {
    let divs: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    divs[rng.below(divs.len())]
}

/// A random admissible replication factor for `(nranks, rpn, k)`, or
/// `None` when only `c = 1` qualifies.
fn random_factor(rng: &mut Rng, nranks: usize, rpn: usize, k: usize) -> Option<usize> {
    let topo = Topology::new(nranks, rpn);
    let cs: Vec<usize> = (2..=nranks)
        .filter(|&c| admissible_factor(nranks, topo, k, c))
        .collect();
    if cs.is_empty() {
        None
    } else {
        Some(cs[rng.below(cs.len())])
    }
}

/// Hierarchical threads driver ≡ flat threads driver, bitwise, across
/// random shapes, transposes and group sizes (degenerate ones
/// included).
#[test]
fn hier_threads_matches_flat_bitwise_on_integers() {
    let alg = Algorithm::srumma_default();
    for case in 0..16u64 {
        let mut rng = Rng::new(0x41E2_0001 + case);
        let nranks = [4usize, 6, 8, 12, 16][rng.below(5)];
        let rpn = random_divisor(&mut rng, nranks);
        let spec = random_spec(&mut rng);
        let a = int_matrix(spec.m, spec.k, 900 + 2 * case);
        let b = int_matrix(spec.k, spec.n, 901 + 2 * case);
        let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let hier = restructured(
            Backend::Threads,
            nranks,
            Some(rpn),
            true,
            None,
            &spec,
            &a,
            &b,
        );
        let hier = hier.c.unwrap();
        assert_eq!(
            max_abs_diff(&hier, &flat),
            0.0,
            "case {case}: nranks={nranks} rpn={rpn} spec={spec:?}"
        );
    }
}

/// Replicated (and replicated+hierarchical) driver ≡ flat threads,
/// bitwise, across random admissible factors: the k-slice split and
/// the serialized team reduction are value-preserving on integers. On
/// ranks with threads of their own, ranks polled on two workers, and
/// modeled time (where the simulator's machine sets the node width):
/// team 0 multiplies into the returned product in place, and the other
/// teams' `acc` lands in it through its window.
#[test]
fn replicated_threads_matches_flat_bitwise_on_integers() {
    let alg = Algorithm::srumma_default();
    for case in 0..12u64 {
        let mut rng = Rng::new(0x41E2_0002 + case);
        let nranks = [4usize, 8, 12, 16][rng.below(4)];
        let rpn = random_divisor(&mut rng, nranks);
        let spec = random_spec(&mut rng);
        let Some(c) = random_factor(&mut rng, nranks, rpn, spec.k) else {
            continue;
        };
        let a = int_matrix(spec.m, spec.k, 930 + 2 * case);
        let b = int_matrix(spec.k, spec.n, 931 + 2 * case);
        let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        // The staged variant additionally needs replica windows to
        // cover whole node groups (`HierStageSet::create_window`);
        // `admissible_factor` only demands that when nodes are real
        // (nnodes > 1), so re-check before taking the hier path.
        let hier = rng.chance(0.5) && (nranks / c).is_multiple_of(rpn);
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = RanksPerDomain::Fixed(rpn);
            m
        };
        let backends = [
            (Backend::Threads, Some(rpn)),
            (Backend::Exec { workers: 2 }, Some(rpn)),
            (Backend::Sim(&machine), None),
        ];
        for (backend, rpn_field) in backends {
            let out = restructured(backend, nranks, rpn_field, hier, Some(c), &spec, &a, &b);
            let (repl, got_c) = (out.c.unwrap(), out.replication);
            assert_eq!(got_c, c, "case {case}");
            assert_eq!(
                max_abs_diff(&repl, &flat),
                0.0,
                "case {case} on {backend:?}: nranks={nranks} rpn={rpn} c={c} spec={spec:?}"
            );
        }
    }
}

/// On float inputs the restructured schedules stay within a k-scaled
/// tolerance of both the flat driver and the alpha-scaled serial
/// reference.
#[test]
fn hier_and_replicated_float_within_k_scaled_tolerance() {
    let alg = Algorithm::srumma_default();
    for case in 0..6u64 {
        let mut rng = Rng::new(0x41E2_0003 + case);
        let nranks = 8usize;
        let rpn = random_divisor(&mut rng, nranks);
        let k = rng.range(96, 384);
        let n = rng.range(24, 64);
        let alpha = [1.0, 1.5, -0.75][rng.below(3)];
        let spec = GemmSpec::new(Op::N, Op::N, n, n, k).with_scalars(alpha, 0.0);
        let a = Matrix::random(spec.m, spec.k, 960 + 2 * case);
        let b = Matrix::random(spec.k, spec.n, 961 + 2 * case);
        let tol = 1e-13 * spec.k as f64;
        let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let mut want = serial_reference(&spec, &a, &b);
        for i in 0..spec.m {
            for j in 0..spec.n {
                want[(i, j)] *= alpha;
            }
        }
        let hier = restructured(
            Backend::Threads,
            nranks,
            Some(rpn),
            true,
            None,
            &spec,
            &a,
            &b,
        );
        let hier = hier.c.unwrap();
        assert!(
            max_abs_diff(&hier, &flat) < tol && max_abs_diff(&hier, &want) < tol,
            "case {case}: hier rpn={rpn} k={k} diff={:e}",
            max_abs_diff(&hier, &want)
        );
        if let Some(c) = random_factor(&mut rng, nranks, rpn, spec.k) {
            let out = restructured(
                Backend::Threads,
                nranks,
                Some(rpn),
                false,
                Some(c),
                &spec,
                &a,
                &b,
            );
            let repl = out.c.unwrap();
            assert!(
                max_abs_diff(&repl, &flat) < tol && max_abs_diff(&repl, &want) < tol,
                "case {case}: repl c={c} k={k} diff={:e}",
                max_abs_diff(&repl, &want)
            );
        }
    }
}

/// The executor backend under deliberately oversubscribed worker pools
/// (1–3 workers carrying 8–16 rank FSMs): parking/resume reordering
/// must not change a bit of C.
#[test]
fn exec_oversubscribed_pools_match_flat_bitwise() {
    let alg = Algorithm::srumma_default();
    for case in 0..8u64 {
        let mut rng = Rng::new(0x41E2_0004 + case);
        let nranks = [8usize, 12, 16][rng.below(3)];
        let workers = rng.range(1, 3);
        let rpn = random_divisor(&mut rng, nranks);
        let spec = random_spec(&mut rng);
        let a = int_matrix(spec.m, spec.k, 990 + 2 * case);
        let b = int_matrix(spec.k, spec.n, 991 + 2 * case);
        let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let exec = Backend::Exec { workers };
        let hier = restructured(exec, nranks, Some(rpn), true, None, &spec, &a, &b);
        let hier = hier.c.unwrap();
        assert_eq!(
            max_abs_diff(&hier, &flat),
            0.0,
            "case {case}: exec hier nranks={nranks} workers={workers} rpn={rpn}"
        );
        if let Some(c) = random_factor(&mut rng, nranks, rpn, spec.k) {
            let out = restructured(exec, nranks, Some(rpn), false, Some(c), &spec, &a, &b);
            let repl = out.c.unwrap();
            assert_eq!(
                max_abs_diff(&repl, &flat),
                0.0,
                "case {case}: exec repl nranks={nranks} workers={workers} rpn={rpn} c={c}"
            );
        }
    }
}

/// The discrete-event simulator backend (topology from the machine
/// profile): same bitwise guarantee on integers for both restructured
/// drivers.
#[test]
fn sim_backend_matches_flat_bitwise_on_integers() {
    let alg = Algorithm::srumma_default();
    for case in 0..4u64 {
        let mut rng = Rng::new(0x41E2_0005 + case);
        let nranks = [8usize, 16][rng.below(2)];
        let rpn = random_divisor(&mut rng, nranks);
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = RanksPerDomain::Fixed(rpn);
            m
        };
        let spec = random_spec(&mut rng);
        let a = int_matrix(spec.m, spec.k, 1020 + 2 * case);
        let b = int_matrix(spec.k, spec.n, 1021 + 2 * case);
        let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
        let sim = Backend::Sim(&machine);
        let hier = restructured(sim, nranks, None, true, None, &spec, &a, &b);
        let hier = hier.c.unwrap();
        assert_eq!(
            max_abs_diff(&hier, &flat),
            0.0,
            "case {case}: sim hier nranks={nranks} rpn={rpn}"
        );
        if let Some(c) = random_factor(&mut rng, nranks, rpn, spec.k) {
            let out = restructured(sim, nranks, None, false, Some(c), &spec, &a, &b);
            let (repl, got_c) = (out.c.unwrap(), out.replication);
            assert_eq!(got_c, c, "case {case}");
            assert_eq!(
                max_abs_diff(&repl, &flat),
                0.0,
                "case {case}: sim repl nranks={nranks} rpn={rpn} c={c}"
            );
        }
    }
}

/// The degenerate group shapes stay exact: one rank per node (nothing
/// shares, so nothing stages), one node spanning the whole machine
/// (nothing is off-node), and full replication `c = nranks`
/// (single-rank teams, every k-slice reduced serially into team 0).
#[test]
fn degenerate_groups_and_factors_match_flat_bitwise() {
    let alg = Algorithm::srumma_default();
    let nranks = 8usize;
    let spec = GemmSpec::new(Op::N, Op::T, 33, 29, 24).with_scalars(2.0, 0.0);
    let a = int_matrix(spec.m, spec.k, 77);
    let b = int_matrix(spec.k, spec.n, 78);
    let (flat, _) = multiply_threads(nranks, &alg, &spec, &a, &b);
    for rpn in [1usize, nranks] {
        let hier = restructured(
            Backend::Threads,
            nranks,
            Some(rpn),
            true,
            None,
            &spec,
            &a,
            &b,
        );
        let hier = hier.c.unwrap();
        assert_eq!(max_abs_diff(&hier, &flat), 0.0, "threads hier rpn={rpn}");
        let exec = Backend::Exec { workers: 2 };
        let out = restructured(exec, nranks, Some(rpn), true, None, &spec, &a, &b);
        let (ehier, reports) = (out.c.unwrap(), out.reports);
        assert_eq!(max_abs_diff(&ehier, &flat), 0.0, "exec hier rpn={rpn}");
        // No group can share an off-node panel at either extreme.
        assert!(
            reports.iter().all(|r| r.staged_panels == 0),
            "rpn={rpn} staged panels in a degenerate topology"
        );
    }
    // Whole-machine node => single domain => every c | nranks (≤ k) is
    // admissible, including single-rank teams.
    let whole = Some(nranks);
    let out = restructured(Backend::Threads, nranks, whole, false, whole, &spec, &a, &b);
    let (repl, got_c) = (out.c.unwrap(), out.replication);
    assert_eq!(got_c, nranks);
    assert_eq!(max_abs_diff(&repl, &flat), 0.0, "full replication c=nranks");
}
