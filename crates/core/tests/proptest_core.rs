//! Property-style tests on the core algorithm machinery, driven by the
//! in-repo deterministic [`Rng`] (the workspace builds offline, without
//! a property-testing framework).

use srumma_core::driver::{multiply_threads, serial_reference};
use srumma_core::layout::{a_kparts, a_owner, b_kparts, b_owner};
use srumma_core::taskorder::{build_tasks, order_tasks};
use srumma_core::{Algorithm, GemmSpec};
use srumma_dense::{max_abs_diff, Matrix, Op, Rng};
use srumma_model::ProcGrid;

const CASES: u64 = 32;

fn random_op(rng: &mut Rng) -> Op {
    if rng.chance(0.5) {
        Op::N
    } else {
        Op::T
    }
}

/// Tasks tile 0..k exactly and each fits inside one panel of each
/// partition, for arbitrary k and partition counts.
#[test]
fn tasks_tile_k() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x7A5C_0001 + case);
        let k = rng.range(1, 4999);
        let a = rng.range(1, 23);
        let b = rng.range(1, 23);
        let tasks = build_tasks(k, a, b);
        let mut cursor = 0usize;
        for t in &tasks {
            assert_eq!(t.k0, cursor, "case {case} (k={k}, a={a}, b={b})");
            assert!(t.k1 > t.k0, "case {case}");
            assert!(t.la < a && t.lb < b, "case {case}");
            cursor = t.k1;
        }
        assert_eq!(cursor, k, "case {case} (k={k}, a={a}, b={b})");
        assert!(tasks.len() < a + b, "case {case}");
    }
}

/// Ordering is always a permutation covering every task exactly once,
/// for any shift and locality predicate.
#[test]
fn ordering_is_permutation() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x08DE_0002 + case);
        let k = rng.range(1, 999);
        let a = rng.range(1, 15);
        let b = rng.range(1, 15);
        let shift = rng.below(32);
        let smp_first = rng.chance(0.5);
        let local_mask = rng.next_u64() as u32;
        let tasks = build_tasks(k, a, b);
        let order = order_tasks(tasks.len(), &tasks, a, shift, smp_first, |t| {
            (local_mask >> (t.la % 32)) & 1 == 1
        });
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..tasks.len()).collect::<Vec<_>>(),
            "case {case} (k={k}, a={a}, b={b}, shift={shift})"
        );
    }
}

/// With SMP-first, no remote task ever precedes a local one.
#[test]
fn smp_first_is_a_clean_partition() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5111_0003 + case);
        let k = rng.range(1, 499);
        let a = rng.range(1, 11);
        let b = rng.range(1, 11);
        let shift = rng.below(12);
        let local_mask = rng.next_u64() as u32;
        let tasks = build_tasks(k, a, b);
        let is_local = |la: usize| (local_mask >> (la % 32)) & 1 == 1;
        let order = order_tasks(tasks.len(), &tasks, a, shift, true, |t| is_local(t.la));
        let mut seen_remote = false;
        for idx in order {
            let l = is_local(tasks[idx].la);
            if !l {
                seen_remote = true;
            }
            assert!(
                !(l && seen_remote),
                "case {case}: local task after a remote one"
            );
        }
    }
}

/// Every (i, la) / (lb, j) logical block has exactly one owner and
/// ownership covers all ranks.
#[test]
fn ownership_covers_ranks() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x01BE_0004 + case);
        let p = rng.range(1, 5);
        let q = rng.range(1, 5);
        let grid = ProcGrid::new(p, q);
        let mut owners = std::collections::HashSet::new();
        for i in 0..p {
            for la in 0..a_kparts(grid) {
                let o = a_owner(grid, i, la);
                assert!(o < grid.nranks(), "case {case}");
                owners.insert(o);
            }
        }
        assert_eq!(owners.len(), grid.nranks(), "case {case} ({p}x{q})");
        let mut owners = std::collections::HashSet::new();
        for lb in 0..b_kparts(grid) {
            for j in 0..q {
                owners.insert(b_owner(grid, lb, j));
            }
        }
        assert_eq!(owners.len(), grid.nranks(), "case {case} ({p}x{q})");
    }
}

/// Full pipeline correctness on the thread backend for random shapes,
/// transposes and rank counts.
#[test]
fn srumma_matches_serial_on_random_problems() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xF1FE_0005 + case);
        let m = rng.range(1, 39);
        let n = rng.range(1, 39);
        let k = rng.range(1, 39);
        let (ta, tb) = (random_op(&mut rng), random_op(&mut rng));
        let nranks = rng.range(1, 8);
        let seed = rng.next_u64() % 500;
        let spec = GemmSpec::new(ta, tb, m, n, k);
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let (c, _) = multiply_threads(nranks, &Algorithm::srumma_default(), &spec, &a, &b);
        let expect = serial_reference(&spec, &a, &b);
        let err = max_abs_diff(&c, &expect);
        assert!(err < 1e-9, "case {case}: err {err} for {spec:?} x{nranks}");
    }
}
