//! Property-style tests for the batched driver: random batches (mixed
//! shapes, transposes, scalars, degenerate extents, per-entry option
//! overrides, block masks) checked against the serial reference on
//! all three rows — a worker per rank, the virtual-time simulator, and
//! the work-stealing executor including oversubscribed pools. Driven by
//! the in-repo deterministic [`Rng`] (the workspace builds offline,
//! without a property-testing framework). Set `SRUMMA_PROP_SEED` to
//! pin one case or `SRUMMA_PROP_CASES` to widen the sweep.

use srumma_core::batch::{batch_serial_reference, multiply_batch_on, BatchEntry, BatchSpec};
use srumma_core::driver::default_grid;
use srumma_core::{Backend, GemmSpec, SrummaOptions};
use srumma_dense::{max_abs_diff, prop_rerun, prop_seeds, BlockMask, Matrix, Op, Rng};
use srumma_model::Machine;

fn random_op(rng: &mut Rng) -> Op {
    if rng.chance(0.5) {
        Op::N
    } else {
        Op::T
    }
}

/// Absolute tolerance for a length-`k` dot product of O(1) values.
fn tolerance(k: usize) -> f64 {
    1e-12 * k.max(1) as f64 * 100.0
}

/// A random batch: 1–8 entries, extents 1–24 (k occasionally 0), all
/// four transpose cases, random `α`/`β`, optional initial C, an
/// occasional per-entry options override, and an occasional block-mask
/// pair (shaped for the grid of `nranks`, which is why callers pick
/// the rank count *before* the batch). Mask densities include both
/// degenerate ends — 0 (the entry computes only `β·C`) and 1 (the
/// mask must change nothing).
fn random_batch(rng: &mut Rng, nranks: usize) -> BatchSpec {
    let grid = default_grid(nranks);
    let mut batch = BatchSpec::new();
    let entries = rng.range(1, 8);
    for _ in 0..entries {
        let m = rng.range(1, 24);
        let n = rng.range(1, 24);
        let k = if rng.chance(0.1) { 0 } else { rng.range(1, 24) };
        let (ta, tb) = (random_op(rng), random_op(rng));
        let alpha = rng.unit() * 2.0;
        let beta = if rng.chance(0.5) { 0.0 } else { rng.unit() };
        let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(alpha, beta);
        let seed = rng.next_u64() % 10_000;
        let mut e = BatchEntry::new(
            spec,
            Matrix::random(m, k, seed),
            Matrix::random(k, n, seed + 1),
        );
        if rng.chance(0.5) {
            e = e.with_c0(Matrix::random(m, n, seed + 2));
        }
        if rng.chance(0.3) {
            e = e.with_opts(SrummaOptions {
                smp_first: rng.chance(0.5),
                diagonal_shift: rng.chance(0.5),
                prefetch_depth: {
                    let nb = rng.chance(0.8);
                    let d = rng.range(1, 3);
                    if nb {
                        d
                    } else {
                        0
                    }
                },
                ..SrummaOptions::default()
            });
        }
        if rng.chance(0.4) {
            let density = |rng: &mut Rng| match rng.below(5) {
                0 => 0.0,
                1 => 1.0,
                _ => 0.25 + 0.25 * rng.below(3) as f64,
            };
            let ma = BlockMask::random(grid.p, grid.q, density(rng), seed + 3);
            let mb = BlockMask::random(grid.p, grid.q, density(rng), seed + 4);
            // Sometimes mask only one operand.
            match rng.below(4) {
                0 => e = e.with_masks(Some(ma), None),
                1 => e = e.with_masks(None, Some(mb)),
                _ => e = e.with_masks(Some(ma), Some(mb)),
            }
        }
        batch.push(e);
    }
    batch
}

fn max_k(batch: &BatchSpec) -> usize {
    batch.entries.iter().map(|e| e.spec.k).max().unwrap_or(0)
}

fn check(outputs: &[Matrix], batch: &BatchSpec, seed: u64, what: &str, test: &str) {
    let expect = batch_serial_reference(batch);
    let tol = tolerance(max_k(batch));
    for (e, (got, want)) in outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(
            diff < tol,
            "seed {seed:#x} ({what}): entry {e} ({:?}): |diff|={diff:e} tol={tol:e}\n{}",
            batch.entries[e].spec,
            prop_rerun(seed, test),
        );
    }
}

#[test]
fn random_batches_on_threads_match_serial() {
    for seed in prop_seeds(0xBA7C_0001, 16) {
        let mut rng = Rng::new(seed);
        let nranks = rng.range(1, 8);
        let batch = random_batch(&mut rng, nranks);
        let per_rank = Backend::Exec { workers: nranks };
        let res = multiply_batch_on(&batch, nranks, per_rank).expect("a legal batch plan");
        check(
            &res.outputs,
            &batch,
            seed,
            &format!("per-rank x{nranks}"),
            "random_batches_on_threads_match_serial",
        );
        for &g in &res.ws_grow_counts {
            assert!(g <= 1, "seed {seed:#x}: workspace grew {g} times");
        }
    }
}

/// Heavily sparse batch on a heavily oversubscribed executor: 128
/// logical ranks on 2 workers, every entry masked at low density, so
/// most ranks have *no* surviving tasks in most entries: for those a
/// rank only seeds its tile from `c0` and β-scales it, then moves on —
/// and finishes the stream without having multiplied anything. Each of
/// those tiles must still come out `β·C0`.
#[test]
fn sparse_batch_on_128_ranks_2_workers() {
    let (nranks, workers) = (128, 2);
    let grid = default_grid(nranks);
    let mut batch = BatchSpec::new();
    for e in 0..6u64 {
        let n = 40 + 4 * e as usize;
        let spec = GemmSpec::new(
            if e % 2 == 0 { Op::N } else { Op::T },
            if e % 3 == 0 { Op::T } else { Op::N },
            n,
            n,
            n,
        )
        .with_scalars(1.0, 0.5);
        let entry = BatchEntry::new(
            spec,
            Matrix::random(n, n, 0xE0 + e),
            Matrix::random(n, n, 0xE1 + e),
        )
        .with_c0(Matrix::random(n, n, 0xE2 + e))
        .with_masks(
            Some(BlockMask::random(grid.p, grid.q, 0.15, 0xE3 + e)),
            Some(BlockMask::random(grid.p, grid.q, 0.15, 0xE4 + e)),
        );
        batch.push(entry);
    }
    let res = srumma_core::batch::multiply_batch_exec(&batch, nranks, workers);
    check(
        &res.outputs,
        &batch,
        0,
        "sparse exec x128 on 2 workers",
        "sparse_batch_on_128_ranks_2_workers",
    );
    assert!(
        res.stats.tasks_masked_total() > 0,
        "low-density masks pruned nothing"
    );
    for &g in &res.ws_grow_counts {
        assert!(g <= 1, "workspace grew {g} times");
    }
}

#[test]
fn random_batches_on_sim_match_serial() {
    let machines = [Machine::linux_myrinet(), Machine::sgi_altix()];
    for seed in prop_seeds(0xBA7C_0002, 8) {
        let mut rng = Rng::new(seed);
        let nranks = rng.range(1, 6);
        let batch = random_batch(&mut rng, nranks);
        let machine = rng.pick(&machines);
        let sim = Backend::Sim(machine);
        let res = multiply_batch_on(&batch, nranks, sim).expect("a legal batch plan");
        check(
            &res.outputs,
            &batch,
            seed,
            &format!("sim x{nranks}"),
            "random_batches_on_sim_match_serial",
        );
    }
}

/// The executor path under deliberate oversubscription: more logical
/// ranks than workers, so ranks interleave at every yield and a fast
/// rank runs entries ahead of the ranks still computing earlier ones,
/// reading their operands while their owners write other outputs.
#[test]
fn random_batches_on_oversubscribed_executor_match_serial() {
    for seed in prop_seeds(0xBA7C_0003, 16) {
        let mut rng = Rng::new(seed);
        let nranks = rng.range(2, 12);
        let batch = random_batch(&mut rng, nranks);
        let workers = rng.range(1, (nranks / 2).max(1));
        let res = srumma_core::batch::multiply_batch_exec(&batch, nranks, workers);
        check(
            &res.outputs,
            &batch,
            seed,
            &format!("exec x{nranks} on {workers} workers"),
            "random_batches_on_oversubscribed_executor_match_serial",
        );
        for &g in &res.ws_grow_counts {
            assert!(g <= 1, "seed {seed:#x}: workspace grew {g} times");
        }
    }
}
