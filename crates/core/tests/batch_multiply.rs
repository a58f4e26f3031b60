//! Deterministic correctness and regression tests for the batched
//! multi-GEMM driver (`srumma_core::batch`): one executor, every
//! operand and product read and written in place, no rank waiting for
//! another.

use srumma_core::batch::{
    batch_serial_reference, multiply_batch_exec, multiply_batch_on, multiply_batch_traced,
    BatchEntry, BatchResult, BatchSpec,
};
use srumma_core::driver::{default_grid, multiply_exec, serial_reference, SparseMasks};
use srumma_core::{Algorithm, Backend, GemmSpec, Run, RunError, ShmemFlavor, SrummaOptions};
use srumma_dense::{max_abs_diff, BlockMask, Matrix, Op};
use srumma_model::Machine;

/// A fixed stream exercising every interesting entry shape at once:
/// all four transpose cases, non-square and degenerate (`k = 0`,
/// `k = 1`, single-row) extents, non-default `α`/`β` and an initial C.
type Case = (Op, Op, usize, usize, usize, f64, f64, bool);

fn mixed_batch() -> BatchSpec {
    let mut batch = BatchSpec::new();
    let cases: &[Case] = &[
        (Op::N, Op::N, 16, 16, 16, 1.0, 0.0, false),
        (Op::T, Op::N, 7, 13, 5, 1.5, -0.5, true),
        (Op::N, Op::T, 32, 8, 24, -1.0, 0.0, false),
        (Op::T, Op::T, 11, 11, 11, 2.0, 1.0, true),
        (Op::N, Op::N, 10, 10, 0, 1.0, 0.5, true), // k = 0: pure β-scale
        (Op::T, Op::N, 20, 4, 1, 1.0, 0.0, false), // k = 1: single panel
        (Op::N, Op::T, 1, 24, 9, 0.5, 0.0, false), // single output row
    ];
    for (i, &(ta, tb, m, n, k, alpha, beta, with_c0)) in cases.iter().enumerate() {
        let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(alpha, beta);
        let a = Matrix::random(m, k, 100 + i as u64);
        let b = Matrix::random(k, n, 200 + i as u64);
        let mut e = BatchEntry::new(spec, a, b);
        if with_c0 {
            e = e.with_c0(Matrix::random(m, n, 300 + i as u64));
        }
        batch.push(e);
    }
    batch
}

/// The batch on `backend`, a legal plan.
fn on(batch: &BatchSpec, nranks: usize, backend: Backend<'_>) -> BatchResult {
    multiply_batch_on(batch, nranks, backend).expect("a legal batch plan")
}

/// The executor with a worker per rank: the paper's process per rank.
fn per_rank(nranks: usize) -> Backend<'static> {
    Backend::Exec { workers: nranks }
}

fn assert_matches_reference(outputs: &[Matrix], batch: &BatchSpec, what: &str) {
    let expect = batch_serial_reference(batch);
    assert_eq!(outputs.len(), expect.len(), "{what}: entry count");
    for (e, (got, want)) in outputs.iter().zip(&expect).enumerate() {
        let diff = max_abs_diff(got, want);
        assert!(diff < 1e-10, "{what}: entry {e}: |diff|={diff:e}");
    }
}

#[test]
fn batched_threads_matches_serial_reference() {
    let batch = mixed_batch();
    for nranks in [1usize, 4, 6] {
        let res = on(&batch, nranks, per_rank(nranks));
        assert_matches_reference(&res.outputs, &batch, &format!("per-rank x{nranks}"));
    }
}

#[test]
fn batched_exec_matches_serial_reference() {
    let batch = mixed_batch();
    for (nranks, workers) in [(1usize, 1usize), (4, 2), (6, 3), (8, 2)] {
        let res = multiply_batch_exec(&batch, nranks, workers);
        assert_matches_reference(
            &res.outputs,
            &batch,
            &format!("exec x{nranks} on {workers} workers"),
        );
    }
}

#[test]
fn batched_sim_matches_serial_reference() {
    let batch = mixed_batch();
    let machine = Machine::linux_myrinet();
    let res = on(&batch, 4, Backend::Sim(&machine));
    assert_matches_reference(&res.outputs, &batch, "sim x4");
    assert!(res.stats.wall_s > 0.0, "sim makespan should be positive");
}

/// The grow-at-most-once regression: one `GemmWorkspace` per rank must
/// serve the *whole* stream — mixed shapes included — growing at most
/// once (to the batch high-water mark) rather than once per entry.
#[test]
fn workspace_grows_at_most_once_across_batch() {
    let batch = mixed_batch();
    let res = multiply_batch_exec(&batch, 4, 2);
    assert_eq!(res.ws_grow_counts.len(), 4);
    for (rank, &g) in res.ws_grow_counts.iter().enumerate() {
        assert!(
            g <= 1,
            "exec rank {rank}: workspace grew {g} times across {} entries",
            batch.entries.len()
        );
    }
    let res = on(&batch, 4, per_rank(4));
    for (rank, &g) in res.ws_grow_counts.iter().enumerate() {
        assert!(g <= 1, "per-rank rank {rank}: workspace grew {g} times");
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Prefetch depth moves *when* blocks are fetched, never which gemm
/// calls run or in what per-rank order: at depth {1, 2, 4}, on the
/// executor and on a worker per rank, every stream is bit for bit the executor's
/// depth-1 stream, on one workspace grown at most once.
#[test]
fn prefetch_depth_never_changes_a_bit() {
    let stream = |depth: usize| {
        let opts = SrummaOptions {
            prefetch_depth: depth,
            ..SrummaOptions::default()
        };
        mixed_batch().with_opts(opts)
    };
    let base = multiply_batch_exec(&stream(1), 4, 2);
    let check = |res: &BatchResult, what: &str| {
        for (e, (got, want)) in res.outputs.iter().zip(&base.outputs).enumerate() {
            assert!(
                bits(got) == bits(want),
                "{what}: entry {e} differs from depth 1"
            );
        }
        assert!(
            res.ws_grow_counts.iter().all(|&g| g <= 1),
            "{what}: workspace grows {:?}",
            res.ws_grow_counts
        );
    };
    for depth in [1usize, 2, 4] {
        let batch = stream(depth);
        check(
            &multiply_batch_exec(&batch, 4, 2),
            &format!("exec depth {depth}"),
        );
        check(
            &on(&batch, 4, per_rank(4)),
            &format!("per-rank depth {depth}"),
        );
    }
}

/// A stream for `nranks` whose entries without `c0` each name the
/// [`Run`] they must equal: all four transpose cases, `m` and `n` not
/// multiples of the grid's `p` and `q`, `k` ∈ {0, 1}, a single-row
/// entry, dense and masked operands, the copy flavour, a `β` the fresh
/// C makes moot — with `c0` entries between them, which must disturb
/// nothing. One entry holds most of the stream's flops, so it runs on a
/// team of more than one rank and fewer than all; the masked ones run
/// on the whole machine and the rest on one rank each.
fn run_equivalent_batch(nranks: usize) -> BatchSpec {
    let grid = default_grid(nranks);
    let copy = SrummaOptions {
        shmem: ShmemFlavor::ForceCopy,
        ..SrummaOptions::default()
    };
    // (transa, transb, m, n, k, beta, masked, forced copies, with c0)
    type Case = (Op, Op, usize, usize, usize, f64, bool, bool, bool);
    let cases: &[Case] = &[
        (Op::N, Op::N, 13, 11, 9, 0.0, false, false, false),
        (Op::N, Op::T, 10, 7, 12, 0.5, true, false, false),
        (Op::T, Op::N, 9, 14, 1, 0.0, false, false, false),
        (Op::T, Op::T, 11, 5, 8, -0.5, true, true, false),
        (Op::T, Op::N, 8, 6, 7, 0.5, false, false, true),
        (Op::N, Op::N, 7, 9, 0, 2.0, false, false, false),
        (Op::T, Op::N, 17, 6, 10, 0.0, true, true, false),
        (Op::N, Op::T, 5, 13, 7, 1.0, false, true, false),
        (Op::T, Op::T, 6, 6, 6, 1.0, true, false, true),
        (Op::T, Op::T, 1, 9, 6, 0.0, false, false, false),
        (Op::N, Op::T, 15, 10, 1, 0.0, true, false, false),
        (Op::T, Op::N, 26, 24, 22, 0.0, false, false, false),
    ];
    let mut batch = BatchSpec::new();
    for (i, &(ta, tb, m, n, k, beta, masked, forced, with_c0)) in cases.iter().enumerate() {
        let spec = GemmSpec::new(ta, tb, m, n, k).with_scalars(1.0 - 0.25 * i as f64, beta);
        let seed = 700 + 4 * i as u64;
        let a = Matrix::random(m, k, seed);
        let mut e = BatchEntry::new(spec, a, Matrix::random(k, n, seed + 1));
        if masked {
            e = e.with_masks(
                Some(BlockMask::random(grid.p, grid.q, 0.6, seed + 2)),
                Some(BlockMask::random(grid.p, grid.q, 0.6, seed + 3)),
            );
        }
        if forced {
            e = e.with_opts(copy);
        }
        if with_c0 {
            e = e.with_c0(Matrix::random(m, n, seed + 4));
        }
        batch.push(e);
    }
    batch
}

/// The contract of the in-place stream: every fresh-C entry is, bit for
/// bit, the [`Run`] of its spec, operands, masks and options on the same
/// backend and on its team's rank count — the batch reaches a team's
/// ranks exactly the way a run reaches its own, whatever the
/// transposes, masks or extents. On the simulator's 2-rank nodes the
/// big entry's team at 6 ranks is 2, not 3: a team never splits a node.
#[test]
fn a_batch_entry_is_its_run_bit_for_bit() {
    let machine = Machine::linux_myrinet();
    for (nranks, exec_team, sim_team) in [(4usize, 2usize, 2usize), (6, 3, 2)] {
        let batch = run_equivalent_batch(nranks);
        let backends = [
            ("exec", Backend::Exec { workers: 2 }, exec_team),
            ("per-rank", per_rank(nranks), exec_team),
            ("sim", Backend::Sim(&machine), sim_team),
        ];
        for (name, backend, big_team) in backends {
            let res = on(&batch, nranks, backend);
            let teams: Vec<usize> = (res.stats.entries.iter())
                .map(|es| es.samples.len())
                .collect();
            for (e, entry) in batch.entries.iter().enumerate() {
                let masked = entry.mask_a.is_some() || entry.mask_b.is_some();
                let want = match (e + 1 == batch.entries.len(), masked) {
                    (true, _) => big_team,
                    (_, true) => nranks,
                    _ => 1,
                };
                assert_eq!(teams[e], want, "{name} x{nranks}: entry {e} team");
                if entry.c0.is_some() {
                    continue;
                }
                let masks = SparseMasks {
                    a: entry.mask_a.clone(),
                    b: entry.mask_b.clone(),
                };
                let run = Run {
                    operands: Some((&entry.a, &entry.b)),
                    masks: masked.then_some(&masks),
                    ..Run::new(
                        entry.spec,
                        teams[e],
                        Algorithm::Srumma(batch.entry_opts(e)),
                        backend,
                    )
                };
                let out = run.execute().expect("a legal plan");
                let c = out.c.expect("a run over host operands returns C");
                assert!(
                    bits(&res.outputs[e]) == bits(&c),
                    "{name} x{nranks}: entry {e} ({:?}) is not its run on {} ranks",
                    entry.spec,
                    teams[e]
                );
            }
        }
    }
}

/// Nothing zeroes a batch output (a debug build fills it with NaN), so
/// each element's first write must be its owner's, whichever path writes
/// it: the pre-pass fill on the ranks a mask leaves with no task and on
/// a `k = 0` entry; the `c0` copy at `β` ∈ {0, 0.5, 1}; the first task's
/// store under `ForceCopy` and on every rank of a multi-rank team. An
/// element nobody wrote fails the serial check, on all three backends.
#[test]
fn every_fresh_output_element_is_written_by_its_owner() {
    let nranks = 4;
    let grid = default_grid(nranks);
    let copy = SrummaOptions {
        shmem: ShmemFlavor::ForceCopy,
        ..SrummaOptions::default()
    };
    let entry = |(m, n, k): (usize, usize, usize), beta: f64, seed: u64| {
        let spec = GemmSpec::new(Op::T, Op::N, m, n, k).with_scalars(-1.5, beta);
        BatchEntry::new(
            spec,
            Matrix::random(m, k, seed),
            Matrix::random(k, n, seed + 1),
        )
    };
    let mut batch = BatchSpec::new();
    // Grid row 1 of A's blocks is masked out: its ranks have no task.
    let row_0 = BlockMask::from_fn(grid.p, grid.q, |i, _| i == 0);
    batch.push(entry((12, 10, 8), 0.0, 1).with_masks(Some(row_0), None));
    batch.push(entry((9, 7, 0), 0.0, 3));
    for (i, beta) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        let c0 = Matrix::random(8, 6, 50 + i as u64);
        batch.push(entry((8, 6, 5), beta, 10 + 2 * i as u64).with_c0(c0));
    }
    batch.push(entry((10, 11, 9), 0.0, 20).with_opts(copy));
    batch.push(entry((45, 43, 47), 0.0, 30));
    let big = batch.entries.len() - 1;

    let machine = Machine::linux_myrinet();
    for (name, backend) in [
        ("exec", Backend::Exec { workers: 2 }),
        ("per-rank", per_rank(nranks)),
        ("sim", Backend::Sim(&machine)),
    ] {
        let res = on(&batch, nranks, backend);
        assert_eq!(res.stats.entries[0].samples.len(), nranks, "{name}: masked");
        assert!(res.reports[0].masked_tasks > 0, "{name}: nothing masked");
        assert!(res.stats.entries[big].samples.len() > 1, "{name}: big team");
        assert_matches_reference(&res.outputs, &batch, name);
    }
}

/// 64 square entries, `n` ∈ {16, 24, 32}, cycling through NN, TN and
/// NT: none is more than 1/16 of the stream's flops, so on 16 ranks
/// every entry runs on one.
fn small_entry_stream() -> BatchSpec {
    let mut batch = BatchSpec::new();
    let trans = [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)];
    for i in 0..64u64 {
        let n = [16, 24, 32][i as usize % 3];
        let (ta, tb) = trans[(i as usize / 3) % 3];
        let a = Matrix::random(n, n, 900 + 2 * i);
        let b = Matrix::random(n, n, 901 + 2 * i);
        batch.push(BatchEntry::new(GemmSpec::new(ta, tb, n, n, n), a, b));
    }
    batch
}

/// A one-rank entry is one kernel call over the whole of its logical
/// operands: bit for bit the serial reference, on the executor and on
/// a worker per rank.
#[test]
fn a_one_rank_entry_is_the_serial_reference_bit_for_bit() {
    let batch = small_entry_stream();
    let expect = batch_serial_reference(&batch);
    for (name, backend) in [
        ("exec", Backend::Exec { workers: 2 }),
        ("per-rank", per_rank(16)),
    ] {
        let res = on(&batch, 16, backend);
        for (e, es) in res.stats.entries.iter().enumerate() {
            assert_eq!(
                es.samples.len(),
                1,
                "{name}: entry {e} is not a 1-rank entry"
            );
            assert!(
                bits(&res.outputs[e]) == bits(&expect[e]),
                "{name}: entry {e} ({:?}) is not the serial reference",
                batch.entries[e].spec
            );
        }
    }
}

/// A mask not drawn on `default_grid(nranks)` is refused before any
/// rank runs, as the typed error `Run::validate` gives the same fault,
/// on the simulator and on the executor; the pinned `Exec` form panics
/// with that error.
#[test]
#[should_panic(
    expected = "a legal batch plan: Shape { what: \"mask B\", want: (2, 3), got: (2, 2) }"
)]
fn a_mask_of_the_wrong_shape_fails_at_the_batch() {
    let mut batch = BatchSpec::new();
    for i in 0..2u64 {
        let (a, b) = (Matrix::random(8, 8, i), Matrix::random(8, 8, i + 10));
        batch.push(BatchEntry::new(GemmSpec::square(8), a, b));
    }
    batch.entries[1].mask_b = Some(BlockMask::random(2, 2, 0.5, 3));
    let want = RunError::Shape {
        what: "mask B",
        want: (2, 3),
        got: (2, 2),
    };
    let machine = Machine::linux_myrinet();
    for backend in [Backend::Sim(&machine), Backend::Exec { workers: 2 }] {
        let got = multiply_batch_on(&batch, 6, backend).err();
        assert_eq!(got, Some(want), "{backend:?}");
    }
    multiply_batch_exec(&batch, 6, 2);
}

/// Nothing in the stream waits for another rank: 64 entries on 16
/// ranks polled by 2 workers — the most oversubscribed the benchmark
/// runs — and not one rank task ever parks.
#[test]
fn a_batch_never_parks_a_rank() {
    let batch = small_entry_stream();
    let (res, traced) = multiply_batch_traced(&batch, 16, 2);
    assert_matches_reference(&res.outputs, &batch, "64 entries on 16 ranks");
    let exec = traced
        .stats
        .exec
        .expect("a traced run carries executor stats");
    assert_eq!(
        exec.parks, 0,
        "a rank parked in a stream with nothing to wait for"
    );
    assert_eq!(res.stats.fence_s_per_entry(), 0.0);
}

#[test]
fn empty_batch_is_empty() {
    let batch = BatchSpec::new();
    for res in [
        on(&batch, 4, per_rank(4)),
        multiply_batch_exec(&batch, 4, 2),
    ] {
        assert!(res.outputs.is_empty());
        assert!(res.reports.is_empty());
        assert!(res.ws_grow_counts.is_empty());
        assert_eq!(res.stats.entries.len(), 0);
    }
}

/// A one-entry batch agrees with the standalone driver bit for bit:
/// same views, same spec, same kernel calls in the same order.
#[test]
fn single_entry_batch_matches_standalone_driver() {
    let spec = GemmSpec::square(24);
    let a = Matrix::random(24, 24, 41);
    let b = Matrix::random(24, 24, 42);
    let mut batch = BatchSpec::new();
    batch.push(BatchEntry::new(spec, a.clone(), b.clone()));
    let res = multiply_batch_exec(&batch, 4, 2);
    let (c, _) = multiply_exec(4, 2, &Algorithm::srumma_default(), &spec, &a, &b);
    assert!(
        bits(&res.outputs[0]) == bits(&c),
        "batch-of-one vs standalone |diff|={:e}",
        max_abs_diff(&res.outputs[0], &c)
    );
    let expect = serial_reference(&spec, &a, &b);
    assert!(max_abs_diff(&res.outputs[0], &expect) < 1e-10);
}

/// Per-entry option overrides take effect without disturbing neighbors.
#[test]
fn per_entry_option_overrides_apply() {
    let mut batch = BatchSpec::new().with_opts(SrummaOptions::default());
    for i in 0..4u64 {
        let spec = GemmSpec::square(20);
        let mut e = BatchEntry::new(
            spec,
            Matrix::random(20, 20, 60 + 2 * i),
            Matrix::random(20, 20, 61 + 2 * i),
        );
        if i % 2 == 1 {
            e = e.with_opts(SrummaOptions::naive());
        }
        batch.push(e);
    }
    assert_eq!(batch.entry_opts(1), SrummaOptions::naive());
    assert_eq!(batch.entry_opts(2), SrummaOptions::default());
    for res in [
        on(&batch, 4, per_rank(4)),
        multiply_batch_exec(&batch, 4, 2),
    ] {
        assert_matches_reference(&res.outputs, &batch, "mixed per-entry options");
    }
}

/// The stats rollup: per-entry labels/flops survive, every rank of an
/// entry's team sampled the entry (and no rank outside it did), time
/// flows, and the traced variant carries a timeline.
#[test]
fn batch_stats_and_trace_are_coherent() {
    let batch = mixed_batch();
    let (res, traced) = multiply_batch_traced(&batch, 4, 2);
    assert_matches_reference(&res.outputs, &batch, "traced exec");
    assert_eq!(res.stats.entries.len(), batch.entries.len());
    assert_eq!(res.reports.len(), batch.entries.len());
    for (e, es) in res.stats.entries.iter().enumerate() {
        assert_eq!(es.index, e);
        assert!(
            !es.samples.is_empty() && es.base + es.samples.len() <= 4,
            "entry {e}: one sample per team rank, team {} + {}",
            es.base,
            es.samples.len()
        );
        assert!(
            es.samples
                .iter()
                .all(|s| s.t_end >= s.t_start && s.t_end > 0.0),
            "entry {e}: a team rank that never ran the entry was sampled"
        );
        assert_eq!(es.flops, batch.entries[e].spec.flops());
        assert!(es.label.contains('x'), "entry {e}: label {:?}", es.label);
        assert!(es.span_s() >= 0.0);
        // Entries with work must report tasks; k = 0 entries may not.
        if batch.entries[e].spec.k > 0 {
            assert!(res.reports[e].tasks > 0, "entry {e}: no tasks recorded");
        }
    }
    assert!(res.stats.wall_s > 0.0);
    let ov = res.stats.inter_entry_overlap();
    assert!((0.0..1.0).contains(&ov), "overlap {ov} out of range");
    assert!(res.stats.fence_s_per_entry() >= 0.0);
    assert!(
        traced.stats.exec.is_some(),
        "traced run should carry executor stats"
    );
    assert!(
        !traced.trace.is_empty(),
        "traced run should carry trace events"
    );
    let json = res.stats.summary_json();
    assert!(json.contains("inter_entry_overlap"), "summary: {json}");
}
