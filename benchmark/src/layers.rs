//! The per-layer pass (`--trace 1`): direct timings of each layer's
//! public functions, the counters the program already returns, and a
//! traced pass through the program's `_traced` entry points. Every
//! timing here is a harness span; the metrics are medians of spans by
//! name. Runs after the timed pass and never changes it.

use crate::adapter::{
    self, Dense, GemmSpec, Matrix, Op, RunStats, ShmemFlavor, TaskShape, WORKERS,
};
use crate::child::Accumulated;
use crate::report::Metrics;
use crate::spans::{shares, Spans};
use crate::stats::median;
use crate::workloads::{Batch, Gemm, Output, Sim, SplitMix, TracedOp, Workload};

/// Ops of the traced pass.
pub const TRACED_OPS: usize = 20;
/// Repetitions of each cheap direct probe.
const REPS: usize = 20;
/// Repetitions of each probe that costs about one op.
const FEW: usize = 5;
/// Task lists built per `core.tasklist` span (one is sub-microsecond).
const TASKLISTS_PER_SPAN: usize = 100;
/// Barriers per `comm.exec_barriers` run.
const BARRIERS: usize = 100;
/// Seconds of `dgemm_ws` the dense probe aims for.
const DGEMM_PROBE_S: f64 = 0.25;

pub struct Traced {
    pub metrics: Metrics,
    /// How many of the [`TRACED_OPS`] ops failed verification.
    pub failed: usize,
    /// Chrome-trace JSON of the last traced op (`[]` without one).
    pub program_trace: String,
}

fn med(spans: &Spans, name: &str) -> f64 {
    median(&spans.durations(name))
}

/// `dense.*`: the kernel, the packed dgemm and the packing alone, on one
/// thread at one rank-task's shape.
fn dense_layer(m: &mut Metrics, shape: TaskShape, seed: u64, spans: &mut Spans) -> f64 {
    let stored = |t: Op, rows: usize, cols: usize| match t {
        Op::N => (rows, cols),
        Op::T => (cols, rows),
    };
    let mut rng = SplitMix::new(seed ^ 0x00DE_A5E0);
    let (ar, ac) = stored(shape.ta, shape.m, shape.k);
    let (br, bc) = stored(shape.tb, shape.k, shape.n);
    let (a, b) = (rng.matrix(ar, ac), rng.matrix(br, bc));
    let mut c = Matrix::zeros(shape.m, shape.n);
    let mut dense = Dense::new();

    let (_, once) = spans.time("dense.warm", |_| dense.dgemm(shape, &a, &b, &mut c));
    let reps = ((DGEMM_PROBE_S / once) as usize).clamp(FEW, 400);
    for _ in 0..reps {
        spans.time("dense.dgemm_ws", |_| dense.dgemm(shape, &a, &b, &mut c));
        spans.time("dense.pack", |_| dense.pack_only(shape, &a, &b));
    }
    let dgemm_gflops = shape.flops() / med(spans, "dense.dgemm_ws") / 1e9;
    m.set("dense.dgemm_ws_gflops", dgemm_gflops);
    m.set(
        "dense.pack_share",
        med(spans, "dense.pack") / med(spans, "dense.dgemm_ws"),
    );
    m.set("dense.flops_per_byte", shape.flops_per_byte());

    let mut rates = Vec::new();
    for _ in 0..REPS {
        let (flops, secs) = spans.time("dense.microkernel", |_| dense.microkernel(shape.k, 20_000));
        rates.push(flops / secs / 1e9);
    }
    m.set("dense.microkernel_gflops", median(&rates));
    m.set("dense.ws_grows", dense.ws_grows() as f64);
    dgemm_gflops
}

/// `comm.*` timed directly: distribution, scatter, gather, the get's
/// memcpy, pool spawn and barriers.
fn comm_layer(m: &mut Metrics, g: &Gemm, spans: &mut Spans) {
    let mut buf = Vec::new();
    let mut bytes = 0;
    for _ in 0..REPS {
        let (d, _) = spans.time("comm.dist_create", |_| {
            adapter::dist_create(&g.spec, g.nranks)
        });
        spans.time("comm.scatter", |_| d.scatter(&g.a, &g.b));
        std::hint::black_box(spans.time("comm.gather", |_| d.gather()));
        bytes = spans
            .time("comm.block_copy", |_| d.copy_all_blocks(&mut buf))
            .0;
    }
    m.set("comm.dist_create_s", med(spans, "comm.dist_create"));
    m.set("comm.scatter_s", med(spans, "comm.scatter"));
    m.set("comm.gather_s", med(spans, "comm.gather"));
    m.set(
        "comm.block_copy_gbps",
        bytes as f64 / med(spans, "comm.block_copy") / 1e9,
    );
    pools_and_barriers(m, g.nranks, spans);
}

fn pools_and_barriers(m: &mut Metrics, nranks: usize, spans: &mut Spans) {
    let mut barrier_s = Vec::new();
    for _ in 0..REPS {
        spans.time("comm.exec_spawn", |_| adapter::exec_spawn(nranks));
        spans.time("comm.thread_spawn", |_| adapter::thread_spawn(nranks));
        barrier_s.push(
            spans
                .time("comm.exec_barriers", |_| {
                    adapter::exec_barriers(nranks, BARRIERS)
                })
                .0,
        );
    }
    m.set("comm.exec_spawn_s", med(spans, "comm.exec_spawn"));
    m.set("comm.thread_spawn_s", med(spans, "comm.thread_spawn"));
    m.set(
        "comm.barrier_us",
        median(&barrier_s) / BARRIERS as f64 * 1e6,
    );
}

fn tasklist(m: &mut Metrics, spec: &GemmSpec, nranks: usize, spans: &mut Spans) {
    for _ in 0..REPS {
        spans.time("core.tasklist", |_| {
            for _ in 0..TASKLISTS_PER_SPAN {
                std::hint::black_box(adapter::tasklist(spec, nranks));
            }
        });
    }
    m.set(
        "core.tasklist_us",
        med(spans, "core.tasklist") / TASKLISTS_PER_SPAN as f64 * 1e6,
    );
}

/// The counters every executor op returns, averaged over the timed pass.
fn exec_counters(m: &mut Metrics, acc: &Accumulated) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if acc.steal_rate.is_empty() {
        return;
    }
    m.set("comm.exec_steal_rate", mean(&acc.steal_rate));
    m.set("comm.exec_occupancy", mean(&acc.occupancy));
    m.set("comm.exec_rank_parks", mean(&acc.rank_parks));
    m.set("comm.exec_worker_parks", mean(&acc.worker_parks));
}

fn byte_counters(m: &mut Metrics, stats: &RunStats) {
    m.set("comm.bytes_fetched", stats.total_fetched_bytes() as f64);
    m.set("comm.bytes_direct", stats.total_direct_bytes() as f64);
    let transfers: u64 = stats.ranks.iter().map(|r| r.transfers).sum();
    m.set("comm.transfers", transfers as f64);
}

fn gemm_layers(
    m: &mut Metrics,
    g: &Gemm,
    acc: &Accumulated,
    p50: f64,
    seed: u64,
    spans: &mut Spans,
) {
    let dgemm_gflops = dense_layer(m, adapter::task_shape(&g.spec, g.nranks), seed, spans);
    m.set(
        "core.efficiency_vs_dgemm",
        g.spec.flops() / p50 / 1e9 / (WORKERS as f64 * dgemm_gflops),
    );
    comm_layer(m, g, spans);
    tasklist(m, &g.spec, g.nranks, spans);
    exec_counters(m, acc);
    if let Some(stats) = &acc.last_stats {
        byte_counters(m, stats);
    }

    for _ in 0..=FEW {
        spans.time("core.single_rank", |_| {
            adapter::multiply_exec(1, 1, g.flavor, &g.spec, &g.a, &g.b)
        });
    }
    let single = median(&spans.durations("core.single_rank")[1..]);
    m.set("core.single_rank_gflops", g.spec.flops() / single / 1e9);
    if g.threads_rung {
        for _ in 0..=FEW {
            spans.time("core.threads", |_| {
                adapter::multiply_threads(2, g.flavor, &g.spec, &g.a, &g.b)
            });
        }
        let threads = median(&spans.durations("core.threads")[1..]);
        m.set("core.threads_gflops", g.spec.flops() / threads / 1e9);
    }
}

fn batch_layers(
    m: &mut Metrics,
    b: &Batch,
    acc: &Accumulated,
    p50: f64,
    seed: u64,
    spans: &mut Spans,
) {
    // The stream's median entry: n = 96, untransposed.
    let entry = GemmSpec::new(Op::N, Op::N, 96, 96, 96);
    let dgemm_gflops = dense_layer(m, adapter::task_shape(&entry, b.nranks), seed, spans);
    m.set("dense.ws_grows", acc.ws_grows as f64);
    m.set(
        "core.efficiency_vs_dgemm",
        b.spec.flops() / p50 / 1e9 / (WORKERS as f64 * dgemm_gflops),
    );
    pools_and_barriers(m, b.nranks, spans);
    tasklist(m, &entry, b.nranks, spans);
    m.set("core.batch_inter_entry_overlap", median(&acc.batch_overlap));
    m.set("core.batch_fence_s_per_entry", median(&acc.batch_fence_s));

    for _ in 0..=FEW {
        spans.time("core.single_rank", |_| {
            adapter::multiply_batch_exec(&b.spec, 1, 1)
        });
        // The loop-of-multiplies shape the batch replaces: one pool, one
        // distribution and two barriers per entry.
        spans.time("core.batch_loop", |_| {
            for e in &b.spec.entries {
                std::hint::black_box(adapter::multiply_exec(
                    b.nranks,
                    WORKERS,
                    ShmemFlavor::Auto,
                    &e.spec,
                    &e.a,
                    &e.b,
                ));
            }
        });
    }
    let single = median(&spans.durations("core.single_rank")[1..]);
    m.set("core.single_rank_gflops", b.spec.flops() / single / 1e9);
    let looped = median(&spans.durations("core.batch_loop")[1..]);
    m.set("core.batch_speedup_over_loop", looped / p50);
}

/// `sim.*`, `comm.virt_*` host times (spans of the traced pass) and the
/// exact `model.*` numbers.
fn sim_layers(m: &mut Metrics, s: &Sim, acc: &Accumulated, spans: &Spans) {
    let Some(runs) = &acc.last_sim else {
        return;
    };
    let des_host_s = med(spans, "sim.measure_modeled");
    let transfers: u64 = runs.des.ranks.iter().map(|r| r.transfers).sum();
    m.set("sim.des_host_s", des_host_s);
    m.set(
        "sim.des_transfers_per_host_s",
        transfers as f64 / des_host_s,
    );
    m.set("comm.virt_flat_host_s", med(spans, "comm.virt_flat"));
    m.set("comm.virt_hier_host_s", med(spans, "comm.virt_hier"));
    m.set("model.makespan_srumma_s", runs.des.makespan);
    m.set("model.makespan_summa_s", s.summa.makespan);
    m.set(
        "model.mean_overlap",
        runs.des.mean_overlap().unwrap_or(f64::NAN),
    );
    m.set("model.bytes_network", runs.des.total_network_bytes() as f64);
    m.set(
        "model.virt_internode_bytes_flat",
        runs.flat.total_internode_bytes() as f64,
    );
    m.set(
        "model.virt_internode_bytes_hier",
        runs.hier.total_internode_bytes() as f64,
    );
}

/// The direct probes: every per-layer metric that is not read off the
/// traced pass. `samples` are the timed pass's per-op seconds.
pub fn probes(
    w: &Workload,
    acc: &Accumulated,
    samples: &[f64],
    serial_s: Option<f64>,
    seed: u64,
    spans: &mut Spans,
) -> Metrics {
    let mut m = Metrics::default();
    let p50 = median(samples);
    if let (Some(flops), Some(serial_s)) = (w.flops(), serial_s) {
        m.set("dense.serial_full_gflops", flops / serial_s / 1e9);
    }
    if !acc.parallel_section_s.is_empty() {
        m.set("core.parallel_section_s", median(&acc.parallel_section_s));
        let overhead: Vec<f64> = acc
            .parallel_section_s
            .iter()
            .zip(samples)
            .map(|(section, wall)| 1.0 - section / wall)
            .collect();
        m.set("core.driver_overhead_share", median(&overhead));
    }
    match w {
        Workload::Gemm(g) => gemm_layers(&mut m, g, acc, p50, seed, spans),
        Workload::Batch(b) => batch_layers(&mut m, b, acc, p50, seed, spans),
        Workload::Sim(s) => sim_layers(&mut m, s, acc, spans),
    }
    m
}

/// The traced pass: the same closed loop and off-the-clock check as the
/// timed pass, through the program's `_traced` entry points, with the
/// harness spans on. Runs straight after the timed pass, in the same
/// allocator state, so `trace.overhead_ratio` compares like with like.
pub fn traced_pass(w: &mut Workload, p50: f64, spans: &mut Spans) -> Traced {
    let mut m = Metrics::default();
    let (mut compute_s, mut busy_s, mut capacity_s) = (0.0, 0.0, 0.0);
    let (mut overlap, mut skew, mut events) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    // Of the last op: its statistics, its events, whether it was a batch.
    let mut last = None;
    for _ in 0..TRACED_OPS {
        spans.next_op();
        let (
            TracedOp {
                out,
                stats,
                events: op_events,
            },
            _,
        ) = spans.time("op", |sp| w.traced_op(sp));
        if !w.verify(&out) {
            failed += 1;
        }
        let batch = matches!(out, Output::Batch(_));
        // As in the timed pass, the output is gone before the next op
        // starts: a live C pins the heap top and changes what the next
        // op's allocations cost.
        drop(out);
        if let Some(stats) = stats {
            if let Some(e) = stats.exec {
                compute_s += stats.ranks.iter().map(|r| r.compute_time).sum::<f64>();
                busy_s += e.busy_seconds;
                capacity_s += e.workers as f64 * e.wall_seconds;
            }
            overlap.extend(stats.mean_overlap());
            skew.push(stats.makespan_skew());
            events.push(op_events.len() as f64);
            last = Some((stats, op_events, batch));
        }
    }
    m.set("trace.overhead_ratio", med(spans, "op") / p50);
    let mut program_trace = "[]".to_string();
    match last {
        Some((stats, last_events, batch)) => {
            let s = shares(compute_s, busy_s, capacity_s);
            m.set("core.trace_compute_share", s.compute);
            m.set("core.trace_noncompute_busy_share", s.noncompute_busy);
            m.set("core.trace_idle_share", s.idle);
            if !overlap.is_empty() {
                m.set("core.overlap", median(&overlap));
            }
            m.set("core.makespan_skew", median(&skew));
            m.set("trace.events_per_op", median(&events));
            let (json, export_s) = spans.time("trace.chrome_trace_json", |_| {
                adapter::chrome_trace_json(&last_events)
            });
            m.set("trace.export_s", export_s);
            program_trace = json;
            if batch {
                // An untraced batch returns no scheduler counters.
                if let Some(e) = stats.exec {
                    m.set("comm.exec_steal_rate", e.steal_rate());
                    m.set("comm.exec_occupancy", e.occupancy());
                    m.set("comm.exec_rank_parks", e.parks as f64);
                    m.set("comm.exec_worker_parks", e.worker_parks as f64);
                }
                byte_counters(&mut m, &stats);
            }
        }
        // No program trace (`sim_scale`): the harness spans are the events.
        None => {
            let per_op = spans.all().iter().filter(|s| s.op_id == 1).count();
            m.set("trace.events_per_op", per_op as f64);
        }
    }
    Traced {
        metrics: m,
        failed,
        program_trace,
    }
}

/// Where the ledger writes: `out/` beside the benchmark's manifest.
pub fn out_dir() -> std::path::PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    std::path::Path::new(&manifest).join("out")
}

/// `out/trace_<workload>.json`: the harness spans of the whole run and
/// the program's own timeline of the last traced op.
pub fn write_trace(workload: &str, spans: &Spans, program_trace: &str) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        format!(
            "{{\"workload\": \"{workload}\",\n\"spans\": {},\n\"program_trace_last_op\": {program_trace}}}\n",
            spans.to_json()
        ),
    )
}
