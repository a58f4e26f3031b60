//! One workload in this process: set-up, the timed closed loop, the
//! off-the-clock checks, and (with `--trace 1`) the per-layer pass.
//!
//! A workload never shares a process with another: allocator history
//! (README.md, "Why a child process per workload") is part of what is
//! measured, and it must be the workload's own.

use crate::adapter::{Dense, GemmSpec, Matrix, Op, RunStats, TaskShape};
use crate::layers;
use crate::procfs;
use crate::report::{contract_per_layer, Metrics, CONTRACT_END_TO_END};
use crate::spans::Spans;
use crate::stats::{consecutive_rounds, median, percentile, pool, round_spread};
use crate::workloads::{Output, Workload};
use std::time::Instant;

/// Untimed ops between generating the inputs and the first timed op:
/// pools, arenas and packing workspaces reach their steady state.
const WARMUP_OPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds of single-threaded whole-problem baseline to sample (at
/// least [`SERIAL_MIN`] solutions, at most [`SERIAL_MAX`]).
const SERIAL_S: f64 = 0.5;
const SERIAL_MIN: usize = 5;
const SERIAL_MAX: usize = 100;

/// When the timed loop stops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// After this many seconds of closed-loop work (the contract mode).
    Seconds(f64),
    /// After exactly this many ops (the full ledger: identical counts on
    /// every commit).
    Ops(usize),
}

/// What the timed loop keeps of each op's returned statistics (reading
/// them is off the clock and costs nothing worth mentioning).
#[derive(Default)]
pub struct Accumulated {
    pub parallel_section_s: Vec<f64>,
    pub steal_rate: Vec<f64>,
    pub occupancy: Vec<f64>,
    pub rank_parks: Vec<f64>,
    pub worker_parks: Vec<f64>,
    pub batch_overlap: Vec<f64>,
    pub batch_fence_s: Vec<f64>,
    pub ws_grows: u64,
    /// The last op's run statistics (dense workloads; exact counters).
    pub last_stats: Option<RunStats>,
    /// The last op's three simulated runs (`sim_scale`).
    pub last_sim: Option<crate::workloads::SimRuns>,
}

impl Accumulated {
    fn absorb(&mut self, out: Output) {
        match out {
            Output::Gemm(run) => {
                self.parallel_section_s.push(run.parallel_section_s);
                if let Some(e) = run.stats.exec {
                    self.steal_rate.push(e.steal_rate());
                    self.occupancy.push(e.occupancy());
                    self.rank_parks.push(e.parks as f64);
                    self.worker_parks.push(e.worker_parks as f64);
                }
                self.last_stats = Some(run.stats);
            }
            Output::Batch(res) => {
                self.parallel_section_s.push(res.stats.wall_s);
                self.batch_overlap.push(res.stats.inter_entry_overlap());
                self.batch_fence_s.push(res.stats.fence_s_per_entry());
                let grows = res.ws_grow_counts.iter().copied().max().unwrap_or(0);
                self.ws_grows = self.ws_grows.max(grows);
            }
            Output::Sim(runs) => self.last_sim = Some(runs),
        }
    }
}

/// Generate, then warm up: everything between process start and the
/// first timed op.
fn set_up(name: &str, seed: u64) -> Option<Workload> {
    let w = Workload::generate(name, seed)?;
    for _ in 0..WARMUP_OPS {
        std::hint::black_box(w.op());
    }
    Some(w)
}

/// Median seconds of the plain single-threaded solution of the whole
/// problem: `dgemm_ws` on one warm workspace (a serial loop over the
/// entries for a batch). `None` where there is no dense problem.
fn serial_baseline(w: &Workload, spans: &mut Spans) -> Option<f64> {
    let full = |spec: &GemmSpec| TaskShape {
        ta: Op::N,
        tb: Op::N,
        m: spec.m,
        n: spec.n,
        k: spec.k,
    };
    let mut dense = Dense::new();
    let mut problems: Vec<(TaskShape, &Matrix, &Matrix, Matrix)> = match w {
        Workload::Gemm(g) => vec![(full(&g.spec), &g.a, &g.b, Matrix::zeros(g.spec.m, g.spec.n))],
        Workload::Batch(b) => b
            .spec
            .entries
            .iter()
            .map(|e| (full(&e.spec), &e.a, &e.b, Matrix::zeros(e.spec.m, e.spec.n)))
            .collect(),
        Workload::Sim(_) => return None,
    };
    let mut solve = |dense: &mut Dense| {
        for (shape, a, b, c) in problems.iter_mut() {
            dense.dgemm(*shape, a, b, c);
        }
    };
    let (_, warm) = spans.time("dense.serial_warm", |_| solve(&mut dense));
    let n = ((SERIAL_S / warm) as usize).clamp(SERIAL_MIN, SERIAL_MAX);
    let samples: Vec<f64> = (0..n)
        .map(|_| spans.time("dense.serial_full", |_| solve(&mut dense)).1)
        .collect();
    Some(median(&samples))
}

/// The end-to-end metrics (those that apply) from timed samples
/// grouped in rounds. Shared by a single child, whose rounds are the
/// thirds of its run, and by the ledger, whose rounds are processes.
#[allow(clippy::too_many_arguments)]
pub fn end_to_end(
    rounds: &[Vec<f64>],
    flops: Option<f64>,
    serial_s: Option<f64>,
    sim: Option<(f64, f64)>,
    setup_s: f64,
    peak_rss_mb: f64,
    failed: usize,
    attempted: usize,
) -> Metrics {
    let pooled = pool(rounds);
    let p50 = median(&pooled);
    let mut m = Metrics::default();
    m.set("wall_s_p50", p50);
    m.set("wall_s_p10", percentile(&pooled, 0.1));
    if let Some(flops) = flops {
        m.set("gflops", flops / p50 / 1e9);
    }
    if let Some(serial_s) = serial_s {
        m.set("speedup_vs_serial", serial_s / p50);
    }
    if let Some((makespan, speedup)) = sim {
        m.set("sim_makespan_s", makespan);
        m.set("sim_speedup_vs_summa", speedup);
    }
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("fail_ratio", failed as f64 / attempted.max(1) as f64);
    m.set("ops", pooled.len() as f64);
    m.set("core.wall_s_p90", percentile(&pooled, 0.9));
    m.set("core.round_spread", round_spread(rounds));
    m
}

/// `sim_makespan_s` and `sim_speedup_vs_summa` of a `sim_scale` run.
fn sim_end_to_end(w: &Workload, acc: &Accumulated) -> Option<(f64, f64)> {
    let (Workload::Sim(s), Some(runs)) = (w, &acc.last_sim) else {
        return None;
    };
    Some((
        runs.makespans().iter().sum(),
        s.summa.makespan / runs.des.makespan,
    ))
}

/// Run `name` here. Prints `metric` / `aux` / `samples` lines, then the
/// contract's one-object result line; returns the process exit code.
pub fn run(name: &str, seed: u64, limit: Limit, trace: bool, started: Instant) -> u8 {
    let Some(mut w) = set_up(name, seed) else {
        eprintln!("unknown workload {name:?}");
        return 2;
    };
    let mut setup_samples = vec![started.elapsed().as_secs_f64()];

    // The timed pass: closed loop, one client, tracing off. The check
    // and the drop of each output happen between ops, off the clock.
    let mut samples = Vec::new();
    let mut failed = 0usize;
    let mut acc = Accumulated::default();
    let faults_before = procfs::minor_faults();
    let loop_start = Instant::now();
    loop {
        let t = Instant::now();
        let out = w.op();
        samples.push(t.elapsed().as_secs_f64());
        if !w.verify(&out) {
            failed += 1;
        }
        acc.absorb(out);
        let done = match limit {
            Limit::Seconds(s) => loop_start.elapsed().as_secs_f64() >= s,
            Limit::Ops(n) => samples.len() >= n,
        };
        if done {
            break;
        }
    }
    let faults_per_op = (procfs::minor_faults() - faults_before) / samples.len() as f64;
    let peak_rss_mb = procfs::vm_hwm_mb();

    let mut spans = Spans::new();
    let mut attempted = samples.len();
    let mut layer_metrics = Metrics::default();
    let mut program_trace = String::new();
    if trace {
        let traced = layers::traced_pass(&mut w, median(&samples), &mut spans);
        attempted += layers::TRACED_OPS;
        failed += traced.failed;
        layer_metrics = traced.metrics;
        program_trace = traced.program_trace;
    }
    let serial_s = serial_baseline(&w, &mut spans);
    if trace {
        layer_metrics.extend(layers::probes(
            &w, &acc, &samples, serial_s, seed, &mut spans,
        ));
        layer_metrics.set("comm.minor_faults_per_op", faults_per_op);
        if let Err(e) = layers::write_trace(name, &spans, &program_trace) {
            eprintln!("warning: could not write the trace file: {e}");
        }
    }

    // The remaining set-ups, after everything that must see only this
    // workload's own allocator history.
    let flops = w.flops();
    let sim = sim_end_to_end(&w, &acc);
    drop(w);
    for _ in 1..SETUPS {
        let t = Instant::now();
        let again = set_up(name, seed);
        setup_samples.push(t.elapsed().as_secs_f64());
        drop(again);
    }

    let rounds = consecutive_rounds(&samples, 3);
    let mut metrics = end_to_end(
        &rounds,
        flops,
        serial_s,
        sim,
        median(&setup_samples),
        peak_rss_mb,
        failed,
        attempted,
    );
    metrics.extend(layer_metrics);

    print!("{}", metrics.lines());
    if let Some(s) = serial_s {
        println!("aux serial_s {s}");
    }
    if let Some(f) = flops {
        println!("aux flops {f}");
    }
    println!("aux failed {failed}");
    println!("aux attempted {attempted}");
    let csv: Vec<String> = samples.iter().map(|s| s.to_string()).collect();
    println!("samples {}", csv.join(","));

    let problems = metrics.end_to_end_problems(name);
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    let listed: Vec<&'static str> = if trace {
        contract_per_layer().collect()
    } else {
        CONTRACT_END_TO_END.to_vec()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty(),
        metrics.json(listed.into_iter(), true)
    );
    u8::from(!problems.is_empty())
}
