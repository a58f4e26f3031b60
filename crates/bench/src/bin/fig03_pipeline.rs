//! **Figure 3** — the double-buffering pipeline (schematic in the
//! paper): "at a given step, a processor receives data in B2 while
//! computing the data in B1; … overlapping communication with
//! computation is achieved in all steps, except first."
//!
//! This harness runs SRUMMA with tracing on a small Linux-cluster
//! configuration and renders each rank's timeline as an ASCII Gantt
//! chart: `#` = dgemm, `-` = nonblocking get in flight, `.` = waiting.
//! The pipeline shape shows each get overlapped with the previous
//! task's dgemm.

use srumma_bench::write_bench_json;
use srumma_comm::{sim_run, SimOptions};
use srumma_core::layout::{dist_a, dist_b, dist_c};
use srumma_core::{parallel_gemm, Algorithm, GemmSpec};
use srumma_model::Machine;
use srumma_sim::trace::{ascii_gantt, chrome_trace_json};
use srumma_trace::bench_report_json;

fn main() {
    let machine = Machine::linux_myrinet();
    let nranks = 8; // 4 dual-CPU nodes
    let spec = GemmSpec::square(2000);
    let grid = srumma_core::driver::default_grid(nranks);
    let da = dist_a(&spec, grid, false);
    let db = dist_b(&spec, grid, false);
    let dc = dist_c(&spec, grid, false);

    let mut opts = SimOptions::new(machine, nranks);
    opts.trace = true;
    let res = sim_run(&opts, |comm| {
        parallel_gemm(comm, &Algorithm::srumma_default(), &spec, &da, &db, &dc);
    });

    println!("Figure 3: SRUMMA double-buffered pipeline, N=2000 on 8 CPUs (Linux/Myrinet)");
    println!("legend: '#' compute (dgemm), '-' nonblocking get in flight, '.' wait, '|' barrier\n");
    print!("{}", ascii_gantt(&res.trace, nranks, 100));

    // Quantify the overlap the picture shows.
    let overlap = res.stats.mean_overlap().unwrap_or(0.0);
    println!(
        "\nachieved communication overlap: {:.0}% (paper: >90% on Linux)",
        overlap * 100.0
    );
    println!("virtual makespan: {:.3} ms", res.makespan() * 1e3);

    // Chrome/Perfetto trace for interactive inspection, plus the
    // unified report (metrics summary + the events it derives from).
    let json = chrome_trace_json(&res.trace);
    if let Ok(dir) = srumma_trace::ensure_results_dir() {
        let path = dir.join("fig03_trace.json");
        if std::fs::write(&path, &json).is_ok() {
            eprintln!("wrote {} (load in ui.perfetto.dev)", path.display());
        }
    }
    write_bench_json(
        "fig03_pipeline",
        &bench_report_json("fig03_pipeline", "sim", &json, &res.stats.summary_json()),
    );

    // Also dump the per-task schedule of rank 0 for inspection.
    println!("\nrank 0 timeline (first 12 events):");
    for e in res.trace.iter().filter(|e| e.rank == 0).take(12) {
        println!(
            "  {:>9.3} ms .. {:>9.3} ms  {:?} {}",
            e.t0 * 1e3,
            e.t1 * 1e3,
            e.kind,
            e.label
        );
    }
}
