//! Trace a real multiply on a worker per rank and a simulated cluster run,
//! write both timelines as Chrome/Perfetto JSON, and print the derived
//! metrics (overlap, stall, skew, bytes moved).
//!
//! ```sh
//! cargo run --release --example trace_run
//! # then open results/trace_threads.json in ui.perfetto.dev
//! ```

use srumma::trace::chrome_trace_json;
use srumma::{Algorithm, Backend, GemmSpec, Machine, Matrix, Run};

fn main() {
    std::fs::create_dir_all("results").expect("create results/");

    // Four ranks on a worker each, wall-clock events.
    let n = 512;
    let spec = GemmSpec::square(n);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let run = Run {
        operands: Some((&a, &b)),
        trace: true,
        ..Run::new(
            spec,
            4,
            Algorithm::srumma_default(),
            Backend::Exec { workers: 4 },
        )
    }
    .execute()
    .expect("a dense traced run on real data is a legal plan");
    std::fs::write("results/trace_threads.json", chrome_trace_json(&run.trace))
        .expect("write trace");
    println!(
        "executor, a worker per rank: {} events from 4 ranks -> results/trace_threads.json",
        run.trace.len()
    );
    println!("{}\n", run.stats.summary_json());

    // Simulated Linux/Myrinet cluster, virtual-time events.
    let machine = Machine::linux_myrinet();
    let cluster = Backend::Sim(&machine);
    let sim = Run {
        trace: true,
        ..Run::new(
            GemmSpec::square(2000),
            16,
            Algorithm::srumma_default(),
            cluster,
        )
    }
    .execute()
    .expect("a shape-only traced simulator run is a legal plan");
    std::fs::write("results/trace_sim.json", chrome_trace_json(&sim.trace)).expect("write trace");
    println!(
        "sim backend: {} events from 16 ranks -> results/trace_sim.json",
        sim.trace.len()
    );
    println!("{}", sim.stats.summary_json());
}
