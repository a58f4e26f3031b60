//! Graceful degradation under a straggler: SRUMMA vs SUMMA (pdgemm).
//!
//! The paper's resilience story, quantified: slow **one** rank by a
//! factor `f` and watch the whole run's makespan. SUMMA's per-k-panel
//! broadcasts are two-sided — every rank's progress gates on the
//! straggler's host each panel, so the collective serializes on it and
//! the run degrades by roughly the full factor. SRUMMA's one-sided
//! gets are served by the straggler's NIC/memory system *without its
//! CPU in the loop*: peers keep prefetching and computing at full
//! speed, only the straggler's own tile work stretches, and the
//! prefetch pipeline hides even more of it. The degradation ratio
//! (straggled makespan / healthy makespan) must therefore sit strictly
//! below SUMMA's at every factor — that inequality is asserted here
//! and gated (warn-level) in CI via `bench_diff --only
//! degradation_ratio`.
//!
//! Runs under the virtual-time simulator (`Backend::Sim`, Linux
//! cluster + Myrinet model, shape-only matrices), so every number is
//! bit-for-bit reproducible. The default problem size keeps the run
//! communication-bound — the regime where the communication styles
//! actually differ (see the note in `main`).
//!
//! Emits `results/BENCH_degradation.json`; headline metrics are
//! `degradation_ratio_<alg>_x<factor*100>`.
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_degradation
//! [-- --quick] [-- --out PATH] [-- --n N] [-- --nranks P]`

use srumma_bench::{print_table, BenchArgs};
use srumma_comm::FaultPlan;
use srumma_core::{Algorithm, Backend, GemmSpec, Run};
use srumma_model::Machine;
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;

fn main() {
    let cfg = BenchArgs::parse(&["--n", "--nranks"]);
    let nranks = cfg.extra("--nranks").unwrap_or(16);
    // The default regime is deliberately communication-bound (small
    // tiles per rank): straggler resilience is a property of the
    // *communication* style, and this is where the two styles differ.
    // At compute-bound sizes both algorithms' makespans converge to
    // `factor x the straggler's compute` and the relative ratio
    // mechanically favors whichever algorithm had the worse healthy
    // baseline — a denominator artifact, not resilience (sweep `--n`
    // to watch the crossover).
    let n = cfg.extra("--n").unwrap_or(384);
    let straggler = 0usize;
    let factors: &[f64] = if cfg.quick {
        &[2.0, 4.0]
    } else {
        &[1.5, 2.0, 3.0, 4.0]
    };
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(n);
    let algs = [
        ("srumma", Algorithm::srumma_default()),
        ("summa", Algorithm::summa_default()),
    ];

    let mut metrics = JsonObject::new();
    metrics.num("nranks", nranks as f64);
    metrics.num("n", n as f64);

    // Shape-only runs under the simulator, faults applied in virtual time.
    let measure_chaos = |alg: &Algorithm, plan: &FaultPlan| {
        Run {
            faults: Some(plan),
            ..Run::new(spec, nranks, *alg, Backend::Sim(&machine))
        }
        .execute()
        .expect("straggler plans are legal on the simulator")
        .stats
    };

    // Healthy baselines.
    let healthy: Vec<f64> = algs
        .iter()
        .map(|(name, alg)| {
            let stats = measure_chaos(alg, &FaultPlan::healthy());
            metrics.num(&format!("seconds_healthy_{name}"), stats.makespan);
            eprintln!("{name:>7} healthy: {:.3} s", stats.makespan);
            stats.makespan
        })
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut ratios: Vec<(u64, f64, f64)> = Vec::new(); // (factor*100, srumma, summa)
    for &f in factors {
        let fx = (f * 100.0).round() as u64;
        let plan = FaultPlan::single_straggler(nranks, straggler, f);
        let mut row = vec![format!("{f:.2}x")];
        let mut pair = [0.0f64; 2];
        for (i, (name, alg)) in algs.iter().enumerate() {
            let stats = measure_chaos(alg, &plan);
            let ratio = stats.makespan / healthy[i];
            metrics.num(&format!("seconds_straggled_{name}_x{fx}"), stats.makespan);
            metrics.num(&format!("degradation_ratio_{name}_x{fx}"), ratio);
            row.push(format!("{:.3}", stats.makespan));
            row.push(format!("{ratio:.3}"));
            pair[i] = ratio;
        }
        eprintln!(
            "factor {f:.2}x: srumma ratio {:.3}, summa ratio {:.3}",
            pair[0], pair[1]
        );
        ratios.push((fx, pair[0], pair[1]));
        rows.push(row);
    }

    print_table(
        &format!(
            "single straggler (rank {straggler}) degradation, n={n}, {nranks} ranks, \
             Linux+Myrinet model"
        ),
        &[
            "factor",
            "srumma s",
            "srumma ratio",
            "summa s",
            "summa ratio",
        ],
        &rows,
    );

    // The acceptance gate: SRUMMA must degrade strictly less than SUMMA
    // at every swept factor. Deterministic simulation — a violation is
    // a model/algorithm regression, never noise, so it is fatal.
    let mut ok = true;
    for &(fx, srumma, summa) in &ratios {
        if srumma >= summa {
            eprintln!(
                "DEGRADATION GATE VIOLATED at {}x: srumma ratio {srumma:.3} >= summa ratio \
                 {summa:.3}",
                fx as f64 / 100.0
            );
            ok = false;
        }
    }

    let report = bench_report_json("degradation", "sim", "[]", &metrics.finish());
    cfg.write_report("degradation", &report);
    if !ok {
        std::process::exit(1);
    }
}
