//! Workspace-level integration tests: exercise the public facade the
//! way a downstream user would, and assert the paper's *qualitative*
//! claims hold in the model (small scale, so the suite stays fast; the
//! full-scale numbers live in the bench harnesses / EXPERIMENTS.md).

use srumma::core::driver::{measure_gflops, measure_modeled, multiply_threads, serial_reference};
use srumma::sim::RunStats;
use srumma::{Algorithm, Backend, GemmSpec, Machine, Matrix, Op, Run};

/// Real data under the simulated `machine`: `(C, stats)`.
fn multiply_verified(
    machine: &Machine,
    nranks: usize,
    alg: &Algorithm,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, RunStats) {
    let out = Run {
        operands: Some((a, b)),
        ..Run::new(*spec, nranks, *alg, Backend::Sim(machine))
    }
    .execute()
    .unwrap();
    (out.c.unwrap(), out.stats)
}

#[test]
fn facade_quickstart_flow() {
    let spec = GemmSpec::square(64);
    let a = Matrix::random(64, 64, 1);
    let b = Matrix::random(64, 64, 2);
    let (c, secs) = multiply_threads(4, &Algorithm::srumma_default(), &spec, &a, &b);
    assert!(secs > 0.0);
    let expect = serial_reference(&spec, &a, &b);
    assert!(srumma::dense::max_abs_diff(&c, &expect) < 1e-9);
}

#[test]
fn simulated_run_verifies_numerics_on_every_platform() {
    let spec = GemmSpec::new(Op::T, Op::N, 30, 26, 22);
    let a = Matrix::random(30, 22, 3);
    let b = Matrix::random(22, 26, 4);
    let expect = serial_reference(&spec, &a, &b);
    for machine in [
        Machine::linux_myrinet(),
        Machine::ibm_sp(),
        Machine::cray_x1(),
        Machine::sgi_altix(),
    ] {
        let (c, stats) =
            multiply_verified(&machine, 6, &Algorithm::srumma_default(), &spec, &a, &b);
        assert!(
            srumma::dense::max_abs_diff(&c, &expect) < 1e-9,
            "{:?}",
            machine.platform
        );
        assert!(stats.makespan > 0.0);
    }
}

#[test]
fn srumma_beats_pdgemm_on_every_platform() {
    // The paper's central claim, asserted at a representative point.
    let spec = GemmSpec::square(2000);
    for machine in [
        Machine::linux_myrinet(),
        Machine::ibm_sp(),
        Machine::cray_x1(),
        Machine::sgi_altix(),
    ] {
        let s = measure_gflops(&machine, 16, &Algorithm::srumma_default(), &spec);
        let p = measure_gflops(&machine, 16, &Algorithm::summa_default(), &spec);
        assert!(
            s > p,
            "{:?}: SRUMMA {s} must beat pdgemm {p}",
            machine.platform
        );
    }
}

#[test]
fn shared_memory_systems_show_the_biggest_gap() {
    // Figure 10's most profound gains are on the X1 and Altix.
    let spec = GemmSpec::square(2000);
    let ratio = |m: &Machine| {
        measure_gflops(m, 64, &Algorithm::srumma_default(), &spec)
            / measure_gflops(m, 64, &Algorithm::summa_default(), &spec)
    };
    let altix = ratio(&Machine::sgi_altix());
    let linux = ratio(&Machine::linux_myrinet());
    assert!(
        altix > linux,
        "Altix ratio {altix} should exceed Linux ratio {linux}"
    );
}

#[test]
fn nonblocking_overlap_helps_on_clusters() {
    use srumma::SrummaOptions;
    let spec = GemmSpec::square(4000);
    let machine = Machine::linux_myrinet();
    let double = measure_gflops(&machine, 16, &Algorithm::srumma_default(), &spec);
    let single = measure_gflops(
        &machine,
        16,
        &Algorithm::Srumma(SrummaOptions {
            prefetch_depth: 0,
            ..Default::default()
        }),
        &spec,
    );
    assert!(
        double > single,
        "double buffering must help: {double} vs {single}"
    );
}

#[test]
fn zero_copy_matters_on_myrinet() {
    // Figure 9's claim.
    let spec = GemmSpec::square(4000);
    let with = measure_gflops(
        &Machine::linux_myrinet(),
        16,
        &Algorithm::srumma_default(),
        &spec,
    );
    let without = measure_gflops(
        &Machine::linux_myrinet().without_zero_copy(),
        16,
        &Algorithm::srumma_default(),
        &spec,
    );
    assert!(with > without, "zero-copy must help: {with} vs {without}");
}

#[test]
fn copy_flavor_wins_on_x1_direct_on_altix() {
    // Figure 5's claim.
    use srumma::{ShmemFlavor, SrummaOptions};
    let spec = GemmSpec::square(2000);
    let flavor = |m: &Machine, f: ShmemFlavor| {
        measure_gflops(
            m,
            16,
            &Algorithm::Srumma(SrummaOptions {
                shmem: f,
                ..Default::default()
            }),
            &spec,
        )
    };
    let x1 = Machine::cray_x1();
    assert!(flavor(&x1, ShmemFlavor::ForceCopy) > flavor(&x1, ShmemFlavor::ForceDirect));
    let altix = Machine::sgi_altix();
    assert!(flavor(&altix, ShmemFlavor::ForceDirect) > flavor(&altix, ShmemFlavor::ForceCopy));
    // And Auto picks the right flavor per machine.
    let auto_x1 = flavor(&x1, ShmemFlavor::Auto);
    assert!(auto_x1 >= flavor(&x1, ShmemFlavor::ForceDirect));
}

#[test]
fn overlap_statistics_track_the_pipeline() {
    let spec = GemmSpec::square(4000);
    let stats = measure_modeled(
        &Machine::linux_myrinet(),
        16,
        &Algorithm::srumma_default(),
        &spec,
    );
    let overlap = stats.mean_overlap().expect("cluster run must communicate");
    assert!(overlap > 0.5, "expected substantial overlap, got {overlap}");
    assert!(stats.total_network_bytes() > 0);
}

#[test]
fn determinism_of_the_full_stack() {
    let spec = GemmSpec::square(1000);
    let m = Machine::ibm_sp();
    let a = measure_modeled(&m, 32, &Algorithm::srumma_default(), &spec);
    let b = measure_modeled(&m, 32, &Algorithm::srumma_default(), &spec);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.final_times, b.final_times);
}

#[test]
fn cannon_is_competitive_but_synchronous() {
    // Cannon (square grid) should be in SRUMMA's ballpark on a quiet
    // machine — the algorithms have the same asymptotic efficiency.
    let spec = GemmSpec::square(2000);
    let m = Machine::linux_myrinet();
    let srumma = measure_gflops(&m, 16, &Algorithm::srumma_default(), &spec);
    let cannon = measure_gflops(&m, 16, &Algorithm::Cannon, &spec);
    assert!(cannon > 0.2 * srumma, "cannon {cannon} vs srumma {srumma}");
    assert!(
        srumma > cannon,
        "srumma {srumma} should still win vs {cannon}"
    );
}

#[test]
fn backends_agree_bitwise() {
    // With topology-dependent reordering disabled, the simulator and
    // the thread backend run the same algorithm code on the same data
    // in the same per-rank task order — so the results must match bit
    // for bit, not merely within tolerance. (With SMP-first/diagonal
    // shift enabled, the two backends' different topologies yield
    // different — equally valid — accumulation orders.)
    use srumma::SrummaOptions;
    let spec = GemmSpec::new(Op::T, Op::N, 33, 29, 41);
    let a = Matrix::random(33, 41, 77);
    let b = Matrix::random(41, 29, 78);
    let fixed_order = Algorithm::Srumma(SrummaOptions {
        smp_first: false,
        diagonal_shift: false,
        ..Default::default()
    });
    for alg in [fixed_order, Algorithm::summa_default()] {
        let (c_sim, _) = multiply_verified(&Machine::linux_myrinet(), 6, &alg, &spec, &a, &b);
        let (c_thr, _) = multiply_threads(6, &alg, &spec, &a, &b);
        assert_eq!(
            c_sim.as_slice(),
            c_thr.as_slice(),
            "{} differs across backends",
            alg.name()
        );
    }
}

#[test]
fn traced_runs_emit_perfetto_json_and_metrics_on_both_backends() {
    use srumma::trace::{bench_report_json, chrome_trace_json, TraceKind};

    // A worker per rank: wall-clock events from a real multiply.
    let per_rank = Backend::Exec { workers: 4 };
    let spec = GemmSpec::square(48);
    let a = Matrix::random(48, 48, 11);
    let b = Matrix::random(48, 48, 12);
    let run = Run {
        operands: Some((&a, &b)),
        trace: true,
        ..Run::new(spec, 4, Algorithm::srumma_default(), per_rank)
    }
    .execute()
    .unwrap();
    let expect = serial_reference(&spec, &a, &b);
    assert!(srumma::dense::max_abs_diff(run.c.as_ref().unwrap(), &expect) < 1e-9);
    assert!(!run.trace.is_empty(), "traced run must record events");
    assert!(
        run.trace.iter().any(|e| e.kind == TraceKind::Task),
        "algorithm layer must record task envelopes"
    );
    assert!(
        run.trace.iter().any(|e| e.kind == TraceKind::Barrier),
        "the closing barrier must be recorded"
    );
    assert!(run.stats.ranks.iter().map(|r| r.tasks).sum::<u64>() > 0);

    // Simulator backend: virtual-time events from a modeled run.
    let machine = Machine::linux_myrinet();
    let sim = Run {
        trace: true,
        ..Run::new(
            GemmSpec::square(2000),
            8,
            Algorithm::srumma_default(),
            Backend::Sim(&machine),
        )
    }
    .execute()
    .unwrap();
    assert!(!sim.trace.is_empty());
    assert!(sim.trace.iter().any(|e| e.kind == TraceKind::Compute));
    assert!(sim.trace.iter().any(|e| e.kind == TraceKind::Task));
    assert!(sim.stats.total_fetched_bytes() > 0);

    // Both exports are well-formed enough for Perfetto: a JSON array of
    // complete events, plus the metrics summary document.
    for run_trace in [&run.trace, &sim.trace] {
        let json = chrome_trace_json(run_trace);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
    }
    let report = bench_report_json(
        "e2e",
        "sim",
        &chrome_trace_json(&sim.trace),
        &sim.stats.summary_json(),
    );
    assert!(report.contains("\"bench\": \"e2e\""));
    assert!(report.contains("\"makespan_seconds\""));
}

#[test]
fn disabled_tracing_keeps_counters_but_no_events() {
    // The zero-cost-when-disabled contract: an untraced run records no
    // spans, yet the always-on counters still measure real traffic.
    let spec = GemmSpec::square(32);
    let a = Matrix::random(32, 32, 21);
    let b = Matrix::random(32, 32, 22);
    let (_, stats) = multiply_verified(
        &Machine::linux_myrinet(),
        4,
        &Algorithm::srumma_default(),
        &spec,
        &a,
        &b,
    );
    assert!(stats.ranks.iter().map(|r| r.tasks).sum::<u64>() > 0);
    assert!(stats.total_fetched_bytes() + stats.total_direct_bytes() > 0);
}

#[test]
#[ignore = "timing measurement; run manually with --release -- --ignored --nocapture"]
fn disabled_recorder_overhead_is_small() {
    // One-off check of the < 5 % disabled-recorder overhead budget on a
    // quickstart-sized multiply. The disabled path is a single branch
    // per instrumentation point (no clock read, no allocation), so the
    // honest comparison available in-tree is untraced vs fully traced:
    // the disabled cost is strictly below the enabled cost measured
    // here. Timing-based, hence ignored by default to keep CI stable.
    let spec = GemmSpec::square(64);
    let a = Matrix::random(64, 64, 1);
    let b = Matrix::random(64, 64, 2);
    let reps = 40;
    let time = |traced: bool| {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            let per_rank = Backend::Exec { workers: 4 };
            let run = Run::new(spec, 4, Algorithm::srumma_default(), per_rank);
            let _ = Run {
                operands: Some((&a, &b)),
                trace: traced,
                ..run
            }
            .execute();
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    time(false); // warm up thread spawn paths
    let off = time(false);
    let on = time(true);
    println!("untraced {off:.6}s  traced {on:.6}s  ratio {:.3}", on / off);
}

#[test]
fn isoefficiency_matches_simulated_scaling() {
    // Keep W/P^1.5 fixed (the paper's isoefficiency) and check the
    // simulated efficiency stays roughly flat.
    use srumma::model::isoeff::EqModel;
    let machine = Machine::linux_myrinet();
    let eff = |n: usize, p: usize| {
        let spec = GemmSpec::square(n);
        let g = measure_gflops(&machine, p, &Algorithm::srumma_default(), &spec);
        g / (p as f64 * machine.serial_gflops(n))
    };
    // N grows as sqrt(P): W = N^3 ∝ P^{3/2}.
    let e1 = eff(1000, 4);
    let e2 = eff(2000, 16);
    let e3 = eff(4000, 64);
    assert!(
        (e1 - e3).abs() < 0.25,
        "efficiency drifted along the isoefficiency curve: {e1} {e2} {e3}"
    );
    // And the analytic model agrees it should be roughly constant.
    let eq = EqModel::from_machine(&machine, 500);
    let a1 = eq.efficiency(1000, 4);
    let a3 = eq.efficiency(4000, 64);
    assert!((a1 - a3).abs() < 0.15, "analytic drift: {a1} vs {a3}");
}
