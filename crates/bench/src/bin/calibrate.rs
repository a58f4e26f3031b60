//! Calibration probe: check the machine profiles against the paper's
//! anchor points (DESIGN.md §6), compare the micro-kernel flavors
//! (`--kernels`), sweep the host's gemm cache-block sizes (`--blocks`),
//! and probe the work-stealing executor's worker count and prefetch
//! depth (`--workers`).
//!
//! Every probe flag merge-updates the persisted host profile
//! (`<results_dir>/host_profile.json`, see `srumma_core::tune`) with the
//! knobs a run reads — kernel, cache blocks, prefetch depth — which
//! `SrummaOptions::from_profile` loads; `--all` runs every probe and
//! writes the whole profile in one go. `--list-kernels` prints the
//! kernels available on this host one per line (the `scripts/ci.sh`
//! flavor loop consumes it). Not a figure — a development tool.

use srumma_bench::{fmt, pdgemm_best, srumma_gflops, srumma_stats};
use srumma_core::driver::multiply_exec;
use srumma_core::{Algorithm, GemmSpec, HostProfile, SrummaOptions};
use srumma_dense::kernel::host_kernel_summary;
use srumma_dense::{active_kernel, dgemm_ws, BlockSizes, GemmWorkspace, Matrix, Microkernel, Op};
use srumma_model::Machine;
use std::time::Instant;

/// Timed rounds of the interleaved probes (`--kernels`, `--blocks`),
/// after one warm-up round. Host speed wanders over seconds, so the
/// candidates are timed interleaved, round by round, and ranked by
/// their median round — a slow spell then costs every candidate one
/// sample, not one candidate all of its samples.
const ROUNDS: usize = 5;

/// Probe candidate `MC/KC/NC` block sizes on this host, so the
/// [`BlockSizes`] default can be retuned from evidence instead of
/// guesswork: time `dgemm_ws` under each candidate at the two task
/// shapes the performance ledger's workloads hand it (96³: 64 ranks on
/// n = 768; 768³: 4 ranks on n = 1536) and rank candidates by the
/// harmonic mean of the two rates — the rate of doing as many flops at
/// one shape as at the other — taking each candidate's median over
/// [`ROUNDS`] interleaved rounds. `nc` candidates are whole slivers of
/// the dispatched kernel, which is what a workspace would round them to
/// anyway. Returns the winner as a partial profile.
fn probe_block_sizes() -> HostProfile {
    const SHAPES: [usize; 2] = [96, 768];
    let kernel = active_kernel();
    let nr = kernel.nr();
    println!(
        "block-size probe on this host (kernel {}, n={SHAPES:?}):",
        kernel.name()
    );
    let mut operands = SHAPES.map(|n| {
        (
            Matrix::random(n, n, 1),
            Matrix::random(n, n, 2),
            Matrix::zeros(n, n),
        )
    });
    struct Candidate {
        blocks: BlockSizes,
        /// Kept across rounds (≈ 42 MB for the 27 together), so no
        /// round times an allocation.
        ws: GemmWorkspace,
        /// Per timed round: the harmonic mean of the rates at the two
        /// shapes, then the rates.
        rounds: Vec<(f64, [f64; 2])>,
    }
    let mut candidates = Vec::new();
    for &mc in &[32usize, 64, 128] {
        for &kc in &[128usize, 256, 512] {
            for nc in [256usize, 512, 1024].map(|nc| nc / nr * nr) {
                let blocks = BlockSizes::new(mc, kc, nc);
                candidates.push(Candidate {
                    blocks,
                    ws: GemmWorkspace::with_blocks(blocks),
                    rounds: Vec::new(),
                });
            }
        }
    }
    // Round 0 is the warm-up that sizes each workspace.
    for round in 0..=ROUNDS {
        for cand in &mut candidates {
            let mut rates = [0.0f64; SHAPES.len()];
            for (rate, (a, b, c)) in rates.iter_mut().zip(operands.iter_mut()) {
                let flops = 2.0 * (a.rows() as f64).powi(3);
                // Enough calls per sample that a 96³ multiply (~30 µs)
                // is not timed against the clock's grain.
                let iters = (5e7 / flops).ceil() as usize;
                let t = Instant::now();
                for _ in 0..iters {
                    dgemm_ws(
                        Op::N,
                        Op::N,
                        1.0,
                        a.as_ref(),
                        b.as_ref(),
                        0.0,
                        c.as_mut(),
                        &mut cand.ws,
                    );
                }
                *rate = flops * iters as f64 / t.elapsed().as_secs_f64() / 1e9;
            }
            if round > 0 {
                let mean = rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>();
                cand.rounds.push((mean, rates));
            }
        }
    }
    let mut best = (0.0f64, BlockSizes::default());
    for Candidate { blocks, rounds, .. } in &mut candidates {
        // The candidate's median round, with the two rates it is the
        // mean of.
        rounds.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mean, rates) = rounds[ROUNDS / 2];
        println!(
            "  mc={:<4} kc={:<4} nc={:<5} {:>6} / {:>6} GFLOP/s, mean {:>6}",
            blocks.mc,
            blocks.kc,
            blocks.nc,
            fmt(rates[0]),
            fmt(rates[1]),
            fmt(mean)
        );
        if mean > best.0 {
            best = (mean, *blocks);
        }
    }
    let default = GemmWorkspace::new().blocks();
    println!(
        "best: mc={} kc={} nc={} at {} GFLOP/s (defaults mc={} kc={} nc={})",
        best.1.mc,
        best.1.kc,
        best.1.nc,
        fmt(best.0),
        default.mc,
        default.kc,
        default.nc,
    );
    HostProfile {
        blocks: Some(best.1),
        ..HostProfile::new()
    }
}

/// Probe the micro-kernel flavors on this host: GFLOP/s of every
/// available kernel at SRUMMA task-block sizes, so the `SRUMMA_KERNEL`
/// default for a deployment comes from evidence instead of ISA folklore
/// (a one-FMA-port AVX-512 host can genuinely prefer the AVX2 kernel),
/// ranked by each candidate's median over [`ROUNDS`] interleaved rounds.
fn probe_kernels() -> HostProfile {
    println!(
        "micro-kernel probe on this host ({})",
        host_kernel_summary()
    );
    // Profile winner: best GFLOP/s at the largest probed size (the
    // most representative of real task blocks).
    let mut winner = active_kernel();
    for &n in &[128usize, 256, 500] {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        println!("n={n}:");
        let mut candidates: Vec<(Microkernel, GemmWorkspace, Vec<f64>)> = Vec::new();
        for &kernel in Microkernel::all() {
            if kernel.available() {
                candidates.push((kernel, GemmWorkspace::with_kernel(kernel), Vec::new()));
            } else {
                println!("  {:<12} (unavailable on this host)", kernel.name());
            }
        }
        // Round 0 is the warm-up that sizes each workspace.
        for round in 0..=ROUNDS {
            for (_, ws, secs) in &mut candidates {
                let t = Instant::now();
                dgemm_ws(
                    Op::N,
                    Op::N,
                    1.0,
                    a.as_ref(),
                    b.as_ref(),
                    0.0,
                    c.as_mut(),
                    ws,
                );
                if round > 0 {
                    secs.push(t.elapsed().as_secs_f64());
                }
            }
        }
        let mut best = (0.0f64, active_kernel());
        for (kernel, _, secs) in &mut candidates {
            secs.sort_by(f64::total_cmp);
            let gf = flops / secs[ROUNDS / 2] / 1e9;
            println!("  {:<12} {:>7} GFLOP/s", kernel.name(), fmt(gf));
            if gf > best.0 {
                best = (gf, *kernel);
            }
        }
        println!("  best: {} at {} GFLOP/s", best.1.name(), fmt(best.0));
        winner = best.1;
    }
    HostProfile {
        kernel: Some(winner),
        ..HostProfile::new()
    }
}

/// Probe executor worker counts on this host: run an oversubscribed
/// SRUMMA multiply (64 logical ranks) on pools of 1..8 workers and
/// report wall time, occupancy and steal rate, so deployments can pick
/// a ranks-per-worker ratio from evidence instead of guesswork (the
/// table is the result: a pool size is the caller's `Backend::Exec`
/// argument, not a profile key). A second sweep at the winning pool
/// size probes the prefetch depth, which is what the profile keeps.
fn probe_workers() -> HostProfile {
    let nranks = 64;
    let spec = GemmSpec::square(256);
    let a = Matrix::random(spec.m, spec.k, 1);
    let b = Matrix::random(spec.k, spec.n, 2);
    let alg = Algorithm::srumma_default();
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "executor worker probe ({nranks} SRUMMA ranks, n={}, host cores {host}):",
        spec.m
    );
    let mut best = (f64::INFINITY, 0usize);
    for &workers in &[1usize, 2, 4, 8] {
        let _ = multiply_exec(nranks, workers, &alg, &spec, &a, &b); // warm-up
        let mut min = f64::INFINITY;
        let mut occ = 0.0;
        let mut steal = 0.0;
        for _ in 0..3 {
            let (_, res) = multiply_exec(nranks, workers, &alg, &spec, &a, &b);
            if res.wall_seconds < min {
                min = res.wall_seconds;
                let e = res.stats.exec.expect("executor stats present");
                occ = e.occupancy();
                steal = e.steal_rate();
            }
        }
        println!(
            "  workers={workers:<2} {:>8.2} ms  occupancy {:>5} steal rate {:>5}  ({} ranks/worker)",
            min * 1e3,
            fmt(occ),
            fmt(steal),
            nranks / workers
        );
        if min < best.0 {
            best = (min, workers);
        }
    }
    println!(
        "best: {} workers ({} ranks/worker) at {:.2} ms",
        best.1,
        nranks / best.1,
        best.0 * 1e3
    );

    // Prefetch-depth sweep at the winning pool size.
    println!("prefetch-depth probe at workers={}:", best.1);
    let mut best_depth = (f64::INFINITY, 1usize);
    for &depth in &[1usize, 2, 4] {
        let opts = SrummaOptions {
            prefetch_depth: depth,
            ..SrummaOptions::default()
        };
        let alg = Algorithm::Srumma(opts);
        let _ = multiply_exec(nranks, best.1, &alg, &spec, &a, &b); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let (_, res) = multiply_exec(nranks, best.1, &alg, &spec, &a, &b);
            min = min.min(res.wall_seconds);
        }
        println!("  depth={depth:<2} {:>8.2} ms", min * 1e3);
        if min < best_depth.0 {
            best_depth = (min, depth);
        }
    }
    println!("best: prefetch depth {}", best_depth.1);
    HostProfile {
        prefetch_depth: Some(best_depth.1),
        ..HostProfile::new()
    }
}

fn main() {
    if std::env::args().any(|a| a == "--list-kernels") {
        // Machine-readable: one available kernel env-name per line
        // (consumed by the scripts/ci.sh per-flavor test loop).
        for kernel in Microkernel::all() {
            if kernel.available() {
                println!("{}", kernel.env_name());
            }
        }
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    // Probe order is deliberate: the kernel winner is baked into the
    // process-global gemm state, so it runs first and the remaining
    // probes measure the host as the profile will configure it.
    type Probe = (&'static str, fn() -> HostProfile);
    let probes: Vec<Probe> = vec![
        ("--kernels", probe_kernels),
        ("--blocks", probe_block_sizes),
        ("--workers", probe_workers),
    ];
    let known = |a: &String| a == "--all" || probes.iter().any(|(flag, _)| flag == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        eprintln!(
            "calibrate: unknown flag `{bad}` \
             (--kernels, --blocks, --workers, --all, --list-kernels, or none for the anchors)"
        );
        std::process::exit(2);
    }
    if probes.iter().any(|(flag, _)| want(flag)) {
        // Merge-update: each probe yields a partial profile; fields it
        // did not measure stay whatever a previous calibration wrote.
        let mut profile = HostProfile::load_default().unwrap_or_else(|_| HostProfile::new());
        for (flag, probe) in probes {
            if want(flag) {
                profile.merge(&probe());
            }
        }
        match profile.save_default() {
            Ok(()) => println!("wrote {}", HostProfile::default_path().display()),
            Err(e) => {
                eprintln!("failed to write host profile: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let t0 = std::time::Instant::now();
    let anchors: Vec<(&str, Machine, usize, usize, f64, f64)> = vec![
        // name, machine, P, N, paper SRUMMA, paper pdgemm
        (
            "Altix  N=1000 P=128",
            Machine::sgi_altix(),
            128,
            1000,
            f64::NAN,
            f64::NAN,
        ),
        (
            "Altix  N=4000 P=128",
            Machine::sgi_altix(),
            128,
            4000,
            384.0,
            33.9,
        ),
        (
            "X1     N=2000 P=128",
            Machine::cray_x1(),
            128,
            2000,
            922.0,
            128.0,
        ),
        (
            "Linux  N=12000 P=128",
            Machine::linux_myrinet(),
            128,
            12000,
            323.2,
            138.6,
        ),
        (
            "SP     N=8000 P=256",
            Machine::ibm_sp(),
            256,
            8000,
            223.0,
            186.0,
        ),
        (
            "Altix  N=8000 P=128",
            Machine::sgi_altix(),
            128,
            8000,
            f64::NAN,
            96.0,
        ),
        (
            "X1     N=8000 P=?64",
            Machine::cray_x1(),
            64,
            8000,
            f64::NAN,
            243.0,
        ),
    ];
    for (name, machine, p, n, paper_s, paper_p) in anchors {
        let spec = GemmSpec::square(n);
        let s = srumma_gflops(&machine, p, &spec);
        let (pd, nb) = pdgemm_best(&machine, p, &spec);
        let stats = srumma_stats(&machine, p, &spec);
        let ov = stats.mean_overlap().map(|o| o * 100.0).unwrap_or(0.0);
        println!(
            "{name}: SRUMMA {} (paper {paper_s}), pdgemm {} nb={nb:?} (paper {paper_p}), ratio {:.1} (paper {:.1}), overlap {ov:.0}%",
            fmt(s), fmt(pd), s / pd, paper_s / paper_p
        );
    }
    eprintln!("elapsed: {:?}", t0.elapsed());
}
