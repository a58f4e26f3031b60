//! Calibration probe: check the machine profiles against the paper's
//! anchor points (DESIGN.md §6), sweep the host's gemm cache-block
//! sizes (`--blocks`), compare the micro-kernel flavors (`--kernels`),
//! probe the work-stealing executor's worker count and prefetch depth
//! (`--workers`), find the batched-driver amortization crossover and
//! best slot-ring window (`--batch`), and probe node-group sizes /
//! replication factors for the hierarchical driver (`--topology`, which
//! also writes `topology_profile.json`).
//!
//! Every probe flag merge-updates the persisted host profile
//! (`<results_dir>/host_profile.json`, see `srumma_core::tune`), which
//! `SrummaOptions::from_profile` loads to resolve the `Auto` knobs;
//! `--all` runs every probe and writes the whole profile in one go.
//! `--list-kernels` prints the kernels available on this host one per
//! line (the `scripts/ci.sh` flavor loop consumes it). Not a figure —
//! a development tool.

use srumma_bench::{fmt, pdgemm_best, srumma_gflops, srumma_stats};
use srumma_core::batch::{multiply_batch_exec, BatchEntry, BatchSpec};
use srumma_core::driver::{multiply_exec, multiply_threads};
use srumma_core::memory::replicated_arena_footprint;
use srumma_core::repl::admissible_factor;
use srumma_core::{
    Algorithm, Backend, GemmSpec, HostProfile, ReplicationFactor, Run, SrummaOptions,
};
use srumma_dense::kernel::host_kernel_summary;
use srumma_dense::{active_kernel, dgemm_ws, BlockSizes, GemmWorkspace, Matrix, Microkernel, Op};
use srumma_model::{Machine, Topology};
use srumma_trace::json::JsonObject;
use std::time::Instant;

/// Probe candidate `MC/KC/NC` block sizes on this host, so the
/// [`BlockSizes`] default can be retuned from evidence instead of
/// guesswork: time `dgemm_ws` under each candidate at the two task
/// shapes the performance ledger's workloads hand it (96³: 64 ranks on
/// n = 768; 768³: 4 ranks on n = 1536) and rank candidates by the
/// harmonic mean of the two rates — the rate of doing as many flops at
/// one shape as at the other. `nc` candidates are whole slivers of the
/// dispatched kernel, which is what a workspace would round them to
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
    let mut best = (0.0f64, BlockSizes::default());
    for &mc in &[32usize, 64, 128] {
        for &kc in &[128usize, 256, 512] {
            for nc in [256usize, 512, 1024].map(|nc| nc / nr * nr) {
                let blocks = BlockSizes::new(mc, kc, nc);
                let mut ws = GemmWorkspace::with_blocks(blocks);
                let mut rates = [0.0f64; SHAPES.len()];
                for (rate, (a, b, c)) in rates.iter_mut().zip(operands.iter_mut()) {
                    let mut run = || {
                        dgemm_ws(
                            Op::N,
                            Op::N,
                            1.0,
                            a.as_ref(),
                            b.as_ref(),
                            0.0,
                            c.as_mut(),
                            &mut ws,
                        )
                    };
                    run(); // warm-up sizes the workspace
                    let flops = 2.0 * (a.rows() as f64).powi(3);
                    // Enough calls per sample that a 96³ multiply
                    // (~30 µs) is not timed against the clock's grain.
                    let iters = (5e7 / flops).ceil() as usize;
                    let mut min = f64::INFINITY;
                    for _ in 0..3 {
                        let t = Instant::now();
                        for _ in 0..iters {
                            run();
                        }
                        min = min.min(t.elapsed().as_secs_f64() / iters as f64);
                    }
                    *rate = flops / min / 1e9;
                }
                let mean = rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>();
                println!(
                    "  mc={mc:<4} kc={kc:<4} nc={nc:<5} {:>6} / {:>6} GFLOP/s, mean {:>6}",
                    fmt(rates[0]),
                    fmt(rates[1]),
                    fmt(mean)
                );
                if mean > best.0 {
                    best = (mean, blocks);
                }
            }
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
/// (a one-FMA-port AVX-512 host can genuinely prefer the AVX2 kernel).
/// Host speed wanders over seconds, so the candidates are timed
/// interleaved, round by round, and ranked by their median round — a
/// slow spell then costs every candidate one sample, not one candidate
/// all of its samples.
fn probe_kernels() -> HostProfile {
    const ROUNDS: usize = 5;
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
/// a ranks-per-worker ratio from evidence instead of guesswork. A
/// second sweep at the winning pool size probes the prefetch depth.
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
        workers: Some(best.1),
        prefetch_depth: Some(best_depth.1),
        ..HostProfile::new()
    }
}

/// Probe the batched driver's amortization crossover on this host: run
/// streams of B small multiplies as a loop of standalone `multiply_exec`
/// calls and as one `multiply_batch_exec`, and report the smallest B
/// where the batched path wins — the point past which callers with a
/// stream of tiles should switch to `BatchSpec`. A second sweep at the
/// longest stream probes the slot-ring window.
fn probe_batch() -> HostProfile {
    let (nranks, n) = (16usize, 64usize);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8);
    let alg = Algorithm::srumma_default();
    println!(
        "batched-driver probe ({nranks} ranks on {workers} workers, {n}x{n} tiles, best of 3):"
    );
    let mut crossover: Option<usize> = None;
    for &b in &[1usize, 2, 4, 8, 16, 32] {
        let mut batch = BatchSpec::new();
        for e in 0..b {
            let spec = GemmSpec::square(n);
            let a = Matrix::random(n, n, 500 + 2 * e as u64);
            let bm = Matrix::random(n, n, 501 + 2 * e as u64);
            batch.push(BatchEntry::new(spec, a, bm));
        }
        // Warm both paths, then take best-of-3 wall clock around each.
        for e in &batch.entries {
            let _ = multiply_exec(nranks, workers, &alg, &e.spec, &e.a, &e.b);
        }
        let _ = multiply_batch_exec(&batch, nranks, workers);
        let mut t_loop = f64::INFINITY;
        let mut t_batched = f64::INFINITY;
        let mut overlap = 0.0;
        for _ in 0..3 {
            let t0 = Instant::now();
            for e in &batch.entries {
                let _ = multiply_exec(nranks, workers, &alg, &e.spec, &e.a, &e.b);
            }
            t_loop = t_loop.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let res = multiply_batch_exec(&batch, nranks, workers);
            let t = t0.elapsed().as_secs_f64();
            if t < t_batched {
                t_batched = t;
                overlap = res.stats.inter_entry_overlap();
            }
        }
        let speedup = t_loop / t_batched;
        if speedup > 1.0 && crossover.is_none() {
            crossover = Some(b);
        }
        println!(
            "  batch={b:<3} loop {:>8.2} ms  batched {:>8.2} ms  ({speedup:.2}x, overlap {})",
            t_loop * 1e3,
            t_batched * 1e3,
            fmt(overlap)
        );
    }
    match crossover {
        Some(b) => println!("crossover: batched wins from batch size {b} on this host"),
        None => println!("crossover: batched never won up to batch size 32 on this host"),
    }

    // Window sweep on a 16-entry stream: how much look-ahead (and
    // therefore slot-ring memory) actually pays on this host.
    let mut batch = BatchSpec::new();
    for e in 0..16 {
        let spec = GemmSpec::square(n);
        let a = Matrix::random(n, n, 700 + 2 * e as u64);
        let bm = Matrix::random(n, n, 701 + 2 * e as u64);
        batch.push(BatchEntry::new(spec, a, bm));
    }
    println!("slot-ring window probe (16 entries, {n}x{n} tiles, best of 3):");
    let mut best_window = (f64::INFINITY, 3usize);
    for &w in &[1usize, 2, 3, 4, 6, 8] {
        let wb = batch.clone().with_window(w);
        let _ = multiply_batch_exec(&wb, nranks, workers); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let _ = multiply_batch_exec(&wb, nranks, workers);
            min = min.min(t0.elapsed().as_secs_f64());
        }
        println!("  window={w:<2} {:>8.2} ms", min * 1e3);
        if min < best_window.0 {
            best_window = (min, w);
        }
    }
    println!("best: window {}", best_window.1);
    HostProfile {
        batch_window: Some(best_window.1),
        ..HostProfile::new()
    }
}

/// Probe node-group sizes and replication factors on this host: run
/// the flat, hierarchical (`hier`) and replicated (`replication`)
/// thread-backend plans over the admissible
/// `ranks_per_node` / `c` values at a fixed rank count, report wall
/// times and the crossover (best group size, best factor), and write
/// the result as a small JSON profile to
/// `<results_dir>/topology_profile.json` so deployments can feed the
/// measured winners back into `SrummaOptions` instead of guessing.
///
/// Host threads are real but the "network" between node groups is
/// shared memory, so the hierarchical schedule pays its staging copies
/// without banking the inter-node savings — on most hosts flat wins
/// and the profile records *by how much*, which is exactly the
/// overhead a real cluster run must amortize.
fn probe_topology() -> HostProfile {
    let nranks = 16usize;
    let spec = GemmSpec::square(512);
    let a = Matrix::random(spec.m, spec.k, 1);
    let b = Matrix::random(spec.k, spec.n, 2);
    let opts = SrummaOptions::default();
    let alg = Algorithm::srumma_default();
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "topology probe ({nranks} ranks on host threads, n={}, best of 3):",
        spec.m
    );

    let mut profile = JsonObject::new();
    profile.num("nranks", nranks as f64);
    profile.num("n", spec.m as f64);
    profile.num("host_cores", host as f64);

    let best_of_3 = |run: &mut dyn FnMut()| {
        run(); // warm-up
        let mut min = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            run();
            min = min.min(t.elapsed().as_secs_f64());
        }
        min
    };

    let flat = best_of_3(&mut || {
        let _ = multiply_threads(nranks, &alg, &spec, &a, &b);
    });
    // The same multiply restructured: staged through node groups of
    // `rpn`, or split into replica teams.
    let restructured = |rpn: usize, hier: bool, replication: ReplicationFactor| {
        Run {
            operands: Some((&a, &b)),
            ranks_per_node: Some(rpn),
            hier,
            replication,
            ..Run::new(spec, nranks, alg, Backend::Threads)
        }
        .execute()
        .expect("divisor group sizes and admissible factors are legal plans")
    };
    println!("  flat                  {:>8.2} ms", flat * 1e3);
    profile.num("flat_seconds", flat);

    // Group-size sweep: every divisor of nranks, from "every rank its
    // own node" (no staging possible) to "one node = whole machine"
    // (nothing is off-node). The interesting crossover lives between.
    let mut best_group = (f64::INFINITY, 1usize);
    for rpn in (1..=nranks).filter(|w| nranks.is_multiple_of(*w)) {
        let t = best_of_3(&mut || {
            let _ = restructured(rpn, true, ReplicationFactor::One);
        });
        println!(
            "  hier  rpn={rpn:<3}        {:>8.2} ms ({:+.1}% vs flat)",
            t * 1e3,
            (t / flat - 1.0) * 100.0
        );
        profile.num(&format!("hier_seconds_rpn{rpn}"), t);
        if t < best_group.0 {
            best_group = (t, rpn);
        }
    }
    profile.num("best_ranks_per_node", best_group.1 as f64);

    // Replication sweep at the winning group size: admissible factors
    // only, with the per-rank arena cost alongside the time so the
    // profile captures the memory side of the trade too.
    let topo = Topology::new(nranks, best_group.1);
    let mut best_c = (f64::INFINITY, 1usize, 0u64);
    for c in (1..=nranks).filter(|&c| admissible_factor(nranks, topo, spec.k, c)) {
        let arena = replicated_arena_footprint(&spec, nranks, c, &opts).buffer_bytes;
        let t = best_of_3(&mut || {
            let _ = restructured(best_group.1, false, ReplicationFactor::Fixed(c));
        });
        println!(
            "  repl  c={c:<3} rpn={:<3}  {:>8.2} ms ({:+.1}% vs flat, arena {} B/rank)",
            best_group.1,
            t * 1e3,
            (t / flat - 1.0) * 100.0,
            arena
        );
        profile.num(&format!("repl_seconds_c{c}"), t);
        profile.num(&format!("repl_arena_bytes_c{c}"), arena as f64);
        if t < best_c.0 {
            best_c = (t, c, arena as u64);
        }
    }
    profile.num("best_replication_factor", best_c.1 as f64);

    println!(
        "crossover: rpn={} ({:+.1}% vs flat), c={} ({:+.1}% vs flat) on this host",
        best_group.1,
        (best_group.0 / flat - 1.0) * 100.0,
        best_c.1,
        (best_c.0 / flat - 1.0) * 100.0
    );
    match srumma_trace::ensure_results_dir().and_then(|dir| {
        let path = dir.join("topology_profile.json");
        std::fs::write(&path, profile.finish() + "\n")?;
        Ok(path)
    }) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write topology_profile.json: {e}");
            std::process::exit(1);
        }
    }
    HostProfile {
        ranks_per_node: Some(best_group.1),
        // Budget the replication arena at the measured winner: Auto will
        // then pick the largest admissible c that fits what this host
        // demonstrably benefited from.
        replication_budget_bytes: Some(best_c.2),
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
        ("--batch", probe_batch),
        ("--topology", probe_topology),
    ];
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
