//! Checks built on the paper: its §2 cost model, the ablations DESIGN.md
//! calls for, the network-speed sweep, the memory-footprint claim, the
//! straggler-degradation comparison with SUMMA and the 1k–64k-rank
//! hierarchical crossover study.

use crate::{overlap_pct, table, Out};
use srumma_bench::{fmt, pdgemm_best, srumma_run, worker_pool};
use srumma_comm::FaultPlan;
use srumma_core::driver::measure_gflops;
use srumma_core::hier::{measure_flat_virtual, measure_hier_virtual};
use srumma_core::memory::{cannon_footprint, srumma_footprint, summa_footprint};
use srumma_core::summa::BcastKind;
use srumma_core::{
    Algorithm, Backend, GemmSpec, ReplicationFactor, Run, ShmemFlavor, SrummaOptions, SummaOptions,
};
use srumma_model::isoeff::EqModel;
use srumma_model::machine::RanksPerDomain;
use srumma_model::{Machine, ProcGrid};
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;

/// **§2 efficiency model check** — compare the simulator against the
/// paper's analytic cost model, Equation (1):
///
/// ```text
/// T_par = N³/P + 2·(N²/√P)·t_w + 2·t_s·√P
/// ```
///
/// (unit-cost flops, square grid). We evaluate both sides on a *flat*
/// pure-distributed-memory machine (1 rank per node, copy-based SRUMMA,
/// prefetch off so no overlap — the regime Eq. (1) describes) and
/// report the relative deviation. Agreement validates that the
/// simulator implements the algorithm the analysis assumes; the
/// overlapped variant then shows Equation (3)'s effect.
pub fn eq_model_check() -> Vec<Out> {
    // Flat machine: every rank its own node, so all fetches are RMA.
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(1);
    let flop_time = |m: &Machine, n: usize, p: usize| {
        // The model charges unit-cost flops; our simulator charges the
        // efficiency-model dgemm time. Use the same per-task efficiency
        // so the comparison isolates the *communication* model.
        let q = (p as f64).sqrt() as usize;
        let block = n / q.max(1);
        let seg = n / q.max(1);
        2.0 * (n as f64).powi(3) / p as f64 / (m.cpu.peak_flops * m.cpu.eff.eff(block, block, seg))
    };
    let tw = 8.0 / machine.net.rma_bandwidth; // per-element transfer time
    let ts = 2.0 * machine.net.rma_latency; // get startup (request+reply)
    let no_overlap = SrummaOptions {
        prefetch_depth: 0,
        smp_first: false,
        diagonal_shift: true,
        shmem: ShmemFlavor::ForceCopy,
    };

    let mut rows = Vec::new();
    for p in [4usize, 16, 64] {
        for n in [512usize, 1024, 2048, 4096] {
            let spec = GemmSpec::square(n);
            let t_sim = srumma_run(&machine, p, &spec, no_overlap).makespan;
            let sq = (p as f64).sqrt();
            let t_eq =
                flop_time(&machine, n, p) + 2.0 * (n as f64) * (n as f64) / sq * tw + 2.0 * ts * sq;
            let t_ov = srumma_run(&machine, p, &spec, SrummaOptions::default()).makespan;
            rows.push(vec![
                n.to_string(),
                p.to_string(),
                format!("{:.2}", t_sim * 1e3),
                format!("{:.2}", t_eq * 1e3),
                format!("{:+.1}", (t_sim / t_eq - 1.0) * 100.0),
                format!("{:.2}", t_ov * 1e3),
            ]);
        }
    }
    vec![
        table(
            "Eq. (1) analytic model vs simulator (flat distributed memory, no overlap)",
            "eq_model_check",
            "N,P,T_sim (ms),T_eq1 (ms),dev %,T_overlap (ms)",
            rows,
        ),
        Out::Text(
            "\nT_overlap < T_sim shows Eq. (3): nonblocking pipelining hides the N²/√P term\n"
                .into(),
        ),
    ]
}

/// **Ablation** — the two task-ordering policies of §3.1 step 2
/// (SMP-first and diagonal shift), crossed, on both cluster platforms.
///
/// DESIGN.md calls these out as the design choices to ablate: SMP-first
/// lets computation start without waiting for the network (fills the
/// pipeline), the diagonal shift spreads first fetches over source
/// nodes. The paper observed the shift matters more on wider nodes
/// (16-way SP vs 2-way Xeon).
pub fn ablation_taskorder() -> Vec<Out> {
    let mut rows = Vec::new();
    for (machine, nranks) in [(Machine::linux_myrinet(), 64), (Machine::ibm_sp(), 64)] {
        for n in [2000usize, 4000, 8000] {
            let spec = GemmSpec::square(n);
            let gf = |smp_first, diagonal_shift| {
                let opts = SrummaOptions {
                    smp_first,
                    diagonal_shift,
                    ..Default::default()
                };
                fmt(srumma_run(&machine, nranks, &spec, opts).gflops(spec.flops()))
            };
            rows.push(vec![
                machine.platform.name().to_string(),
                n.to_string(),
                nranks.to_string(),
                gf(true, true),
                gf(false, true),
                gf(true, false),
                gf(false, false),
            ]);
        }
    }
    vec![table(
        "Ablation: task ordering policies (GFLOP/s)",
        "ablation_taskorder",
        "machine,N,CPUs,both,shift only,smp-first only,neither",
        rows,
    )]
}

/// **Ablation** — pipeline depth (§3.1 step 4, extended).
///
/// With no prefetch buffer the get for task *t+1* cannot be issued
/// until task *t*'s dgemm finishes: communication serializes with
/// computation (Equation (1) without the overlap term). With the B1/B2
/// pair the paper reports >90 % of communication hidden on the Linux
/// cluster. Depths beyond 1 (more buffers) are this crate's extension:
/// they can help when a single fetch is longer than one task's compute.
pub fn ablation_buffers() -> Vec<Out> {
    let mut rows = Vec::new();
    for (machine, nranks) in [
        (Machine::linux_myrinet(), 16),
        (Machine::linux_myrinet(), 64),
        (Machine::ibm_sp(), 64),
    ] {
        for n in [1000usize, 2000, 4000, 8000] {
            let spec = GemmSpec::square(n);
            let at_depth = |prefetch_depth| {
                let opts = SrummaOptions {
                    prefetch_depth,
                    ..Default::default()
                };
                srumma_run(&machine, nranks, &spec, opts)
            };
            let runs = [0, 1, 2, 4].map(at_depth);
            let [d0, d1, d2, d4] = runs.each_ref().map(|r| r.gflops(spec.flops()));
            rows.push(vec![
                machine.platform.name().to_string(),
                n.to_string(),
                nranks.to_string(),
                fmt(d0),
                fmt(d1),
                fmt(d2),
                fmt(d4),
                format!("{:.2}", d1 / d0),
                overlap_pct(&runs[1]),
            ]);
        }
    }
    vec![table(
        "Ablation: prefetch pipeline depth (GFLOP/s)",
        "ablation_buffers",
        "machine,N,CPUs,no prefetch,depth 1 (paper),depth 2,depth 4,d1 speedup,overlap %",
        rows,
    )]
}

/// **Ablation (extension)** — SUMMA broadcast schedule: binomial tree
/// vs DIMMA-style ring, across the platforms. The paper cites DIMMA
/// ("related to SUMMA but uses a different pipelined communication
/// scheme"); this quantifies that choice inside our pdgemm stand-in.
pub fn ablation_summa_bcast() -> Vec<Out> {
    let mut rows = Vec::new();
    for (machine, nranks) in [
        (Machine::linux_myrinet(), 64),
        (Machine::ibm_sp(), 64),
        (Machine::sgi_altix(), 128),
    ] {
        for n in [1000usize, 4000, 8000] {
            let spec = GemmSpec::square(n);
            let gf = |bcast| {
                let summa = Algorithm::Summa(SummaOptions {
                    panel_nb: None,
                    bcast,
                });
                measure_gflops(&machine, nranks, &summa, &spec)
            };
            let (tree, ring) = (gf(BcastKind::Tree), gf(BcastKind::Ring));
            rows.push(vec![
                machine.platform.name().to_string(),
                nranks.to_string(),
                n.to_string(),
                fmt(tree),
                fmt(ring),
                format!("{:.2}", ring / tree),
            ]);
        }
    }
    vec![table(
        "Ablation: SUMMA broadcast schedule, tree vs ring (GFLOP/s)",
        "ablation_summa_bcast",
        "machine,CPUs,N,tree bcast,ring bcast,ring/tree",
        rows,
    )]
}

/// **Beyond the paper** — sensitivity of SRUMMA's advantage to the
/// network. The paper's gains come from hiding slow-network time and
/// dodging MPI's shared-memory bottlenecks; this sweep asks what
/// happens as the interconnect gets faster or slower than Myrinet-2000
/// (a 2024-grade fabric is ~100× faster): where does the SRUMMA-vs-
/// pdgemm ratio go, and how much of the win is protocol (overlap)
/// versus raw bandwidth?
pub fn sensitivity() -> Vec<Out> {
    let nranks = 64;
    let spec = GemmSpec::square(4000);
    let mut rows = Vec::new();
    for factor in [0.25, 0.5, 1.0, 2.0, 8.0, 32.0, 128.0] {
        let mut m = Machine::linux_myrinet();
        m.net.rma_bandwidth *= factor;
        m.net.mpi_bandwidth *= factor;
        m.net.mpi_shm_bandwidth *= factor;
        m.net.rma_latency /= factor.sqrt();
        m.net.mpi_latency /= factor.sqrt();
        let stats = srumma_run(&m, nranks, &spec, SrummaOptions::default());
        let s = stats.gflops(spec.flops());
        let (p, _) = pdgemm_best(&m, nranks, &spec);
        let eq = EqModel::from_machine(&m, spec.m / 8);
        rows.push(vec![
            format!("{factor}x"),
            fmt(s),
            fmt(p),
            format!("{:.2}", s / p),
            overlap_pct(&stats),
            format!("{:.2}", eq.efficiency(spec.m, nranks)),
        ]);
    }
    vec![
        table(
            "Sensitivity: SRUMMA vs pdgemm as the network scales (Linux profile, 64 CPUs, N=4000)",
            "sensitivity",
            "net speed vs Myrinet,SRUMMA GF/s,pdgemm GF/s,ratio,overlap %,eta Eq.(1)",
            rows,
        ),
        Out::Text(
            "\nreading: on very fast fabrics both algorithms converge to the dgemm rate;\n\
             SRUMMA's margin is largest exactly where 2004 hardware lived.\n"
                .into(),
        ),
    ]
}

/// **Paper claim check** — "the described algorithm is more general,
/// memory efficient": per-rank extra buffer bytes for each algorithm
/// across the paper's configurations. On cacheable shared memory
/// SRUMMA's footprint is literally zero (direct access); on clusters it
/// is the fixed B1/B2 pair, independent of the grid shape.
pub fn memory_footprint() -> Vec<Out> {
    let mb = |bytes: u64| format!("{:.2}", bytes as f64 / 1e6);
    let mut rows = Vec::new();
    for (n, p) in [
        (2000usize, 16usize),
        (4000, 64),
        (8000, 128),
        (12000, 128),
        (16000, 256),
    ] {
        let spec = GemmSpec::square(n);
        let grid = ProcGrid::near_square(p);
        let srumma = |all_direct| srumma_footprint(&spec, grid, &Default::default(), all_direct);
        rows.push(vec![
            n.to_string(),
            p.to_string(),
            mb(srumma(false).buffer_bytes),
            mb(srumma(true).buffer_bytes),
            mb(cannon_footprint(&spec, grid).buffer_bytes),
            mb(summa_footprint(&spec, grid, &SummaOptions::default()).buffer_bytes),
        ]);
    }
    vec![
        table(
            "Per-rank working-buffer footprint (MB beyond owned blocks)",
            "memory_footprint",
            "N,CPUs,SRUMMA cluster MB,SRUMMA direct MB,Cannon MB,pdgemm MB",
            rows,
        ),
        Out::Text(
            "\npaper: SRUMMA is \"more general, memory efficient\" — zero extra memory with\n\
             direct access, a fixed two-buffer pipeline otherwise; Cannon stages twice as much.\n"
                .into(),
        ),
    ]
}

/// **Graceful degradation under a straggler** — the paper's resilience
/// story, quantified against SUMMA (pdgemm): slow **one** rank by a
/// factor `f` and compare the whole run's makespan with the healthy one.
/// SUMMA's per-k-panel broadcasts are two-sided, so every panel waits
/// for the straggler's host and the run degrades by roughly the full
/// factor. SRUMMA's one-sided gets are served without the straggler's
/// CPU in the loop: peers keep prefetching and computing, only the
/// straggler's own tile work stretches, and the prefetch pipeline hides
/// some of that. SRUMMA's degradation ratio (straggled / healthy
/// makespan) must stay strictly below SUMMA's at every factor; the row
/// asserts it.
///
/// Shape-only runs on the simulator, faults applied in virtual time.
/// The size is deliberately communication-bound (small tiles per rank),
/// the regime where the two communication styles differ: at
/// compute-bound sizes both makespans converge to `f ×` the straggler's
/// compute, and the ratio favours whichever algorithm had the worse
/// healthy baseline — a denominator artifact, not resilience.
pub fn degradation() -> Vec<Out> {
    let (nranks, n, straggler) = (16, 384, 0);
    let machine = Machine::linux_myrinet();
    let spec = GemmSpec::square(n);
    let algs = [
        ("srumma", Algorithm::srumma_default()),
        ("summa", Algorithm::summa_default()),
    ];
    let makespan = |alg: &Algorithm, plan: &FaultPlan| {
        Run {
            faults: Some(plan),
            ..Run::new(spec, nranks, *alg, Backend::Sim(&machine))
        }
        .execute()
        .expect("straggler plans are legal on the simulator")
        .stats
        .makespan
    };

    let mut metrics = JsonObject::new();
    metrics.num("nranks", nranks as f64);
    metrics.num("n", n as f64);
    let healthy = algs.map(|(name, alg)| {
        let t = makespan(&alg, &FaultPlan::healthy());
        metrics.num(&format!("seconds_healthy_{name}"), t);
        t
    });
    let mut rows = Vec::new();
    for f in [1.5, 2.0, 3.0, 4.0] {
        let fx = (f * 100.0_f64).round() as u64;
        let plan = FaultPlan::single_straggler(nranks, straggler, f);
        let mut row = vec![format!("{f:.2}x")];
        let mut ratios = [0.0; 2];
        for (i, (name, alg)) in algs.iter().enumerate() {
            let t = makespan(alg, &plan);
            ratios[i] = t / healthy[i];
            metrics.num(&format!("seconds_straggled_{name}_x{fx}"), t);
            metrics.num(&format!("degradation_ratio_{name}_x{fx}"), ratios[i]);
            row.extend([format!("{t:.3}"), format!("{:.3}", ratios[i])]);
        }
        assert!(
            ratios[0] < ratios[1],
            "at {f}x SRUMMA's degradation ratio {:.3} reaches SUMMA's {:.3}",
            ratios[0],
            ratios[1]
        );
        rows.push(row);
    }
    let report = bench_report_json("degradation", "sim", "[]", &metrics.finish());
    vec![
        table(
            format!(
                "single straggler (rank {straggler}) degradation, n={n}, {nranks} ranks, \
                 Linux+Myrinet model"
            ),
            "degradation",
            "factor,srumma s,srumma ratio,summa s,summa ratio",
            rows,
        ),
        Out::File("BENCH_degradation.json".into(), report),
    ]
}

/// **The crossover study** — flat SRUMMA vs two-level node-group
/// staging vs staging inside `c = 4` replica teams, over a weak-scaling
/// sweep (`n = 64·√P`, constant tile work per rank) on the Linux +
/// Myrinet profile widened to 8-way SMP nodes, at 1k / 4k / 16k / 64k
/// ranks. Every run is on the per-rank virtual clock (`virtual_run`):
/// LogGP clocks on a small host pool, which is what makes 64k ranks
/// feasible. It reports modeled makespan and inter-node bytes (and the
/// staged runs' intra-group bytes), and asserts that staging moves
/// strictly fewer inter-node bytes than flat from 4096 ranks up. The
/// model is deterministic, and the host's worker count moves no number.
pub fn hierarchy() -> Vec<Out> {
    let workers = worker_pool();
    // 8-way SMP nodes: wide enough that a node covers only part of a
    // 2^k-square grid row, so shared off-node A demand exists at every
    // swept rank count.
    let mut machine = Machine::linux_myrinet();
    machine.ranks_per_domain = RanksPerDomain::Fixed(8);
    let opts = SrummaOptions::default();

    let mut metrics = JsonObject::new();
    metrics.num("ranks_per_node", 8.0);
    metrics.num("replication_factor", 4.0);
    let mut rows = Vec::new();
    for p in [1024usize, 4096, 16384, 65536] {
        let n = 64 * (p as f64).sqrt() as usize;
        let spec = GemmSpec::square(n).with_scalars(1.0, 0.0);
        let flat = measure_flat_virtual(&machine, p, workers, &opts, &spec);
        let hier = measure_hier_virtual(&machine, p, workers, &opts, &spec);
        let backend = Backend::Virtual {
            machine: &machine,
            workers,
        };
        let repl = Run {
            hier: true,
            replication: ReplicationFactor::Fixed(4),
            ..Run::new(spec, p, Algorithm::Srumma(opts), backend)
        }
        .execute()
        .expect("c = 4 leaves whole 8-rank nodes per team at every swept rank count")
        .stats;
        let inter = [&flat, &hier, &repl].map(|s| s.total_internode_bytes());
        assert!(
            p < 4096 || inter[1] < inter[0],
            "at {p} ranks staging moves {} inter-node bytes, flat {}",
            inter[1],
            inter[0]
        );

        metrics.num(&format!("n_p{p}"), n as f64);
        for (name, s) in [("flat", &flat), ("hier", &hier), ("hier_repl", &repl)] {
            metrics.num(&format!("makespan_{name}_p{p}"), s.makespan);
        }
        for (name, bytes) in ["flat", "hier", "hier_repl"].iter().zip(inter) {
            metrics.num(&format!("internode_bytes_{name}_p{p}"), bytes as f64);
        }
        metrics.num(
            &format!("intragroup_bytes_hier_p{p}"),
            hier.total_intragroup_bytes() as f64,
        );
        let mut row = vec![p.to_string(), n.to_string()];
        row.extend([&flat, &hier, &repl].map(|s| format!("{:.3}", s.makespan)));
        row.extend(inter.map(|b| b.to_string()));
        rows.push(row);
    }
    let report = bench_report_json("hierarchy", "virtual", "[]", &metrics.finish());
    vec![
        table(
            "flat vs hierarchical vs hierarchical+replicated (weak scaling n=64·√P, \
             Linux+Myrinet, 8 ranks/node, c=4)",
            "hierarchy",
            "ranks,n,flat s,hier s,h+r s,flat inter-B,hier inter-B,h+r inter-B",
            rows,
        ),
        Out::File("BENCH_hierarchy.json".into(), report),
    ]
}
