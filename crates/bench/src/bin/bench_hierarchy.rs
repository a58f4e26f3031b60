//! The 64k-rank crossover study: flat SRUMMA vs hierarchical vs
//! hierarchical + replicated.
//!
//! Models a weak-scaling sweep (`n = 64·√P`, so per-rank tile work is
//! constant) on the Linux + Myrinet cluster profile widened to 8-way
//! SMP nodes, at 1k / 4k / 16k / 64k ranks. Every configuration runs
//! on the per-rank virtual-clock backend (`virtual_run`): `P` LogGP
//! clocks multiplexed onto a small host worker pool, which is what
//! makes the 64k point feasible at all — the discrete-event simulator
//! spends an OS thread per rank and cannot go there.
//!
//! Three schedules per rank count:
//!
//! * **flat** — the paper's SRUMMA: every rank fetches its own panels;
//! * **hier** — two-level node-group staging (`srumma_hier`): one
//!   elected fetcher per group per shared off-node panel;
//! * **hier+repl** — the same staging inside `c = 4` replica teams
//!   (`srumma_replicated` with stage sets), each sweeping a quarter of
//!   `k`.
//!
//! Headline metrics per point: LogGP-modeled makespan and total
//! inter-node bytes (plus intra-group bytes for the staged runs).
//!
//! **Hard gate** (exit 1): the hierarchical schedule must move
//! *strictly fewer* inter-node bytes than flat at every swept rank
//! count ≥ 4096. The model is deterministic — a violation is an
//! algorithm or cost-model regression, never noise.
//!
//! Emits `results/BENCH_hierarchy.json`. CI runs the full sweep and
//! requires the JSON to equal the checked-in one byte for byte;
//! `bench_diff` also reports the `internode_bytes_*` keys (registered
//! lower-is-better) at warn level.
//!
//! Usage: `cargo run --release -p srumma-bench --bin bench_hierarchy
//! [-- --quick] [-- --smoke] [-- --out PATH] [-- --workers W]`
//! (`--quick`: 1k/4k only; `--smoke`: 4k only. CI runs the full sweep.)

use srumma_bench::{print_table, BenchArgs};
use srumma_core::hier::{measure_flat_virtual, measure_hier_virtual};
use srumma_core::{Algorithm, Backend, GemmSpec, ReplicationFactor, Run, SrummaOptions};
use srumma_model::machine::RanksPerDomain;
use srumma_model::Machine;
use srumma_trace::bench_report_json;
use srumma_trace::json::JsonObject;

fn main() {
    let cfg = BenchArgs::parse(&[]);
    let rank_counts: &[usize] = if cfg.smoke {
        &[4096]
    } else if cfg.quick {
        &[1024, 4096]
    } else {
        &[1024, 4096, 16384, 65536]
    };
    let workers = cfg.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    // 8-way SMP nodes on the Myrinet cluster profile: wide enough that
    // a node covers only part of a 2^k-square grid row, so shared
    // off-node A demand exists at every swept rank count.
    let machine = {
        let mut m = Machine::linux_myrinet();
        m.ranks_per_domain = RanksPerDomain::Fixed(8);
        m
    };
    let opts = SrummaOptions::default();
    let repl = ReplicationFactor::Fixed(4);

    let mut metrics = JsonObject::new();
    metrics.num("ranks_per_node", 8.0);
    metrics.num("replication_factor", 4.0);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_ok = true;
    for &p in rank_counts {
        // Weak scaling: constant per-rank tile volume.
        let n = 64 * (p as f64).sqrt() as usize;
        let spec = GemmSpec::square(n).with_scalars(1.0, 0.0);

        let flat = measure_flat_virtual(&machine, p, workers, &opts, &spec);
        eprintln!(
            "p={p} n={n} flat: makespan {:.3}s, internode {} B",
            flat.makespan,
            flat.total_internode_bytes()
        );
        let hier = measure_hier_virtual(&machine, p, workers, &opts, &spec);
        eprintln!(
            "p={p} n={n} hier: makespan {:.3}s, internode {} B",
            hier.makespan,
            hier.total_internode_bytes()
        );
        let backend = Backend::Virtual {
            machine: &machine,
            workers,
        };
        let out = Run {
            hier: true,
            replication: repl,
            ..Run::new(spec, p, Algorithm::Srumma(opts), backend)
        }
        .execute()
        .expect("c = 4 leaves whole 8-rank nodes per team at every swept rank count");
        let (hr, c) = (out.stats, out.replication);
        eprintln!(
            "p={p} n={n} hier+repl(c={c}): makespan {:.3}s, internode {} B",
            hr.makespan,
            hr.total_internode_bytes()
        );

        metrics.num(&format!("n_p{p}"), n as f64);
        metrics.num(&format!("makespan_flat_p{p}"), flat.makespan);
        metrics.num(&format!("makespan_hier_p{p}"), hier.makespan);
        metrics.num(&format!("makespan_hier_repl_p{p}"), hr.makespan);
        metrics.num(
            &format!("internode_bytes_flat_p{p}"),
            flat.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("internode_bytes_hier_p{p}"),
            hier.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("internode_bytes_hier_repl_p{p}"),
            hr.total_internode_bytes() as f64,
        );
        metrics.num(
            &format!("intragroup_bytes_hier_p{p}"),
            hier.total_intragroup_bytes() as f64,
        );

        rows.push(vec![
            p.to_string(),
            n.to_string(),
            format!("{:.3}", flat.makespan),
            format!("{:.3}", hier.makespan),
            format!("{:.3}", hr.makespan),
            flat.total_internode_bytes().to_string(),
            hier.total_internode_bytes().to_string(),
            hr.total_internode_bytes().to_string(),
        ]);

        if p >= 4096 && hier.total_internode_bytes() >= flat.total_internode_bytes() {
            eprintln!(
                "HIERARCHY GATE VIOLATED at p={p}: hier internode {} B >= flat {} B",
                hier.total_internode_bytes(),
                flat.total_internode_bytes()
            );
            gate_ok = false;
        }
    }

    print_table(
        "flat vs hierarchical vs hierarchical+replicated (weak scaling n=64·√P, \
         Linux+Myrinet, 8 ranks/node, c=4)",
        &[
            "ranks",
            "n",
            "flat s",
            "hier s",
            "h+r s",
            "flat inter-B",
            "hier inter-B",
            "h+r inter-B",
        ],
        &rows,
    );

    let report = bench_report_json("hierarchy", "virtual", "[]", &metrics.finish());
    cfg.write_report("hierarchy", &report);
    if !gate_ok {
        std::process::exit(1);
    }
}
