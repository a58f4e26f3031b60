//! Anchor check: the four machine presets against the paper's anchor
//! points (DESIGN.md §6). The table is a deterministic model output,
//! checked in as `results/calibrate.txt` and diffed by `scripts/ci.sh`.
//! `--list-kernels` prints the kernels available on this host one per
//! line (the `scripts/ci.sh` flavor loop consumes it); any other
//! argument is rejected. Nothing here measures the host:
//! `bench_dense_gemm` reports the per-kernel ladder and
//! `bench_executor_scaling` sweeps ranks per worker. Not a figure — a
//! development tool.

use srumma_bench::{fmt, pdgemm_best, srumma_run};
use srumma_core::{GemmSpec, SrummaOptions};
use srumma_dense::Microkernel;
use srumma_model::Machine;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [flag] if flag == "--list-kernels" => {
            for kernel in Microkernel::all() {
                if kernel.available() {
                    println!("{}", kernel.env_name());
                }
            }
            return;
        }
        _ => {
            eprintln!("calibrate: takes `--list-kernels`, or nothing for the anchor table");
            std::process::exit(2);
        }
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
        let stats = srumma_run(&machine, p, &spec, SrummaOptions::default());
        let s = stats.gflops(spec.flops());
        let (pd, nb) = pdgemm_best(&machine, p, &spec);
        let ov = stats.mean_overlap().map(|o| o * 100.0).unwrap_or(0.0);
        println!(
            "{name}: SRUMMA {} (paper {paper_s}), pdgemm {} nb={nb:?} (paper {paper_p}), ratio {:.1} (paper {:.1}), overlap {ov:.0}%",
            fmt(s), fmt(pd), s / pd, paper_s / paper_p
        );
    }
    eprintln!("elapsed: {:?}", t0.elapsed());
}
