//! # srumma-bench — experiment harness support
//!
//! Shared plumbing for the `reproduce` binary (one row per figure of the
//! paper) and the `bench_*` programs in `src/bin/`: aligned table
//! printing, CSV and JSON output (under `results/`), and the measurement
//! helpers every figure uses (a modeled SRUMMA run, block-size-tuned
//! SUMMA/pdgemm GFLOP/s — the paper chose "optimum block sizes …
//! empirically for all matrix sizes and processor counts", so the
//! harness does the same sweep).

#![warn(unreachable_pub)]

use srumma_core::driver::{measure_gflops, measure_modeled};
use srumma_core::{Algorithm, GemmSpec, SrummaOptions, SummaOptions};
use srumma_model::Machine;
use srumma_sim::RunStats;
use std::io;
use std::path::Path;

pub mod timing;

/// The executor pool of every `bench_*` binary: host parallelism, at most 8.
pub fn worker_pool() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(8))
}

/// The command line every `bench_*` binary shares: `--quick` (short
/// sweep), `--smoke` (bounded CI correctness run) and `--out PATH`
/// (where the `BENCH_*.json` goes). Anything else is a usage error
/// (exit 2).
#[derive(Default)]
pub struct BenchArgs {
    pub quick: bool,
    pub smoke: bool,
    out: Option<String>,
}

impl BenchArgs {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        let mut cfg = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cfg.quick = true,
                "--smoke" => cfg.smoke = true,
                "--out" => cfg.out = args.next(),
                other => {
                    eprintln!("unknown arg {other:?} (expected --quick, --smoke, --out PATH)");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }

    /// Write the binary's report to `--out PATH`, or without it to
    /// `<results_dir>/BENCH_<name>.json`. A report that cannot be
    /// written exits 1.
    pub fn write_report(&self, name: &str, json: &str) {
        let written = match &self.out {
            Some(path) => write_file(Path::new(path), json),
            None => write_bench_json(&srumma_trace::results_dir(), name, json),
        };
        if let Err(e) = written {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Write `contents` to `path`, creating its directory if missing; the
/// error names the path.
pub fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, contents))
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Write a JSON report as `<dir>/BENCH_<name>.json` (the unified trace
/// + metrics document; `dir` is usually `srumma_trace::results_dir()`).
pub(crate) fn write_bench_json(dir: &Path, name: &str, json: &str) -> io::Result<()> {
    write_file(&dir.join(format!("BENCH_{name}.json")), json)
}

/// Print an aligned text table (paper-style).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rule = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}\n{}", fmt_row(&head), "-".repeat(rule));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write the same table as CSV, `<dir>/<name>.csv`.
pub fn write_csv(dir: &Path, name: &str, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut csv = headers.join(",") + "\n";
    for row in rows {
        csv += &row.join(",");
        csv.push('\n');
    }
    write_file(&dir.join(format!("{name}.csv")), &csv)
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// A modeled SRUMMA run at paper scale: its statistics, from which the
/// figures read GFLOP/s (`.gflops(spec.flops())`), overlap and bytes.
pub fn srumma_run(m: &Machine, nranks: usize, spec: &GemmSpec, opts: SrummaOptions) -> RunStats {
    measure_modeled(m, nranks, &Algorithm::Srumma(opts), spec)
}

/// The pdgemm stand-in: SUMMA with the empirically best panel width
/// from a small sweep (as the paper tuned ScaLAPACK's block size).
/// Returns the best (GFLOP/s, panel width); `None` width = natural
/// block panels.
pub fn pdgemm_best(machine: &Machine, nranks: usize, spec: &GemmSpec) -> (f64, Option<usize>) {
    let mut best = (0.0f64, None);
    for nb in [None, Some(64), Some(128), Some(256)] {
        // Skip panel widths wider than the problem.
        if let Some(w) = nb {
            if w * 2 > spec.k {
                continue;
            }
        }
        let g = measure_gflops(
            machine,
            nranks,
            &Algorithm::Summa(SummaOptions {
                panel_nb: nb,
                ..Default::default()
            }),
            spec,
        );
        if g > best.0 {
            best = (g, nb);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision_bands() {
        assert_eq!(fmt(384.2), "384");
        assert_eq!(fmt(33.91), "33.9");
        assert_eq!(fmt(6.4), "6.40");
    }

    #[test]
    fn srumma_measurement_is_positive_and_bounded() {
        let m = Machine::linux_myrinet();
        let spec = GemmSpec::square(600);
        let g = srumma_run(&m, 4, &spec, SrummaOptions::default()).gflops(spec.flops());
        // Cannot exceed 4 processors' peak.
        assert!(g > 0.0 && g < 4.0 * m.cpu.peak_flops / 1e9);
    }

    #[test]
    fn writers_report_a_directory_they_cannot_create() {
        // A regular file where the directory should be: unwritable even
        // for root, which permission bits are not.
        let file = std::env::temp_dir().join(format!("srumma-bench-{}-file", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let dir = file.join("results");
        let csv = write_csv(&dir, "t", &["a"], &[vec!["1".into()]]);
        let json = write_bench_json(&dir, "t", "{}");
        std::fs::remove_file(&file).unwrap();
        assert!(csv.unwrap_err().to_string().contains("t.csv"));
        assert!(json.unwrap_err().to_string().contains("BENCH_t.json"));
    }

    #[test]
    fn pdgemm_sweep_returns_a_candidate() {
        let m = Machine::linux_myrinet();
        let spec = GemmSpec::square(600);
        let (g, _nb) = pdgemm_best(&m, 4, &spec);
        assert!(g > 0.0);
    }
}
