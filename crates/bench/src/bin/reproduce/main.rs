//! `reproduce NAME` regenerates one table or figure of the SRUMMA paper,
//! or one of the checks and ablations built on it. It prints the
//! paper-style tables on stdout and writes each table's CSV (and any
//! trace or `BENCH_*.json` report) under `results/`, or under
//! `SRUMMA_RESULTS_DIR`. Every output is a deterministic model output:
//! stdout is checked in as `results/NAME.txt` next to the files the
//! figure writes, and `scripts/ci.sh` compares them byte for byte.
//!
//! `reproduce fig10_srumma_vs_pdgemm --quick` runs Figure 10 at each
//! platform's largest CPU count only. Any other argument is a usage
//! error (exit 2); a results file that cannot be written exits 1.

mod checks;
mod paper;

use srumma_bench::{print_table, write_csv, write_file};
use srumma_sim::RunStats;
use std::io;
use std::path::Path;

/// One piece of a figure's output, in print order.
pub enum Out {
    /// Printed as it is.
    Text(String),
    /// Printed as an aligned table and written as `<csv>.csv`;
    /// `headers` is the CSV header line.
    Table {
        title: String,
        csv: String,
        headers: &'static str,
        rows: Vec<Vec<String>>,
    },
    /// Written as the named file (a trace or a `BENCH_*.json` report).
    File(String, String),
}

/// A titled table that is also written as `<csv>.csv`.
pub fn table(
    title: impl Into<String>,
    csv: impl Into<String>,
    headers: &'static str,
    rows: Vec<Vec<String>>,
) -> Out {
    let (title, csv) = (title.into(), csv.into());
    Out::Table {
        title,
        csv,
        headers,
        rows,
    }
}

/// A run's mean communication overlap in percent, `-` when it fetched
/// nothing.
pub fn overlap_pct(stats: &RunStats) -> String {
    let overlap = stats.mean_overlap().map(|o| format!("{:.0}", o * 100.0));
    overlap.unwrap_or_else(|| "-".into())
}

type Figure = fn() -> Vec<Out>;

const FIG10: &str = "fig10_srumma_vs_pdgemm";

/// Every figure, by the name of its `results/NAME.txt`.
const FIGURES: &[(&str, Figure)] = &[
    ("fig03_pipeline", paper::fig03_pipeline),
    ("fig04_diagshift", paper::fig04_diagshift),
    ("fig05_direct_vs_copy", paper::fig05_direct_vs_copy),
    ("fig06_bandwidth_x1", paper::fig06_bandwidth_x1),
    ("fig07_overlap", paper::fig07_overlap),
    ("fig08_get_bandwidth", paper::fig08_get_bandwidth),
    ("fig09_zerocopy", paper::fig09_zerocopy),
    (FIG10, || paper::fig10_srumma_vs_pdgemm(false)),
    ("table1_best_cases", paper::table1_best_cases),
    ("eq_model_check", checks::eq_model_check),
    ("ablation_taskorder", checks::ablation_taskorder),
    ("ablation_buffers", checks::ablation_buffers),
    ("ablation_summa_bcast", checks::ablation_summa_bcast),
    ("sensitivity", checks::sensitivity),
    ("memory_footprint", checks::memory_footprint),
    ("degradation", checks::degradation),
    ("hierarchy", checks::hierarchy),
];

/// The figure the arguments name, or the usage text listing the names.
fn parse(args: &[&str]) -> Result<(&'static str, Figure), String> {
    match args {
        [FIG10, "--quick"] | ["--quick", FIG10] => {
            let quick: Figure = || paper::fig10_srumma_vs_pdgemm(true);
            Ok((FIG10, quick))
        }
        [name] => FIGURES.iter().find(|(n, _)| n == name).copied().ok_or(()),
        _ => Err(()),
    }
    .map_err(|()| {
        let names: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
        format!(
            "usage: reproduce NAME, or reproduce {FIG10} --quick\nNAME is one of: {}",
            names.join(", ")
        )
    })
}

/// Print or write one piece of output into `dir`.
fn emit(dir: &Path, out: Out) -> io::Result<()> {
    match out {
        Out::Text(text) => print!("{text}"),
        Out::Table {
            title,
            csv,
            headers,
            rows,
        } => {
            let headers: Vec<&str> = headers.split(',').collect();
            print_table(&title, &headers, &rows);
            write_csv(dir, &csv, &headers, &rows)?;
        }
        Out::File(name, contents) => write_file(&dir.join(name), &contents)?,
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, figure) = parse(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    let dir = srumma_trace::results_dir();
    for out in figure() {
        if let Err(e) = emit(&dir, out) {
            eprintln!("reproduce {name}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn each_row_is_one_checked_in_transcript() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let names: BTreeSet<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), FIGURES.len(), "a figure name appears twice");
        for name in &names {
            assert!(
                results.join(format!("{name}.txt")).is_file(),
                "no results/{name}.txt"
            );
        }
        for entry in std::fs::read_dir(&results).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if let Some(stem) = file.strip_suffix(".txt") {
                assert!(
                    stem == "calibrate" || names.contains(stem),
                    "results/{file} belongs to no figure"
                );
            }
        }
    }

    #[test]
    fn arguments_name_one_figure() {
        for name in ["fig05_direct_vs_copy", "degradation", "hierarchy"] {
            assert_eq!(parse(&[name]).unwrap().0, name);
        }
        assert_eq!(parse(&[FIG10, "--quick"]).unwrap().0, FIG10);
        assert_eq!(parse(&["--quick", FIG10]).unwrap().0, FIG10);
        for bad in [
            &[][..],
            &["fig11"],
            &["--quick"],
            &["fig04_diagshift", "--quick"],
            &[FIG10, "--full"],
            &["sensitivity", "sensitivity"],
            &["hierarchy", "--quick"],
            &["degradation", "--n", "384"],
        ] {
            let usage = parse(bad).expect_err("a usage error");
            assert!(FIGURES.iter().all(|(n, _)| usage.contains(n)), "{usage}");
        }
    }
}
