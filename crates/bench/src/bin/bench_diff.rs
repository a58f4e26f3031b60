//! Compare two `BENCH_*.json` reports and summarize metric regressions
//! — the ROADMAP "trace diffing" item.
//!
//! Reads the flat `metrics` object of each report (see
//! `srumma_trace::bench_report_json`) and, for every numeric key present
//! in both, classifies the change by the key's name: throughput-like
//! metrics (`gflops`, `overlap`, `bandwidth`, `speedup`) should go up,
//! cost-like metrics (`stall`, `skew`, `makespan`, `seconds`, `time`,
//! `ns_per_elem`) should go down, and anything else is reported
//! informally without a verdict. A change worse than the threshold
//! (default 10 %) is a regression.
//!
//! Usage:
//! `cargo run -p srumma-bench --bin bench_diff -- BASE.json NEW.json
//! [--strict] [--threshold PCT] [--only SUBSTR]`
//!
//! `--only SUBSTR` restricts the comparison to metric keys containing
//! `SUBSTR` (repeatable; a key matching any filter is kept). CI uses it
//! to gate on hardware-stable *ratios* (`--only speedup`) while the
//! absolute wall-second metrics in the same report stay informational.
//! A filter that matches no numeric metric in both reports is a hard
//! error (exit 2) even without `--strict` — a vacuous gate is a broken
//! gate, not a passing one.
//!
//! Default mode always exits 0 (a *soft* gate: CI warns but stays
//! green); `--strict` exits 1 when regressions were found.

use srumma_trace::jsonin::Json;

struct Config {
    base: String,
    new: String,
    strict: bool,
    threshold: f64,
    only: Vec<String>,
}

fn parse_args() -> Config {
    let mut paths = Vec::new();
    let mut strict = false;
    let mut threshold = 10.0;
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--strict" => strict = true,
            "--threshold" => {
                let v = args.next().unwrap_or_default();
                threshold = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threshold wants PCT, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--only" => match args.next() {
                Some(s) if !s.is_empty() => only.push(s),
                _ => {
                    eprintln!("--only wants a key substring");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => {
                eprintln!("unknown arg {other:?}");
                std::process::exit(2);
            }
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_diff BASE.json NEW.json [--strict] [--threshold PCT] [--only SUBSTR]"
        );
        std::process::exit(2);
    }
    Config {
        base: paths.remove(0),
        new: paths.remove(0),
        strict,
        threshold,
        only,
    }
}

/// `+1` if larger is better, `-1` if smaller is better, `0` unknown.
fn direction(key: &str) -> i32 {
    const HIGHER: &[&str] = &["gflops", "overlap", "bandwidth", "speedup", "tasks"];
    const LOWER: &[&str] = &[
        "stall",
        "skew",
        "makespan",
        "seconds",
        "time",
        "ns_per_elem",
    ];
    if HIGHER.iter().any(|w| key.contains(w)) {
        1
    } else if LOWER.iter().any(|w| key.contains(w)) {
        -1
    } else {
        0
    }
}

fn load_metrics(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    doc.get("metrics").cloned().unwrap_or_else(|| {
        eprintln!("{path}: no \"metrics\" object (not a bench report?)");
        std::process::exit(2);
    })
}

fn main() {
    let cfg = parse_args();
    let base = load_metrics(&cfg.base);
    let new = load_metrics(&cfg.new);
    let (Some(bm), Some(nm)) = (base.as_object(), new.as_object()) else {
        eprintln!("metrics must be objects in both reports");
        std::process::exit(2);
    };

    println!(
        "bench_diff: {} -> {}  (threshold {}%)",
        cfg.base, cfg.new, cfg.threshold
    );
    let keep = |key: &str| cfg.only.is_empty() || cfg.only.iter().any(|s| key.contains(s.as_str()));
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut compared = 0usize;
    for (key, bval) in bm {
        if !keep(key) {
            continue;
        }
        let Some(b) = bval.as_num() else { continue };
        let Some(n) = nm.get(key).and_then(Json::as_num) else {
            println!("  ~ {key}: dropped from new report");
            continue;
        };
        compared += 1;
        if b == 0.0 {
            continue; // no meaningful relative change
        }
        let pct = (n - b) / b.abs() * 100.0;
        let dir = direction(key);
        // "Worse" is in the metric's own direction; unknown-direction
        // keys are shown for context but never gate.
        let worse = dir != 0 && pct * dir as f64 <= -cfg.threshold;
        let better = dir != 0 && pct * dir as f64 >= cfg.threshold;
        let mark = if worse {
            regressions += 1;
            "REGRESSION"
        } else if better {
            improvements += 1;
            "improved"
        } else {
            "ok"
        };
        if worse || better || dir == 0 {
            println!("  {mark:>10}  {key}: {b:.4} -> {n:.4} ({pct:+.1}%)");
        }
    }
    for key in nm.keys() {
        if keep(key) && !bm.contains_key(key) && nm[key].as_num().is_some() {
            println!("  ~ {key}: new metric (no baseline)");
        }
    }
    println!(
        "bench_diff: {regressions} regression(s), {improvements} improvement(s) beyond {}%",
        cfg.threshold
    );
    // A filter that matches nothing is a misconfigured gate (typo'd key,
    // renamed metric): the run would pass vacuously forever. Hard error
    // regardless of --strict so CI notices immediately.
    if compared == 0 && !cfg.only.is_empty() {
        eprintln!(
            "bench_diff: --only {:?} matched no numeric metric present in both reports",
            cfg.only
        );
        std::process::exit(2);
    }
    if regressions > 0 && cfg.strict {
        std::process::exit(1);
    }
}
