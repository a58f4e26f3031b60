//! The full ledger: every workload, three rounds, each (round, workload)
//! in a fresh child process, children one at a time; samples pooled per
//! workload; `out/results.json`, `out/results.tsv` and one trace file
//! per workload. Also the A/A comparison `aa.sh` drives.

use crate::child::end_to_end;
use crate::layers::out_dir;
use crate::report::{def, json_number, Better, ChildReport, Metrics, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::{Def, DEFS};
use crate::{malloc_policy_value, MALLOC_POLICY};
use std::path::Path;
use std::process::Command;

/// Rounds of the full ledger. Round-robin over the workloads, so a slow
/// phase of the host is spread over all of them instead of landing on
/// one.
const ROUNDS: usize = 3;

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block: enough to tell two result files from different
/// machines, toolchains or commits apart.
fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = first_line(Command::new("rustc").arg("--version"));
    let commit = first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR")),
    );
    let malloc = malloc_policy_value();
    format!(
        "{{\"cpu_model\": \"{cpu}\", \"nproc\": {nproc}, \"loadavg_at_start\": \"{loadavg}\", \"rustc\": \"{rustc}\", \"commit\": \"{commit}\", \"workers\": {}, \"malloc_policy\": \"{}={malloc}\"}}",
        crate::adapter::WORKERS,
        MALLOC_POLICY.0
    )
}

/// One child: this binary again, one workload, one round.
fn spawn(def: &Def, seed: u64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .env(MALLOC_POLICY.0, malloc_policy_value())
        .args(["--workload", def.name])
        .args(["--seed", &seed.to_string()])
        .args(["--ops", &def.ops_per_round.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start the child: {e}", def.name))?;
    let report = ChildReport::parse(&String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        return Err(format!("{}: child exited with {}", def.name, out.status));
    }
    Ok(report)
}

/// Pool one workload's rounds into its final metrics. A value that must
/// repeat exactly (`bound == 0`) and did not across the rounds is
/// reported as a problem.
fn combine(name: &str, rounds: &[ChildReport], problems: &mut Vec<String>) -> Metrics {
    let of = |key: &str| -> Vec<f64> { rounds.iter().filter_map(|r| r.metrics.get(key)).collect() };
    let aux = |key: &str| -> Vec<f64> {
        rounds
            .iter()
            .filter_map(|r| r.aux.get(key).copied())
            .collect()
    };
    let some_median = |v: Vec<f64>| (!v.is_empty()).then(|| median(&v));

    let mut m = Metrics::default();
    // Per-layer values come from the round that ran the traced pass.
    for r in rounds {
        for d in &PER_LAYER {
            if let Some(v) = r.metrics.get(d.name) {
                m.set(d.name, v);
            }
        }
    }
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let vals = of(d.name);
        if d.bound == Some(0.0) && vals.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
            problems.push(format!(
                "{name}: {} must repeat exactly across rounds, got {vals:?}",
                d.name
            ));
        }
    }
    let samples: Vec<Vec<f64>> = rounds.iter().map(|r| r.samples.clone()).collect();
    let sim = of("sim_makespan_s")
        .first()
        .copied()
        .zip(of("sim_speedup_vs_summa").first().copied());
    m.extend(end_to_end(
        &samples,
        aux("flops").first().copied(),
        some_median(aux("serial_s")),
        sim,
        median(&of("setup_s")),
        median(&of("peak_rss_mb")),
        aux("failed").iter().sum::<f64>() as usize,
        aux("attempted").iter().sum::<f64>() as usize,
    ));
    m
}

fn write_results(
    dir: &Path,
    seed: u64,
    host: &str,
    results: &[(&Def, Metrics)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut workloads = Vec::new();
    let mut tsv = String::from("workload\tmetric\tvalue\tunit\n");
    for (def, m) in results {
        workloads.push(format!(
            "\"{}\": {{\"why\": \"{}\", \"ops_per_round\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            def.name,
            def.why,
            def.ops_per_round,
            m.json(END_TO_END.iter().map(|d| d.name), false),
            m.json(PER_LAYER.iter().map(|d| d.name), false)
        ));
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(v) = m.get(d.name) {
                tsv.push_str(&format!(
                    "{}\t{}\t{}\t{}\n",
                    def.name,
                    d.name,
                    json_number(v),
                    d.unit
                ));
            }
        }
    }
    std::fs::write(
        dir.join("results.json"),
        format!(
            "{{\"seed\": {seed}, \"rounds\": {ROUNDS}, \"host\": {host},\n\"workloads\": {{\n{}\n}}}}\n",
            workloads.join(",\n")
        ),
    )?;
    std::fs::write(dir.join("results.tsv"), tsv)
}

/// Run the ledger over `only` (or all five workloads); returns the exit
/// code: non-zero when any end-to-end metric is missing or not a number,
/// any op failed its check, or any child failed.
pub fn run(seed: u64, only: Option<&str>, out: Option<&Path>) -> u8 {
    let selected: Vec<&Def> = DEFS
        .iter()
        .filter(|d| only.is_none_or(|o| o == d.name))
        .collect();
    if selected.is_empty() {
        eprintln!("unknown workload {:?}", only.unwrap_or_default());
        return 2;
    }
    let host = host_json();
    let mut problems = Vec::new();
    let mut reports: Vec<Vec<ChildReport>> = vec![Vec::new(); selected.len()];
    for round in 0..ROUNDS {
        for (i, def) in selected.iter().enumerate() {
            eprintln!("round {}/{ROUNDS}: {}", round + 1, def.name);
            match spawn(def, seed, round + 1 == ROUNDS) {
                Ok(r) => reports[i].push(r),
                Err(e) => problems.push(e),
            }
        }
    }

    let mut results = Vec::new();
    for (def, rounds) in selected.iter().zip(&reports) {
        let m = combine(def.name, rounds, &mut problems);
        problems.extend(m.end_to_end_problems(def.name));
        println!("== {} — {}", def.name, def.why);
        print!("{}", m.lines());
        results.push((*def, m));
    }
    let dir = out.map_or_else(out_dir, Path::to_path_buf);
    match write_results(&dir, seed, &host, &results) {
        Ok(()) => eprintln!("wrote {}", dir.join("results.json").display()),
        Err(e) => problems.push(format!("cannot write results under {}: {e}", dir.display())),
    }
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    u8::from(!problems.is_empty())
}

fn read_tsv(dir: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let path = dir.join("results.tsv");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .skip(1)
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            Some((
                f.first()?.to_string(),
                f.get(1)?.to_string(),
                f.get(2)?.parse().ok()?,
            ))
        })
        .collect())
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The A/A table: both values and their relative difference for every
/// workload × metric; non-zero exit when a gated pair is worse by more
/// than its bound, or an exact one differs at all.
pub fn compare(dir_a: &Path, dir_b: &Path) -> u8 {
    let (a, b) = match (read_tsv(dir_a), read_tsv(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("FAIL {e}");
            return 2;
        }
    };
    let mut bad = 0;
    println!(
        "{:<14} {:<34} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, metric, va) in &a {
        let vb = b
            .iter()
            .find(|(w, m, _)| w == workload && m == metric)
            .map(|r| r.2);
        let d = def(metric);
        let bound = d.and_then(|d| d.bound);
        let (worse, verdict) = match (vb, d, bound) {
            (None, _, _) => (f64::NAN, "MISSING in B"),
            (Some(vb), Some(d), Some(bound)) => {
                let w = worsening(d.better, *va, vb);
                let exact_differs = bound == 0.0 && va.to_bits() != vb.to_bits();
                (
                    w,
                    if exact_differs || w > bound {
                        "FAIL"
                    } else {
                        "ok"
                    },
                )
            }
            (Some(vb), Some(d), None) => (worsening(d.better, *va, vb), "-"),
            (Some(_), None, _) => (f64::NAN, "-"),
        };
        if verdict == "FAIL" || verdict.starts_with("MISSING") {
            bad += 1;
        }
        println!(
            "{workload:<14} {metric:<34} {va:>16.9} {:>16.9} {:>8.2}% {:>7}  {verdict}",
            vb.unwrap_or(f64::NAN),
            worse * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    if bad > 0 {
        eprintln!("FAIL {bad} workload x metric pairs outside their bound");
    }
    u8::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 1.0, 0.9) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 50.0, 45.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Higher, 0.0, 0.0), 0.0);
    }

    #[test]
    fn rounds_pool_and_exact_values_must_repeat() {
        let child = |samples: &[f64], setup: f64, makespan: f64| {
            let mut r = ChildReport {
                samples: samples.to_vec(),
                ..ChildReport::default()
            };
            r.metrics.set("setup_s", setup);
            r.metrics.set("peak_rss_mb", 10.0);
            r.metrics.set("sim_makespan_s", makespan);
            r.metrics.set("sim_speedup_vs_summa", 2.0);
            r.aux.insert("failed".to_string(), 0.0);
            r.aux.insert("attempted".to_string(), samples.len() as f64);
            r
        };
        let rounds = [
            child(&[1.0, 1.0, 1.0, 1.0, 1.0], 0.1, 3.5),
            child(&[9.0], 0.3, 3.5),
            child(&[10.0], 0.2, 3.5),
        ];
        let mut problems = Vec::new();
        let m = combine("sim_scale", &rounds, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(m.get("wall_s_p50"), Some(1.0));
        assert_eq!(m.get("wall_s_p10"), Some(1.0));
        assert_eq!(m.get("ops"), Some(7.0));
        assert_eq!(m.get("setup_s"), Some(0.2));
        assert_eq!(m.get("sim_makespan_s"), Some(3.5));
        assert!(m.end_to_end_problems("sim_scale").is_empty());

        let drifted = [rounds[0].clone(), child(&[9.0], 0.3, 3.6)];
        combine("sim_scale", &drifted, &mut problems);
        assert!(problems[0].contains("sim_makespan_s must repeat exactly"));
    }
}
