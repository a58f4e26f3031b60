//! `srumma-benchmark` — one ledger from microkernel to batch stream.
//!
//! Three ways to run it (README.md has the details):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload in
//!   this process, as `BENCHMARK.json` drives it; the last line of
//!   standard output is the result object.
//! * no `--seconds`/`--ops` — the full ledger: every workload (or just
//!   `--workload W`), three rounds, a fresh child process per round and
//!   workload, results under `out/`.
//! * `--compare DIR_A DIR_B` — the A/A table over two ledger outputs.

mod adapter;
mod child;
mod layers;
mod ledger;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use child::Limit;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The allocator policy every workload runs under: glibc's initial
/// `malloc` thresholds, frozen. Naming either threshold in the
/// environment turns off glibc's dynamic adjustment, under which the
/// same binary on the same inputs settles — by heap-top accidents — into
/// a page-recycling or a page-refaulting regime (README.md, "Why a child
/// process per workload"). glibc reads the variable at start-up, so a
/// process that finds it unset starts itself again with it set; a value
/// already in the environment is respected and recorded.
pub const MALLOC_POLICY: (&str, &str) = ("MALLOC_TRIM_THRESHOLD_", "131072");

/// The policy value in force: the environment's, else ours.
pub fn malloc_policy_value() -> String {
    std::env::var(MALLOC_POLICY.0).unwrap_or_else(|_| MALLOC_POLICY.1.to_string())
}

const USAGE: &str = "usage: srumma-benchmark [--workload NAME] [--seed N] \
[--seconds S | --ops N] [--trace 0|1] [--out DIR] | --compare DIR_A DIR_B";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    limit: Option<Limit>,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let s = number(value()?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is outside (0, 3600]"));
                }
                args.limit = Some(Limit::Seconds(s));
            }
            "--ops" => {
                let n = number(value()?)?;
                if !(1.0..=1e7).contains(&n) || n.fract() != 0.0 {
                    return Err(format!("--ops: {n} is not a whole number in [1, 1e7]"));
                }
                args.limit = Some(Limit::Ops(n as usize));
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is neither 0 nor 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let a = PathBuf::from(value()?);
                args.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// This process again, same arguments, allocator policy set; its
/// standard streams are ours, and so is its exit code.
fn run_again_under_policy(argv: &[String]) -> u8 {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(argv)
            .env(MALLOC_POLICY.0, MALLOC_POLICY.1)
            .status()
    });
    match status {
        Ok(s) => s.code().map_or(1, |c| c.clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("cannot start the workload's process: {e}");
            1
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = match (&args.compare, args.limit, &args.workload) {
        (Some((a, b)), _, _) => ledger::compare(a, b),
        (None, Some(_), Some(_)) if std::env::var_os(MALLOC_POLICY.0).is_none() => {
            run_again_under_policy(&argv)
        }
        (None, Some(limit), Some(w)) => child::run(w, args.seed, limit, args.trace, started),
        (None, Some(_), None) => {
            eprintln!("--seconds/--ops run one workload: name it with --workload\n{USAGE}");
            2
        }
        (None, None, only) => ledger::run(args.seed, only.as_deref(), args.out.as_deref()),
    };
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = parse(&argv("--workload rect_tn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("rect_tn"));
        assert_eq!(
            (a.seed, a.limit, a.trace),
            (7, Some(Limit::Seconds(10.0)), true)
        );
        let b = parse(&argv("--seed 1")).unwrap();
        assert_eq!((b.seed, b.limit, b.workload), (1, None, None));
    }

    #[test]
    fn bad_arguments_are_refused_by_name() {
        assert!(parse(&argv("--seconds 0"))
            .unwrap_err()
            .contains("--seconds"));
        assert!(parse(&argv("--ops 2.5")).unwrap_err().contains("--ops"));
        assert!(parse(&argv("--seed -3")).unwrap_err().contains("--seed"));
        assert!(parse(&argv("--trace yes")).unwrap_err().contains("--trace"));
        assert!(parse(&argv("--frobnicate"))
            .unwrap_err()
            .contains("unknown"));
        assert!(parse(&argv("--workload"))
            .unwrap_err()
            .contains("needs a value"));
    }
}
