//! Fuzz of `Json::parse`, the reader behind `bench_diff`: the files it
//! parses are named on a command line, so whatever they hold it must
//! *return* — `Ok` or `Err` — and never panic, overflow the stack or
//! take time quadratic in the input.
//!
//! The corpus is the checked-in `results/BENCH_*.json`; a case mutates
//! one of them (truncate, overwrite characters, splice in a slice of
//! another, wrap in brackets) from a SplitMix64 seed. The fixed inputs
//! in front are the regressions of the two defects found in the reader:
//! unbounded recursion and a whole-document UTF-8 re-validation per
//! string character. Set `SRUMMA_PROP_SEED` to pin one case or
//! `SRUMMA_PROP_CASES` to widen the sweep (see `srumma::dense::prop`).

use srumma::dense::{prop_rerun, prop_seeds, Rng};
use srumma::trace::jsonin::MAX_DEPTH;
use srumma::trace::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const CASES: u64 = 1500;

/// Structure, escapes, number syntax, a multi-byte character, a NUL.
const ALPHABET: [char; 18] = [
    '{', '}', '[', ']', '"', '\\', ',', ':', '-', '.', 'e', 'u', '0', '9', 't', ' ', 'λ', '\0',
];

/// The checked-in reports, by file name.
fn corpus() -> Vec<(String, Vec<char>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let mut docs: Vec<(String, Vec<char>)> = std::fs::read_dir(dir)
        .expect("results/ is checked in")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("a report is UTF-8");
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                text.chars().collect(),
            )
        })
        .collect();
    docs.sort();
    assert!(docs.len() >= 5, "only {} BENCH_*.json found", docs.len());
    docs
}

/// `parse` must come back; a panic fails the test with `what`.
fn parse(text: &str, what: &str) -> Result<Json, String> {
    catch_unwind(AssertUnwindSafe(|| Json::parse(text)))
        .unwrap_or_else(|_| panic!("Json::parse panicked on {what}"))
}

fn wrapped(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

/// One to three mutations of one document.
fn mutate(rng: &mut Rng, docs: &[(String, Vec<char>)]) -> String {
    let mut doc = rng.pick(docs).1.clone();
    for _ in 0..rng.range(1, 3) {
        match rng.below(4) {
            0 => doc.truncate(rng.below(doc.len() + 1)),
            1 => {
                for _ in 0..rng.range(1, 4) {
                    if !doc.is_empty() {
                        let at = rng.below(doc.len());
                        doc[at] = *rng.pick(&ALPHABET);
                    }
                }
            }
            2 => {
                let other = &rng.pick(docs).1;
                let from = rng.below(other.len());
                let slice = &other[from..rng.range(from, other.len())];
                let at = rng.below(doc.len() + 1);
                let end = rng.range(at, doc.len().min(at + 64));
                doc.splice(at..end, slice.iter().copied());
            }
            _ => {
                let depth = rng.range(1, 2 * MAX_DEPTH);
                let (open, close) = *rng.pick(&[("[", "]"), ("{\"k\":", "}")]);
                let mut w: Vec<char> = open.repeat(depth).chars().collect();
                w.extend(doc);
                // Now and then left unclosed.
                if rng.chance(0.75) {
                    w.extend(close.repeat(depth).chars());
                }
                doc = w;
            }
        }
    }
    doc.into_iter().collect()
}

#[test]
fn parse_returns_on_anything() {
    let docs = corpus();

    // Every checked-in document parses, also 64 arrays down.
    for (name, doc) in &docs {
        let text: String = doc.iter().collect();
        let tree = parse(&text, name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(tree.as_object().is_some(), "{name} is not an object");
        if let Err(e) = parse(&wrapped(64, &text), name) {
            panic!("{name}, 64 arrays down: {e}");
        }
    }

    // Nesting is bounded, and the error names the byte.
    assert!(parse(&wrapped(MAX_DEPTH, "1"), "MAX_DEPTH arrays").is_ok());
    for (what, text, byte) in [
        ("one array too deep", wrapped(MAX_DEPTH + 1, "1"), MAX_DEPTH),
        ("300 000 x [", "[".repeat(300_000), MAX_DEPTH),
        ("300 000 x {k:", "{\"k\":".repeat(300_000), 5 * MAX_DEPTH),
    ] {
        let err = parse(&text, what).expect_err(what);
        assert!(
            err.contains("nesting") && err.ends_with(&format!("at byte {byte}")),
            "{what}: {err}"
        );
    }

    // A string costs time linear in its length: 1 MB, multi-byte
    // characters and an escape included, in well under a second.
    let body = "xλ".repeat(350_000);
    let text = format!("\"{body}\\n{body}\"");
    assert!(text.len() > 1 << 20);
    let t = Instant::now();
    let parsed = parse(&text, "a 1 MB string").expect("a valid string");
    let took = t.elapsed();
    assert_eq!(parsed.as_str(), Some(format!("{body}\n{body}").as_str()));
    assert!(took < Duration::from_secs(1), "1 MB string took {took:?}");

    for seed in prop_seeds(0x15_0FF2, CASES) {
        let text = mutate(&mut Rng::new(seed), &docs);
        let what = format!(
            "a mutated report ({} bytes); {}",
            text.len(),
            prop_rerun(seed, "--test fuzz_jsonin")
        );
        let _ = parse(&text, &what);
    }
}
