//! Property-test harness helpers: seed schedules with environment
//! overrides and copy-pasteable rerun commands.
//!
//! Every property suite in the workspace derives its case seeds from a
//! fixed base, so runs are deterministic by default. Two environment
//! variables bend that without recompiling:
//!
//! * `SRUMMA_PROP_SEED=<seed>` (decimal or `0x`-hex) — run exactly one
//!   case with that seed. This is what a failure message's `rerun:`
//!   line sets, so reproducing a red case is one shell command.
//! * `SRUMMA_PROP_CASES=<n>` — widen or narrow the sweep (`base ..
//!   base + n`), e.g. a nightly soak with thousands of cases.
//!
//! Assertion messages should append [`prop_rerun`] so the failing seed
//! travels with the failure.

/// Parse a seed as decimal or `0x`-prefixed hex.
///
/// Returns `None` on anything else — callers treat that as a hard
/// error, since a typo silently falling back to the default sweep
/// would be worse than failing loudly.
pub(crate) fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The seed schedule for one property suite: `default_cases` seeds
/// counting up from `base`, unless overridden by `SRUMMA_PROP_SEED`
/// (exactly that one seed) or `SRUMMA_PROP_CASES` (a different count).
pub fn prop_seeds(base: u64, default_cases: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("SRUMMA_PROP_SEED") {
        let seed = parse_seed(&s)
            .unwrap_or_else(|| panic!("SRUMMA_PROP_SEED={s:?} is not a decimal or 0x-hex u64"));
        return vec![seed];
    }
    let cases = match std::env::var("SRUMMA_PROP_CASES") {
        Ok(n) => n
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("SRUMMA_PROP_CASES={n:?} is not a u64")),
        Err(_) => default_cases,
    };
    (0..cases).map(|c| base.wrapping_add(c)).collect()
}

/// The one-line reproduction command for a failing case, to embed in
/// assertion messages: pins the seed and filters to the failing test.
pub fn prop_rerun(seed: u64, test: &str) -> String {
    format!("rerun: SRUMMA_PROP_SEED={seed:#x} cargo test -q {test}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xE2E_0512"), None, "no digit separators");
        assert_eq!(parse_seed(" 0xE2E0512 "), Some(0xE2E_0512));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("seed"), None);
        assert_eq!(parse_seed("-3"), None);
    }

    #[test]
    fn rerun_line_round_trips_through_parse() {
        let line = prop_rerun(0xE2E_0512, "property_chaos");
        assert!(line.contains("SRUMMA_PROP_SEED=0xe2e0512"));
        assert!(line.contains("property_chaos"));
        let seed = line
            .split_once("SRUMMA_PROP_SEED=")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(parse_seed)
            .expect("rerun line must carry a parseable seed");
        assert_eq!(seed, 0xE2E_0512);
    }
}
