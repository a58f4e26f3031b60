//! Where result artifacts live, independent of the current directory.
//!
//! Every harness in the workspace writes its artifacts — `BENCH_*.json`
//! reports, CSV tables, traces — under one `results/` directory.
//! Historically each binary wrote the literal relative path
//! `"results/…"`, which silently scattered files wherever the binary
//! happened to be launched from. [`results_dir`] resolves the directory
//! once, the same way for every writer:
//!
//! 1. `SRUMMA_RESULTS_DIR`, when set — an explicit deployment override
//!    (CI sandboxes, read-only checkouts);
//! 2. the first ancestor of the current directory that looks like the
//!    workspace root (has both `Cargo.toml` and `crates/`), so
//!    `cargo run` from any subdirectory of the repo lands in the repo's
//!    `results/`;
//! 3. the workspace this binary was compiled from (baked in at build
//!    time) — covers running a built binary from an unrelated cwd.

use std::path::{Path, PathBuf};

/// The resolved `results/` directory (see the module docs for the
/// three-step resolution). The directory is **not** created here: a
/// writer creates it, and reports the error when it cannot.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SRUMMA_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                return dir.join("results");
            }
        }
    }
    // `CARGO_MANIFEST_DIR` of this crate is `<workspace>/crates/trace`.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate manifest dir has a workspace root two levels up")
        .join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_to_a_results_directory() {
        // Whatever branch fires, the leaf component is `results` (an
        // explicit SRUMMA_RESULTS_DIR may point anywhere, but tests run
        // under cargo with the variable unset or repo-pointed).
        let dir = results_dir();
        assert!(
            dir.ends_with("results") || std::env::var("SRUMMA_RESULTS_DIR").is_ok(),
            "unexpected results dir {}",
            dir.display()
        );
    }
}
