//! Host profiles: what `calibrate` measured, in loadable form.
//!
//! SRUMMA's throughput hinges on configuration the paper fixed once per
//! machine. [`HostProfile`] is the persisted result of
//! `calibrate -- --all` (`results/host_profile.json`, versioned) for
//! the three knobs a run reads: micro-kernel, cache blocks, prefetch
//! depth. Every field is optional: a profile pins only what was probed,
//! and [`HostProfile::resolve`] folds the pinned fields into a
//! [`SrummaOptions`] without disturbing anything the caller set
//! explicitly. [`SrummaOptions::from_profile`] is the one-call path:
//! load the host profile if present and valid, fall back to the static
//! defaults (with a single warning) otherwise.
//!
//! A caller without a profile gets the static defaults — what the
//! checked-in ledger runs. Nothing adjusts a knob while a run is in
//! flight: a batch stream runs at the `prefetch_depth` and `window` its
//! options say (an online tuner used to move both between entries; it
//! lost to leaving them alone in every measured cell — EXPERIMENTS.md,
//! "Retired: the online tuner and the write-only profile keys").
//!
//! Precedence, uniform across the workspace: explicit configuration
//! (a `GemmConfig` in the options) beats `SRUMMA_KERNEL` (which warns
//! once, see `srumma_dense::explicit_env_conflicts`), which beats the
//! profile, which beats the built-in defaults.

use crate::options::SrummaOptions;
use srumma_dense::{BlockSizes, GemmConfig, Microkernel};
use srumma_trace::json::JsonObject;
use srumma_trace::jsonin::Json;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Once, OnceLock};

/// Version stamp of the on-disk profile schema. Bump on any
/// incompatible change; loads of other versions fail with
/// [`ProfileError::Version`] so a stale file can never silently
/// misconfigure a run.
pub const PROFILE_VERSION: u32 = 1;

/// Why a profile failed to load. Every variant renders to a one-line
/// message that names the file problem precisely; callers on the
/// forgiving path ([`SrummaOptions::from_profile`]) log it once and
/// fall back to the static defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// The file could not be read (missing counts here too).
    Io(String),
    /// The file is not valid JSON.
    Parse(String),
    /// The file's schema version is missing or not [`PROFILE_VERSION`].
    Version {
        /// Version found in the file (`None` = field absent).
        found: Option<u32>,
        /// The version this build expects.
        expected: u32,
    },
    /// A field is present but malformed or inapplicable on this host.
    Field {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "cannot read host profile: {e}"),
            ProfileError::Parse(e) => write!(f, "host profile is not valid JSON: {e}"),
            ProfileError::Version { found, expected } => match found {
                Some(v) => write!(
                    f,
                    "host profile version {v} does not match this build's {expected}; \
                     re-run `calibrate -- --all`"
                ),
                None => write!(f, "host profile has no `version` field"),
            },
            ProfileError::Field { field, reason } => {
                write!(f, "host profile field `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// A persisted per-host calibration result: what `calibrate` measured,
/// in loadable form. Every field is optional — a probe that did not run
/// leaves its field unset, and [`HostProfile::merge`] lets individual
/// probe flags update one file incrementally.
///
/// On-disk schema (JSON, flat, version-stamped; unset fields are
/// omitted; keys this build does not know are ignored, which is how a
/// version-1 file still carrying a retired key — `workers`,
/// `batch_window`, `ranks_per_node`, `replication_budget_bytes`,
/// `layout`, `strassen_cutoff` — keeps loading):
///
/// ```json
/// {
///   "version": 1,
///   "kernel": "avx2",
///   "blocks": {"mc": 64, "kc": 256, "nc": 512},
///   "prefetch_depth": 2
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Best micro-kernel (`calibrate -- --kernels`).
    pub kernel: Option<Microkernel>,
    /// Best cache-block sizes (`calibrate -- --blocks`).
    pub blocks: Option<BlockSizes>,
    /// Best prefetch depth (`calibrate -- --workers`; `0` = double
    /// buffering off).
    pub prefetch_depth: Option<usize>,
}

impl HostProfile {
    /// An empty profile (nothing probed).
    pub fn new() -> Self {
        HostProfile::default()
    }

    /// The canonical on-disk location:
    /// `<results_dir>/host_profile.json` (see
    /// `srumma_trace::results_dir` for how the directory is found).
    pub fn default_path() -> PathBuf {
        srumma_trace::host_profile_path()
    }

    /// Fold `other`'s probed fields over this profile (its `Some`
    /// fields win) — how an individual `calibrate --workers` run
    /// updates an existing merged file without erasing other probes.
    pub fn merge(&mut self, other: &HostProfile) {
        if other.kernel.is_some() {
            self.kernel = other.kernel;
        }
        if other.blocks.is_some() {
            self.blocks = other.blocks;
        }
        if other.prefetch_depth.is_some() {
            self.prefetch_depth = other.prefetch_depth;
        }
    }

    /// Serialize to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.int("version", PROFILE_VERSION as u64);
        if let Some(k) = self.kernel {
            o.str("kernel", k.env_name());
        }
        if let Some(b) = self.blocks {
            let mut nb = JsonObject::new();
            nb.int("mc", b.mc as u64);
            nb.int("kc", b.kc as u64);
            nb.int("nc", b.nc as u64);
            o.raw("blocks", &nb.finish());
        }
        if let Some(d) = self.prefetch_depth {
            o.int("prefetch_depth", d as u64);
        }
        o.finish()
    }

    /// Parse and validate a profile document. Rejects wrong versions,
    /// malformed fields, and kernels unavailable on this host — a
    /// profile copied from another machine fails loudly here instead of
    /// panicking later inside workspace construction.
    pub fn from_json(text: &str) -> Result<Self, ProfileError> {
        let doc = Json::parse(text).map_err(ProfileError::Parse)?;
        if doc.as_object().is_none() {
            return Err(ProfileError::Parse("document is not an object".into()));
        }
        match doc.get("version") {
            Some(v) => {
                let found = v.as_num().map(|n| n as u32);
                if found != Some(PROFILE_VERSION) {
                    return Err(ProfileError::Version {
                        found,
                        expected: PROFILE_VERSION,
                    });
                }
            }
            None => {
                return Err(ProfileError::Version {
                    found: None,
                    expected: PROFILE_VERSION,
                })
            }
        }
        let mut p = HostProfile::new();
        if let Some(v) = doc.get("kernel") {
            let name = v.as_str().ok_or_else(|| ProfileError::Field {
                field: "kernel",
                reason: "must be a string".into(),
            })?;
            let kernel = Microkernel::all()
                .iter()
                .copied()
                .find(|k| k.env_name() == name)
                .ok_or_else(|| ProfileError::Field {
                    field: "kernel",
                    reason: format!("unknown kernel `{name}` for this build"),
                })?;
            if !kernel.available() {
                return Err(ProfileError::Field {
                    field: "kernel",
                    reason: format!("kernel `{name}` is not available on this host"),
                });
            }
            p.kernel = Some(kernel);
        }
        if let Some(v) = doc.get("blocks") {
            let get = |k: &'static str| -> Result<usize, ProfileError> {
                let n = v
                    .get(k)
                    .and_then(|x| x.as_num())
                    .ok_or(ProfileError::Field {
                        field: "blocks",
                        reason: format!("missing or non-numeric `{k}`"),
                    })?;
                if n < 1.0 {
                    return Err(ProfileError::Field {
                        field: "blocks",
                        reason: format!("`{k}` must be a positive integer, got {n}"),
                    });
                }
                Ok(n as usize)
            };
            p.blocks = Some(BlockSizes {
                mc: get("mc")?,
                kc: get("kc")?,
                nc: get("nc")?,
            });
        }
        if let Some(v) = doc.get("prefetch_depth") {
            let n = v.as_num().ok_or(ProfileError::Field {
                field: "prefetch_depth",
                reason: "must be an integer".into(),
            })?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(ProfileError::Field {
                    field: "prefetch_depth",
                    reason: format!("must be an integer >= 0, got {n}"),
                });
            }
            p.prefetch_depth = Some(n as usize);
        }
        Ok(p)
    }

    /// Load and validate a profile file.
    pub fn load(path: &Path) -> Result<Self, ProfileError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ProfileError::Io(format!("{}: {e}", path.display())))?;
        Self::from_json(&text)
    }

    /// Load from the canonical location ([`Self::default_path`]).
    pub fn load_default() -> Result<Self, ProfileError> {
        Self::load(&Self::default_path())
    }

    /// Write the profile to `path` (parent directory created).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json() + "\n")
    }

    /// Write to the canonical location ([`Self::default_path`]).
    pub fn save_default(&self) -> std::io::Result<()> {
        self.save(&Self::default_path())
    }

    /// The serial-kernel configuration this profile pins, or `None`
    /// when no gemm-level field was probed. An unpinned kernel stays
    /// `None` — resolved at workspace construction from `SRUMMA_KERNEL`
    /// or CPU detection — preserving the explicit > env > profile
    /// precedence.
    pub fn gemm_config(&self) -> Option<GemmConfig> {
        if self.kernel.is_none() && self.blocks.is_none() {
            return None;
        }
        Some(GemmConfig {
            kernel: self.kernel,
            blocks: self.blocks,
        })
    }

    /// Fold the profile into `base`: fills the gemm config only when
    /// the caller left it `None` (explicit configuration wins) and
    /// applies the probed prefetch depth (`0` disables double
    /// buffering).
    pub fn resolve(&self, base: SrummaOptions) -> SrummaOptions {
        let mut opts = base;
        if opts.gemm.is_none() {
            opts.gemm = self.gemm_config();
        }
        if let Some(d) = self.prefetch_depth {
            if d == 0 {
                opts.double_buffer = false;
                opts.prefetch_depth = 0;
            } else {
                opts.double_buffer = true;
                opts.prefetch_depth = d;
            }
        }
        opts
    }
}

/// The process-wide cached load of the canonical profile. `None` when
/// the file is absent or invalid (the reason is logged once).
fn cached_profile() -> Option<HostProfile> {
    static CACHE: OnceLock<Option<HostProfile>> = OnceLock::new();
    *CACHE.get_or_init(|| match HostProfile::load_default() {
        Ok(p) => Some(p),
        Err(e) => {
            // A missing file is the normal un-calibrated state — stay
            // quiet. Anything else (corrupt, stale version, bad field)
            // deserves one warning.
            if !matches!(&e, ProfileError::Io(_)) {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!("srumma: ignoring host profile ({e}); using static Auto defaults");
                });
            }
            None
        }
    })
}

impl SrummaOptions {
    /// The default options with this host's calibration profile folded
    /// in ([`HostProfile::resolve`]). When no valid profile exists the
    /// result is exactly [`SrummaOptions::default`] — corrupt or
    /// stale-version files are rejected with a single warning, never a
    /// panic. The profile is loaded once per process.
    pub fn from_profile() -> SrummaOptions {
        match cached_profile() {
            Some(p) => p.resolve(SrummaOptions::default()),
            None => SrummaOptions::default(),
        }
    }

    /// Strict variant for tests and tools: load `path`, resolve over
    /// the defaults, and surface any load error to the caller.
    pub fn from_profile_path(path: &Path) -> Result<SrummaOptions, ProfileError> {
        HostProfile::load(path).map(|p| p.resolve(SrummaOptions::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_json_roundtrip_empty() {
        let p = HostProfile::new();
        let back = HostProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }
}
