//! Self-tuning runtime: host profiles and the online tuner.
//!
//! SRUMMA's throughput hinges on configuration the paper fixed per
//! machine — kernel, cache blocks, prefetch depth, worker count, batch
//! window. The repo measures all of it (`calibrate` probes, per-entry
//! `RunStats`/`BatchStats`) but until this module each `Auto` knob was
//! resolved by a static guess scattered across options/memory/repl.
//! This module closes the measurement→configuration loop in two
//! layers:
//!
//! 1. **[`HostProfile`]** — the persisted result of `calibrate -- --all`
//!    (`results/host_profile.json`, versioned). Every field is
//!    optional: a profile pins only what was probed, and
//!    [`HostProfile::resolve`] folds the pinned fields into a
//!    [`SrummaOptions`] without disturbing anything the caller set
//!    explicitly. [`SrummaOptions::from_profile`] is the one-call path:
//!    load the host profile if present and valid, fall back to the
//!    static defaults (with a single warning) otherwise.
//! 2. **[`Tuner`]** — an online hill-climb over (prefetch depth, batch
//!    window) for long batch streams, fed per-entry timing samples and
//!    adjusting the knobs *between* entries. Bounded by
//!    [`TunerConfig`], deterministic given the same observation
//!    sequence and seed, off by default
//!    ([`SrummaOptions::with_tuner`] turns it on). Both knobs only
//!    change *when blocks are fetched*, never which gemm calls run or
//!    in what per-rank order, so a tuned run is bitwise identical to an
//!    untuned run on the same inputs.
//!
//! A caller without a profile gets the static defaults — what the
//! checked-in ledger runs.
//!
//! Precedence, uniform across the workspace: explicit configuration
//! (a `GemmConfig` in the options) beats `SRUMMA_KERNEL` (which warns
//! once, see `srumma_dense::explicit_env_conflicts`), which beats the
//! profile, which beats the built-in defaults.

use crate::options::{ReplicationFactor, SrummaOptions, TunerConfig};
use srumma_dense::{BlockSizes, GemmConfig, Microkernel};
use srumma_trace::json::JsonObject;
use srumma_trace::jsonin::Json;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock};

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
/// omitted, keys this build does not know are ignored):
///
/// ```json
/// {
///   "version": 1,
///   "kernel": "avx2",
///   "blocks": {"mc": 64, "kc": 256, "nc": 512},
///   "workers": 8,
///   "prefetch_depth": 2,
///   "batch_window": 3,
///   "ranks_per_node": 4,
///   "replication_budget_bytes": 50000000
/// }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Best micro-kernel (`calibrate -- --kernels`).
    pub kernel: Option<Microkernel>,
    /// Best cache-block sizes (`calibrate -- --blocks`).
    pub blocks: Option<BlockSizes>,
    /// Best executor worker-pool size (`calibrate -- --workers`).
    pub workers: Option<usize>,
    /// Best prefetch depth (`0` = double buffering off).
    pub prefetch_depth: Option<usize>,
    /// Best batch slot-ring window (`calibrate -- --batch`).
    pub batch_window: Option<usize>,
    /// Emulated ranks-per-node sweet spot (`calibrate -- --topology`).
    pub ranks_per_node: Option<usize>,
    /// Per-rank arena budget for `ReplicationFactor::Auto`, in bytes.
    pub replication_budget_bytes: Option<u64>,
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
        if other.workers.is_some() {
            self.workers = other.workers;
        }
        if other.prefetch_depth.is_some() {
            self.prefetch_depth = other.prefetch_depth;
        }
        if other.batch_window.is_some() {
            self.batch_window = other.batch_window;
        }
        if other.ranks_per_node.is_some() {
            self.ranks_per_node = other.ranks_per_node;
        }
        if other.replication_budget_bytes.is_some() {
            self.replication_budget_bytes = other.replication_budget_bytes;
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
        if let Some(w) = self.workers {
            o.int("workers", w as u64);
        }
        if let Some(d) = self.prefetch_depth {
            o.int("prefetch_depth", d as u64);
        }
        if let Some(w) = self.batch_window {
            o.int("batch_window", w as u64);
        }
        if let Some(r) = self.ranks_per_node {
            o.int("ranks_per_node", r as u64);
        }
        if let Some(b) = self.replication_budget_bytes {
            o.int("replication_budget_bytes", b);
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
        let count = |key: &'static str, min: f64| -> Result<Option<usize>, ProfileError> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => {
                    let n = v.as_num().ok_or(ProfileError::Field {
                        field: key,
                        reason: "must be an integer".into(),
                    })?;
                    if n < min || n.fract() != 0.0 {
                        return Err(ProfileError::Field {
                            field: key,
                            reason: format!("must be an integer >= {min}, got {n}"),
                        });
                    }
                    Ok(Some(n as usize))
                }
            }
        };
        p.workers = count("workers", 1.0)?;
        p.prefetch_depth = count("prefetch_depth", 0.0)?;
        p.batch_window = count("batch_window", 1.0)?;
        p.ranks_per_node = count("ranks_per_node", 1.0)?;
        p.replication_budget_bytes = count("replication_budget_bytes", 0.0)?.map(|b| b as u64);
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

    /// Probed worker-pool size, or `fallback` when not probed.
    pub fn worker_count(&self, fallback: usize) -> usize {
        self.workers.unwrap_or(fallback)
    }

    /// Probed batch slot-ring window, or `fallback` when not probed.
    pub fn window(&self, fallback: usize) -> usize {
        self.batch_window.unwrap_or(fallback)
    }

    /// Replication policy from the probed arena budget: `Auto` under
    /// the probed per-rank byte budget, or `One` when topology was
    /// never probed.
    pub fn replication(&self) -> ReplicationFactor {
        match self.replication_budget_bytes {
            Some(budget_bytes) => ReplicationFactor::Auto { budget_bytes },
            None => ReplicationFactor::One,
        }
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

// ---------------------------------------------------------------------
// The online tuner
// ---------------------------------------------------------------------

/// One tuner decision in a batch stream, for trajectory inspection
/// (`multiply_batch_exec_tuned` returns the full list).
#[derive(Clone, Copy, Debug)]
pub struct TunerStep {
    /// The batch entry the setting applied to.
    pub entry: usize,
    /// Prefetch depth in effect for that entry.
    pub depth: usize,
    /// Batch look-ahead window in effect for that entry.
    pub window: usize,
    /// Mean per-rank compute seconds per flop observed for that entry
    /// (`NaN` until all ranks reported).
    pub score: f64,
}

/// Coordinate-descent hill-climb with hysteresis over (prefetch depth,
/// batch window).
///
/// The state machine (documented in DESIGN.md §15):
///
/// 1. **Baseline** — accumulate [`TunerConfig::settle`] observations of
///    the starting setting; their mean becomes the score to beat.
/// 2. **Trial** — move one knob one step in the current direction and
///    accumulate `settle` observations. An improvement of more than
///    [`TunerConfig::margin_permille`] accepts the move (the direction
///    is kept for the next trial); anything less reverts the knob and
///    turns — first reversing direction, then switching to the other
///    knob.
/// 3. **Frozen** — after [`TunerConfig::max_moves`] trials (or when no
///    in-bounds move remains) the tuner pins the best setting found and
///    ignores further observations.
///
/// Scores are *lower is better* (the batch layer feeds seconds per
/// flop). Decisions are a pure function of the observation sequence
/// and the seed — replaying the same samples reproduces the same
/// trajectory.
#[derive(Clone, Debug)]
pub struct Tuner {
    cfg: TunerConfig,
    cur: (usize, usize),
    prev: (usize, usize),
    best: f64,
    acc_sum: f64,
    acc_n: usize,
    in_trial: bool,
    /// 0 = depth, 1 = window.
    knob: usize,
    dir: isize,
    /// Direction already reversed once on this knob since the last
    /// accept or knob switch.
    turned: bool,
    moves: usize,
    frozen: bool,
}

fn step_clamped(v: usize, dir: isize, lo: usize, hi: usize) -> usize {
    let stepped = v as isize + dir;
    stepped.clamp(lo as isize, hi.max(lo) as isize) as usize
}

impl Tuner {
    /// A tuner starting from `(depth0, window0)` (clamped into the
    /// config's bounds). The first knob and direction come from the
    /// config seed.
    pub fn new(cfg: TunerConfig, depth0: usize, window0: usize) -> Self {
        // Two xorshift draws pick the starting knob and direction —
        // the only randomness the tuner ever uses.
        let mut s = cfg.seed | 1;
        let mut draw = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let knob = (draw() & 1) as usize;
        let dir = if draw() & 1 == 0 { 1 } else { -1 };
        let cur = (
            depth0.clamp(cfg.min_depth, cfg.max_depth.max(cfg.min_depth)),
            window0.clamp(cfg.min_window, cfg.max_window.max(cfg.min_window)),
        );
        Tuner {
            cfg,
            cur,
            prev: cur,
            best: f64::INFINITY,
            acc_sum: 0.0,
            acc_n: 0,
            in_trial: false,
            knob,
            dir,
            turned: false,
            moves: 0,
            frozen: false,
        }
    }

    /// The setting to apply next: `(prefetch_depth, batch_window)`.
    pub fn setting(&self) -> (usize, usize) {
        self.cur
    }

    /// Whether the tuner has pinned its final setting.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Trials judged so far (accepted or reverted).
    pub fn moves(&self) -> usize {
        self.moves
    }

    /// Feed one observation of the current setting (lower is better;
    /// non-finite observations are dropped). Settings only change after
    /// [`TunerConfig::settle`] observations have accumulated.
    pub fn observe(&mut self, score: f64) {
        if self.frozen || !score.is_finite() {
            return;
        }
        self.acc_sum += score;
        self.acc_n += 1;
        if self.acc_n < self.cfg.settle.max(1) {
            return;
        }
        let mean = self.acc_sum / self.acc_n as f64;
        self.acc_sum = 0.0;
        self.acc_n = 0;
        if !self.in_trial {
            self.best = mean;
            self.in_trial = true;
            self.propose();
            return;
        }
        self.moves += 1;
        let margin = self.cfg.margin_permille as f64 / 1000.0;
        if mean < self.best * (1.0 - margin) {
            // Keep the move and the direction that produced it.
            self.best = mean;
            self.turned = false;
        } else {
            self.cur = self.prev;
            self.turn();
        }
        if self.moves >= self.cfg.max_moves {
            self.frozen = true;
            return;
        }
        self.propose();
    }

    fn turn(&mut self) {
        if self.turned {
            self.knob ^= 1;
            self.turned = false;
        } else {
            self.dir = -self.dir;
            self.turned = true;
        }
    }

    /// Move one knob one step for the next trial; freezes if every
    /// (knob, direction) combination is pinned against a bound.
    fn propose(&mut self) {
        for _ in 0..4 {
            let (d, w) = self.cur;
            let cand = if self.knob == 0 {
                (
                    step_clamped(d, self.dir, self.cfg.min_depth, self.cfg.max_depth),
                    w,
                )
            } else {
                (
                    d,
                    step_clamped(w, self.dir, self.cfg.min_window, self.cfg.max_window),
                )
            };
            if cand != self.cur {
                self.prev = self.cur;
                self.cur = cand;
                return;
            }
            self.turn();
        }
        self.frozen = true;
    }
}

/// Shared tuner state for one batch run: memoizes the setting each
/// entry ran with (so every rank agrees even though they query at
/// different wall-clock moments) and aggregates per-rank samples into
/// one observation per entry, fed to the [`Tuner`] in entry order.
///
/// Wall-clock scheduling makes the *trajectory* timing-dependent — a
/// fast rank may lock in entry `e+2`'s setting before entry `e`'s last
/// sample lands — but the decision function itself is deterministic,
/// and neither knob affects numerics, so outputs are bitwise identical
/// to an untuned run regardless.
pub struct TunerCell {
    nranks: usize,
    inner: Mutex<CellInner>,
}

struct CellInner {
    tuner: Tuner,
    /// Useful flops of each entry, normalizing scores across
    /// differently sized entries.
    flops: Vec<f64>,
    /// The (depth, window) each entry ran with, fixed at first query.
    settings: Vec<Option<(usize, usize)>>,
    /// Per-entry (sum of per-rank compute seconds, ranks reported).
    pending: Vec<(f64, u32)>,
    /// Observed seconds-per-flop per entry (NaN until complete).
    scores: Vec<f64>,
    /// Next entry index to feed to the tuner (entries feed in order).
    next_feed: usize,
}

impl TunerCell {
    /// A cell for a batch of entries with the given flop counts,
    /// starting the climb from `(depth0, window0)`.
    pub fn new(
        cfg: TunerConfig,
        nranks: usize,
        flops: Vec<f64>,
        depth0: usize,
        window0: usize,
    ) -> Self {
        let n = flops.len();
        TunerCell {
            nranks: nranks.max(1),
            inner: Mutex::new(CellInner {
                tuner: Tuner::new(cfg, depth0, window0),
                flops,
                settings: vec![None; n],
                pending: vec![(0.0, 0); n],
                scores: vec![f64::NAN; n],
                next_feed: 0,
            }),
        }
    }

    /// The (prefetch depth, batch window) entry `e` runs with. The
    /// first query fixes it; later queries (other ranks) read the same
    /// value.
    pub fn setting_for(&self, e: usize) -> (usize, usize) {
        let mut g = self.inner.lock().expect("tuner lock");
        if let Some(s) = g.settings[e] {
            return s;
        }
        let s = g.tuner.setting();
        g.settings[e] = Some(s);
        s
    }

    /// Record one rank's compute seconds for entry `e`. When all ranks
    /// have reported, completed entries feed the tuner in entry order.
    pub fn record(&self, e: usize, seconds: f64) {
        let mut g = self.inner.lock().expect("tuner lock");
        g.pending[e].0 += seconds.max(0.0);
        g.pending[e].1 += 1;
        while g.next_feed < g.pending.len() && g.pending[g.next_feed].1 as usize >= self.nranks {
            let i = g.next_feed;
            let mean_s = g.pending[i].0 / self.nranks as f64;
            let score = mean_s / g.flops[i].max(1.0);
            g.scores[i] = score;
            g.tuner.observe(score);
            g.next_feed += 1;
        }
    }

    /// The per-entry trajectory, in entry order. Entries the batch
    /// never queried (shorter stream than expected) are omitted.
    pub fn steps(&self) -> Vec<TunerStep> {
        let g = self.inner.lock().expect("tuner lock");
        g.settings
            .iter()
            .enumerate()
            .filter_map(|(e, s)| {
                s.map(|(depth, window)| TunerStep {
                    entry: e,
                    depth,
                    window,
                    score: g.scores[e],
                })
            })
            .collect()
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

    #[test]
    fn tuner_is_deterministic() {
        let scores = [5.0, 5.0, 4.0, 4.0, 4.5, 4.5, 3.9, 3.9, 3.8, 3.8, 5.0, 5.0];
        let run = |cfg: TunerConfig| {
            let mut t = Tuner::new(cfg, 1, 3);
            let mut trail = Vec::new();
            for s in scores {
                t.observe(s);
                trail.push(t.setting());
            }
            trail
        };
        let cfg = TunerConfig::default();
        assert_eq!(run(cfg), run(cfg));
    }

    #[test]
    fn tuner_stays_in_bounds_and_freezes() {
        let cfg = TunerConfig {
            settle: 1,
            max_moves: 5,
            ..TunerConfig::default()
        };
        let mut t = Tuner::new(cfg, 1, 2);
        for i in 0..100 {
            t.observe(1.0 + (i % 7) as f64 * 0.1);
            let (d, w) = t.setting();
            assert!((cfg.min_depth..=cfg.max_depth).contains(&d));
            assert!((cfg.min_window..=cfg.max_window).contains(&w));
        }
        assert!(t.frozen());
        assert!(t.moves() <= cfg.max_moves);
    }

    #[test]
    fn tuner_accepts_genuine_improvements() {
        // A world where deeper prefetch is strictly better: the tuner
        // must end above its starting depth.
        let cfg = TunerConfig {
            settle: 1,
            margin_permille: 10,
            ..TunerConfig::default()
        };
        let mut t = Tuner::new(cfg, 1, 2);
        for _ in 0..40 {
            let (d, w) = t.setting();
            // Score improves with depth, indifferent to window.
            let score = 10.0 - d as f64 + 0.001 * w as f64;
            t.observe(score);
            if t.frozen() {
                break;
            }
        }
        assert!(t.setting().0 > 1, "tuner never climbed: {:?}", t.setting());
    }

    #[test]
    fn tuner_cell_memoizes_settings() {
        let cell = TunerCell::new(TunerConfig::default(), 2, vec![1e6; 4], 1, 3);
        let s0 = cell.setting_for(0);
        cell.record(0, 0.5);
        cell.record(0, 0.7);
        assert_eq!(cell.setting_for(0), s0);
        let steps = cell.steps();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].entry, 0);
        assert!((steps[0].score - 0.6 / 1e6).abs() < 1e-18);
    }
}
