//! Metrics rollup for **batched** runs: a stream of multiplies on one
//! executor, every matrix read and written in place, with no
//! synchronisation between entries.
//!
//! The backends are too far down the stack to know about batch entries,
//! so the batched driver stamps a small [`EntryRankSample`] per entry on
//! each rank of the entry's team (time seeding the output from `c0`,
//! time computing, first-touch and finish wall times) and this module
//! rolls them up:
//!
//! * [`EntryStats`] — one entry across its team's ranks;
//! * [`BatchStats`] — the whole stream: fence time per entry (0 since
//!   the stream has no fences; kept so a ledger that reads it still
//!   can) and the **inter-entry overlap fraction** (how much of the
//!   entries' summed wall spans was hidden by running them at once — the
//!   paper's communication/computation overlap lifted from the task
//!   level to the batch level; near 1 when fast ranks run ahead).

use crate::json::JsonObject;

/// One rank's timings for one batch entry, stamped by the driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct EntryRankSample {
    /// Seconds copying this rank's block of the entry's `c0` into its
    /// output tile (0 without a `c0`).
    pub stage_s: f64,
    /// Seconds in the entry's task loop, set-up and β pre-pass included.
    pub compute_s: f64,
    /// Seconds blocked waiting for other ranks on the entry's account —
    /// 0 in today's stream, which never waits.
    pub(crate) fence_s: f64,
    /// Wall time this rank first touched the entry.
    pub t_start: f64,
    /// Wall time this rank finished the entry.
    pub t_end: f64,
    /// Tasks this rank executed for the entry (surviving tasks under a
    /// block-sparsity mask; all tasks when dense).
    pub tasks_run: u64,
    /// Tasks masked out for this rank (pruned before execution).
    pub tasks_masked: u64,
    /// Flops the pruned tasks would have cost this rank.
    pub flops_skipped: u64,
}

/// One batch entry aggregated across ranks.
#[derive(Clone, Debug)]
pub struct EntryStats {
    /// Position in the batch.
    pub index: usize,
    /// Spec label (e.g. `NN 64x64x64`).
    pub label: String,
    /// Useful flops of the entry (`2mnk`).
    pub flops: f64,
    /// First global rank of the team that ran the entry.
    pub base: usize,
    /// One sample per team rank: `samples[i]` is rank `base + i`'s.
    pub samples: Vec<EntryRankSample>,
}

impl EntryStats {
    /// Summed staging seconds across ranks.
    pub(crate) fn stage_s(&self) -> f64 {
        self.samples.iter().map(|s| s.stage_s).sum()
    }

    /// Summed compute seconds across ranks.
    pub(crate) fn compute_s(&self) -> f64 {
        self.samples.iter().map(|s| s.compute_s).sum()
    }

    /// Summed fence-blocked seconds across ranks.
    pub(crate) fn fence_s(&self) -> f64 {
        self.samples.iter().map(|s| s.fence_s).sum()
    }

    /// Wall span of the entry: first touch by any rank to the last
    /// rank's finish. An entry with no samples (or all-zero timestamps, e.g.
    /// a fully masked-out entry on virtual backing) reports 0, not a
    /// NaN/negative artifact of folding over empty iterators.
    pub fn span_s(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let t0 = self
            .samples
            .iter()
            .map(|s| s.t_start)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.samples.iter().map(|s| s.t_end).fold(0.0, f64::max);
        (t1 - t0).max(0.0)
    }

    /// Tasks executed across ranks for this entry.
    pub(crate) fn tasks_run(&self) -> u64 {
        self.samples.iter().map(|s| s.tasks_run).sum()
    }

    /// Tasks pruned by masks across ranks for this entry.
    pub(crate) fn tasks_masked(&self) -> u64 {
        self.samples.iter().map(|s| s.tasks_masked).sum()
    }

    /// Flops skipped across ranks for this entry.
    pub(crate) fn flops_skipped(&self) -> u64 {
        self.samples.iter().map(|s| s.flops_skipped).sum()
    }

    /// Per-rank surviving-task imbalance for this entry:
    /// `(max − min) / max` over per-rank executed-task counts, `[0, 1]`.
    /// Returns 0 (never NaN) when no rank ran a task — the all-masked
    /// and zero-rank cases sparsity makes common.
    pub(crate) fn task_skew(&self) -> f64 {
        let max = self.samples.iter().map(|s| s.tasks_run).max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        let min = self.samples.iter().map(|s| s.tasks_run).min().unwrap_or(0);
        (max - min) as f64 / max as f64
    }
}

/// Whole-stream rollup.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Per-entry statistics, in batch order.
    pub entries: Vec<EntryStats>,
    /// Wall seconds of the whole batch (launch to the last rank's end).
    pub wall_s: f64,
}

impl BatchStats {
    /// Roll up per-entry stats for a batch that took `wall_s` seconds.
    pub fn from_entries(entries: Vec<EntryStats>, wall_s: f64) -> Self {
        BatchStats { entries, wall_s }
    }

    /// Summed compute seconds across entries and ranks.
    pub(crate) fn compute_s_total(&self) -> f64 {
        self.entries.iter().map(|e| e.compute_s()).sum()
    }

    /// Summed fence-blocked seconds across entries and ranks.
    pub(crate) fn fence_s_total(&self) -> f64 {
        self.entries.iter().map(|e| e.fence_s()).sum()
    }

    /// Amortized synchronization cost: fence-blocked seconds per entry.
    /// A loop of standalone multiplies pays a full barrier per multiply;
    /// the batched stream pays this instead — nothing, as it has no
    /// fences.
    pub fn fence_s_per_entry(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.fence_s_total() / self.entries.len() as f64
        }
    }

    /// Inter-entry overlap fraction: `1 − wall / Σ entry spans`,
    /// clamped to `[0, 1)`. Zero means entries ran back-to-back with no
    /// pipelining; approaching 1 means entry *i+1*'s compute hid almost
    /// entirely under entry *i*'s stragglers.
    pub fn inter_entry_overlap(&self) -> f64 {
        let spans: f64 = self.entries.iter().map(|e| e.span_s()).sum();
        if spans <= 0.0 || self.wall_s <= 0.0 {
            return 0.0;
        }
        (1.0 - self.wall_s / spans).clamp(0.0, 1.0)
    }

    /// Tasks executed across the whole stream.
    pub(crate) fn tasks_run_total(&self) -> u64 {
        self.entries.iter().map(|e| e.tasks_run()).sum()
    }

    /// Tasks pruned by masks across the whole stream.
    pub fn tasks_masked_total(&self) -> u64 {
        self.entries.iter().map(|e| e.tasks_masked()).sum()
    }

    /// Flops skipped across the whole stream.
    pub(crate) fn flops_skipped_total(&self) -> u64 {
        self.entries.iter().map(|e| e.flops_skipped()).sum()
    }

    /// Mean per-entry task skew over entries that ran at least one
    /// task. Entries that were fully masked out carry no imbalance
    /// signal, so they are excluded rather than dragging the mean to 0;
    /// a batch where *nothing* ran reports 0, never NaN — the same
    /// guard discipline as `makespan_skew`.
    pub(crate) fn mean_task_skew(&self) -> f64 {
        let live: Vec<f64> = self
            .entries
            .iter()
            .filter(|e| e.tasks_run() > 0)
            .map(|e| e.task_skew())
            .collect();
        if live.is_empty() {
            return 0.0;
        }
        live.iter().sum::<f64>() / live.len() as f64
    }

    /// Useful GFLOP/s of the whole stream.
    pub(crate) fn gflops(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.entries.iter().map(|e| e.flops).sum::<f64>() / self.wall_s / 1e9
    }

    /// The batch metrics as a JSON object string (the shape
    /// `results/BENCH_batched_gemm.json` embeds).
    pub fn summary_json(&self) -> String {
        let mut o = JsonObject::new();
        o.int("entries", self.entries.len() as u64);
        o.num("wall_seconds", self.wall_s);
        o.num("gflops", self.gflops());
        o.num("compute_seconds_total", self.compute_s_total());
        o.num(
            "stage_seconds_total",
            self.entries.iter().map(|e| e.stage_s()).sum(),
        );
        o.num("fence_seconds_total", self.fence_s_total());
        o.num("fence_seconds_per_entry", self.fence_s_per_entry());
        o.num("inter_entry_overlap", self.inter_entry_overlap());
        o.int("tasks_run", self.tasks_run_total());
        o.int("tasks_masked", self.tasks_masked_total());
        o.int("flops_skipped", self.flops_skipped_total());
        o.num("mean_task_skew", self.mean_task_skew());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: usize, t0: f64, t1: f64, compute: f64, fence: f64) -> EntryStats {
        EntryStats {
            index,
            label: format!("e{index}"),
            flops: 1e6,
            base: 0,
            samples: vec![
                EntryRankSample {
                    stage_s: 0.01,
                    compute_s: compute,
                    fence_s: fence,
                    t_start: t0,
                    t_end: t1,
                    tasks_run: 3,
                    tasks_masked: 1,
                    flops_skipped: 100,
                },
                EntryRankSample {
                    stage_s: 0.01,
                    compute_s: compute / 2.0,
                    fence_s: fence * 2.0,
                    t_start: t0 + 0.1,
                    t_end: t1 - 0.1,
                    tasks_run: 1,
                    tasks_masked: 3,
                    flops_skipped: 300,
                },
            ],
        }
    }

    #[test]
    fn spans_and_totals() {
        let e = entry(0, 1.0, 2.0, 0.5, 0.1);
        assert!((e.span_s() - 1.0).abs() < 1e-12);
        assert!((e.compute_s() - 0.75).abs() < 1e-12);
        assert!((e.fence_s() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_entries_report_overlap() {
        // Two 1-second entries, overlapped into a 1.5-second wall:
        // spans sum to 2.0 → overlap 0.25.
        let b = BatchStats::from_entries(
            vec![entry(0, 0.0, 1.0, 0.5, 0.0), entry(1, 0.5, 1.5, 0.5, 0.0)],
            1.5,
        );
        assert!((b.inter_entry_overlap() - 0.25).abs() < 1e-12);
        assert!((b.fence_s_per_entry() - 0.0).abs() < 1e-12);
        assert!(b.gflops() > 0.0);
    }

    #[test]
    fn serial_entries_report_zero_overlap() {
        let b = BatchStats::from_entries(
            vec![entry(0, 0.0, 1.0, 0.5, 0.1), entry(1, 1.0, 2.0, 0.5, 0.1)],
            2.0,
        );
        assert_eq!(b.inter_entry_overlap(), 0.0);
        assert!((b.fence_s_per_entry() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn summary_json_is_wellformed() {
        let b = BatchStats::from_entries(vec![entry(0, 0.0, 1.0, 0.5, 0.1)], 1.0);
        let j = b.summary_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "entries",
            "wall_seconds",
            "fence_seconds_per_entry",
            "inter_entry_overlap",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn empty_batch_is_all_zeros() {
        let b = BatchStats::from_entries(vec![], 0.0);
        assert_eq!(b.inter_entry_overlap(), 0.0);
        assert_eq!(b.fence_s_per_entry(), 0.0);
        assert_eq!(b.gflops(), 0.0);
        assert_eq!(b.mean_task_skew(), 0.0);
        assert_eq!(b.tasks_run_total(), 0);
    }

    #[test]
    fn task_counters_roll_up() {
        let e = entry(0, 0.0, 1.0, 0.5, 0.1);
        assert_eq!(e.tasks_run(), 4);
        assert_eq!(e.tasks_masked(), 4);
        assert_eq!(e.flops_skipped(), 400);
        // Ranks ran 3 and 1 tasks → skew (3−1)/3.
        assert!((e.task_skew() - 2.0 / 3.0).abs() < 1e-12);
        let b = BatchStats::from_entries(vec![e.clone(), e], 2.0);
        assert_eq!(b.tasks_run_total(), 8);
        assert_eq!(b.flops_skipped_total(), 800);
        assert!((b.mean_task_skew() - 2.0 / 3.0).abs() < 1e-12);
        let j = b.summary_json();
        assert!(j.contains("\"tasks_masked\": 8"), "{j}");
        assert!(j.contains("\"mean_task_skew\""), "{j}");
    }

    #[test]
    fn sparsity_edge_cases_yield_zero_not_nan() {
        // Zero-duration entry (everything at t=0, e.g. fully masked on
        // virtual backing): span and skews must be 0, not NaN.
        let zero = EntryStats {
            index: 0,
            label: "masked".into(),
            flops: 0.0,
            base: 0,
            samples: vec![EntryRankSample::default(); 3],
        };
        assert_eq!(zero.span_s(), 0.0);
        assert_eq!(zero.task_skew(), 0.0);

        // No samples at all.
        let hollow = EntryStats {
            index: 1,
            label: "hollow".into(),
            flops: 0.0,
            base: 0,
            samples: vec![],
        };
        assert_eq!(hollow.span_s(), 0.0);
        assert_eq!(hollow.task_skew(), 0.0);

        // Single-entry batch of an all-skipped entry: every aggregate
        // is finite, overlap and amortized fence seconds are 0.
        let b = BatchStats::from_entries(vec![zero, hollow], 0.0);
        assert_eq!(b.inter_entry_overlap(), 0.0);
        assert_eq!(b.fence_s_per_entry(), 0.0);
        assert_eq!(b.mean_task_skew(), 0.0);
        assert_eq!(b.gflops(), 0.0);
        let j = b.summary_json();
        assert!(!j.contains("NaN") && !j.contains("nan"), "{j}");
    }
}
