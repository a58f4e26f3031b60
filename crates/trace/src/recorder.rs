//! The per-rank event recorder.

use crate::event::{TraceEvent, TraceKind};

/// Always-on cheap counters a rank accumulates regardless of whether
/// event recording is enabled. These feed the "bytes fetched vs.
/// direct-accessed" metric the paper's Figure 5 discussion turns on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Bytes moved by (possibly nonblocking) gets into pipeline buffers.
    pub bytes_fetched: u64,
    /// Blocks moved by gets.
    pub blocks_fetched: u64,
    /// Bytes read in place from cacheable shared memory (no copy).
    pub(crate) bytes_direct: u64,
    /// Blocks passed to the kernel directly.
    pub(crate) blocks_direct: u64,
    /// Algorithm-level tasks executed.
    pub(crate) tasks: u64,
    /// Tasks pruned by block-sparsity masks before execution (their
    /// gets, packing and gemm never ran).
    pub tasks_masked: u64,
    /// Floating-point operations the pruned tasks would have cost
    /// (`2·m·n·k` over the skipped k-segments).
    pub flops_skipped: u64,
    /// Tasks this rank executed **on behalf of a dead rank** (the
    /// executor's re-execution protocol under fault injection).
    pub(crate) tasks_reexecuted: u64,
    /// Injected fault delays observed (spiked gets, stretched compute).
    pub delays_injected: u64,
    /// Bytes moved between shared-memory domains (the hierarchical
    /// schedule's headline metric: one-sided transfers whose cost
    /// endpoint lives on a different node).
    pub bytes_internode: u64,
    /// Transfers moved between shared-memory domains.
    pub(crate) blocks_internode: u64,
    /// Bytes moved within a shared-memory domain but between distinct
    /// ranks (groupmate reads off a staged panel, intra-node puts).
    pub(crate) bytes_intragroup: u64,
    /// Transfers moved within a domain between distinct ranks.
    pub(crate) blocks_intragroup: u64,
}

/// Per-rank trace recorder: a flat event buffer plus counters.
///
/// One `Recorder` exists per rank per run, owned by that rank's
/// communicator (`SimComm`, `VirtualComm` or `ExecComm`), so recording
/// needs no locking. When disabled, [`Recorder::span`] is a single
/// branch and the label closure is never evaluated.
#[derive(Debug)]
pub struct Recorder {
    rank: usize,
    enabled: bool,
    events: Vec<TraceEvent>,
    /// Always-on counters (cheap integer adds).
    pub counters: Counters,
}

impl Recorder {
    /// A recorder for `rank`; `enabled` controls event capture
    /// (counters always accumulate).
    pub fn new(rank: usize, enabled: bool) -> Self {
        Recorder {
            rank,
            enabled,
            events: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// A recorder that captures nothing but counters.
    pub fn disabled(rank: usize) -> Self {
        Recorder::new(rank, false)
    }

    /// The rank this recorder belongs to.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether event capture is on. Callers with expensive
    /// instrumentation (extra clock reads, label formatting) should
    /// branch on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one interval. `label` is evaluated only when enabled.
    #[inline]
    pub fn span<F: FnOnce() -> String>(
        &mut self,
        kind: TraceKind,
        t0: f64,
        t1: f64,
        bytes: u64,
        label: F,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            rank: self.rank,
            t0,
            t1,
            kind,
            label: label(),
            bytes,
        });
    }

    /// Count a block fetched into a pipeline buffer.
    #[inline]
    pub fn count_fetch(&mut self, bytes: u64) {
        self.counters.bytes_fetched += bytes;
        self.counters.blocks_fetched += 1;
    }

    /// Count a block read directly from shared memory.
    #[inline]
    pub fn count_direct(&mut self, bytes: u64) {
        self.counters.bytes_direct += bytes;
        self.counters.blocks_direct += 1;
    }

    /// Count one algorithm-level task.
    #[inline]
    pub fn count_task(&mut self) {
        self.counters.tasks += 1;
    }

    /// Count tasks pruned by a block-sparsity mask and the flops they
    /// would have cost.
    #[inline]
    pub fn count_masked(&mut self, tasks: u64, flops: u64) {
        self.counters.tasks_masked += tasks;
        self.counters.flops_skipped += flops;
    }

    /// Count one task executed on behalf of a dead rank.
    #[inline]
    pub fn count_reexec(&mut self) {
        self.counters.tasks_reexecuted += 1;
    }

    /// Count one injected fault delay (spiked get, stretched compute).
    #[inline]
    pub fn count_delay(&mut self) {
        self.counters.delays_injected += 1;
    }

    /// Count one transfer crossing a shared-memory domain boundary.
    #[inline]
    pub fn count_internode(&mut self, bytes: u64) {
        self.counters.bytes_internode += bytes;
        self.counters.blocks_internode += 1;
    }

    /// Count one transfer between distinct ranks of the same domain.
    #[inline]
    pub fn count_intragroup(&mut self, bytes: u64) {
        self.counters.bytes_intragroup += bytes;
        self.counters.blocks_intragroup += 1;
    }

    /// Drain the recorder: events out, counters out, buffer reset.
    pub fn take(&mut self) -> (Vec<TraceEvent>, Counters) {
        let ctr = self.counters;
        self.counters = Counters::default();
        (std::mem::take(&mut self.events), ctr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_skips_events_and_labels() {
        let mut r = Recorder::disabled(3);
        let mut evaluated = false;
        r.span(TraceKind::Compute, 0.0, 1.0, 0, || {
            evaluated = true;
            "x".into()
        });
        assert!(!evaluated, "label closure must not run when disabled");
        assert!(r.take().0.is_empty());
        // Counters still work.
        r.count_fetch(100);
        r.count_direct(50);
        assert_eq!(r.counters.bytes_fetched, 100);
        assert_eq!(r.counters.bytes_direct, 50);
    }

    #[test]
    fn enabled_recorder_captures_spans() {
        let mut r = Recorder::new(1, true);
        r.span(TraceKind::Transfer, 1.0, 2.0, 4096, || "get<-0".into());
        r.span(TraceKind::Compute, 2.0, 3.5, 0, || "dgemm".into());
        let (events, _) = r.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].rank, 1);
        assert_eq!(events[0].bytes, 4096);
        assert_eq!(events[1].kind, TraceKind::Compute);
        assert!(r.take().0.is_empty(), "take drains the buffer");
    }

    #[test]
    fn count_masked_accumulates() {
        let mut r = Recorder::disabled(0);
        r.count_masked(3, 1200);
        r.count_masked(0, 0);
        assert_eq!(r.counters.tasks_masked, 3);
        assert_eq!(r.counters.flops_skipped, 1200);
    }
}
