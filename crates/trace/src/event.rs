//! The traced interval type shared by every backend.

/// What kind of interval a trace entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Local computation (a dgemm call or modeled compute charge).
    Compute,
    /// An asynchronous transfer in flight (issue → completion).
    Transfer,
    /// Blocked waiting on a transfer or message.
    Wait,
    /// Barrier (arrival → release).
    Barrier,
    /// An algorithm-level task (one `C_ij += op(A)·op(B)` segment, one
    /// SUMMA panel step, one Cannon shift step). Tasks *envelope* the
    /// finer-grained events above.
    Task,
    /// A work-stealing-executor scheduling event (park, steal, resume),
    /// stamped with the logical rank being scheduled; the worker id is
    /// carried in the label. Instantaneous (`t0 == t1`) and excluded
    /// from time bucketing.
    Sched,
}

impl TraceKind {
    /// Chrome-trace category string.
    pub(crate) fn category(self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::Transfer => "comm",
            TraceKind::Wait => "wait",
            TraceKind::Barrier => "sync",
            TraceKind::Task => "task",
            TraceKind::Sched => "sched",
        }
    }
}

/// One traced interval on one rank's timeline.
///
/// Times are seconds on the backend's clock: virtual seconds under the
/// simulator, wall seconds since the parallel section opened on the
/// thread backend.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Which rank's timeline.
    pub rank: usize,
    /// Interval start (seconds).
    pub t0: f64,
    /// Interval end (seconds).
    pub t1: f64,
    /// Interval kind.
    pub kind: TraceKind,
    /// Free-form label supplied by the caller (e.g. "dgemm task 3",
    /// "get<-5").
    pub label: String,
    /// Payload bytes for transfer events, 0 otherwise.
    pub bytes: u64,
}

impl TraceEvent {
    /// Interval duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable() {
        assert_eq!(TraceKind::Compute.category(), "compute");
        assert_eq!(TraceKind::Transfer.category(), "comm");
        assert_eq!(TraceKind::Task.category(), "task");
        assert_eq!(TraceKind::Sched.category(), "sched");
    }

    #[test]
    fn duration_is_t1_minus_t0() {
        let e = TraceEvent {
            rank: 0,
            t0: 1.5,
            t1: 4.0,
            kind: TraceKind::Wait,
            label: String::new(),
            bytes: 0,
        };
        assert_eq!(e.duration(), 2.5);
    }
}
