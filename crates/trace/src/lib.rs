//! # srumma-trace — unified per-rank tracing and metrics
//!
//! The paper's evidence is *measured*: Figure 3's pipeline timeline,
//! Figure 7's >90 % communication/computation overlap and Figure 8's
//! get-bandwidth curves all come from per-process instrumentation of
//! the RMA pipeline. This crate is the one implementation of that
//! instrumentation shared by every backend:
//!
//! * the **virtual-time simulator** records events against the model
//!   clock (`srumma-sim` kernel + `SimComm`);
//! * the **host executor** records the same events against the wall
//!   clock (`ExecComm` with `std::time::Instant`), polled or blocking;
//! * the algorithms in `srumma-core` add task-level spans through the
//!   [`Recorder`] handle exposed on the `Comm` trait.
//!
//! The recorder is **zero-cost when disabled**: every span method takes
//! its label as a closure and returns before evaluating it, so a
//! disabled run performs one branch per instrumentation point.
//!
//! On top of the raw event stream sit:
//!
//! * [`RankStats`] / [`RunStats`] — per-rank counters and derived
//!   metrics (overlap fraction, bytes fetched vs. direct-accessed,
//!   pipeline stall time, per-rank makespan skew);
//! * [`chrome_trace_json`] — a Chrome/Perfetto trace-event export
//!   (`chrome://tracing`, <https://ui.perfetto.dev>);
//! * [`ascii_gantt`] — the compact terminal Gantt chart the Figure 3
//!   harness prints.

#![warn(unreachable_pub)]

pub mod batchstats;
pub mod event;
pub mod export;
pub mod json;
pub mod jsonin;
pub mod paths;
pub mod recorder;
pub mod stats;

pub use batchstats::{BatchStats, EntryRankSample, EntryStats};
pub use event::{TraceEvent, TraceKind};
pub use export::{ascii_gantt, bench_report_json, chrome_trace_json};
pub use jsonin::Json;
pub use paths::results_dir;
pub use recorder::{Counters, Recorder};
pub use stats::{ExecStats, RankStats, RunStats};
