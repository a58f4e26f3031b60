//! Rank death and task re-execution on the work-stealing executor.
//!
//! Stragglers and get spikes are the communicator's to apply — `SimComm`
//! in virtual time, `ExecComm` with real sleeps (see
//! `srumma_comm::fault`) — but **fail-stop death** is a scheduling event,
//! not a communication cost: it lives here, next to the algorithm's rank
//! state machine.
//!
//! The protocol exploits two SRUMMA properties the paper leans on:
//!
//! 1. **Owner-computes with no mid-run synchronization.** A rank's
//!    unfinished work is fully described by its [`SrummaProgram`]: the
//!    task list, the position cursor, and the C write guard. Nothing
//!    any peer holds refers to the dead rank — so the program itself
//!    can be handed to a survivor and simply *driven further*.
//! 2. **The only fence is the closing barrier.** The dead rank's single
//!    outstanding obligation is one barrier arrival, which the survivor
//!    discharges by proxy ([`ExecComm::fence_arrive_for`]) *after* the
//!    orphaned tasks ran — so the barrier still means "all of C is
//!    written", even though one rank never got there itself.
//!
//! Concretely: when a rank hits its scripted death point
//! ([`srumma_comm::RankDeath`]), it publishes its whole program to the
//! shared [`ChaosRecovery`] queue, wakes every parked peer, and
//! returns `Done` **without** arriving at the barrier. Survivors check
//! the queue after finishing their own tasks (and again every time
//! they are woken while parked — the wake may *be* the death
//! announcement); the claimant runs the orphan's task phase with its
//! own communicator, counting each task as re-executed (the last one
//! releases the dead rank's C guard), and proxy-arrives. The closing
//! fence cannot complete before that arrival, so the gathered C is
//! exactly the healthy result — bitwise, since the same tasks run the
//! same kernel on the same blocks, only on a different host thread.
//!
//! Only that much is executor-only and lives here. The task phase and
//! the closing fence themselves are the shared program's
//! (`run_tasks` / `close`), stepped in two halves so the death point
//! and the adoption check fit between them.

use crate::run::RankReport;
use crate::srumma::{SrummaProgram, STRIDE};
use srumma_comm::{Comm, ExecComm, RankDeath, RankTask, Step};
use std::sync::Mutex;

/// A dead rank's unfinished multiply, waiting for a survivor.
struct Orphan<'a> {
    /// The rank that died (its barrier arrival is still owed).
    rank: usize,
    /// Its program, mid-run: position cursor, pipelines and the C write
    /// guard all intact.
    program: SrummaProgram<'a>,
}

/// The shared recovery queue for one chaotic run: dying ranks publish
/// their programs here, survivors claim them. One per
/// [`crate::run::Run`] whose fault plan scripts a death.
#[derive(Default)]
pub(crate) struct ChaosRecovery<'a> {
    orphans: Mutex<Vec<Orphan<'a>>>,
}

impl<'a> ChaosRecovery<'a> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn publish(&self, orphan: Orphan<'a>) {
        self.orphans
            .lock()
            .expect("recovery queue poisoned")
            .push(orphan);
    }

    fn claim(&self) -> Option<Orphan<'a>> {
        self.orphans.lock().expect("recovery queue poisoned").pop()
    }
}

fn tasks_run(program: &SrummaProgram<'_>) -> usize {
    program.report().srumma.map_or(0, |r| r.tasks)
}

/// A flat [`SrummaProgram`] under a fault plan that scripts a death:
/// hosted on its rank's [`ExecComm`] (which applies the plan's
/// stragglers and get spikes) like any polled program, and taught the
/// death/re-execution protocol above.
pub(crate) struct ChaosSrummaRankTask<'r, 'a> {
    comm: ExecComm,
    /// Own tasks this rank runs before it dies; on every rank but the
    /// scripted one, more than it will ever have.
    dies_after: usize,
    recovery: &'r ChaosRecovery<'a>,
    /// Taken when this rank dies.
    program: Option<SrummaProgram<'a>>,
    own_done: bool,
    adopted: Option<Orphan<'a>>,
}

impl<'r, 'a> ChaosSrummaRankTask<'r, 'a> {
    /// Host `program` (flat: a staged program cannot be handed over)
    /// under the plan's `death`. `recovery` must be shared by every rank
    /// of the run.
    pub(crate) fn new(
        comm: ExecComm,
        program: SrummaProgram<'a>,
        death: RankDeath,
        recovery: &'r ChaosRecovery<'a>,
    ) -> Self {
        let dies_after = if death.rank == comm.rank() {
            death.after_tasks
        } else {
            usize::MAX
        };
        ChaosSrummaRankTask {
            comm,
            dies_after,
            recovery,
            program: Some(program),
            own_done: false,
            adopted: None,
        }
    }
}

impl RankTask for ChaosSrummaRankTask<'_, '_> {
    type Out = RankReport;

    fn step(&mut self) -> Step<RankReport> {
        let program = self
            .program
            .as_mut()
            .expect("a rank that died is not polled again");
        // Phase 1: this rank's own tasks — or its scripted death.
        if !self.own_done {
            let budget = (self.dies_after - tasks_run(program)).min(STRIDE);
            if program.run_tasks(&mut self.comm, budget) {
                if tasks_run(program) == self.dies_after {
                    // Die: hand the program — cursor, pipelines, C
                    // guard and all — to the recovery queue, wake
                    // parked peers so one of them claims it, and
                    // finish WITHOUT arriving at the barrier. The
                    // claimant arrives for us once the work is
                    // actually done.
                    let program = self.program.take().expect("borrowed above");
                    let partial = program.report();
                    self.recovery.publish(Orphan {
                        rank: self.comm.rank(),
                        program,
                    });
                    self.comm.wake_peers();
                    return Step::Done(partial);
                }
                return Step::Yield;
            }
            self.own_done = true;
        }

        // Phase 2 (survivors): claim and drive orphaned work. This
        // check must run on EVERY step once our own work is done — a
        // rank parked in the barrier gets woken by the dying rank and
        // must re-check the queue before re-polling the fence.
        if self.adopted.is_none() {
            self.adopted = self.recovery.claim();
        }
        if let Some(orphan) = self.adopted.as_mut() {
            let before = tasks_run(&orphan.program);
            let more = orphan.program.run_tasks(&mut self.comm, STRIDE);
            for _ in before..tasks_run(&orphan.program) {
                self.comm.recorder().count_reexec();
            }
            if more {
                return Step::Yield;
            }
            // The orphan's cumulative report is dropped — the
            // re-executed task counts already flowed through this
            // rank's recorder. Its last task released the dead rank's
            // C write guard, which must happen before the proxy
            // arrival lets peers past the barrier to gather C.
            let dead = self.adopted.take().expect("adopted orphan present").rank;
            self.comm.fence_arrive_for(dead);
        }

        // Phase 3: the closing barrier.
        program.close(&mut self.comm)
    }

    fn take_trace(&mut self) -> (Vec<srumma_trace::TraceEvent>, srumma_trace::Counters) {
        self.comm.recorder().take()
    }
}
