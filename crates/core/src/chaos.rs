//! Rank death and task re-execution on the work-stealing executor.
//!
//! The simulator and the thread backend apply stragglers and get spikes
//! (see `srumma_comm::fault`), but **fail-stop death** is a scheduling
//! event, not a communication cost — it lives here, next to the
//! algorithm's rank state machine.
//!
//! The protocol exploits two SRUMMA properties the paper leans on:
//!
//! 1. **Owner-computes with no mid-run synchronization.** A rank's
//!    unfinished work is fully described by its [`SrummaMachine`]: the
//!    task list, the position cursor, and the C write guard. Nothing
//!    any peer holds refers to the dead rank — so the machine itself
//!    can be handed to a survivor and simply *driven further*.
//! 2. **The only fence is the closing barrier.** The dead rank's single
//!    outstanding obligation is one barrier arrival, which the survivor
//!    discharges by proxy ([`ExecComm::fence_arrive_for`]) *after* the
//!    orphaned tasks ran — so the barrier still means "all of C is
//!    written", even though one rank never got there itself.
//!
//! Concretely: when a rank hits its scripted death point
//! ([`srumma_comm::RankDeath`]), it publishes its whole machine to the
//! shared [`ChaosRecovery`] queue, wakes every parked peer, and
//! returns `Done` **without** arriving at the barrier. Survivors check
//! the queue after finishing their own tasks (and again every time
//! they are woken while parked — the wake may *be* the death
//! announcement); the claimant drives the orphan machine with its own
//! communicator, counting each task as re-executed, then releases the
//! dead rank's C guard and proxy-arrives. The closing fence cannot
//! complete before that arrival, so the gathered C is exactly the
//! healthy result — bitwise, since the same tasks run the same kernel
//! on the same blocks, only on a different host thread.

use crate::options::{GemmSpec, SrummaOptions};
use crate::srumma::{SrummaMachine, SrummaReport};
use srumma_comm::{ChaosComm, Comm, DistMatrix, ExecComm, FaultPlan, RankTask, Step};
use std::sync::Mutex;

/// A dead rank's unfinished multiply, waiting for a survivor.
struct Orphan<'a> {
    /// The rank that died (its barrier arrival is still owed).
    rank: usize,
    /// Its machine, mid-run: position cursor, pipelines and the C write
    /// guard all intact.
    machine: SrummaMachine<'a>,
}

/// The shared recovery queue for one chaotic run: dying ranks publish
/// their machines here, survivors claim them. One per
/// [`crate::run::Run`] that carries a fault plan on the executor.
#[derive(Default)]
pub struct ChaosRecovery<'a> {
    orphans: Mutex<Vec<Orphan<'a>>>,
}

impl<'a> ChaosRecovery<'a> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn publish(&self, rank: usize, machine: SrummaMachine<'a>) {
        self.orphans
            .lock()
            .expect("recovery queue poisoned")
            .push(Orphan { rank, machine });
    }

    fn claim(&self) -> Option<Orphan<'a>> {
        self.orphans.lock().expect("recovery queue poisoned").pop()
    }
}

/// [`crate::srumma::SrummaRankTask`] under a [`FaultPlan`]: the same
/// polled rank state machine, wrapped in a [`ChaosComm`] (stragglers,
/// get spikes) and taught the death/re-execution protocol above.
pub struct ChaosSrummaRankTask<'r, 'a> {
    comm: ChaosComm<ExecComm>,
    spec: &'a GemmSpec,
    a: &'a DistMatrix,
    b: &'a DistMatrix,
    c: &'a DistMatrix,
    opts: SrummaOptions,
    plan: FaultPlan,
    recovery: &'r ChaosRecovery<'a>,
    machine: Option<SrummaMachine<'a>>,
    adopted: Option<Orphan<'a>>,
    report: Option<SrummaReport>,
    own_tasks_run: usize,
}

impl<'r, 'a> ChaosSrummaRankTask<'r, 'a> {
    /// Same polling granularity as the healthy rank task.
    const STRIDE: usize = 8;

    /// Wrap one rank's multiply under `plan`. `recovery` must be shared
    /// by every rank of the run.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        comm: ExecComm,
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
        opts: &SrummaOptions,
        plan: FaultPlan,
        recovery: &'r ChaosRecovery<'a>,
    ) -> Self {
        ChaosSrummaRankTask {
            comm: ChaosComm::new(comm, plan.clone()),
            spec,
            a,
            b,
            c,
            opts: opts.clamp_gemm_to(spec.m, spec.k, spec.n),
            plan,
            recovery,
            machine: None,
            adopted: None,
            report: None,
            own_tasks_run: 0,
        }
    }
}

impl RankTask for ChaosSrummaRankTask<'_, '_> {
    type Out = SrummaReport;

    fn step(&mut self) -> Step<SrummaReport> {
        // Phase 1: this rank's own tasks — or its scripted death.
        if self.report.is_none() {
            if self.machine.is_none() {
                self.machine = Some(SrummaMachine::new(
                    &mut self.comm,
                    self.spec,
                    self.a,
                    self.b,
                    self.c,
                    &self.opts,
                ));
            }
            let me = self.comm.rank();
            let death = self.plan.death.filter(|d| d.rank == me);
            let mut more = self.machine.as_ref().expect("machine set above").has_work();
            for _ in 0..Self::STRIDE {
                if !more {
                    break;
                }
                if let Some(d) = death {
                    if self.own_tasks_run >= d.after_tasks {
                        // Die: hand the machine — cursor, pipelines, C
                        // guard and all — to the recovery queue, wake
                        // parked peers so one of them claims it, and
                        // finish WITHOUT arriving at the barrier. The
                        // claimant arrives for us once the work is
                        // actually done.
                        let machine = self.machine.take().expect("machine exists here");
                        let partial = machine.report();
                        self.recovery.publish(me, machine);
                        self.comm.inner_mut().wake_peers();
                        return Step::Done(partial);
                    }
                }
                more = self
                    .machine
                    .as_mut()
                    .expect("machine exists here")
                    .step(&mut self.comm);
                self.own_tasks_run += 1;
            }
            if more {
                return Step::Yield;
            }
            // Release the C write guard before any barrier arrival.
            let machine = self.machine.take().expect("machine exists here");
            self.report = Some(machine.finish(&mut self.comm));
        }

        // Phase 2 (survivors): claim and drive orphaned work. This
        // check must run on EVERY step once our own work is done — a
        // rank parked in the barrier gets woken by the dying rank and
        // must re-check the queue before re-polling the fence.
        if self.plan.death.is_some() {
            if self.adopted.is_none() {
                self.adopted = self.recovery.claim();
            }
            if let Some(orphan) = self.adopted.as_mut() {
                let mut more = orphan.machine.has_work();
                let mut ran = 0;
                while more && ran < Self::STRIDE {
                    more = orphan.machine.step(&mut self.comm);
                    self.comm.recorder().count_reexec();
                    ran += 1;
                }
                if more {
                    return Step::Yield;
                }
                let orphan = self.adopted.take().expect("adopted orphan present");
                let dead = orphan.rank;
                // The orphan's cumulative report is dropped — the
                // re-executed task counts already flowed through this
                // rank's recorder. Finishing releases the dead rank's
                // C write guard, which must happen before the proxy
                // arrival lets peers past the barrier to gather C.
                let _ = orphan.machine.finish(&mut self.comm);
                self.comm.inner_mut().fence_arrive_for(dead);
            }
        }

        // Phase 3: the closing barrier.
        if self.comm.inner_mut().barrier_try() {
            Step::Done(self.report.take().expect("report set above"))
        } else {
            Step::Park
        }
    }

    fn take_trace(&mut self) -> (Vec<srumma_trace::TraceEvent>, srumma_trace::Counters) {
        self.comm.recorder().take()
    }
}
