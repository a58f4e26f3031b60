//! The run plan: one value describes a multiply, one path prepares it,
//! one check decides whether it is legal.
//!
//! The algorithms are generic over [`Comm`], so backend, tracing,
//! faults, masks, node-group staging and replication are independent
//! choices. [`Run`] holds them as fields, [`Run::validate`] names every
//! combination that cannot work as a [`RunError`], and [`Run::execute`]
//! does the one `grid → product → operands (with masks) → stage sets →
//! launch` sequence, choosing the rank body once.
//!
//! All three host matrices are distributed **in place**. The operands a
//! run is handed are the logical `op(A)` and `op(B)`, so the ranks read
//! them through read-only views ([`crate::layout::with_host_operands`])
//! and run the spec that call hands back, `transa` / `transb` normalised
//! to `N`: nothing is allocated, faulted in, transposed or copied for an
//! operand before the first flop, in any of the four cases. Only a
//! shape-only run keeps the stored layout its spec names. The product is
//! allocated once, as the matrix the caller is handed, and lent to the
//! ranks as C (`layout::with_fresh_c`): each owner writes its
//! tile where the caller will read it, so a run has no second C and
//! nothing to gather — on every backend, for every algorithm, mask, stage
//! set, fault plan and replication factor. A replicated run lends it as
//! team 0's C, the target of the other teams' accumulates
//! ([`crate::repl`]).

use crate::api::{Algorithm, Body, GemmProgram};
use crate::chaos::{ChaosRecovery, ChaosSrummaRankTask};
use crate::driver::{default_grid, SparseMasks};
use crate::hier::HierStageSet;
use crate::layout::{with_fresh_c, with_host_operands};
use crate::options::{GemmSpec, ReplicationFactor};
use crate::repl::{resolve_factor, ReplProgram, ReplSet};
use crate::srumma::{MachineScratch, SrummaProgram, SrummaReport};
use srumma_comm::{
    drive, exec_launch, exec_run_tasks, sim_run_programs, virtual_run, Comm, CostMap, DistMatrix,
    ExecComm, ExecRunResult, FaultPlan, FaultPlanError, ProgramTask, SimOptions, VirtualComm,
};
use srumma_dense::{Matrix, Op};
use srumma_model::{Machine, Topology};
use srumma_sim::RunStats;
use srumma_trace::TraceEvent;
use std::time::Instant;

/// Where the ranks run.
#[derive(Clone, Copy, Debug)]
pub enum Backend<'a> {
    /// The discrete-event simulator (virtual time, NIC contention).
    Sim(&'a Machine),
    /// Per-rank LogGP clocks on `workers` host threads (`0` = auto): the
    /// 64k-rank path — shape-only, one-sided algorithms only.
    Virtual {
        machine: &'a Machine,
        workers: usize,
    },
    /// One OS thread per rank, wall clock.
    Threads,
    /// Logical ranks on a work-stealing pool of `workers` threads
    /// (`0` = auto), wall clock.
    Exec { workers: usize },
}

/// One multiply, fully described. Fields are independent of each other;
/// [`Run::validate`] says which combinations are legal.
#[derive(Clone, Copy, Debug)]
pub struct Run<'a> {
    /// Shapes, transposes and `α`. The run creates `C` zero, so `β` is
    /// moot; so are the transposes over host `operands`, which are
    /// `op(A)` and `op(B)` themselves (a shape-only run models the stored
    /// layout they name).
    pub spec: GemmSpec,
    /// Ranks, laid out on [`default_grid`].
    pub nranks: usize,
    pub algorithm: Algorithm,
    pub backend: Backend<'a>,
    /// The logical `m × k` and `k × n` operands; `None` = shape-only
    /// matrices (timing without data, virtual-time backends only).
    pub operands: Option<(&'a Matrix, &'a Matrix)>,
    /// Block-sparsity masks (SRUMMA task pruning).
    pub masks: Option<&'a SparseMasks>,
    /// Stragglers, get spikes and (executor only) one rank death.
    pub faults: Option<&'a FaultPlan>,
    /// Emulated cluster topology on the wall-clock backends; the
    /// virtual-time backends take theirs from the [`Machine`].
    pub ranks_per_node: Option<usize>,
    /// Two-level node-group staging ([`crate::hier`]).
    pub hier: bool,
    /// `c`-fold replication ([`crate::repl`]).
    pub replication: ReplicationFactor,
    /// Record the event timeline.
    pub trace: bool,
}

/// Why a [`Run`] cannot execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    NoRanks,
    /// `what` (operand `"A"`/`"B"`: `m × k`/`k × n`; `"mask A"`/
    /// `"mask B"`: the `p × q` process grid) has the wrong shape.
    Shape {
        what: &'static str,
        want: (usize, usize),
        got: (usize, usize),
    },
    /// The fault plan does not fit the run; a death off the executor is
    /// [`FaultPlanError::DeathNeedsExecutor`].
    Faults(FaultPlanError),
    /// Nodes of `ranks_per_node` ranks do not tile the `window` they
    /// stage for (the machine, or one replica team).
    NodeGroups {
        window: usize,
        ranks_per_node: usize,
    },
    /// `ReplicationFactor::Fixed(c)` is inadmissible: `c` must divide
    /// `nranks`, leave whole nodes per team, and not exceed `k`.
    Replication {
        c: usize,
        nranks: usize,
        ranks_per_node: usize,
        k: usize,
    },
    /// A combination of fields no code path can honour; the string says
    /// why.
    Unsupported(&'static str),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for RunError {}

impl From<FaultPlanError> for RunError {
    fn from(e: FaultPlanError) -> Self {
        RunError::Faults(e)
    }
}

/// One rank's summary of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankReport {
    /// SRUMMA's task/fetch counters: `None` for SUMMA and Cannon, the
    /// team-local sweep when replicated, partial for a rank that died.
    pub srumma: Option<SrummaReport>,
    /// Panels this rank fetched over the network for its node group.
    pub staged_panels: usize,
    /// This rank's replica team.
    pub team: usize,
}

/// What a [`Run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The product (`None` for a shape-only run).
    pub c: Option<Matrix>,
    /// Per-rank and aggregate metrics, in virtual seconds on `Sim` and
    /// `Virtual`; `stats.exec` is set on the wall-clock backends only.
    pub stats: RunStats,
    /// Merged event timeline (empty unless `trace`).
    pub trace: Vec<TraceEvent>,
    /// Host wall-clock seconds of the parallel section.
    pub wall_seconds: f64,
    /// One per rank; none on `Backend::Virtual`.
    pub reports: Vec<RankReport>,
    /// The resolved replication factor (`1` when not replicated).
    pub replication: usize,
}

struct FlatMats<'m> {
    spec: GemmSpec,
    a: &'m DistMatrix,
    b: &'m DistMatrix,
    c: &'m DistMatrix,
}

/// The distributed state of one prepared run. The operands are lent for
/// the launch only (they may be views of the caller's matrices), so the
/// matrices live in [`Run::execute`]'s frames and this borrows them.
enum Mats<'m> {
    Flat(FlatMats<'m>, Option<HierStageSet>),
    Replicated(&'m ReplSet<'m>, Option<Vec<HierStageSet>>),
}

/// What every launcher hands back: reports, stats, trace, wall seconds.
type Launched = (Vec<RankReport>, RunStats, Vec<TraceEvent>, f64);

fn launched(res: ExecRunResult<RankReport>) -> Launched {
    (res.outputs, res.stats, res.trace, res.wall_seconds)
}

/// `rank`'s program over the prepared matrices, chosen by `(algorithm,
/// hier, replication)`.
fn rank_program<'m>(rank: usize, algorithm: &Algorithm, mats: &'m Mats<'m>) -> GemmProgram<'m> {
    match (mats, algorithm) {
        (Mats::Flat(m, None), _) => GemmProgram::new(algorithm, &m.spec, m.a, m.b, m.c),
        (Mats::Flat(m, Some(stages)), Algorithm::Srumma(opts)) => GemmProgram(Body::Srumma(
            SrummaProgram::new(&m.spec, m.a, m.b, m.c, opts, Some(stages)),
        )),
        (Mats::Replicated(set, stages), Algorithm::Srumma(opts)) => GemmProgram(Body::Replicated(
            ReplProgram::new(rank, set, stages.as_deref(), opts),
        )),
        _ => unreachable!("validate() admits staging and replication for SRUMMA only"),
    }
}

impl<'a> Run<'a> {
    /// The plain run: shape-only, dense, healthy, flat, unreplicated,
    /// untraced. Set the other fields with struct-update syntax.
    pub fn new(spec: GemmSpec, nranks: usize, algorithm: Algorithm, backend: Backend<'a>) -> Self {
        Run {
            spec,
            nranks,
            algorithm,
            backend,
            operands: None,
            masks: None,
            faults: None,
            ranks_per_node: None,
            hier: false,
            replication: ReplicationFactor::One,
            trace: false,
        }
    }

    /// Whether this plan can execute. Touches no matrix data and starts
    /// no thread.
    pub fn validate(&self) -> Result<(), RunError> {
        self.resolve().map(drop)
    }

    /// Every legality rule, in one place. Yields the run topology and
    /// the resolved replication factor.
    fn resolve(&self) -> Result<(Topology, usize), RunError> {
        let Run { spec, nranks, .. } = *self;
        if nranks == 0 {
            return Err(RunError::NoRanks);
        }
        let grid = default_grid(nranks);
        let shape = |what, want, got: (usize, usize)| {
            (want == got)
                .then_some(())
                .ok_or(RunError::Shape { what, want, got })
        };
        if let Some((a, b)) = self.operands {
            shape("A", (spec.m, spec.k), (a.rows(), a.cols()))?;
            shape("B", (spec.k, spec.n), (b.rows(), b.cols()))?;
        }
        if let Some(masks) = self.masks {
            for (what, mask) in [("mask A", &masks.a), ("mask B", &masks.b)] {
                if let Some(m) = mask {
                    shape(what, (grid.p, grid.q), (m.rows(), m.cols()))?;
                }
            }
        }

        let (machine, virtual_clock) = match self.backend {
            Backend::Sim(machine) => (Some(machine), false),
            Backend::Virtual { machine, .. } => (Some(machine), true),
            Backend::Threads | Backend::Exec { .. } => (None, false),
        };
        let srumma = match self.algorithm {
            Algorithm::Srumma(opts) => Some(opts),
            _ => None,
        };
        let replicated = self.replication != ReplicationFactor::One;
        let restructured = self.hier || replicated;
        let death = self.faults.is_some_and(|plan| plan.death.is_some());
        let unsupported = if machine.is_none() && self.operands.is_none() {
            Some("wall-clock backends move real data: operands must be Some")
        } else if machine.is_some() && self.ranks_per_node.is_some() {
            Some("virtual-time backends take their topology from the Machine")
        } else if self.ranks_per_node == Some(0) {
            Some("a node holds at least one rank")
        } else if srumma.is_none() && (self.masks.is_some() || restructured) {
            Some("masks, node-group staging and replication are SRUMMA schedules")
        } else if matches!(self.algorithm, Algorithm::Summa(o) if o.panel_nb == Some(0)) {
            Some("a SUMMA panel is at least one column wide: panel_nb may not be Some(0)")
        } else if self.algorithm == Algorithm::Cannon
            && (grid.p != grid.q || (spec.transa, spec.transb) != (Op::N, Op::N))
        {
            Some("Cannon needs a square process grid and C = A*B")
        } else if virtual_clock
            && (srumma.is_none() || self.operands.is_some() || self.trace || self.faults.is_some())
        {
            // Its barrier never blocks, so real data would race; it has
            // no two-sided messages, recorder or fault hooks.
            Some("the virtual-clock backend runs healthy, untraced, shape-only SRUMMA")
        } else if self.masks.is_some() && replicated {
            Some("masks are blocks of the machine grid; replica teams run on team grids")
        } else if death && (srumma.is_none() || restructured) {
            Some("only the flat SRUMMA rank machine can be handed to a survivor")
        } else {
            None
        };
        if let Some(why) = unsupported {
            return Err(RunError::Unsupported(why));
        }
        if let Some(plan) = self.faults {
            plan.validate(nranks)?;
            if death && !matches!(self.backend, Backend::Exec { .. }) {
                return Err(FaultPlanError::DeathNeedsExecutor.into());
            }
        }

        let topo = match machine {
            Some(machine) => machine.topology(nranks),
            None => Topology::new(nranks, self.ranks_per_node.unwrap_or(nranks)),
        };
        let c = match srumma {
            Some(opts) => resolve_factor(self.replication, nranks, topo, &spec, &opts)?,
            None => 1,
        };
        let (window, ranks_per_node) = (nranks / c, topo.ranks_per_node());
        if self.hier && !window.is_multiple_of(ranks_per_node) {
            return Err(RunError::NodeGroups {
                window,
                ranks_per_node,
            });
        }
        Ok((topo, c))
    }

    /// Validate, prepare, launch.
    pub fn execute(&self) -> Result<RunOutput, RunError> {
        let (topology, replication) = self.resolve()?;
        let real = self.operands.is_some();
        // Untouched until each owner's first task stores its tile.
        let mut product = real.then(|| Matrix::zeros(self.spec.m, self.spec.n));
        let c = product.as_mut().map(Matrix::as_mut);

        let (reports, stats, trace, wall_seconds) = if self.replication == ReplicationFactor::One {
            let grid = default_grid(self.nranks);
            let ab = self.operands.map(|(a, b)| (a.as_ref(), b.as_ref()));
            let masks = self
                .masks
                .map_or((None, None), |m| (m.a.as_ref(), m.b.as_ref()));
            let id = CostMap::Identity;
            with_fresh_c(&self.spec, grid, c, |spec, c| {
                with_host_operands(spec, grid, ab, masks, id, |&spec, a, b| {
                    let stages = self
                        .hier
                        .then(|| HierStageSet::create(&spec, grid, topology, real));
                    self.launch(topology, &Mats::Flat(FlatMats { spec, a, b, c }, stages))
                })
            })?
        } else {
            let (spec, nranks) = (&self.spec, self.nranks);
            let host = self.operands.zip(c).map(|((a, b), c)| (a, b, c));
            ReplSet::create(spec, nranks, topology, replication, host, |set| {
                let stages = self.hier.then(|| set.hier_stage_sets(topology, real));
                self.launch(topology, &Mats::Replicated(set, stages))
            })?
        };
        Ok(RunOutput {
            c: product,
            stats,
            trace,
            wall_seconds,
            reports,
            replication,
        })
    }

    /// Run the ranks over the prepared matrices on `self.backend`.
    fn launch(&self, topology: Topology, mats: &Mats<'_>) -> Result<Launched, RunError> {
        let (nranks, algorithm, faults) = (self.nranks, &self.algorithm, self.faults);
        // On the wall-clock backends the launchers emulate the topology
        // and apply the fault plan.
        let topo = Some(topology);
        // The blocking hosting: a thread per rank under `workers` permits.
        let blocking = |workers| {
            let body =
                |comm: &mut ExecComm| drive(comm, rank_program(comm.rank(), algorithm, mats));
            launched(exec_launch(nranks, workers, self.trace, topo, faults, body))
        };
        Ok(match self.backend {
            Backend::Sim(machine) => {
                let mut sim = SimOptions::new(machine.clone(), nranks);
                sim.trace = self.trace;
                if let Some(plan) = faults {
                    sim = sim.with_faults(plan.clone())?;
                }
                let t0 = Instant::now();
                // Every rank is a program, stepped on this thread in
                // virtual-time order.
                let res = sim_run_programs(&sim, |rank| rank_program(rank, algorithm, mats));
                let wall_seconds = t0.elapsed().as_secs_f64();
                (res.outputs, res.stats, res.trace, wall_seconds)
            }
            Backend::Virtual { machine, workers } => {
                // At 64k ranks the executor would hold several copies of
                // the per-rank reports; the modeled run is its `stats`.
                // A worker's ranks run one after another on one
                // machine's allocations.
                let body = |comm: &mut VirtualComm<'_>, scratch: &mut Option<MachineScratch>| {
                    let mut program = rank_program(comm.rank(), algorithm, mats);
                    scratch.get_or_insert_default();
                    program.swap_scratch(scratch);
                    drive(comm, &mut program);
                    program.swap_scratch(scratch);
                };
                let res = virtual_run(machine, nranks, workers, body);
                (Vec::new(), res.stats, Vec::new(), res.wall_seconds)
            }
            // Thread-per-rank: a permit per rank.
            Backend::Threads => blocking(nranks),
            // Flat or staged SRUMMA is polled (no OS thread per rank),
            // taught re-execution when the plan scripts a death; every
            // other program is driven on a blocking rank.
            Backend::Exec { workers } => match (mats, algorithm) {
                (Mats::Flat(m, stages), Algorithm::Srumma(opts)) => {
                    // Declared after the matrices: any unclaimed program
                    // (borrowing them) drops with the queue first.
                    let recovery = ChaosRecovery::new();
                    let FlatMats { spec, a, b, c } = m;
                    let program = || SrummaProgram::new(spec, a, b, c, opts, stages.as_ref());
                    let death = faults.and_then(|plan| plan.death);
                    launched(exec_run_tasks(
                        nranks,
                        workers,
                        self.trace,
                        topo,
                        faults,
                        |comm| match death {
                            None => Box::new(ProgramTask::new(comm, program())),
                            Some(death) => Box::new(ChaosSrummaRankTask::new(
                                comm,
                                program(),
                                death,
                                &recovery,
                            )),
                        },
                    ))
                }
                _ => blocking(workers),
            },
        })
    }

    /// [`Run::execute`] for the pinned positional drivers, whose
    /// signatures have no error channel.
    pub(crate) fn execute_or_panic(&self) -> RunOutput {
        self.execute()
            .unwrap_or_else(|e| panic!("invalid run plan: {e}"))
    }
}
