//! c-fold replicated SRUMMA: trade memory for communication.
//!
//! A replicated multiply splits the `P` ranks into `c` contiguous
//! *teams* of `P/c`, gives each team its own copy of the operand
//! distribution restricted to a disjoint `k`-slice, and lets every team
//! run the ordinary SRUMMA schedule as if it were the whole machine
//! (via [`SubComm`]). Team `l` computes the partial product
//! `α·op(A)[:, K_l]·op(B)[K_l, :]` onto a C the set created zero (so
//! `β` is moot). A final serialized accumulation folds teams
//! `1..c` into team 0's C — the only cross-team communication.
//!
//! The memory trade is the classic one (cf. 2.5D / SUMMA-2.5D): each
//! team holds a full `m × n` C scratch over only `P/c` ranks, so
//! per-rank C memory grows `c`-fold, while each rank's communication
//! sweep shrinks to its team — fewer, larger transfers confined to a
//! `√(P/c)`-wide grid. [`crate::memory::replicated_arena_footprint`]
//! prices the footprint; [`ReplicationFactor::Auto`] picks the largest
//! `c` that fits a budget.
//!
//! Team-local matrices carry [`CostMap::Base`] with the team's first
//! global rank, so every backend still prices and classifies transfers
//! against the *global* rank space, and barriers forward machine-wide
//! (see [`SubComm`]) — which keeps the virtual backend's BSP segment
//! recombination aligned across teams.

use crate::hier::HierStageSet;
use crate::layout::{fresh_c, with_host_operands};
use crate::memory::replicated_arena_footprint;
use crate::options::{GemmSpec, ReplicationFactor, SrummaOptions};
use crate::run::{RankReport, RunError};
use crate::srumma::SrummaProgram;
use srumma_comm::{drive, Comm, CostMap, DistMatrix, SubComm};
use srumma_dense::mask::{chunk_len, chunk_start};
use srumma_dense::Matrix;
use srumma_model::{ProcGrid, Topology};

/// Whether `c` teams are admissible for `nranks` ranks under `topo`:
/// `c` divides the rank count, teams align with whole SMP nodes, and
/// every team sweeps at least one `k` column.
pub fn admissible_factor(nranks: usize, topo: Topology, k: usize, c: usize) -> bool {
    if c == 0 || !nranks.is_multiple_of(c) || c > k {
        return false;
    }
    let team = nranks / c;
    // Teams must not split an SMP node between two replica copies —
    // otherwise the team topology misclassifies intra-node traffic.
    topo.nnodes() == 1 || team.is_multiple_of(topo.ranks_per_node())
}

/// Resolve a [`ReplicationFactor`] to a concrete `c`.
///
/// An inadmissible `Fixed` factor is [`RunError::Replication`]; `Auto`
/// scans downward from the largest admissible factor to the first whose
/// [`replicated_arena_footprint`] fits the budget, falling back to
/// `c = 1` (always admissible) if even the flat footprint is over.
pub fn resolve_factor(
    factor: ReplicationFactor,
    nranks: usize,
    topo: Topology,
    spec: &GemmSpec,
    opts: &SrummaOptions,
) -> Result<usize, RunError> {
    match factor {
        ReplicationFactor::One => Ok(1),
        ReplicationFactor::Fixed(c) if admissible_factor(nranks, topo, spec.k, c) => Ok(c),
        ReplicationFactor::Fixed(c) => Err(RunError::Replication {
            c,
            nranks,
            ranks_per_node: topo.ranks_per_node(),
            k: spec.k,
        }),
        ReplicationFactor::Auto { budget_bytes } => Ok((2..=nranks)
            .rev()
            .filter(|&c| admissible_factor(nranks, topo, spec.k, c))
            .find(|&c| {
                replicated_arena_footprint(spec, nranks, c, opts).buffer_bytes <= budget_bytes
            })
            .unwrap_or(1)),
    }
}

/// One team's slice of the problem.
struct TeamMats<'m> {
    /// The team-sized spec: `k` is this team's slice width, `beta` is
    /// `0` (every team multiplies onto a C the set just created), and
    /// over host operands the transposes are `N`.
    spec: GemmSpec,
    /// Lent by [`with_host_operands`]: views of the team's `k`-windows
    /// of the host operands.
    da: &'m DistMatrix,
    db: &'m DistMatrix,
    dc: DistMatrix,
}

/// The collective state of one replicated multiply: every team's
/// distributed slices, created up front like the flat drivers' operands.
pub struct ReplSet<'m> {
    c: usize,
    team_ranks: usize,
    team_topo: Topology,
    grid: ProcGrid,
    teams: Vec<TeamMats<'m>>,
}

impl ReplSet<'_> {
    /// Build every team's `k`-slice of the logical operands `a` (`m × k`)
    /// and `b` (`k × n`) and lend the set to `f`. A team's slice is the
    /// window `a[:, K_l]` / `b[K_l, :]` of the host matrix, distributed
    /// in place — never copied. `c` must be admissible. `ab = None`
    /// builds a shape-only (virtual) set.
    pub fn create<R>(
        spec: &GemmSpec,
        nranks: usize,
        topo: Topology,
        c: usize,
        ab: Option<(&Matrix, &Matrix)>,
        f: impl FnOnce(&ReplSet<'_>) -> R,
    ) -> R {
        assert!(
            admissible_factor(nranks, topo, spec.k, c),
            "inadmissible replication factor {c}"
        );
        let team_ranks = nranks / c;
        let set = ReplSet {
            c,
            team_ranks,
            team_topo: topo.team(team_ranks),
            grid: ProcGrid::near_square(team_ranks),
            teams: Vec::with_capacity(c),
        };
        set.with_remaining_teams(spec, ab, f)
    }

    /// Add team `self.teams.len()` and recurse; with all `c` teams in,
    /// call `f`. Recursion because each team's operands are lent to a
    /// closure ([`with_host_operands`]) and every team must be live at
    /// once.
    fn with_remaining_teams<R>(
        self,
        spec: &GemmSpec,
        ab: Option<(&Matrix, &Matrix)>,
        f: impl FnOnce(&ReplSet<'_>) -> R,
    ) -> R {
        let l = self.teams.len();
        if l == self.c {
            return f(&self);
        }
        let (k0, kl) = (chunk_start(spec.k, self.c, l), chunk_len(spec.k, self.c, l));
        let team_spec = GemmSpec { k: kl, ..*spec };
        let base = CostMap::Base(l * self.team_ranks);
        let (team_spec, mut dc) = fresh_c(&team_spec, self.grid, ab.is_some());
        dc.set_cost_map(base);
        let windows = ab.map(|(a, b)| (a.block(0, k0, spec.m, kl), b.block(k0, 0, kl, spec.n)));
        let (grid, dense) = (self.grid, (None, None));
        with_host_operands(&team_spec, grid, windows, dense, base, |&team, da, db| {
            // Every earlier team outlives this frame: shorten them.
            let mut set: ReplSet<'_> = self;
            set.teams.push(TeamMats {
                spec: team,
                da,
                db,
                dc,
            });
            set.with_remaining_teams(spec, ab, f)
        })
    }

    /// Per-team hierarchical stage sets under the *global* topology
    /// `topo` — team `l`'s set covers its rank window and its `k`-slice
    /// shapes, enabling the staged [`srumma_replicated`]. Replication
    /// admissibility already guarantees every window covers whole
    /// nodes.
    pub fn hier_stage_sets(&self, topo: Topology, real: bool) -> Vec<HierStageSet> {
        self.teams
            .iter()
            .enumerate()
            .map(|(l, t)| {
                HierStageSet::create_window(&t.spec, self.grid, topo, l * self.team_ranks, real)
            })
            .collect()
    }

    /// Gather the final product (lives on team 0's C).
    pub fn gather(&self) -> Matrix {
        self.teams[0].dc.gather()
    }
}

/// Run one rank of a replicated multiply: the team-local SRUMMA sweep
/// over this team's `k`-slice, then the serialized cross-team
/// accumulation into team 0's C. With `stage_sets` (from
/// [`ReplSet::hier_stage_sets`] for the same set) each team runs the
/// two-level staged schedule of [`crate::hier`] inside its window — the
/// combined "hierarchical + replicated" configuration of the crossover
/// study. All ranks call collectively; straight-line symmetric code
/// (every rank executes the same barrier sequence), so it runs
/// unchanged on all backends.
pub fn srumma_replicated<C: Comm>(
    comm: &mut C,
    set: &ReplSet<'_>,
    stage_sets: Option<&[HierStageSet]>,
    opts: &SrummaOptions,
) -> RankReport {
    let me = comm.rank();
    let team = me / set.team_ranks;
    let base = team * set.team_ranks;
    let slot = me - base;
    let mats = &set.teams[team];
    let report = {
        let mut sub = SubComm::new(comm, base, set.team_ranks, set.team_topo);
        let stages = stage_sets.map(|sets| &sets[team]);
        let program = SrummaProgram::new(&mats.spec, mats.da, mats.db, &mats.dc, opts, stages);
        drive(&mut sub, program)
    };
    // The team sweep ends with a (forwarded, machine-wide) barrier:
    // every team's partial product is complete here. Fold teams 1..c
    // into team 0 one at a time — a fixed accumulation order keeps the
    // result reproducible run to run.
    let mut buf = Vec::new();
    for l in 1..set.c {
        if team == l {
            mats.dc.copy_block_into(slot, &mut buf);
            comm.acc(&set.teams[0].dc, slot, 1.0, &buf);
        }
        comm.barrier();
    }
    RankReport { team, ..report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Algorithm;
    use crate::driver::serial_reference;
    use crate::run::{Backend, Run};
    use srumma_dense::max_abs_diff;
    use srumma_model::Machine;

    fn expected(spec: &GemmSpec, a: &Matrix, b: &Matrix) -> Matrix {
        let mut want = serial_reference(spec, a, b);
        for i in 0..spec.m {
            for j in 0..spec.n {
                want[(i, j)] *= spec.alpha;
            }
        }
        want
    }

    #[test]
    fn admissibility_rules() {
        let topo = Topology::new(16, 4);
        assert!(admissible_factor(16, topo, 100, 1));
        assert!(admissible_factor(16, topo, 100, 2));
        assert!(admissible_factor(16, topo, 100, 4));
        // c = 8 would leave 2-rank teams splitting 4-rank nodes.
        assert!(!admissible_factor(16, topo, 100, 8));
        assert!(!admissible_factor(16, topo, 100, 3)); // doesn't divide
        assert!(!admissible_factor(16, topo, 1, 2)); // k too small
                                                     // Single-domain machines have no node-boundary constraint.
        assert!(admissible_factor(16, Topology::single_domain(16), 100, 8));
    }

    #[test]
    fn auto_picks_largest_fitting_factor() {
        let topo = Topology::new(16, 2);
        let spec = GemmSpec::square(64);
        let opts = SrummaOptions::default();
        // A huge budget admits the largest admissible factor.
        let c = resolve_factor(
            ReplicationFactor::Auto {
                budget_bytes: u64::MAX,
            },
            16,
            topo,
            &spec,
            &opts,
        );
        assert_eq!(c, Ok(8));
        // A zero budget falls back to flat.
        let c = resolve_factor(
            ReplicationFactor::Auto { budget_bytes: 0 },
            16,
            topo,
            &spec,
            &opts,
        );
        assert_eq!(c, Ok(1));
        // A budget between the c=2 and c=4 footprints picks c=2.
        let f2 = replicated_arena_footprint(&spec, 16, 2, &opts).buffer_bytes;
        let f4 = replicated_arena_footprint(&spec, 16, 4, &opts).buffer_bytes;
        assert!(f4 > f2, "larger c must cost more memory");
        let c = resolve_factor(
            ReplicationFactor::Auto { budget_bytes: f2 },
            16,
            topo,
            &spec,
            &opts,
        );
        assert_eq!(c, Ok(2));
    }

    /// Float inputs: k-scaled tolerance (summation order differs by
    /// design across teams). On integer inputs every backend, factor and
    /// the staged variant are bitwise-exact: pinned rows of the plan
    /// property, `tests/property_plan.rs`.
    #[test]
    fn replicated_threads_float_tolerance() {
        let spec = GemmSpec::square(32).with_scalars(1.0, 0.0);
        let a = Matrix::random(32, 32, 51);
        let b = Matrix::random(32, 32, 52);
        let want = expected(&spec, &a, &b);
        let tol = 1e-13 * spec.k as f64;
        for c in [2usize, 4] {
            let out = Run {
                operands: Some((&a, &b)),
                ranks_per_node: Some(2),
                replication: ReplicationFactor::Fixed(c),
                ..Run::new(spec, 8, Algorithm::srumma_default(), Backend::Threads)
            }
            .execute()
            .unwrap();
            assert!(max_abs_diff(&out.c.unwrap(), &want) < tol, "c={c}");
        }
    }

    /// Virtual backend: the modeled run completes with aligned BSP
    /// segments and a positive makespan at a scale the simulator could
    /// not reach quickly.
    #[test]
    fn replicated_virtual_runs_at_scale() {
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(8);
            m
        };
        let spec = GemmSpec::square(1024);
        let backend = Backend::Virtual {
            machine: &machine,
            workers: 4,
        };
        let out = Run {
            replication: ReplicationFactor::Fixed(4),
            ..Run::new(spec, 256, Algorithm::srumma_default(), backend)
        }
        .execute()
        .unwrap();
        assert_eq!(out.replication, 4);
        assert!(out.stats.makespan > 0.0);
        assert_eq!(out.stats.ranks.len(), 256);
    }
}
