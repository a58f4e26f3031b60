//! c-fold replicated SRUMMA: trade memory for communication.
//!
//! A replicated multiply splits the `P` ranks into `c` contiguous
//! *teams* of `P/c`, gives each team its own copy of the operand
//! distribution restricted to a disjoint `k`-slice, and lets every team
//! run the ordinary SRUMMA schedule as if it were the whole machine
//! (via [`SubComm`]). Team `l` computes the partial product
//! `α·op(A)[:, K_l]·op(B)[K_l, :]` onto a C nobody has written (so `β`
//! is `0`). A final serialized accumulation folds teams `1..c` into team
//! 0's C — the only cross-team communication.
//!
//! Everything is in place, as in a flat run: a team's operands are views
//! of its `k`-windows of the host operands, and team 0's C *is* the
//! product the caller gets back, lent as a writable window, so the
//! accumulation lands where the caller reads it and nothing is gathered.
//!
//! The memory trade is the classic one (cf. 2.5D / SUMMA-2.5D): each
//! other team holds a full `m × n` C scratch over only `P/c` ranks, so
//! per-rank C memory grows `c`-fold, while each rank's communication
//! sweep shrinks to its team — fewer, larger transfers confined to a
//! `√(P/c)`-wide grid. `memory::replicated_arena_footprint`
//! prices the footprint; [`ReplicationFactor::Auto`] picks the largest
//! `c` that fits a budget.
//!
//! Team-local matrices carry [`CostMap::Base`] with the team's first
//! global rank, so every backend still prices and classifies transfers
//! against the *global* rank space, and barriers forward machine-wide
//! (see [`SubComm`]) — which keeps the virtual backend's BSP segment
//! recombination aligned across teams.

use crate::hier::HierStageSet;
use crate::layout::{shape_only_operands, with_host_operand_sets, HostOperands};
use crate::memory::replicated_arena_footprint;
use crate::options::{GemmSpec, ReplicationFactor, SrummaOptions};
use crate::run::{RankReport, RunError};
use crate::srumma::SrummaProgram;
use srumma_comm::{Comm, CostMap, DistMatrix, RankProgram, Step, SubComm};
use srumma_dense::mask::{chunk_len, chunk_start};
use srumma_dense::{MatMut, Matrix};
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
pub(crate) fn resolve_factor(
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

/// One team's slice of the problem, lent for the launch.
struct TeamMats<'m> {
    /// The team-sized spec: `k` is this team's slice width, `beta` is
    /// `0` (every team multiplies onto a C nobody has written), and over
    /// host operands the transposes are `N`.
    spec: GemmSpec,
    /// Views of the team's `k`-windows of the host operands.
    da: &'m DistMatrix,
    db: &'m DistMatrix,
    /// The team's product: the caller's for team 0, scratch for the rest.
    dc: &'m DistMatrix,
}

/// The collective state of one replicated multiply: every team's
/// distributed slices, created up front like the flat drivers' operands.
pub(crate) struct ReplSet<'m> {
    c: usize,
    team_ranks: usize,
    team_topo: Topology,
    grid: ProcGrid,
    teams: Vec<TeamMats<'m>>,
}

impl ReplSet<'_> {
    /// Build every team's `k`-slice of the problem and lend the set to
    /// `f`. `host` is the logical `m × k` and `k × n` operands and the
    /// caller's all-zero `m × n` product, or `None` for a shape-only
    /// (virtual) set. Team `l`'s operands are the windows `a[:, K_l]` /
    /// `b[K_l, :]`, all teams' lent in one [`with_host_operand_sets`]; the
    /// team products are lent in one [`DistMatrix::with_host_views_mut`]:
    /// team 0's is the caller's product, which holds the result when `f`
    /// returns, and teams `1..c` get zeroed scratch, dropped afterwards.
    /// Nothing is copied. `c` must be admissible.
    pub(crate) fn create<R>(
        spec: &GemmSpec,
        nranks: usize,
        topo: Topology,
        c: usize,
        host: Option<(&Matrix, &Matrix, MatMut<'_>)>,
        f: impl FnOnce(&ReplSet<'_>) -> R,
    ) -> R {
        assert!(
            admissible_factor(nranks, topo, spec.k, c),
            "inadmissible replication factor {c}"
        );
        let team_ranks = nranks / c;
        let grid = ProcGrid::near_square(team_ranks);
        let cost = |l: usize| CostMap::Base(l * team_ranks);
        let team_specs: Vec<GemmSpec> = (0..c)
            .map(|l| GemmSpec {
                k: chunk_len(spec.k, c, l),
                beta: 0.0,
                ..*spec
            })
            .collect();
        let lend = |specs: &[GemmSpec], ab: &[DistMatrix], cs: &[DistMatrix]| {
            f(&ReplSet {
                c,
                team_ranks,
                team_topo: topo.team(team_ranks),
                grid,
                teams: (0..c)
                    .map(|l| TeamMats {
                        spec: specs[l],
                        da: &ab[2 * l],
                        db: &ab[2 * l + 1],
                        dc: &cs[l],
                    })
                    .collect(),
            })
        };
        let Some((a, b, product)) = host else {
            let ab: Vec<DistMatrix> = (team_specs.iter().enumerate())
                .flat_map(|(l, team)| {
                    let (da, db) = shape_only_operands(team, grid, (None, None), cost(l));
                    [da, db]
                })
                .collect();
            let cs: Vec<DistMatrix> = (0..c)
                .map(|l| {
                    let mut dc = DistMatrix::create_virtual(grid, spec.m, spec.n);
                    dc.set_cost_map(cost(l));
                    dc
                })
                .collect();
            return lend(&team_specs, &ab, &cs);
        };
        let operands = team_specs.iter().enumerate().map(|(l, team)| {
            let k0 = chunk_start(spec.k, c, l);
            HostOperands {
                spec: team,
                a: a.block(0, k0, spec.m, team.k),
                b: b.block(k0, 0, team.k, spec.n),
                masks: (None, None),
                grid,
                cost: cost(l),
            }
        });
        let mut scratch: Vec<Matrix> = (1..c).map(|_| Matrix::zeros(spec.m, spec.n)).collect();
        let products = (std::iter::once(product).chain(scratch.iter_mut().map(Matrix::as_mut)))
            .enumerate()
            .map(|(l, product)| (product, grid, cost(l)))
            .collect();
        with_host_operand_sets(operands, |specs, ab| {
            DistMatrix::with_host_views_mut(products, |cs| lend(specs, ab, cs))
        })
    }

    /// Per-team hierarchical stage sets under the *global* topology
    /// `topo` — team `l`'s set covers its rank window and its `k`-slice
    /// shapes, enabling staged teams in a [`ReplProgram`]. Replication
    /// admissibility already guarantees every window covers whole
    /// nodes.
    pub(crate) fn hier_stage_sets(&self, topo: Topology, real: bool) -> Vec<HierStageSet> {
        self.teams
            .iter()
            .enumerate()
            .map(|(l, t)| {
                HierStageSet::create_window(&t.spec, self.grid, topo, l * self.team_ranks, real)
            })
            .collect()
    }
}

/// One rank of a replicated multiply as a [`RankProgram`]: its team's
/// [`SrummaProgram`] over this team's `k`-slice, stepped through the
/// team's [`SubComm`], then the serialized cross-team accumulation into
/// team 0's C, one fence per round. With `stage_sets` (from
/// [`ReplSet::hier_stage_sets`] for the same set) each team runs the
/// two-level staged schedule of [`crate::hier`] inside its window — the
/// combined "hierarchical + replicated" configuration of the crossover
/// study. All ranks run it collectively; every rank passes the same
/// fences, so it runs unchanged on all backends.
pub(crate) struct ReplProgram<'a> {
    set: &'a ReplSet<'a>,
    team: usize,
    pub(crate) team_sweep: SrummaProgram<'a>,
    /// The team sweep's report, once it is done.
    report: Option<RankReport>,
    /// The accumulation round in flight, `1..c`.
    round: usize,
    /// This rank has done its part of the round and arrived at its fence.
    arrived: bool,
}

impl<'a> ReplProgram<'a> {
    /// `rank`'s program.
    pub(crate) fn new(
        rank: usize,
        set: &'a ReplSet<'a>,
        stage_sets: Option<&'a [HierStageSet]>,
        opts: &SrummaOptions,
    ) -> Self {
        let team = rank / set.team_ranks;
        let mats = &set.teams[team];
        let stages = stage_sets.map(|sets| &sets[team]);
        ReplProgram {
            set,
            team,
            team_sweep: SrummaProgram::new(&mats.spec, mats.da, mats.db, mats.dc, opts, stages),
            report: None,
            round: 1,
            arrived: false,
        }
    }
}

impl RankProgram for ReplProgram<'_> {
    type Out = RankReport;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        let set = self.set;
        let base = self.team * set.team_ranks;
        if self.report.is_none() {
            let mut sub = SubComm::new(comm, base, set.team_ranks, set.team_topo);
            match self.team_sweep.step(&mut sub) {
                Step::Done(report) => self.report = Some(report),
                Step::Yield => return Step::Yield,
                Step::Park => return Step::Park,
            }
        }
        // The team sweep ends with a (forwarded, machine-wide) fence:
        // every team's partial product is complete here. Fold teams
        // 1..c into team 0 one at a time, each block straight from where
        // its team's C holds it — a fixed accumulation order keeps the
        // result reproducible run to run.
        while self.round < set.c {
            if !self.arrived && self.team == self.round {
                let slot = comm.rank() - base;
                let partial = set.teams[self.team].dc.read_block(slot);
                comm.acc(set.teams[0].dc, slot, 1.0, partial.mat());
            }
            self.arrived = true;
            if !comm.barrier_try() {
                return Step::Park;
            }
            self.arrived = false;
            self.round += 1;
        }
        let report = self.report.expect("the team sweep is done");
        Step::Done(RankReport {
            team: self.team,
            ..report
        })
    }
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
        let per_rank = Backend::Exec { workers: 8 };
        for c in [2usize, 4] {
            let out = Run {
                operands: Some((&a, &b)),
                ranks_per_node: Some(2),
                replication: ReplicationFactor::Fixed(c),
                ..Run::new(spec, 8, Algorithm::srumma_default(), per_rank)
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
