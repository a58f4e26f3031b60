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

use crate::hier::{srumma_hier, HierStageSet};
use crate::layout::{dist_a, dist_b, fresh_c, scatter_operands};
use crate::memory::replicated_arena_footprint;
use crate::options::{GemmSpec, ReplicationFactor, SrummaOptions};
use crate::srumma::{srumma, SrummaReport};
use srumma_comm::{
    exec_run_with_topology, sim_run, thread_run_with_topology, virtual_run, Comm, CostMap,
    DistMatrix, SimOptions, SubComm,
};
use srumma_dense::mask::chunk_len;
use srumma_dense::Matrix;
use srumma_model::{Machine, ProcGrid, Topology};
use srumma_sim::RunStats;

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
/// `Fixed` panics on an inadmissible factor; `Auto` scans downward from
/// the largest admissible factor to the first whose
/// [`replicated_arena_footprint`] fits the budget, falling back to
/// `c = 1` (always admissible) if even the flat footprint is over.
pub fn resolve_factor(
    factor: ReplicationFactor,
    nranks: usize,
    topo: Topology,
    spec: &GemmSpec,
    opts: &SrummaOptions,
) -> usize {
    match factor {
        ReplicationFactor::One => 1,
        ReplicationFactor::Fixed(c) => {
            assert!(
                admissible_factor(nranks, topo, spec.k, c),
                "replication factor {c} inadmissible for {nranks} ranks \
                 ({} per node, k = {})",
                topo.ranks_per_node(),
                spec.k
            );
            c
        }
        ReplicationFactor::Auto { budget_bytes } => (2..=nranks)
            .rev()
            .filter(|&c| admissible_factor(nranks, topo, spec.k, c))
            .find(|&c| {
                replicated_arena_footprint(spec, nranks, c, opts).buffer_bytes <= budget_bytes
            })
            .unwrap_or(1),
    }
}

/// One team's slice of the problem.
struct TeamMats {
    /// The team-sized spec: `k` is this team's slice width, `beta` is
    /// `0` (every team multiplies onto a C the set just created).
    spec: GemmSpec,
    da: DistMatrix,
    db: DistMatrix,
    dc: DistMatrix,
}

/// The collective state of one replicated multiply: every team's
/// distributed slices, created (and scattered) up front like the flat
/// drivers' operands.
pub struct ReplSet {
    c: usize,
    team_ranks: usize,
    team_topo: Topology,
    grid: ProcGrid,
    teams: Vec<TeamMats>,
}

impl ReplSet {
    /// Build (and, when `real`, scatter) every team's `k`-slice of the
    /// logical operands `a` (`m × k`) and `b` (`k × n`). `c` must be
    /// admissible. Virtual sets pass `real = false` and `a = b = None`.
    pub fn create(
        spec: &GemmSpec,
        nranks: usize,
        topo: Topology,
        c: usize,
        real: bool,
        ab: Option<(&Matrix, &Matrix)>,
    ) -> Self {
        assert!(
            admissible_factor(nranks, topo, spec.k, c),
            "inadmissible replication factor {c}"
        );
        let team_ranks = nranks / c;
        let team_topo = if topo.nnodes() == 1 {
            Topology::single_domain(team_ranks)
        } else {
            Topology::new(team_ranks, topo.ranks_per_node())
        };
        let grid = ProcGrid::near_square(team_ranks);
        let mut teams = Vec::with_capacity(c);
        let mut k0 = 0;
        for l in 0..c {
            let kl = chunk_len(spec.k, c, l);
            let team_spec = GemmSpec { k: kl, ..*spec };
            let base = CostMap::Base(l * team_ranks);
            let mut da = dist_a(&team_spec, grid, real);
            da.set_cost_map(base);
            let mut db = dist_b(&team_spec, grid, real);
            db.set_cost_map(base);
            let (team_spec, mut dc) = fresh_c(&team_spec, grid, real);
            dc.set_cost_map(base);
            if let Some((a, b)) = ab {
                let mut al = Matrix::zeros(spec.m, kl);
                for i in 0..spec.m {
                    for j in 0..kl {
                        al[(i, j)] = a[(i, k0 + j)];
                    }
                }
                let mut bl = Matrix::zeros(kl, spec.n);
                for i in 0..kl {
                    for j in 0..spec.n {
                        bl[(i, j)] = b[(k0 + i, j)];
                    }
                }
                scatter_operands(&team_spec, &da, &db, &al, &bl);
            }
            teams.push(TeamMats {
                spec: team_spec,
                da,
                db,
                dc,
            });
            k0 += kl;
        }
        ReplSet {
            c,
            team_ranks,
            team_topo,
            grid,
            teams,
        }
    }

    /// The resolved replication factor.
    pub fn factor(&self) -> usize {
        self.c
    }

    /// Per-team hierarchical stage sets under the *global* topology
    /// `topo` — team `l`'s set covers its rank window and its `k`-slice
    /// shapes, enabling [`srumma_replicated_hier`]. Replication
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

/// Per-rank summary of a replicated multiply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplReport {
    /// This rank's team (its replica layer).
    pub team: usize,
    /// The team-local SRUMMA report.
    pub report: SrummaReport,
}

/// Run one rank of a replicated multiply: the team-local SRUMMA sweep
/// over this team's `k`-slice, then the serialized cross-team
/// accumulation into team 0's C. All ranks call collectively;
/// straight-line symmetric code (every rank executes the same barrier
/// sequence), so it runs unchanged on all backends.
pub fn srumma_replicated<C: Comm>(comm: &mut C, set: &ReplSet, opts: &SrummaOptions) -> ReplReport {
    let me = comm.rank();
    let team = me / set.team_ranks;
    let base = team * set.team_ranks;
    let slot = me - base;
    let mats = &set.teams[team];
    let report = {
        let mut sub = SubComm::new(comm, base, set.team_ranks, set.team_topo);
        srumma(&mut sub, &mats.spec, &mats.da, &mats.db, &mats.dc, opts)
    };
    // srumma ends with a (forwarded, machine-wide) barrier: every
    // team's partial product is complete here. Fold teams 1..c into
    // team 0 one at a time — a fixed accumulation order keeps the
    // result reproducible run to run.
    let mut buf = Vec::new();
    for l in 1..set.c {
        if team == l {
            mats.dc.copy_block_into(slot, &mut buf);
            comm.acc(&set.teams[0].dc, slot, 1.0, &buf);
        }
        comm.barrier();
    }
    ReplReport { team, report }
}

/// Run one rank of a replicated **hierarchical** multiply: like
/// [`srumma_replicated`], but each team runs the two-level staged
/// schedule of [`crate::hier`] inside its window — the combined
/// "hierarchical + replicated" configuration of the crossover study.
/// `stage_sets` must come from [`ReplSet::hier_stage_sets`] for the
/// same set.
pub fn srumma_replicated_hier<C: Comm>(
    comm: &mut C,
    set: &ReplSet,
    stage_sets: &[HierStageSet],
    opts: &SrummaOptions,
) -> ReplReport {
    let me = comm.rank();
    let team = me / set.team_ranks;
    let base = team * set.team_ranks;
    let slot = me - base;
    let mats = &set.teams[team];
    let report = {
        let mut sub = SubComm::new(comm, base, set.team_ranks, set.team_topo);
        srumma_hier(
            &mut sub,
            &mats.spec,
            &mats.da,
            &mats.db,
            &mats.dc,
            opts,
            &stage_sets[team],
        )
        .report
    };
    let mut buf = Vec::new();
    for l in 1..set.c {
        if team == l {
            mats.dc.copy_block_into(slot, &mut buf);
            comm.acc(&set.teams[0].dc, slot, 1.0, &buf);
        }
        comm.barrier();
    }
    ReplReport { team, report }
}

/// Replicated hierarchical multiply on real host threads. Returns
/// `(C, resolved c)`.
pub fn multiply_threads_replicated_hier(
    nranks: usize,
    ranks_per_node: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, usize) {
    let topo = Topology::new(nranks, ranks_per_node);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, true, Some((a, b)));
    let stage_sets = set.hier_stage_sets(topo, true);
    thread_run_with_topology(nranks, topo, |comm| {
        srumma_replicated_hier(comm, &set, &stage_sets, opts);
    });
    (set.gather(), c)
}

/// Modeled replicated hierarchical run on the virtual-clock backend —
/// the combined variant of the crossover study. Returns
/// `(stats, resolved c)`.
pub fn measure_replicated_hier_virtual(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
) -> (RunStats, usize) {
    let topo = machine.topology(nranks);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, false, None);
    let stage_sets = set.hier_stage_sets(topo, false);
    let stats = virtual_run(machine, nranks, workers, |comm| {
        srumma_replicated_hier(comm, &set, &stage_sets, opts);
    })
    .stats;
    (stats, c)
}

/// Replicated multiply on real host threads under an emulated cluster
/// topology. Returns `(C, resolved c)`.
pub fn multiply_threads_replicated(
    nranks: usize,
    ranks_per_node: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, usize) {
    let topo = Topology::new(nranks, ranks_per_node);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, true, Some((a, b)));
    thread_run_with_topology(nranks, topo, |comm| {
        srumma_replicated(comm, &set, opts);
    });
    (set.gather(), c)
}

/// Replicated multiply on the work-stealing executor (gated blocking
/// rank bodies). Returns `(C, resolved c)`.
#[allow(clippy::too_many_arguments)]
pub fn multiply_exec_replicated(
    nranks: usize,
    workers: usize,
    ranks_per_node: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, usize) {
    let topo = Topology::new(nranks, ranks_per_node);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, true, Some((a, b)));
    exec_run_with_topology(nranks, workers, topo, |comm| {
        srumma_replicated(comm, &set, opts);
    });
    (set.gather(), c)
}

/// Replicated multiply on real data under the discrete-event simulator,
/// topology from the machine profile. Returns `(C, stats, resolved c)`.
pub fn multiply_verified_replicated(
    machine: &Machine,
    nranks: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, RunStats, usize) {
    let topo = machine.topology(nranks);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, true, Some((a, b)));
    let sim_opts = SimOptions::new(machine.clone(), nranks);
    let res = sim_run(&sim_opts, |comm| {
        srumma_replicated(comm, &set, opts);
    });
    (set.gather(), res.stats, c)
}

/// Modeled replicated run on the per-rank virtual-clock backend — the
/// 64k-rank path. Returns `(stats, resolved c)`.
pub fn measure_replicated_virtual(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    factor: ReplicationFactor,
    opts: &SrummaOptions,
    spec: &GemmSpec,
) -> (RunStats, usize) {
    let topo = machine.topology(nranks);
    let c = resolve_factor(factor, nranks, topo, spec, opts);
    let set = ReplSet::create(spec, nranks, topo, c, false, None);
    let stats = virtual_run(machine, nranks, workers, |comm| {
        srumma_replicated(comm, &set, opts);
    })
    .stats;
    (stats, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::serial_reference;
    use srumma_dense::{max_abs_diff, Op};

    /// A matrix of small integers: every partial product and sum is
    /// exact in f64, so any summation order gives the bitwise-identical
    /// result — the strongest cross-`c` equality we can assert.
    fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        let mut s = seed;
        for i in 0..rows {
            for j in 0..cols {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m[(i, j)] = ((s >> 33) % 9) as f64 - 4.0;
            }
        }
        m
    }

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
        assert_eq!(c, 8);
        // A zero budget falls back to flat.
        let c = resolve_factor(
            ReplicationFactor::Auto { budget_bytes: 0 },
            16,
            topo,
            &spec,
            &opts,
        );
        assert_eq!(c, 1);
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
        assert_eq!(c, 2);
    }

    /// Integer inputs: every replication factor gives the bitwise-exact
    /// product on the thread backend, including the transposed cases.
    #[test]
    fn replicated_threads_bitwise_on_integers() {
        let opts = SrummaOptions::default();
        for (ta, tb) in [(Op::N, Op::N), (Op::T, Op::N), (Op::N, Op::T)] {
            let spec = GemmSpec::new(ta, tb, 18, 14, 22).with_scalars(2.0, 0.0);
            let a = int_matrix(spec.m, spec.k, 7);
            let b = int_matrix(spec.k, spec.n, 8);
            let want = expected(&spec, &a, &b);
            for c in [1usize, 2, 4] {
                let (got, used) = multiply_threads_replicated(
                    8,
                    2,
                    ReplicationFactor::Fixed(c),
                    &opts,
                    &spec,
                    &a,
                    &b,
                );
                assert_eq!(used, c);
                assert_eq!(
                    max_abs_diff(&got, &want),
                    0.0,
                    "{} c={c}",
                    spec.case_label()
                );
            }
        }
    }

    /// Float inputs: k-scaled tolerance (summation order differs by
    /// design across teams).
    #[test]
    fn replicated_threads_float_tolerance() {
        let spec = GemmSpec::square(32).with_scalars(1.0, 0.0);
        let a = Matrix::random(32, 32, 51);
        let b = Matrix::random(32, 32, 52);
        let want = expected(&spec, &a, &b);
        let tol = 1e-13 * spec.k as f64;
        for c in [2usize, 4] {
            let (got, _) = multiply_threads_replicated(
                8,
                2,
                ReplicationFactor::Fixed(c),
                &opts_default(),
                &spec,
                &a,
                &b,
            );
            assert!(max_abs_diff(&got, &want) < tol, "c={c}");
        }
    }

    fn opts_default() -> SrummaOptions {
        SrummaOptions::default()
    }

    /// The combined replicated + hierarchical schedule is still exact
    /// on integer inputs, across factors (including degenerate c=1,
    /// which is plain hierarchical SRUMMA).
    #[test]
    fn replicated_hier_threads_bitwise_on_integers() {
        let spec = GemmSpec::square(24).with_scalars(1.0, 0.0);
        let a = int_matrix(24, 24, 13);
        let b = int_matrix(24, 24, 14);
        let want = expected(&spec, &a, &b);
        for c in [1usize, 2] {
            let (got, used) = multiply_threads_replicated_hier(
                8,
                2,
                ReplicationFactor::Fixed(c),
                &opts_default(),
                &spec,
                &a,
                &b,
            );
            assert_eq!(used, c);
            assert_eq!(max_abs_diff(&got, &want), 0.0, "c={c}");
        }
    }

    /// Executor backend with oversubscribed workers.
    #[test]
    fn replicated_exec_matches_serial() {
        let spec = GemmSpec::square(24);
        let a = int_matrix(24, 24, 9);
        let b = int_matrix(24, 24, 10);
        let want = expected(&spec, &a, &b);
        let (got, c) = multiply_exec_replicated(
            8,
            2,
            2,
            ReplicationFactor::Fixed(2),
            &opts_default(),
            &spec,
            &a,
            &b,
        );
        assert_eq!(c, 2);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    /// Simulator backend: correct numerics and populated stats.
    #[test]
    fn replicated_sim_matches_serial() {
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(2);
            m
        };
        let spec = GemmSpec::square(24);
        let a = int_matrix(24, 24, 11);
        let b = int_matrix(24, 24, 12);
        let want = expected(&spec, &a, &b);
        let (got, stats, c) = multiply_verified_replicated(
            &machine,
            8,
            ReplicationFactor::Fixed(2),
            &opts_default(),
            &spec,
            &a,
            &b,
        );
        assert_eq!(c, 2);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
        assert!(stats.makespan > 0.0);
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
        let (stats, c) = measure_replicated_virtual(
            &machine,
            256,
            4,
            ReplicationFactor::Fixed(4),
            &opts_default(),
            &spec,
        );
        assert_eq!(c, 4);
        assert!(stats.makespan > 0.0);
        assert_eq!(stats.ranks.len(), 256);
    }
}
