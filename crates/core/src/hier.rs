//! Hierarchical SRUMMA: two-level node-group decomposition.
//!
//! Flat SRUMMA lets every rank fetch every remote panel it needs, so on
//! a cluster of `w`-way SMP nodes the same A panel crosses the network
//! up to `w` times — once per groupmate sharing the grid row. The
//! hierarchical schedule partitions the ranks into **node groups** (the
//! SMP domains of the run [`Topology`]) and splits each multiply into
//! two levels:
//!
//! 1. **staging** — for every off-node panel demanded by *two or more*
//!    members of a group, one member (the *elected fetcher*: member
//!    `slot mod group size`, the rule [`CostMap::Staged`] applies) gets
//!    the panel over the network once and lands it in the group's
//!    staging matrix; a fence plus one barrier makes the staged panels
//!    visible group-wide;
//! 2. **compute** — the ordinary SRUMMA task loop runs unchanged,
//!    except that fetches of staged panels are redirected to the
//!    staging matrix (see `HierStages`); the staging
//!    matrices carry [`CostMap::Staged`], whose `cost_rank` is the
//!    *same* election formula, so the redirected gets price and
//!    classify as intra-node copies.
//!
//! Both levels are phases of the one
//! [`SrummaProgram`](crate::srumma::SrummaProgram).
//!
//! Panels demanded by only one member are **not** staged — staging them
//! would add an intra-node hop without saving any network traffic — so
//! a degenerate group (one rank per node, or one node spanning the
//! whole machine) makes the hierarchical schedule collapse to flat
//! SRUMMA exactly.
//!
//! With row-major grids and block node placement (the launcher
//! convention throughout this repo), a node's `w ≤ q` ranks share a
//! grid row: every off-node A panel is shared `w` ways (staged — its
//! network traffic divides by `w`) while B panels are private (left
//! flat), so total inter-node bytes strictly decrease whenever any
//! off-node A traffic exists. Wider nodes (`w > q`) additionally share
//! B panels across rows and stage those too.

use crate::api::Algorithm;
use crate::layout::{dist_a, dist_b};
use crate::options::{GemmSpec, SrummaOptions};
use crate::run::{Backend, Run};
use srumma_comm::{Comm, CostMap, DistMatrix, Landing};
use srumma_model::{Machine, ProcGrid, Topology};
use srumma_sim::RunStats;

/// Members of `members` (a contiguous global-rank range) whose C-grid
/// row is `row` — the demand multiplicity of an A panel stored in that
/// grid row. O(1): a contiguous rank range meets a grid row (also a
/// contiguous range) in an interval.
pub fn members_in_row(grid: ProcGrid, members: std::ops::Range<usize>, row: usize) -> usize {
    let lo = members.start.max(row * grid.q);
    let hi = members.end.min((row + 1) * grid.q);
    hi.saturating_sub(lo)
}

/// Members of `members` whose C-grid column is `col` — the demand
/// multiplicity of a B panel stored in that grid column. O(1): counts
/// ranks `≡ col (mod q)` in the range.
pub fn members_in_col(grid: ProcGrid, members: std::ops::Range<usize>, col: usize) -> usize {
    debug_assert!(col < grid.q);
    let count = |n: usize| (n + grid.q - 1 - col) / grid.q;
    count(members.end) - count(members.start)
}

/// The member of `node`'s group elected to fetch `slot`'s panel, written
/// out on its own: the tests hold the staging duties and
/// [`CostMap::Staged`]`::cost_rank(slot)` — the backends' cost
/// classification — to this one rule.
#[cfg(test)]
fn elected_fetcher(topo: Topology, node: usize, slot: usize) -> usize {
    let members = topo.ranks_on_node(node);
    members.start + slot % members.len()
}

/// The staging duties of global rank `me`: the off-node A and B slots
/// it was elected to fetch whose panels are demanded by at least two of
/// its groupmates. Returned as `(a_slots, b_slots)`.
///
/// `base` is the first global rank of the slot window (`0` for a flat
/// machine-wide run; a replica team's base when the hierarchy runs
/// inside a [`crate::repl`] team): slot `s` is owned by global rank
/// `base + s`, and grid coordinates are window-local. Node groups must
/// not straddle the window boundary (`base` and the window size are
/// multiples of the node width — guaranteed by replication
/// admissibility).
pub fn staging_duties(
    grid: ProcGrid,
    topo: Topology,
    me: usize,
    base: usize,
) -> (Vec<usize>, Vec<usize>) {
    let members = topo.ranks_on_node(topo.node_of(me));
    let w = members.len();
    // Window-local view of my node group, for grid arithmetic.
    let (lo, hi) = (members.start - base, members.end - base);
    // Elected slots are exactly `me − members.start (mod w)`; the
    // group's own slots are on-node and never staged.
    let off = me - members.start;
    let (q, mut a, mut b) = (grid.q, Vec::new(), Vec::new());
    // A panels are shared only within the grid rows the group meets.
    for row in lo / q..hi.div_ceil(q) {
        if members_in_row(grid, lo..hi, row) >= 2 {
            let first = row * q + (off + w - row * q % w) % w;
            a.extend(
                (first..(row + 1) * q)
                    .step_by(w)
                    .filter(|s| !(lo..hi).contains(s)),
            );
        }
    }
    // A column holds two members only when the group is wider than a
    // grid row.
    if w > q {
        b.extend(
            (off..grid.nranks())
                .step_by(w)
                .filter(|&s| !(lo..hi).contains(&s) && members_in_col(grid, lo..hi, s % q) >= 2),
        );
    }
    (a, b)
}

/// One rank's view of its group's staging matrices, attached to a
/// [`crate::srumma::SrummaMachine`] via its `with_hier`. The redirect
/// predicate must match [`staging_duties`] exactly: off-node owner,
/// demanded by ≥ 2 group members.
#[derive(Clone, Copy)]
pub(crate) struct HierStages<'a> {
    /// My group's staging copy of A ([`CostMap::Staged`]).
    pub(crate) sa: &'a DistMatrix,
    /// My group's staging copy of B.
    pub(crate) sb: &'a DistMatrix,
    /// The C process grid (slot → window-local grid coordinates).
    pub(crate) grid: ProcGrid,
    /// My node group as window-local ranks `[lo, hi)`: its slots are
    /// on-node, and it sets each panel's demand multiplicity.
    pub(crate) lo: usize,
    /// End of my node group's window-local range.
    pub(crate) hi: usize,
}

impl<'a> HierStages<'a> {
    /// Whether an A fetch of slot `owner` is served by the staging
    /// matrix.
    pub(crate) fn redirect_a(&self, owner: usize) -> bool {
        !(self.lo..self.hi).contains(&owner)
            && members_in_row(self.grid, self.lo..self.hi, owner / self.grid.q) >= 2
    }

    /// Whether a B fetch of slot `owner` is served by the staging
    /// matrix.
    pub(crate) fn redirect_b(&self, owner: usize) -> bool {
        !(self.lo..self.hi).contains(&owner)
            && members_in_col(self.grid, self.lo..self.hi, owner % self.grid.q) >= 2
    }

    /// The matrix an A fetch of `owner`'s panel should read.
    pub(crate) fn a_mat(&self, flat: &'a DistMatrix, owner: usize) -> &'a DistMatrix {
        if self.redirect_a(owner) {
            self.sa
        } else {
            flat
        }
    }

    /// The matrix a B fetch of `owner`'s panel should read.
    pub(crate) fn b_mat(&self, flat: &'a DistMatrix, owner: usize) -> &'a DistMatrix {
        if self.redirect_b(owner) {
            self.sb
        } else {
            flat
        }
    }
}

/// The per-group staging matrices for one multiply: one A + B pair per
/// node, shaped exactly like the operands (same grid, dims, placement
/// order and backing kind) and carrying [`CostMap::Staged`] so every
/// backend prices reads of slot `s` against the elected fetcher.
/// Created collectively before launching rank code, like the operands.
pub struct HierStageSet {
    topo: Topology,
    base: usize,
    window: usize,
    first_node: usize,
    sa: Vec<DistMatrix>,
    sb: Vec<DistMatrix>,
}

impl HierStageSet {
    /// Staging matrices for every group of `topo`. `real` must match
    /// the operands' backing (virtual stages carry timing only).
    pub fn create(spec: &GemmSpec, grid: ProcGrid, topo: Topology, real: bool) -> Self {
        Self::create_window(spec, grid, topo, 0, real)
    }

    /// Staging matrices for the groups inside the rank window
    /// `[base, base + grid.nranks())` of `topo` — the window a replica
    /// team occupies. The window must cover whole node groups.
    pub(crate) fn create_window(
        spec: &GemmSpec,
        grid: ProcGrid,
        topo: Topology,
        base: usize,
        real: bool,
    ) -> Self {
        let window = grid.nranks();
        let w = topo.ranks_per_node();
        assert!(
            base.is_multiple_of(w) && window.is_multiple_of(w),
            "window [{base}, {}) must cover whole node groups of width {w}",
            base + window
        );
        let first_node = topo.node_of(base);
        let nodes = window / w;
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        for node in first_node..first_node + nodes {
            let mut a = dist_a(spec, grid, real);
            a.set_cost_map(CostMap::Staged { topo, node });
            let mut b = dist_b(spec, grid, real);
            b.set_cost_map(CostMap::Staged { topo, node });
            sa.push(a);
            sb.push(b);
        }
        HierStageSet {
            topo,
            base,
            window,
            first_node,
            sa,
            sb,
        }
    }

    /// Global rank `rank`'s group's `(stage_a, stage_b)` pair.
    pub(crate) fn stages_for(&self, rank: usize) -> (&DistMatrix, &DistMatrix) {
        let g = self.topo.node_of(rank) - self.first_node;
        (&self.sa[g], &self.sb[g])
    }

    /// Window-local rank `rank`'s fetch redirect over the C grid `grid`.
    pub(crate) fn redirect(&self, rank: usize, grid: ProcGrid) -> HierStages<'_> {
        let me = self.base + rank;
        let (sa, sb) = self.stages_for(me);
        let members = self.topo.ranks_on_node(self.topo.node_of(me));
        HierStages {
            sa,
            sb,
            grid,
            lo: members.start - self.base,
            hi: members.end - self.base,
        }
    }
}

/// Run this rank's staging duties: overlap the elected network gets,
/// land each panel in the group's staging matrix, and fence so the puts
/// are complete at their targets. Returns the panels staged. The caller
/// must still barrier before any groupmate reads them.
pub(crate) fn stage_panels<C: Comm>(
    comm: &mut C,
    a: &DistMatrix,
    b: &DistMatrix,
    grid: ProcGrid,
    stages: &HierStageSet,
) -> usize {
    assert_eq!(
        comm.nranks(),
        stages.window,
        "stage set was built for a different rank window"
    );
    let me = stages.base + comm.rank();
    let (sa, sb) = stages.stages_for(me);
    let (da, db) = staging_duties(grid, stages.topo, me, stages.base);
    let duties: Vec<(&DistMatrix, &DistMatrix, usize)> = da
        .iter()
        .map(|&s| (a, sa, s))
        .chain(db.iter().map(|&s| (b, sb, s)))
        .collect();
    // Issue every elected get before waiting on any: the network
    // transfers overlap (this is the fetcher's own prefetch pipeline).
    let mut bufs: Vec<Vec<f64>> = vec![Vec::new(); duties.len()];
    let handles: Vec<_> = duties
        .iter()
        .zip(&mut bufs)
        .map(|(&(src, _, slot), buf)| comm.nbget(src, slot, Landing::Rows(buf)))
        .collect();
    for (h, (&(_, stage, slot), buf)) in handles.into_iter().zip(duties.iter().zip(&bufs)) {
        comm.wait(h);
        comm.put(stage, slot, buf);
    }
    comm.fence();
    duties.len()
}

/// Modeled hierarchical run on the per-rank virtual-clock backend —
/// the 64k-rank path: virtual matrices, `nranks` LogGP clocks
/// multiplexed onto `workers` host threads. Returns run statistics.
pub fn measure_hier_virtual(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
) -> RunStats {
    measure_virtual(machine, nranks, workers, opts, spec, true)
}

/// Modeled **flat** run on the virtual-clock backend — the baseline the
/// crossover study compares [`measure_hier_virtual`] against at rank
/// counts far beyond the discrete-event simulator's reach.
pub fn measure_flat_virtual(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
) -> RunStats {
    measure_virtual(machine, nranks, workers, opts, spec, false)
}

fn measure_virtual(
    machine: &Machine,
    nranks: usize,
    workers: usize,
    opts: &SrummaOptions,
    spec: &GemmSpec,
    hier: bool,
) -> RunStats {
    let backend = Backend::Virtual { machine, workers };
    let run = Run::new(*spec, nranks, Algorithm::Srumma(*opts), backend);
    Run { hier, ..run }.execute_or_panic().stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::serial_reference;
    use crate::run::RunOutput;
    use srumma_dense::{max_abs_diff, Matrix};

    /// The election rule and `CostMap::Staged::cost_rank` are the same
    /// formula — if they diverge, costs lie about where staged data
    /// lives.
    #[test]
    fn election_matches_staged_cost_map() {
        for (nranks, rpn) in [(12, 3), (16, 4), (10, 4), (8, 1), (6, 6)] {
            let topo = Topology::new(nranks, rpn);
            for node in 0..topo.nnodes() {
                let cm = CostMap::Staged { topo, node };
                for slot in 0..nranks {
                    assert_eq!(
                        elected_fetcher(topo, node, slot),
                        cm.cost_rank(slot),
                        "nranks={nranks} rpn={rpn} node={node} slot={slot}"
                    );
                }
            }
        }
    }

    /// Every redirected fetch must have been staged by exactly its
    /// elected fetcher: the machine-side predicate and the staging-side
    /// duty list agree slot for slot.
    #[test]
    fn staging_covers_every_redirected_slot() {
        for (nranks, rpn) in [(16, 4), (12, 2), (12, 6), (24, 8), (9, 3)] {
            let topo = Topology::new(nranks, rpn);
            let grid = ProcGrid::near_square(nranks);
            let spec = GemmSpec::square(32);
            let stages = HierStageSet::create(&spec, grid, topo, false);
            for me in 0..nranks {
                let h = stages.redirect(me, grid);
                let g = topo.node_of(me);
                let members = topo.ranks_on_node(g);
                // Collect the group's duties once.
                let mut staged_a = vec![false; nranks];
                let mut staged_b = vec![false; nranks];
                for r in members.clone() {
                    let (da, db) = staging_duties(grid, topo, r, 0);
                    for s in da {
                        assert_eq!(elected_fetcher(topo, g, s), r, "A slot {s} duty holder");
                        assert!(!staged_a[s], "A slot {s} staged twice");
                        staged_a[s] = true;
                    }
                    for s in db {
                        assert_eq!(elected_fetcher(topo, g, s), r, "B slot {s} duty holder");
                        assert!(!staged_b[s], "B slot {s} staged twice");
                        staged_b[s] = true;
                    }
                }
                for slot in 0..nranks {
                    assert_eq!(
                        h.redirect_a(slot),
                        staged_a[slot],
                        "rank {me} A slot {slot} (nranks={nranks} rpn={rpn})"
                    );
                    assert_eq!(
                        h.redirect_b(slot),
                        staged_b[slot],
                        "rank {me} B slot {slot} (nranks={nranks} rpn={rpn})"
                    );
                }
            }
        }
    }

    /// Degenerate groups stage nothing: one rank per node shares no
    /// panels, and one machine-wide node has no off-node panels.
    #[test]
    fn degenerate_groups_have_no_duties() {
        let grid = ProcGrid::near_square(8);
        for topo in [Topology::flat(8), Topology::single_domain(8)] {
            for me in 0..8 {
                let (a, b) = staging_duties(grid, topo, me, 0);
                assert!(a.is_empty() && b.is_empty(), "{topo:?} rank {me}");
            }
        }
    }

    /// SRUMMA on real data under an emulated topology of `rpn` ranks
    /// per node, flat or staged. The flat run under the **same
    /// topology** (same SMP-first task order, hence same summation
    /// order) is the bitwise baseline for the hierarchical one: staging
    /// changes only the data path, never the values or the dgemm
    /// sequence.
    fn run_with_topology(
        backend: Backend<'_>,
        rpn: usize,
        hier: bool,
        spec: &GemmSpec,
        a: &Matrix,
        b: &Matrix,
    ) -> RunOutput {
        Run {
            operands: Some((a, b)),
            ranks_per_node: Some(rpn),
            hier,
            ..Run::new(*spec, 8, Algorithm::srumma_default(), backend)
        }
        .execute()
        .unwrap()
    }

    /// The hierarchical thread run computes exactly the same-topology
    /// flat result bitwise, and the true product within tolerance —
    /// across sharing widths including both degenerate ones.
    #[test]
    fn hier_threads_matches_flat_bitwise() {
        let spec = GemmSpec::new(srumma_dense::Op::N, srumma_dense::Op::T, 24, 20, 28)
            .with_scalars(1.5, 0.0);
        let a = Matrix::random(spec.m, spec.k, 41);
        let b = Matrix::random(spec.k, spec.n, 42);
        // serial_reference returns plain A·B; C starts zero, so the
        // expected result is alpha·A·B.
        let mut want = serial_reference(&spec, &a, &b);
        for i in 0..spec.m {
            for j in 0..spec.n {
                want[(i, j)] *= spec.alpha;
            }
        }
        for rpn in [1, 2, 4, 8] {
            let flat = run_with_topology(Backend::Threads, rpn, false, &spec, &a, &b);
            let hier = run_with_topology(Backend::Threads, rpn, true, &spec, &a, &b);
            let (flat, hier) = (flat.c.unwrap(), hier.c.unwrap());
            assert_eq!(
                max_abs_diff(&hier, &flat),
                0.0,
                "rpn={rpn} must match same-topology flat bitwise"
            );
            assert!(max_abs_diff(&hier, &want) < 1e-10, "rpn={rpn} vs serial");
        }
    }

    /// Executor backend: same bitwise agreement, with oversubscribed
    /// workers so staging, barriers and compute interleave arbitrarily.
    #[test]
    fn hier_exec_matches_flat_bitwise() {
        let spec = GemmSpec::square(24);
        let a = Matrix::random(24, 24, 43);
        let b = Matrix::random(24, 24, 44);
        // Nodes of 2 on the 2x4 grid: each node is half a grid row, so
        // the row's other half is off-node A demand shared by both
        // members — real staging work.
        let flat = run_with_topology(Backend::Threads, 2, false, &spec, &a, &b);
        let hier = run_with_topology(Backend::Exec { workers: 2 }, 2, true, &spec, &a, &b);
        assert_eq!(max_abs_diff(&hier.c.unwrap(), &flat.c.unwrap()), 0.0);
        assert!(hier.reports.iter().any(|r| r.staged_panels > 0));
    }

    /// Simulator backend: the numeric result is right *and* the staged
    /// schedule moves strictly fewer bytes across the network.
    #[test]
    fn hier_sim_reduces_internode_bytes() {
        // Nodes of 2 on the 4x4 grid: each node is half a grid row —
        // the other half's A panels are off-node and shared by both
        // members. (Nodes of 4 would tile whole rows, leaving no shared
        // off-node demand at all.)
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(2);
            m
        };
        let spec = GemmSpec::square(32);
        let a = Matrix::random(32, 32, 45);
        let b = Matrix::random(32, 32, 46);
        let want = serial_reference(&spec, &a, &b);
        let flat = Run {
            operands: Some((&a, &b)),
            ..Run::new(
                spec,
                16,
                Algorithm::srumma_default(),
                Backend::Sim(&machine),
            )
        };
        let hier = Run { hier: true, ..flat }.execute().unwrap();
        let flat = flat.execute().unwrap();
        let (flat_c, flat_stats) = (flat.c.unwrap(), flat.stats);
        let (hier_c, hier_stats) = (hier.c.unwrap(), hier.stats);
        assert!(max_abs_diff(&flat_c, &want) < 1e-10);
        assert_eq!(max_abs_diff(&hier_c, &flat_c), 0.0);
        let flat_net = flat_stats.total_internode_bytes();
        let hier_net = hier_stats.total_internode_bytes();
        assert!(flat_net > 0, "flat cluster run must cross the network");
        assert!(
            hier_net < flat_net,
            "staging must reduce inter-node bytes: hier {hier_net} vs flat {flat_net}"
        );
        assert!(
            hier_stats.total_intragroup_bytes() > 0,
            "staged reads must classify as intra-group"
        );
    }

    /// Virtual-clock backend at a rank count the discrete-event
    /// simulator would struggle with: the inter-node reduction holds
    /// and both runs produce consistent BSP-recombined stats.
    #[test]
    fn hier_virtual_reduces_internode_bytes_at_scale() {
        let machine = {
            let mut m = Machine::linux_myrinet();
            m.ranks_per_domain = srumma_model::machine::RanksPerDomain::Fixed(8);
            m
        };
        let spec = GemmSpec::square(1024);
        let opts = SrummaOptions::default();
        let flat = measure_flat_virtual(&machine, 256, 4, &opts, &spec);
        let hier = measure_hier_virtual(&machine, 256, 4, &opts, &spec);
        assert!(flat.total_internode_bytes() > 0);
        assert!(
            hier.total_internode_bytes() < flat.total_internode_bytes(),
            "hier {} vs flat {}",
            hier.total_internode_bytes(),
            flat.total_internode_bytes()
        );
        assert!(hier.makespan > 0.0 && flat.makespan > 0.0);
    }
}
