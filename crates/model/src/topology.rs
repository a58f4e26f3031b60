//! SMP-node topology and two-dimensional process grids.
//!
//! SRUMMA's central idea is *topology awareness*: the algorithm must
//! know, for every pair of ranks, whether they share a shared-memory
//! communication domain (use load/store or memcpy) or not (use
//! nonblocking RMA). [`Topology`] answers that query — it is the model
//! counterpart of ARMCI's cluster-configuration query interface.

/// Placement of ranks onto shared-memory domains ("nodes").
///
/// Ranks are numbered `0..nranks` and packed onto nodes in order:
/// node 0 holds ranks `0..ranks_per_node`, node 1 the next batch, and so
/// on — matching how MPI launchers filled SMP clusters in the paper's
/// era (block placement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    nranks: usize,
    ranks_per_node: usize,
}

impl Topology {
    /// Create a topology of `nranks` ranks with `ranks_per_node` ranks
    /// per shared-memory domain. The final node may be partially filled.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(nranks: usize, ranks_per_node: usize) -> Self {
        assert!(nranks > 0, "need at least one rank");
        assert!(ranks_per_node > 0, "need at least one rank per node");
        Topology {
            nranks,
            ranks_per_node,
        }
    }

    /// A topology where every rank is its own domain (pure distributed
    /// memory — the architecture classic algorithms assumed).
    pub fn flat(nranks: usize) -> Self {
        Self::new(nranks, 1)
    }

    /// A topology with a single machine-wide shared-memory domain
    /// (SGI Altix, Cray X1).
    pub fn single_domain(nranks: usize) -> Self {
        Self::new(nranks, nranks)
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of shared-memory domains.
    pub fn nnodes(&self) -> usize {
        self.nranks.div_ceil(self.ranks_per_node)
    }

    /// Which node (shared-memory domain) a rank lives on.
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.nranks);
        rank / self.ranks_per_node
    }

    /// Do two ranks share a memory domain (→ load/store instead of RMA)?
    pub fn same_domain(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Ranks living on `node`.
    pub fn ranks_on_node(&self, node: usize) -> std::ops::Range<usize> {
        let lo = node * self.ranks_per_node;
        let hi = ((node + 1) * self.ranks_per_node).min(self.nranks);
        lo..hi
    }

    /// What a team of `n` consecutive ranks of this machine sees when it
    /// runs as a machine of its own (a replica team, a batch entry's
    /// team): one domain if this machine is one, otherwise nodes of the
    /// same width. The team must not split a node — `n` divides
    /// `ranks_per_node` or is a multiple of it, and the team starts on a
    /// multiple of `n` — so that its same-domain answers are this
    /// machine's.
    pub fn team(&self, n: usize) -> Topology {
        if self.nnodes() == 1 {
            Topology::single_domain(n)
        } else {
            Topology::new(n, self.ranks_per_node)
        }
    }
}

/// A `p × q` logical process grid over `p·q` ranks, row-major:
/// rank `r` sits at `(r / q, r % q)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcGrid {
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
}

impl ProcGrid {
    /// Grid with explicit dimensions.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0);
        ProcGrid { p, q }
    }

    /// Choose the most-square `p × q = nranks` factorization — the shape
    /// both the paper's analysis (`p = q = √P`) and ScaLAPACK default to.
    pub fn near_square(nranks: usize) -> Self {
        assert!(nranks > 0);
        let mut p = (nranks as f64).sqrt() as usize;
        while p > 1 && !nranks.is_multiple_of(p) {
            p -= 1;
        }
        ProcGrid {
            p,
            q: nranks / p.max(1),
        }
    }

    pub fn nranks(&self) -> usize {
        self.p * self.q
    }

    /// Grid coordinates of a rank.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.nranks());
        (rank / self.q, rank % self.q)
    }

    /// Rank at grid coordinates.
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.p && col < self.q);
        row * self.q + col
    }

    /// Iterator over all ranks in the same grid row as `rank`.
    pub fn row_ranks(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.q).map(move |c| self.rank_at(row, c))
    }

    /// Iterator over all ranks in the same grid column as `rank`.
    pub fn col_ranks(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.p).map(move |r| self.rank_at(r, col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_assignment_is_block() {
        let t = Topology::new(8, 4);
        assert_eq!(t.nnodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert!(t.same_domain(0, 3));
        assert!(!t.same_domain(3, 4));
    }

    #[test]
    fn partial_last_node() {
        let t = Topology::new(10, 4);
        assert_eq!(t.nnodes(), 3);
        assert_eq!(t.ranks_on_node(2), 8..10);
    }

    #[test]
    fn flat_and_single_domain() {
        let f = Topology::flat(6);
        assert_eq!(f.nnodes(), 6);
        assert!(!f.same_domain(0, 1));
        let s = Topology::single_domain(6);
        assert_eq!(s.nnodes(), 1);
        assert!(s.same_domain(0, 5));
    }

    /// A team inside a node is one domain; a team of whole nodes keeps
    /// the node width; on a one-domain machine every team is one domain.
    #[test]
    fn teams_see_the_machine_s_domains() {
        let t = Topology::new(16, 4);
        assert_eq!(t.team(2).nnodes(), 1);
        assert!(t.team(2).same_domain(0, 1));
        assert_eq!(t.team(8), Topology::new(8, 4));
        assert_eq!(
            Topology::single_domain(16).team(4),
            Topology::single_domain(4)
        );
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(ProcGrid::near_square(16), ProcGrid { p: 4, q: 4 });
        assert_eq!(ProcGrid::near_square(128), ProcGrid { p: 8, q: 16 });
        assert_eq!(ProcGrid::near_square(12), ProcGrid { p: 3, q: 4 });
        assert_eq!(ProcGrid::near_square(7), ProcGrid { p: 1, q: 7 });
        assert_eq!(ProcGrid::near_square(1), ProcGrid { p: 1, q: 1 });
    }

    #[test]
    fn coords_roundtrip() {
        let g = ProcGrid::new(3, 5);
        for r in 0..g.nranks() {
            let (i, j) = g.coords(r);
            assert_eq!(g.rank_at(i, j), r);
        }
    }

    #[test]
    fn row_and_col_iterators() {
        let g = ProcGrid::new(2, 3);
        let row1: Vec<_> = g.row_ranks(1).collect();
        assert_eq!(row1, vec![3, 4, 5]);
        let col2: Vec<_> = g.col_ranks(2).collect();
        assert_eq!(col2, vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Topology::new(0, 1);
    }
}
