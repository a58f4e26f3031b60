//! Working-memory accounting — the paper's "more general, memory
//! efficient" claim, made checkable.
//!
//! Beyond its share of A, B and C, each algorithm needs *extra*
//! per-rank buffer space:
//!
//! * **SRUMMA**: `depth + 1` block buffers per operand (the paper's
//!   B1/B2 pair at depth 1) — and **zero** when every block is reachable
//!   by direct access (cacheable shared memory).
//! * **Cannon**: two traveling blocks (its A and B copies are in flight
//!   the whole time) plus the `sendrecv` staging copy of each.
//! * **SUMMA/pdgemm**: one A strip + one B strip per step, plus the
//!   broadcast staging at forwarding ranks.
//!
//! The paper's point: SRUMMA's footprint is the same two-buffer scheme
//! regardless of grid shape, and disappears entirely on the Altix.

use crate::layout::{a_kparts, b_kparts};
use crate::options::{GemmSpec, ShmemFlavor, SrummaOptions};
use crate::summa::SummaOptions;
use srumma_comm::dist::chunk_len;
use srumma_model::ProcGrid;

/// Extra working bytes (beyond owned blocks) for one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Peak bytes of temporary operand buffers.
    pub buffer_bytes: u64,
    /// Number of distinct buffers held at peak.
    pub(crate) buffers: usize,
}

fn max_a_block_bytes(spec: &GemmSpec, grid: ProcGrid) -> u64 {
    let mut best = 0;
    for i in 0..grid.p {
        for la in 0..a_kparts(grid) {
            let b = (chunk_len(spec.m, grid.p, i) * chunk_len(spec.k, grid.q, la) * 8) as u64;
            best = best.max(b);
        }
    }
    best
}

fn max_b_block_bytes(spec: &GemmSpec, grid: ProcGrid) -> u64 {
    let mut best = 0;
    for lb in 0..b_kparts(grid) {
        for j in 0..grid.q {
            let b = (chunk_len(spec.k, grid.p, lb) * chunk_len(spec.n, grid.q, j) * 8) as u64;
            best = best.max(b);
        }
    }
    best
}

/// SRUMMA's per-rank buffer footprint. `all_direct` models the
/// cacheable shared-memory configuration where no fetch buffers exist
/// at all.
pub fn srumma_footprint(
    spec: &GemmSpec,
    grid: ProcGrid,
    opts: &SrummaOptions,
    all_direct: bool,
) -> Footprint {
    if all_direct && opts.shmem != ShmemFlavor::ForceCopy {
        return Footprint {
            buffer_bytes: 0,
            buffers: 0,
        };
    }
    let slots = opts.prefetch_depth as u64 + 1;
    let per_a = max_a_block_bytes(spec, grid);
    let per_b = max_b_block_bytes(spec, grid);
    Footprint {
        buffer_bytes: slots * (per_a + per_b),
        buffers: 2 * slots as usize,
    }
}

/// Cannon's per-rank footprint: the traveling A and B blocks plus the
/// `sendrecv` staging copies during each shift.
pub fn cannon_footprint(spec: &GemmSpec, grid: ProcGrid) -> Footprint {
    let per_a = max_a_block_bytes(spec, grid);
    let per_b = max_b_block_bytes(spec, grid);
    Footprint {
        buffer_bytes: 2 * (per_a + per_b),
        buffers: 4,
    }
}

/// Per-rank bytes of a `c`-fold replicated multiply (see
/// [`crate::repl`]): the rank's stored A/B slice blocks plus its team's
/// C scratch block, all laid out on the *team* grid of `P/c` ranks.
/// The operand slices shrink with `c` (each team sweeps `k/c`), but the
/// C block grows `c`-fold — the classic replication memory trade.
/// Includes the SRUMMA fetch-pipeline buffers for the team-sized
/// problem.
pub(crate) fn replicated_arena_footprint(
    spec: &GemmSpec,
    nranks: usize,
    c: usize,
    opts: &SrummaOptions,
) -> Footprint {
    assert!(
        c >= 1 && nranks.is_multiple_of(c),
        "c must divide the rank count"
    );
    let team = ProcGrid::near_square(nranks / c);
    // Widest k-slice any team sweeps.
    let kw = (0..c).map(|l| chunk_len(spec.k, c, l)).max().unwrap_or(0);
    let team_spec = GemmSpec { k: kw, ..*spec };
    let a = max_a_block_bytes(&team_spec, team);
    let b = max_b_block_bytes(&team_spec, team);
    let cblk = (chunk_len(spec.m, team.p, 0) * chunk_len(spec.n, team.q, 0) * 8) as u64;
    let pipe = srumma_footprint(&team_spec, team, opts, false);
    Footprint {
        buffer_bytes: a + b + cblk + pipe.buffer_bytes,
        buffers: 3 + pipe.buffers,
    }
}

/// SUMMA's per-rank footprint for panel width `nb` (or the natural
/// block panels): the received A and B strips.
pub fn summa_footprint(spec: &GemmSpec, grid: ProcGrid, opts: &SummaOptions) -> Footprint {
    let kw = match opts.panel_nb {
        Some(nb) => nb.min(spec.k),
        None => {
            // Widest merged segment ≈ widest of either partition.
            let wa = chunk_len(spec.k, grid.q, 0);
            let wb = chunk_len(spec.k, grid.p, 0);
            wa.min(wb).max(1)
        }
    };
    let m_i = chunk_len(spec.m, grid.p, 0);
    let n_j = chunk_len(spec.n, grid.q, 0);
    Footprint {
        buffer_bytes: ((m_i * kw + kw * n_j) * 8) as u64,
        buffers: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_access_needs_no_buffers() {
        let spec = GemmSpec::square(4000);
        let grid = ProcGrid::near_square(128);
        let f = srumma_footprint(&spec, grid, &SrummaOptions::default(), true);
        assert_eq!(f.buffer_bytes, 0);
        assert_eq!(f.buffers, 0);
    }

    #[test]
    fn paper_pair_is_two_buffers_per_operand() {
        let spec = GemmSpec::square(4000);
        let grid = ProcGrid::near_square(64);
        let f = srumma_footprint(&spec, grid, &SrummaOptions::default(), false);
        assert_eq!(f.buffers, 4); // B1/B2 for A and for B
                                  // 2 × (A block + B block) bytes: blocks are 500 x 500 doubles.
        assert_eq!(f.buffer_bytes, 2 * 2 * 500 * 500 * 8);
    }

    #[test]
    fn deeper_pipelines_pay_linearly() {
        let spec = GemmSpec::square(2000);
        let grid = ProcGrid::near_square(16);
        let d1 = srumma_footprint(&spec, grid, &SrummaOptions::default(), false);
        let d3 = srumma_footprint(
            &spec,
            grid,
            &SrummaOptions {
                prefetch_depth: 3,
                ..Default::default()
            },
            false,
        );
        assert_eq!(d3.buffer_bytes, 2 * d1.buffer_bytes);
    }

    #[test]
    fn srumma_never_needs_more_than_cannon() {
        // Same block sizes, but Cannon stages its sendrecv copies.
        for n in [600usize, 2000, 8000] {
            for p in [16usize, 64] {
                let spec = GemmSpec::square(n);
                let grid = ProcGrid::near_square(p);
                let s = srumma_footprint(&spec, grid, &SrummaOptions::default(), false);
                let c = cannon_footprint(&spec, grid);
                assert!(s.buffer_bytes <= c.buffer_bytes, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summa_narrow_panels_are_small_but_many_steps() {
        let spec = GemmSpec::square(4000);
        let grid = ProcGrid::near_square(64);
        let narrow = summa_footprint(
            &spec,
            grid,
            &crate::summa::SummaOptions {
                panel_nb: Some(64),
                ..Default::default()
            },
        );
        let natural = summa_footprint(&spec, grid, &crate::summa::SummaOptions::default());
        assert!(narrow.buffer_bytes < natural.buffer_bytes);
    }

    #[test]
    fn rectangular_uses_the_largest_block() {
        // k-panels are uneven when p != q; the footprint must cover the
        // largest fetched block, not the average.
        let spec = GemmSpec::new(srumma_dense::Op::N, srumma_dense::Op::N, 100, 100, 7);
        let grid = ProcGrid::new(2, 4);
        let f = srumma_footprint(&spec, grid, &SrummaOptions::default(), false);
        // Largest A block: 50 rows x ceil(7/4)=2 cols; B: ceil(7/2)=4 x 25.
        assert_eq!(f.buffer_bytes, 2 * ((50 * 2 + 4 * 25) * 8) as u64);
    }
}
