//! Cannon's algorithm — the classic systolic baseline.
//!
//! The algorithm SRUMMA matches in *algorithmic* efficiency
//! (isoefficiency `O(P^{3/2})`) while replacing its lock-step
//! message-passing shifts with uncoordinated one-sided gets. Kept here
//! exactly as the textbooks give it: initial skew (row `i` of A shifted
//! left by `i`, column `j` of B shifted up by `j`), then `q` steps of
//! *local multiply; shift A left once; shift B up once*. Every step
//! synchronizes neighbours — the sender-receiver coordination the paper
//! calls out as Cannon's weakness on loaded/asynchronous systems.
//!
//! Requires a square process grid (as Cannon does); supports `C = A·B`
//! (the baseline case the paper benchmarks it against).
//!
//! A rank's share is one `CannonProgram`, which parks in each shift's
//! receive and in the closing fence.

use crate::options::GemmSpec;
use crate::run::RankReport;
use srumma_comm::dist::{chunk_len, BlockWrite};
use srumma_comm::mpi::ring_shift;
use srumma_comm::{Comm, DistMatrix, RankProgram, Step};
use srumma_dense::{MatRef, Op, Operand};

/// Where a `CannonProgram` resumes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    /// Shift A (side 0) along the grid row, then B (side 1) along the
    /// column: the initial skew (`None`), or the shift after step `s`.
    Shift(usize, Option<usize>),
    /// Multiply the held blocks at step `.0`.
    Multiply(usize),
    Fence,
}

/// One rank of Cannon's algorithm, `C ← β·C + α·A·B`, as a
/// [`RankProgram`]. All ranks run it collectively.
///
/// # Panics
/// On its first step, if the grid is not square or the spec carries
/// transposes.
pub(crate) struct CannonProgram<'a> {
    spec: &'a GemmSpec,
    ab: [&'a DistMatrix; 2],
    c: &'a DistMatrix,
    phase: Phase,
    /// The shift groups: this rank's grid row, then its column.
    groups: [Vec<usize>; 2],
    /// The A and B blocks held.
    bufs: [Vec<f64>; 2],
    /// This rank's C tile, held from the skew to the last multiply.
    cw: Option<BlockWrite<'a>>,
}

impl<'a> CannonProgram<'a> {
    pub(crate) fn new(
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
    ) -> Self {
        CannonProgram {
            spec,
            ab: [a, b],
            c,
            phase: Phase::Start,
            groups: Default::default(),
            bufs: Default::default(),
            cw: None,
        }
    }

    /// This rank's part of shifting `side`; `false` while the receive
    /// waits. The skew moves row `i` of A left by `i` (a ring shift right
    /// by `q − i`) and column `j` of B up by `j`; each later shift moves A
    /// left one and B up one.
    fn shift<C: Comm>(&mut self, comm: &mut C, side: usize, after: Option<usize>) -> bool {
        let (spec, q) = (self.spec, self.c.grid().q);
        let (gi, gj) = self.c.grid().coords(comm.rank());
        let (by, tag, l) = match after {
            None => (q - [gi, gj][side] % q, 1000 + side, [gj, gi][side]),
            Some(step) => (q - 1, 2000 + 1000 * side + step, (gi + gj + step + 1) % q),
        };
        let elems = match side {
            0 => chunk_len(spec.m, q, gi) * chunk_len(spec.k, q, l),
            _ => chunk_len(spec.k, q, l) * chunk_len(spec.n, q, gj),
        };
        let (group, buf) = (&self.groups[side], &mut self.bufs[side]);
        ring_shift(comm, group, by, buf, (elems * 8) as u64, tag as u64)
    }

    /// Multiply the blocks held at `step`: after the skew and `step`
    /// shifts, A(i, l) and B(l, j) with l = (i + j + step) mod q.
    fn multiply<C: Comm>(&mut self, comm: &mut C, step: usize) {
        let grid = self.c.grid();
        let (gi, gj) = grid.coords(comm.rank());
        let ka = chunk_len(self.spec.k, grid.q, (gi + gj + step) % grid.q);
        let cw = self.cw.as_mut().expect("C is held while steps remain");
        let (crows, ccols) = (cw.rows(), cw.cols());
        let plain = |rows, cols, buf| Operand::Plain(MatRef::new(rows, cols, cols, buf), Op::N);
        let [a, b] = &self.bufs;
        let av = (!a.is_empty()).then(|| plain(crows, ka, a));
        let bv = (!b.is_empty()).then(|| plain(ka, ccols, b));
        let span = comm.task_begin();
        let label = match span {
            Some(_) => format!("cannon step {step}"),
            None => String::new(),
        };
        let (alpha, c) = (self.spec.alpha, cw.mat_mut());
        comm.gemm(crows, ccols, ka, alpha, av, bv, 1.0, c, false, &label);
        comm.recorder().count_task();
        comm.task_end(span, || label);
    }
}

impl RankProgram for CannonProgram<'_> {
    type Out = RankReport;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        let me = comm.rank();
        let grid = self.c.grid();
        loop {
            self.phase = match self.phase {
                Phase::Start => {
                    let ops = (self.spec.transa, self.spec.transb);
                    assert_eq!(
                        ops,
                        (Op::N, Op::N),
                        "the Cannon baseline supports C = A*B only"
                    );
                    assert_eq!(
                        grid.p, grid.q,
                        "Cannon's algorithm needs a square process grid"
                    );
                    let (gi, gj) = grid.coords(me);
                    self.groups = [grid.row_ranks(gi).collect(), grid.col_ranks(gj).collect()];
                    // Start from the locally owned blocks.
                    for (m, buf) in self.ab.iter().zip(&mut self.bufs) {
                        m.copy_block_into(me, buf);
                    }
                    Phase::Shift(0, None)
                }
                Phase::Shift(side, after) => {
                    if !self.shift(comm, side, after) {
                        return Step::Park;
                    }
                    match (side, after) {
                        (0, _) => Phase::Shift(1, after),
                        (_, Some(step)) => Phase::Multiply(step + 1),
                        (_, None) => {
                            if self.spec.beta != 1.0 {
                                self.c.scale_block(me, self.spec.beta);
                            }
                            self.cw = Some(self.c.write_block(me));
                            Phase::Multiply(0)
                        }
                    }
                }
                Phase::Multiply(step) => {
                    self.multiply(comm, step);
                    if step + 1 < grid.q {
                        Phase::Shift(0, Some(step))
                    } else {
                        self.cw = None;
                        Phase::Fence
                    }
                }
                Phase::Fence => {
                    return match comm.barrier_try() {
                        true => Step::Done(RankReport::default()),
                        false => Step::Park,
                    }
                }
            };
        }
    }
}
