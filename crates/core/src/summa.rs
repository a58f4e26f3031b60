//! SUMMA — the message-passing baseline (the algorithm inside
//! ScaLAPACK/PBLAS `pdgemm`, per the paper: "SUMMA is used in practice
//! in pdgemm routine in PBLAS").
//!
//! For each k-panel: the ranks owning that panel of A broadcast it
//! along their grid **rows**, the owners of the B panel broadcast along
//! grid **columns**, then every rank runs the serial kernel on its
//! received panels. All communication is two-sided MPI-style
//! (binomial-tree broadcasts over send/recv), so under the simulator it
//! inherits MPI's latency, rendezvous stalls and synchronization — the
//! very costs SRUMMA avoids.
//!
//! `panel_nb` optionally splits panels into narrower column strips, the
//! ScaLAPACK blocking factor the paper tuned "empirically for all
//! matrix sizes and processor counts".
//!
//! A rank's share is one `SummaProgram`: each broadcast is a receive
//! that may park, then its sends ([`srumma_comm::mpi`]), so the
//! simulator steps every rank on one thread and the blocking backends
//! [`drive`](srumma_comm::drive) the same value.

use crate::layout::{a_owner, a_seg_view, b_owner, b_seg_view};
use crate::options::GemmSpec;
use crate::run::RankReport;
use crate::taskorder::{build_tasks, Task};
use srumma_comm::dist::BlockWrite;
use srumma_comm::mpi::{bcast, bcast_ring};
use srumma_comm::{Comm, DistMatrix, RankProgram, Step, TaskSpan};
use srumma_dense::{MatRef, Op, Operand};

/// Broadcast schedule for the panel distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BcastKind {
    /// Binomial tree (log-depth; what MPI_Bcast typically does).
    #[default]
    Tree,
    /// Ring pass-along: worse single-bcast latency but consecutive
    /// steps pipeline around the ring — the DIMMA schedule.
    Ring,
}

/// SUMMA options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaOptions {
    /// Split merged k-panels into strips of at most this width (None:
    /// use the natural block panels).
    pub panel_nb: Option<usize>,
    /// Broadcast schedule.
    pub bcast: BcastKind,
}

/// Where a `SummaProgram` resumes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    /// Broadcasting the current segment's strip of A (side 0) along the
    /// grid row, then of B (side 1) along the grid column.
    Bcast(usize),
    /// Every segment multiplied: the closing fence.
    Fence,
}

/// One rank of SUMMA, `C ← β·C + α·op(A)·op(B)`, as a [`RankProgram`]:
/// per k-segment, the A strip's broadcast along the grid row, the B
/// strip's along the grid column, then the local update; a closing
/// fence makes C visible. It parks in a broadcast's receive and in the
/// fence. All ranks run it collectively with the same arguments.
pub(crate) struct SummaProgram<'a> {
    spec: &'a GemmSpec,
    ab: [&'a DistMatrix; 2],
    c: &'a DistMatrix,
    opts: SummaOptions,
    phase: Phase,
    /// Merged k-segments, re-split to the blocking factor.
    segs: Vec<Task>,
    /// The segment in flight.
    next: usize,
    /// The broadcast groups: this rank's grid row, then its column.
    groups: [Vec<usize>; 2],
    /// The strips: A's in stored orientation (op applied at the
    /// kernel), B's normalised to `seg × ccols` row-major.
    strips: [Vec<f64>; 2],
    /// This rank's C tile, held from the first step to the last update.
    cw: Option<BlockWrite<'a>>,
    /// The traced span of the segment in flight.
    span: Option<TaskSpan>,
}

impl<'a> SummaProgram<'a> {
    pub(crate) fn new(
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
        opts: &SummaOptions,
    ) -> Self {
        SummaProgram {
            spec,
            ab: [a, b],
            c,
            opts: *opts,
            phase: Phase::Start,
            segs: Vec::new(),
            next: 0,
            groups: Default::default(),
            strips: Default::default(),
            cw: None,
            span: None,
        }
    }

    /// Build the segment list and the broadcast groups, apply `β` and
    /// take the C tile.
    fn start(&mut self, me: usize) {
        let grid = self.c.grid();
        let (gi, gj) = grid.coords(me);
        let (aparts, bparts) = (crate::layout::a_kparts(grid), crate::layout::b_kparts(grid));
        for t in build_tasks(self.spec.k, aparts, bparts) {
            let Some(nb) = self.opts.panel_nb else {
                self.segs.push(t);
                continue;
            };
            for k0 in (t.k0..t.k1).step_by(nb) {
                self.segs.push(Task {
                    k0,
                    k1: (k0 + nb).min(t.k1),
                    k0_rel_a: t.k0_rel_a + (k0 - t.k0),
                    k0_rel_b: t.k0_rel_b + (k0 - t.k0),
                    ..t
                });
            }
        }
        self.groups = [grid.row_ranks(gi).collect(), grid.col_ranks(gj).collect()];
        if self.spec.beta != 1.0 {
            self.c.scale_block(me, self.spec.beta);
        }
        self.cw = Some(self.c.write_block(me));
    }

    /// Open the next segment, or, past the last, release C for the
    /// fence.
    fn open_segment<C: Comm>(&mut self, comm: &mut C) {
        if self.next == self.segs.len() {
            self.cw = None;
            self.phase = Phase::Fence;
        } else {
            self.span = comm.task_begin();
            self.phase = Phase::Bcast(0);
        }
    }

    /// This rank's part of the current segment's broadcast of `side`,
    /// whose owner first copies its strip out of its stored block;
    /// `false` while the receive waits.
    fn bcast<C: Comm>(&mut self, comm: &mut C, side: usize) -> bool {
        let (t, spec, grid, me) = (self.segs[self.next], self.spec, self.c.grid(), comm.rank());
        let ((gi, gj), seg) = (grid.coords(me), t.klen());
        let cw = self.cw.as_ref().expect("C is held while segments remain");
        let (owner, elems) = match side {
            0 => (a_owner(spec, grid, gi, t.la), cw.rows() * seg),
            _ => (b_owner(spec, grid, t.lb, gj), seg * cw.cols()),
        };
        let strip = &mut self.strips[side];
        if owner == me {
            strip.clear();
            let blk = self.ab[side].read_block(me);
            if let Some(v) = blk.mat() {
                let (sv, transpose) = match side {
                    0 => (a_seg_view(spec, v, t.rel_a(), seg).0, false),
                    _ => {
                        let (sv, op) = b_seg_view(spec, v, t.rel_b(), seg);
                        (sv, op == Op::T)
                    }
                };
                let at = |i, j| if transpose { sv.at(j, i) } else { sv.at(i, j) };
                let (rows, cols) = if transpose {
                    (sv.cols(), sv.rows())
                } else {
                    (sv.rows(), sv.cols())
                };
                for i in 0..rows {
                    strip.extend((0..cols).map(|j| at(i, j)));
                }
            }
        }
        let group = &self.groups[side];
        let root = group
            .iter()
            .position(|&r| r == owner)
            .expect("a panel's owner sits in the grid row or column it feeds");
        let (bytes, tag) = ((elems * 8) as u64, (2 * self.next + side) as u64);
        match self.opts.bcast {
            BcastKind::Tree => bcast(comm, group, root, strip, bytes, tag),
            BcastKind::Ring => bcast_ring(comm, group, root, strip, bytes, tag),
        }
    }

    /// The local update of the current segment.
    fn multiply<C: Comm>(&mut self, comm: &mut C) {
        let (step, seg, spec) = (self.next, self.segs[self.next].klen(), self.spec);
        let cw = self.cw.as_mut().expect("C is held while segments remain");
        let (crows, ccols) = (cw.rows(), cw.cols());
        let [a, b] = &self.strips;
        let av = (!a.is_empty()).then(|| {
            let (rows, cols) = spec.transa.apply(crows, seg);
            Operand::Plain(MatRef::new(rows, cols, cols, a), spec.transa)
        });
        let bv = (!b.is_empty()).then(|| Operand::Plain(MatRef::new(seg, ccols, ccols, b), Op::N));
        let label = match self.span {
            Some(_) => format!("summa step {step}"),
            None => String::new(),
        };
        let c = cw.mat_mut();
        comm.gemm(crows, ccols, seg, spec.alpha, av, bv, 1.0, c, false, &label);
        comm.recorder().count_task();
        comm.task_end(self.span.take(), || label);
    }
}

impl RankProgram for SummaProgram<'_> {
    type Out = RankReport;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        loop {
            match self.phase {
                Phase::Start => {
                    self.start(comm.rank());
                    self.open_segment(comm);
                }
                Phase::Bcast(side) => {
                    if !self.bcast(comm, side) {
                        return Step::Park;
                    }
                    if side == 0 {
                        self.phase = Phase::Bcast(1);
                    } else {
                        self.multiply(comm);
                        self.next += 1;
                        self.open_segment(comm);
                    }
                }
                Phase::Fence => {
                    return match comm.barrier_try() {
                        true => Step::Done(RankReport::default()),
                        false => Step::Park,
                    }
                }
            }
        }
    }
}
