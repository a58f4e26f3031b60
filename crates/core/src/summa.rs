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

use crate::layout::{a_owner, a_seg_view, b_owner, b_seg_view};
use crate::options::GemmSpec;
use crate::taskorder::build_tasks;
use srumma_comm::mpi::{bcast, bcast_ring};
use srumma_comm::{Comm, DistMatrix};
use srumma_dense::{MatRef, Op, Operand};
use srumma_trace::TraceKind;

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

/// Run SUMMA: `C ← C + op(A)·op(B)`. Collective; all ranks must agree
/// on arguments.
pub(crate) fn summa<C: Comm>(
    comm: &mut C,
    spec: &GemmSpec,
    a: &DistMatrix,
    b: &DistMatrix,
    c: &DistMatrix,
    opts: &SummaOptions,
) {
    let me = comm.rank();
    let grid = c.grid();
    let (gi, gj) = grid.coords(me);
    let aparts = crate::layout::a_kparts(grid);
    let bparts = crate::layout::b_kparts(grid);

    // Merged segments, optionally re-split to the blocking factor.
    let mut segs = Vec::new();
    for t in build_tasks(spec.k, aparts, bparts) {
        match opts.panel_nb {
            None => segs.push(t),
            Some(nb) => {
                assert!(nb > 0, "panel_nb must be positive");
                let mut k0 = t.k0;
                while k0 < t.k1 {
                    let k1 = (k0 + nb).min(t.k1);
                    segs.push(crate::taskorder::Task {
                        k0,
                        k1,
                        la: t.la,
                        lb: t.lb,
                        k0_rel_a: t.k0_rel_a + (k0 - t.k0),
                        k0_rel_b: t.k0_rel_b + (k0 - t.k0),
                    });
                    k0 = k1;
                }
            }
        }
    }

    let my_row: Vec<usize> = grid.row_ranks(gi).collect();
    let my_col: Vec<usize> = grid.col_ranks(gj).collect();

    if spec.beta != 1.0 {
        c.scale_block(me, spec.beta);
    }
    let mut cw = c.write_block(me);
    let (crows, ccols) = (cw.rows(), cw.cols());
    let mut a_buf: Vec<f64> = Vec::new();
    let mut b_buf: Vec<f64> = Vec::new();

    for (step, t) in segs.iter().enumerate() {
        let seg = t.klen();
        let tag = 2 * step as u64;
        let traced = comm.recorder().is_enabled();
        let t_task = if traced { comm.now() } else { 0.0 };

        // --- broadcast the A strip along my grid row -----------------
        let a_own = a_owner(spec, grid, gi, t.la);
        let root_idx = my_row
            .iter()
            .position(|&r| r == a_own)
            .expect("A panel owner must sit in my grid row");
        let strip_elems = crows * seg;
        if a_own == me {
            // Extract my strip (a sub-view of my stored block).
            a_buf.clear();
            let blk = a.read_block(me);
            if let Some(v) = blk.mat() {
                let (sv, _) = a_seg_view(spec, v, t.rel_a(), seg);
                for i in 0..sv.rows() {
                    for j in 0..sv.cols() {
                        a_buf.push(sv.at(i, j));
                    }
                }
            }
        }
        let do_bcast =
            |comm: &mut C, group: &[usize], root: usize, buf: &mut Vec<f64>, bytes, tag| match opts
                .bcast
            {
                BcastKind::Tree => bcast(comm, group, root, buf, bytes, tag),
                BcastKind::Ring => bcast_ring(comm, group, root, buf, bytes, tag),
            };
        do_bcast(
            comm,
            &my_row,
            root_idx,
            &mut a_buf,
            (strip_elems * 8) as u64,
            tag,
        );

        // --- broadcast the B strip along my grid column --------------
        let b_own = b_owner(spec, grid, t.lb, gj);
        let root_idx = my_col
            .iter()
            .position(|&r| r == b_own)
            .expect("B panel owner must sit in my grid column");
        let strip_elems_b = seg * ccols;
        if b_own == me {
            b_buf.clear();
            let blk = b.read_block(me);
            if let Some(v) = blk.mat() {
                let (sv, op) = b_seg_view(spec, v, t.rel_b(), seg);
                // Normalize to (seg × ccols) row-major regardless of op.
                match op {
                    Op::N => {
                        for i in 0..sv.rows() {
                            for j in 0..sv.cols() {
                                b_buf.push(sv.at(i, j));
                            }
                        }
                    }
                    Op::T => {
                        for i in 0..sv.cols() {
                            for j in 0..sv.rows() {
                                b_buf.push(sv.at(j, i));
                            }
                        }
                    }
                }
            }
        }
        do_bcast(
            comm,
            &my_col,
            root_idx,
            &mut b_buf,
            (strip_elems_b * 8) as u64,
            tag + 1,
        );

        // --- local update --------------------------------------------
        // The A strip is in *stored* orientation (op applied at the
        // kernel); the B strip was normalized to (seg × ccols).
        let av = (!a_buf.is_empty()).then(|| {
            let (rows, cols) = spec.transa.apply(crows, seg);
            Operand::Plain(MatRef::new(rows, cols, cols, &a_buf), spec.transa)
        });
        let bv = (!b_buf.is_empty())
            .then(|| Operand::Plain(MatRef::new(seg, ccols, ccols, &b_buf), Op::N));
        let label = if traced {
            format!("summa step {step}")
        } else {
            String::new()
        };
        comm.gemm(
            crows,
            ccols,
            seg,
            spec.alpha,
            av,
            bv,
            1.0,
            cw.mat_mut(),
            false,
            &label,
        );
        comm.recorder().count_task();
        if traced {
            let t1 = comm.now();
            comm.recorder().span(TraceKind::Task, t_task, t1, 0, || {
                format!("summa step {step}")
            });
        }
    }

    drop(cw);
    comm.barrier();
}
