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

use crate::options::GemmSpec;
use srumma_comm::dist::chunk_len;
use srumma_comm::mpi::ring_shift;
use srumma_comm::{Comm, DistMatrix};
use srumma_dense::{MatRef, Op, Operand};
use srumma_trace::TraceKind;

/// Run Cannon's algorithm: `C ← C + A·B`. Collective.
///
/// # Panics
/// Panics if the grid is not square or the spec carries transposes.
pub(crate) fn cannon<C: Comm>(
    comm: &mut C,
    spec: &GemmSpec,
    a: &DistMatrix,
    b: &DistMatrix,
    c: &DistMatrix,
) {
    assert_eq!(
        (spec.transa, spec.transb),
        (Op::N, Op::N),
        "the Cannon baseline supports C = A*B only"
    );
    let grid = c.grid();
    let q = grid.q;
    assert_eq!(grid.p, q, "Cannon's algorithm needs a square process grid");

    let me = comm.rank();
    let (gi, gj) = grid.coords(me);
    let my_row: Vec<usize> = grid.row_ranks(gi).collect();
    let my_col: Vec<usize> = grid.col_ranks(gj).collect();

    // Start from the locally owned blocks.
    let mut a_buf = Vec::new();
    let mut b_buf = Vec::new();
    a.copy_block_into(me, &mut a_buf);
    b.copy_block_into(me, &mut b_buf);

    let block_bytes_a =
        |col: usize| (chunk_len(spec.m, q, gi) * chunk_len(spec.k, q, col) * 8) as u64;
    let block_bytes_b =
        |row: usize| (chunk_len(spec.k, q, row) * chunk_len(spec.n, q, gj) * 8) as u64;

    // Initial skew: A row i left by i ⇒ ring-shift right by (q - i);
    // B column j up by j ⇒ ring-shift down by (q - j).
    if gi % q != 0 {
        ring_shift(
            comm,
            &my_row,
            q - (gi % q),
            &mut a_buf,
            block_bytes_a(gj),
            1000,
        );
    }
    if gj % q != 0 {
        ring_shift(
            comm,
            &my_col,
            q - (gj % q),
            &mut b_buf,
            block_bytes_b(gi),
            1001,
        );
    }

    if spec.beta != 1.0 {
        c.scale_block(me, spec.beta);
    }
    let mut cw = c.write_block(me);
    let (crows, ccols) = (cw.rows(), cw.cols());

    for step in 0..q {
        // After the skew and `step` shifts, we hold A(i, l) and B(l, j)
        // with l = (i + j + step) mod q.
        let l = (gi + gj + step) % q;
        let ka = chunk_len(spec.k, q, l);
        let plain = |rows, cols, buf| Operand::Plain(MatRef::new(rows, cols, cols, buf), Op::N);
        let av = (!a_buf.is_empty()).then(|| plain(crows, ka, &a_buf));
        let bv = (!b_buf.is_empty()).then(|| plain(ka, ccols, &b_buf));
        let traced = comm.recorder().is_enabled();
        let t_task = if traced { comm.now() } else { 0.0 };
        let label = if traced {
            format!("cannon step {step}")
        } else {
            String::new()
        };
        comm.gemm(
            crows,
            ccols,
            ka,
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
                format!("cannon step {step}")
            });
        }

        if step + 1 < q {
            // Shift A left one (receive the block one to the right) and
            // B up one (receive the block one below).
            let next_l = (gi + gj + step + 1) % q;
            ring_shift(
                comm,
                &my_row,
                q - 1,
                &mut a_buf,
                block_bytes_a(next_l),
                2000 + step as u64,
            );
            ring_shift(
                comm,
                &my_col,
                q - 1,
                &mut b_buf,
                block_bytes_b(next_l),
                3000 + step as u64,
            );
        }
    }

    drop(cw);
    comm.barrier();
}
