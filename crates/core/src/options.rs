//! Operation descriptors and algorithm options.
//!
//! What a run reads is the [`SrummaOptions`] it was handed and the
//! process's serial kernel — `SRUMMA_KERNEL`, else CPU detection, over
//! the constant `MC`/`KC`/`NC` of `srumma_dense::blocked` — and nothing
//! on disk: the kernel is a property of the machine, as the vendor
//! `dgemm` the paper links is, never of one multiply.

use srumma_dense::Op;

/// One parallel matrix-multiplication problem:
/// `C ← α·op(A)·op(B) + β·C` with `op(A)` of shape `m × k` and `op(B)`
/// of shape `k × n` (all four paper variants: `C=AB`, `C=AᵀB`, `C=ABᵀ`,
/// `C=AᵀBᵀ`, square or rectangular, with full PBLAS-style scalars).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmSpec {
    /// Which paper case A is in (`T`: `C = Aᵀ…`). A run is handed
    /// `op(A)` itself, `m × k`, and a distributed A is that matrix in
    /// every case ([`crate::layout::dist_a`]), so no rank reads this: it
    /// labels the case ([`GemmSpec::case_label`]).
    pub transa: Op,
    /// Which paper case B is in; the run is handed `op(B)` (`k × n`).
    /// See `transa`.
    pub transb: Op,
    /// Rows of `op(A)` and of C.
    pub m: usize,
    /// Columns of `op(B)` and of C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Scale on the product (PBLAS `alpha`).
    pub alpha: f64,
    /// Scale on the existing C (PBLAS `beta`).
    pub beta: f64,
}

impl GemmSpec {
    /// Square, untransposed `C ← C + A·B` of order `n` — the Figure 10
    /// case (`α = β = 1`).
    pub fn square(n: usize) -> Self {
        GemmSpec {
            transa: Op::N,
            transb: Op::N,
            m: n,
            n,
            k: n,
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// General constructor (`α = β = 1`).
    pub fn new(transa: Op, transb: Op, m: usize, n: usize, k: usize) -> Self {
        GemmSpec {
            transa,
            transb,
            m,
            n,
            k,
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// Set the PBLAS scalars.
    pub fn with_scalars(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    /// Total floating-point operations (multiply + add).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// The paper's case label, e.g. `C=AᵀB`.
    pub fn case_label(&self) -> String {
        let t = |o: Op| if o == Op::T { "ᵀ" } else { "" };
        format!("C=A{}B{}", t(self.transa), t(self.transb))
    }
}

/// How SRUMMA treats operand blocks living in its shared-memory domain
/// (the two "flavors" of §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShmemFlavor {
    /// Direct access when the machine caches remote shared memory
    /// (SGI Altix), copy otherwise (Cray X1) — what the production
    /// implementation does.
    Auto,
    /// Always copy in-domain blocks to a local buffer first (the Cray
    /// X1 flavor, or the "copy" side of Figure 5).
    ForceCopy,
    /// Always pass in-domain blocks directly to the kernel (the
    /// "direct access" side of Figure 5 — deliberately bad on the X1).
    ForceDirect,
}

/// How many replica teams a replicated multiply splits the machine
/// into (see [`crate::repl`]): each of the `c` teams sweeps a disjoint
/// `k`-slice over its own copy of the operand distribution, trading
/// `c`-fold C scratch memory for a `c`-fold narrower communication
/// sweep per team.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationFactor {
    /// No replication — the flat algorithm.
    One,
    /// Exactly `c` teams. An inadmissible `c` (it must divide the rank
    /// count, respect node boundaries, and not exceed `k`) is
    /// [`crate::run::RunError::Replication`].
    Fixed(usize),
    /// The largest admissible `c` whose per-rank replicated footprint
    /// (see `memory::replicated_arena_footprint`) fits the
    /// byte budget. Always admits `c = 1`, so `Auto` never fails.
    Auto {
        /// Per-rank byte budget the replicas must fit in.
        budget_bytes: u64,
    },
}

/// SRUMMA scheduling options; the defaults are the paper's algorithm,
/// the `false` settings are the ablation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrummaOptions {
    /// Move tasks whose blocks are in this rank's shared-memory domain
    /// to the front of the task list (§3.1 step 2).
    pub smp_first: bool,
    /// Stagger the remote fetch order so same-node processes pull from
    /// different nodes at each step (§3.1 "diagonal shift", Figure 4).
    pub diagonal_shift: bool,
    /// How many tasks ahead to prefetch with nonblocking gets while the
    /// current task computes (§3.1 step 4, the B1/B2 pipeline of
    /// Figure 3). `0` forces blocking gets (the ablation), `1` is the
    /// paper's two-buffer scheme, and larger values use `depth + 1`
    /// buffers per operand (an extension, ablated in `reproduce
    /// ablation_buffers`).
    pub prefetch_depth: usize,
    /// Shared-memory flavor (§3.2).
    pub shmem: ShmemFlavor,
}

impl Default for SrummaOptions {
    fn default() -> Self {
        SrummaOptions {
            smp_first: true,
            diagonal_shift: true,
            prefetch_depth: 1,
            shmem: ShmemFlavor::Auto,
        }
    }
}

impl SrummaOptions {
    /// The ablation baseline: no reordering, no prefetch, copy always.
    pub fn naive() -> Self {
        SrummaOptions {
            smp_first: false,
            diagonal_shift: false,
            prefetch_depth: 0,
            shmem: ShmemFlavor::ForceCopy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_spec() {
        let s = GemmSpec::square(100);
        assert_eq!((s.m, s.n, s.k), (100, 100, 100));
        assert_eq!(s.flops(), 2e6);
        assert_eq!(s.case_label(), "C=AB");
    }

    #[test]
    fn case_labels() {
        assert_eq!(GemmSpec::new(Op::T, Op::N, 1, 1, 1).case_label(), "C=AᵀB");
        assert_eq!(GemmSpec::new(Op::T, Op::T, 1, 1, 1).case_label(), "C=AᵀBᵀ");
    }

    #[test]
    fn default_options_enable_everything() {
        let o = SrummaOptions::default();
        assert!(o.smp_first && o.diagonal_shift && o.prefetch_depth == 1);
        assert_eq!(o.shmem, ShmemFlavor::Auto);
        let n = SrummaOptions::naive();
        assert!(!n.smp_first && !n.diagonal_shift && n.prefetch_depth == 0);
    }
}
