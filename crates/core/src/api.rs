//! The top-level algorithm selector.

use crate::cannon::CannonProgram;
use crate::options::{GemmSpec, SrummaOptions};
use crate::repl::ReplProgram;
use crate::run::RankReport;
use crate::srumma::{MachineScratch, SrummaProgram};
use crate::summa::{SummaOptions, SummaProgram};
use srumma_comm::{Comm, DistMatrix, RankProgram, Step};

/// Which parallel matrix-multiplication algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// The paper's algorithm.
    Srumma(SrummaOptions),
    /// SUMMA — the ScaLAPACK/PBLAS `pdgemm` stand-in.
    Summa(SummaOptions),
    /// Cannon's algorithm (square grids, `C = A·B`).
    Cannon,
}

impl Algorithm {
    /// SRUMMA with default (paper) options.
    pub fn srumma_default() -> Self {
        Algorithm::Srumma(SrummaOptions::default())
    }

    /// SUMMA with the natural panel width.
    pub fn summa_default() -> Self {
        Algorithm::Summa(SummaOptions::default())
    }

    /// Display name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Srumma(_) => "SRUMMA",
            Algorithm::Summa(_) => "pdgemm (SUMMA)",
            Algorithm::Cannon => "Cannon",
        }
    }
}

/// One rank of a multiply as a [`RankProgram`], whose output is the
/// rank's [`RankReport`]: polled on the executor's workers
/// ([`srumma_comm::ProgramTask`]), stepped on the simulator's one thread
/// ([`srumma_comm::sim_run_programs`]), or driven where receives and
/// fences block (`drive(comm, GemmProgram::new(..)).srumma` is the
/// SRUMMA report). All ranks run it collectively.
pub struct GemmProgram<'a>(pub(crate) Body<'a>);

/// The schedule a [`GemmProgram`] runs.
pub(crate) enum Body<'a> {
    /// Flat or staged.
    Srumma(SrummaProgram<'a>),
    Summa(SummaProgram<'a>),
    Cannon(CannonProgram<'a>),
    Replicated(ReplProgram<'a>),
}

impl<'a> GemmProgram<'a> {
    /// `alg`, flat, over matrices laid out by [`crate::layout`].
    pub fn new(
        alg: &Algorithm,
        spec: &'a GemmSpec,
        a: &'a DistMatrix,
        b: &'a DistMatrix,
        c: &'a DistMatrix,
    ) -> Self {
        GemmProgram(match alg {
            Algorithm::Srumma(opts) => Body::Srumma(SrummaProgram::new(spec, a, b, c, opts, None)),
            Algorithm::Summa(opts) => Body::Summa(SummaProgram::new(spec, a, b, c, opts)),
            Algorithm::Cannon => Body::Cannon(CannonProgram::new(spec, a, b, c)),
        })
    }

    /// Swap `scratch` with the SRUMMA sweep's machine allocations:
    /// before the run, lend it a previous rank's (`Some`); after, take
    /// back what it left. SUMMA and Cannon hold none.
    pub(crate) fn swap_scratch(&mut self, scratch: &mut Option<MachineScratch>) {
        let sweep = match &mut self.0 {
            Body::Srumma(p) => p,
            Body::Replicated(p) => &mut p.team_sweep,
            Body::Summa(_) | Body::Cannon(_) => return,
        };
        std::mem::swap(&mut sweep.scratch, scratch);
    }
}

impl RankProgram for GemmProgram<'_> {
    type Out = RankReport;

    fn step<C: Comm>(&mut self, comm: &mut C) -> Step<RankReport> {
        match &mut self.0 {
            Body::Srumma(p) => p.step(comm),
            Body::Summa(p) => p.step(comm),
            Body::Cannon(p) => p.step(comm),
            Body::Replicated(p) => p.step(comm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::srumma_default().name(), "SRUMMA");
        assert_eq!(Algorithm::summa_default().name(), "pdgemm (SUMMA)");
        assert_eq!(Algorithm::Cannon.name(), "Cannon");
    }
}
