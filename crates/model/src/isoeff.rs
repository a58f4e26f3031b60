//! The paper's §2.1 efficiency model, as executable formulas.
//!
//! Equation (1): `T_par = N³/P + 2·(N²/√P)·t_w + 2·t_s·√P` (unit-cost
//! flops, square operands, `p = q = √P`). Parallel efficiency
//! `η ≈ 1 / (1 + 2√P·t_w/N)`, isoefficiency `O(P^{3/2})` — "the same
//! as Cannon's algorithm". Equation (3) introduces the overlap degree
//! `ω`: with full overlap the communication term vanishes and
//! `T_par = N³/P + 2·t_s·√P`.
//!
//! These are used by the `eq_model_check` harness to validate the
//! simulator against the analysis, and by capacity-planning code to
//! answer "what N keeps efficiency at η when P grows?".

use crate::machine::Machine;

/// The model's primitive parameters (the paper's `t_w`, `t_s`, and the
/// flop time the paper normalizes to 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EqModel {
    /// Data transfer time per *element* (s) — `t_w`.
    pub(crate) tw: f64,
    /// Startup cost per block transfer (s) — `t_s`.
    pub(crate) ts: f64,
    /// Time per multiply-add *pair* (s) — the paper's unit cost
    /// ("the cost of the addition and multiplication floating point
    /// operation takes unit time"), so `T_seq = N³·tc`. For real
    /// predictions use `2 / (peak · eff)`.
    pub(crate) tc: f64,
}

impl EqModel {
    /// Extract the model parameters from a machine profile for its RMA
    /// path (a get pays the latency twice) and an `n × n` per-rank
    /// block efficiency.
    pub fn from_machine(m: &Machine, block: usize) -> Self {
        EqModel {
            tw: 8.0 / m.net.rma_bandwidth,
            ts: 2.0 * m.net.rma_latency,
            tc: 2.0 / (m.cpu.peak_flops * m.cpu.eff.eff(block, block, block)),
        }
    }

    /// Equation (1): predicted parallel time without overlap.
    pub(crate) fn t_par(&self, n: usize, p: usize) -> f64 {
        let nf = n as f64;
        let sq = (p as f64).sqrt();
        nf.powi(3) / p as f64 * self.tc + 2.0 * nf * nf / sq * self.tw + 2.0 * self.ts * sq
    }

    /// Equation (3) with overlap degree `ω ∈ [0, 1]` (0 = fully
    /// hidden): the communication term shrinks to `ω` of itself.
    #[cfg(test)]
    fn t_par_overlapped(&self, n: usize, p: usize, omega: f64) -> f64 {
        let nf = n as f64;
        let sq = (p as f64).sqrt();
        nf.powi(3) / p as f64 * self.tc
            + omega.clamp(0.0, 1.0) * 2.0 * nf * nf / sq * self.tw
            + 2.0 * self.ts * sq
    }

    /// Parallel efficiency `η = T_seq / (P · T_par)`.
    pub fn efficiency(&self, n: usize, p: usize) -> f64 {
        let t_seq = (n as f64).powi(3) * self.tc;
        t_seq / (p as f64 * self.t_par(n, p))
    }

    /// The paper's closed form `η ≈ 1 / (1 + 2·√P·t_w/(N·t_c))`
    /// (neglecting `t_s`).
    #[cfg(test)]
    fn efficiency_closed_form(&self, n: usize, p: usize) -> f64 {
        1.0 / (1.0 + 2.0 * (p as f64).sqrt() * self.tw / (n as f64 * self.tc))
    }

    /// Smallest `N` (by bisection) keeping efficiency ≥ `eta` at `p`
    /// ranks. Returns `None` if even N = 10⁷ cannot reach it.
    #[cfg(test)]
    fn iso_n(&self, p: usize, eta: f64) -> Option<usize> {
        let (mut lo, mut hi) = (1usize, 10_000_000usize);
        if self.efficiency(hi, p) < eta {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.efficiency(mid, p) >= eta {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// The isoefficiency *work* `W(P) = N(P)³` for fixed `eta`. The
    /// paper proves `W = O(P^{3/2})`.
    #[cfg(test)]
    fn iso_work(&self, p: usize, eta: f64) -> Option<f64> {
        self.iso_n(p, eta).map(|n| (n as f64).powi(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn unit_model() -> EqModel {
        // The paper's normalization: unit flop cost.
        EqModel {
            tw: 10.0,
            ts: 100.0,
            tc: 1.0,
        }
    }

    #[test]
    fn t_par_reduces_to_serial_at_p1() {
        let m = unit_model();
        let n = 100;
        let serial = (n as f64).powi(3);
        let par = m.t_par(n, 1);
        // At P = 1 only the (2 t_w N² + 2 t_s) residue remains on top.
        assert!(par >= serial);
        assert!(par - serial < 2.0 * (n as f64 * n as f64) * m.tw + 2.0 * m.ts + 1.0);
    }

    #[test]
    fn efficiency_decreases_with_p_increases_with_n() {
        let m = unit_model();
        assert!(m.efficiency(1000, 4) > m.efficiency(1000, 64));
        assert!(m.efficiency(4000, 64) > m.efficiency(1000, 64));
        for (n, p) in [(100, 4), (1000, 64), (10000, 256)] {
            let e = m.efficiency(n, p);
            assert!(e > 0.0 && e <= 1.0, "eta({n},{p}) = {e}");
        }
    }

    #[test]
    fn closed_form_matches_full_formula_when_ts_negligible() {
        let m = EqModel {
            tw: 10.0,
            ts: 0.0,
            tc: 1.0,
        };
        for (n, p) in [(512, 16), (2048, 64), (8192, 256)] {
            let full = m.efficiency(n, p);
            let closed = m.efficiency_closed_form(n, p);
            assert!(
                (full - closed).abs() < 0.02,
                "n={n} p={p}: {full} vs {closed}"
            );
        }
    }

    #[test]
    fn full_overlap_removes_the_bandwidth_term() {
        let m = unit_model();
        let hidden = m.t_par_overlapped(1000, 16, 0.0);
        let exposed = m.t_par(1000, 16);
        let comm = 2.0 * 1000.0 * 1000.0 / 4.0 * m.tw;
        assert!((exposed - hidden - comm).abs() < 1e-6);
    }

    #[test]
    fn isoefficiency_scales_as_p_to_three_halves() {
        // W(P) = N(P)³ must grow ≈ P^{3/2}: check the growth exponent
        // between P and 4P is close to 1.5 (N doubles ⇒ W × 8 = 4^{1.5}).
        let m = EqModel {
            tw: 10.0,
            ts: 0.0,
            tc: 1.0,
        };
        let eta = 0.5;
        let w1 = m.iso_work(16, eta).unwrap();
        let w2 = m.iso_work(64, eta).unwrap();
        let exponent = (w2 / w1).log2() / (64f64 / 16f64).log2();
        assert!(
            (exponent - 1.5).abs() < 0.05,
            "isoefficiency exponent {exponent}, expected 1.5"
        );
    }

    #[test]
    fn iso_n_is_monotone_in_eta_and_p() {
        let m = unit_model();
        let n_easy = m.iso_n(16, 0.3).unwrap();
        let n_hard = m.iso_n(16, 0.8).unwrap();
        assert!(n_hard > n_easy);
        let n_bigp = m.iso_n(256, 0.3).unwrap();
        assert!(n_bigp > n_easy);
    }

    #[test]
    fn machine_extraction_is_sane() {
        let m = EqModel::from_machine(&Machine::linux_myrinet(), 512);
        assert!(m.tw > 0.0 && m.ts > 0.0 && m.tc > 0.0);
        // Flop time must be far below the per-element transfer time on
        // a 2004 cluster.
        assert!(m.tc < m.tw);
    }
}
