//! Order statistics over timing samples: the ledger reports medians and
//! one upper percentile, pooled over the rounds of a workload.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty slice so a missing
/// measurement can never pass for a number.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// All rounds' samples as one population. The pooled median is *not* the
/// median of per-round medians: a round with more samples weighs more,
/// which is what "samples pooled per workload" means.
pub fn pool(rounds: &[Vec<f64>]) -> Vec<f64> {
    rounds.iter().flatten().copied().collect()
}

/// `(max − min) ÷ median` of the per-round medians: how far a slow host
/// phase moved one round away from the others.
pub fn round_spread(rounds: &[Vec<f64>]) -> f64 {
    let meds: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    if meds.is_empty() {
        return f64::NAN;
    }
    let max = meds.iter().copied().fold(f64::MIN, f64::max);
    let min = meds.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(&meds)
}

/// Split one run's samples into `n` consecutive, near-equal rounds (a
/// single child has no round-robin; its thirds stand in for rounds).
pub fn consecutive_rounds(samples: &[f64], n: usize) -> Vec<Vec<f64>> {
    let n = n.clamp(1, samples.len().max(1));
    (0..n)
        .map(|i| samples[i * samples.len() / n..(i + 1) * samples.len() / n].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!((percentile(&[1.0, 2.0], 0.9) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn pooled_median_weighs_rounds_by_sample_count() {
        let rounds = vec![vec![1.0, 1.0, 1.0, 1.0, 1.0], vec![9.0], vec![10.0]];
        // Median of the per-round medians would be 9; the pooled
        // population is five 1s, a 9 and a 10.
        assert_eq!(median(&pool(&rounds)), 1.0);
        assert_eq!(pool(&rounds).len(), 7);
    }

    #[test]
    fn round_spread_is_range_over_median_of_round_medians() {
        let rounds = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![4.0, 4.0]];
        assert_eq!(round_spread(&rounds), 1.5);
        assert_eq!(round_spread(&[vec![5.0], vec![5.0]]), 0.0);
    }

    #[test]
    fn consecutive_rounds_partition_the_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        let r = consecutive_rounds(&v, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(pool(&r), v);
        assert_eq!(consecutive_rounds(&[1.0], 3), vec![vec![1.0]]);
    }
}
