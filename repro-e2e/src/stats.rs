//! Order statistics over measured samples.

/// The nearest-rank `p`-th percentile (0 < p ≤ 100): the smallest sample
/// with at least `p`% of the samples at or below it, i.e. the sample at
/// 1-based rank `ceil(p/100 · n)` of the sorted list. Always one of the
/// samples, never an interpolation. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(data, n=4)` — so spreads reported here
/// match a reader's own computation. A single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    match ld {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_a_sample() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // ceil(0.95 · 20) = 19th sample; ceil(0.5 · 20) = 10th.
        assert_eq!(percentile(&v, 95.0), Some(19.0));
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(20.0));
        // Tiny p still lands on the first sample, not rank 0.
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 95.0), Some(19.0));
        // ceil(0.95 · 600) = 570: 30 samples lie beyond p95 at n = 600.
        let big: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(percentile(&big, 95.0), Some(570.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond the extremes.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
    }
}
