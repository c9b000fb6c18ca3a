//! Order statistics over small sample vectors.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it. Unlike an
/// interpolated quantile it is always a value that was actually measured.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `p`-quantile.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, p)
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The distance between the first and the third quartile as a share of the
/// median — the run-to-run spread the benchmark contract gates on. Quartiles
/// as Python's `statistics.quantiles(samples, n=4)` gives them (the
/// "exclusive" method). 0 for fewer than two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let len = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `0, 1, …, n-1` shuffled deterministically, so sorting is exercised.
    fn ramp(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for i in (1..n).rev() {
            v.swap(i, (i * 7919) % (i + 1));
        }
        v
    }

    #[test]
    fn p95_of_768_samples_leaves_38_beyond() {
        let p95 = percentile(&mut ramp(768), 0.95);
        // ceil(0.95 * 768) = 730 -> the 730th smallest = value 729.
        assert_eq!(p95, 729.0);
        assert_eq!(768 - 730, 38);
    }

    #[test]
    fn p95_of_4096_samples() {
        let p95 = percentile(&mut ramp(4096), 0.95);
        // ceil(0.95 * 4096) = ceil(3891.2) = 3892 -> value 3891.
        assert_eq!(p95, 3891.0);
        assert_eq!(percentile(&mut ramp(4096), 0.50), 2047.0);
        assert_eq!(percentile(&mut ramp(4096), 1.0), 4095.0);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&mut [3.0], 0.95), 3.0);
        assert_eq!(percentile(&mut [2.0, 1.0], 0.0), 1.0);
        assert_eq!(percentile(&mut [2.0, 1.0], 0.5), 1.0);
        assert_eq!(percentile(&mut [2.0, 1.0], 0.51), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // = [3.5, 13.5, 31.0]; median 13.5.
        let samples = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert!((quartile_spread(&samples) - (31.0 - 3.5) / 13.5).abs() < 1e-12);
        // quantiles([10, 12], n=4) = [9.5, 11.0, 12.5].
        assert!((quartile_spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
