//! Order statistics over timing samples.

/// Sort a copy of the samples ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of ascending samples (mean of the middle two for an even count).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    median_sorted(&sorted(samples))
}

/// NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    assert!(n > 0 && (1..=100).contains(&p));
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile of ascending samples; `p = 100` is the maximum.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many samples lie beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - nearest_rank(n, p)
}

/// The highest of p99, p90 and p75 that has at least ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99, 90, 75]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the benchmark's bounds are compared with.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_built_samples() {
        let v = ramp(10);
        assert_eq!(percentile_sorted(&v, 50), 5.0);
        assert_eq!(percentile_sorted(&v, 75), 8.0);
        assert_eq!(percentile_sorted(&v, 90), 9.0);
        assert_eq!(percentile_sorted(&v, 99), 10.0);
        assert_eq!(percentile_sorted(&v, 100), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 99), 7.0);
        let v = ramp(200);
        assert_eq!(percentile_sorted(&v, 99), 198.0);
        assert_eq!(percentile_sorted(&v, 1), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(39), None);
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(99), Some(75));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(999), Some(90));
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(samples_beyond(1000, 99), 10);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert_eq!((q1, q3), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        assert_eq!(quartile_spread(&ramp(10)), 5.5 / 5.5);
    }
}
