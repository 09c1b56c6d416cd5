//! Order statistics over timing samples. (Percentiles come from
//! `bench::tails::FctOracle`.)

/// Median: the mean of the two middle samples for an even count (what
/// Python's `statistics.median` reports, which the driver uses).
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    let n = xs.len();
    let (below, mid, _) = xs.select_nth_unstable_by(n / 2, f64::total_cmp);
    let hi = *mid;
    if n % 2 == 1 {
        return hi;
    }
    let lo = below.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo + hi) / 2.0
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(xs, n=4)` (exclusive method) — the
/// spread the driver computes over runs, applied here to the passes of
/// one run. 0 below two samples.
pub fn iqr_over_median(xs: &mut [f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * frac
    };
    let (q1, q3) = (quartile(1), quartile(3));
    let mid = if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    };
    (q3 - q1) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, duplicate-rich samples without an RNG.
    fn samples(n: usize, salt: u64) -> Vec<f64> {
        (0..n as u64)
            .map(|i| ((i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 % 97.0)
            .collect()
    }

    #[test]
    fn median_matches_a_naive_sort() {
        for n in [1usize, 2, 3, 4, 7, 10, 100, 1001] {
            let xs = samples(n, n as u64);
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let naive = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            assert_eq!(median(&mut xs.clone()), naive, "n={n}");
        }
    }

    #[test]
    fn iqr_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&mut xs) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((iqr_over_median(&mut [3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&mut [5.0]), 0.0);
    }
}
