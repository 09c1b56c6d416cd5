//! Statistics used by the evaluation harness: empirical CDFs and
//! percentiles (Fig. 10, §5.4 latency breakdowns).

/// Index of the nearest-rank `permille`-th permille (`p50` = 500,
/// `p999` = 999) among `n ≥ 1` sorted samples: the smallest index whose
/// rank covers at least `permille`/1000 of the mass. Integer arithmetic,
/// so no rank moves by a rounding error. Panics past 1000.
pub fn nearest_rank(n: usize, permille: u32) -> usize {
    assert!(permille <= 1000, "permille {permille} out of range");
    let rank = (u64::from(permille) * n as u64).div_ceil(1000) as usize;
    rank.max(1).min(n) - 1
}

/// Collects samples and answers percentile / CDF queries.
///
/// Samples are kept unsorted and sorted lazily on query, so insertion is
/// O(1) and bulk querying after a run is cheap.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// New, empty collector.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Add one sample. Non-finite samples are rejected with a panic — they
    /// indicate an upstream arithmetic bug, never valid data.
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// The `permille`-th permille (`p50` = 500, `p999` = 999) by
    /// [`nearest_rank`]. Returns `None` when empty.
    pub fn percentile(&mut self, permille: u32) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.samples[nearest_rank(self.samples.len(), permille)])
    }

    /// Minimum sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Maximum sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Empirical CDF value at `x`: fraction of samples `<= x`.
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The full CDF as `(value, cumulative fraction)` steps, suitable for
    /// plotting. Duplicate values are merged into a single step.
    pub fn steps(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &v) in self.samples.iter().enumerate() {
            let frac = (i + 1) as f64 / n as f64;
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 = frac,
                _ => out.push((v, frac)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut c = Cdf::new();
        for i in 1..=100 {
            c.add(i as f64);
        }
        assert_eq!(c.percentile(500), Some(50.0));
        assert_eq!(c.percentile(900), Some(90.0));
        assert_eq!(c.percentile(990), Some(99.0));
        assert_eq!(c.percentile(1000), Some(100.0));
        assert_eq!(c.percentile(0), Some(1.0));
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(100.0));
    }

    /// p99.9 of 1..=1000 is the 999th sample, not the maximum: a rank
    /// computed as `ceil(0.999 · 1000)` in `f64` lands one past it.
    #[test]
    fn p999_of_a_thousand_is_rank_999() {
        let mut c = Cdf::new();
        for i in 1..=1000 {
            c.add(f64::from(i));
        }
        assert_eq!(nearest_rank(1000, 999), 998);
        assert_eq!(c.percentile(999), Some(999.0));
    }

    #[test]
    fn empty_cdf() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.percentile(500), None);
        assert_eq!(c.mean(), None);
        assert_eq!(c.fraction_le(1.0), 0.0);
        assert!(c.steps().is_empty());
    }

    #[test]
    fn fraction_le_and_steps() {
        let mut c = Cdf::new();
        for x in [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0] {
            c.add(x);
        }
        assert!((c.fraction_le(0.0) - 0.4).abs() < 1e-12);
        assert!((c.fraction_le(2.0) - 0.7).abs() < 1e-12);
        assert!((c.fraction_le(10.0) - 1.0).abs() < 1e-12);
        assert!((c.fraction_le(-1.0) - 0.0).abs() < 1e-12);
        let steps = c.steps();
        assert_eq!(steps[0], (0.0, 0.4));
        assert_eq!(*steps.last().unwrap(), (5.0, 1.0));
    }

    #[test]
    fn add_after_query_resorts() {
        let mut c = Cdf::new();
        c.add(5.0);
        assert_eq!(c.percentile(500), Some(5.0));
        c.add(1.0);
        assert_eq!(c.min(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Cdf::new().add(f64::NAN);
    }
}
