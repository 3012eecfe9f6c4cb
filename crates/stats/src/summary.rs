//! Sample summaries.

/// Mean, spread and quantiles of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Corrected (n − 1) standard deviation; 0 for singleton samples.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
}

impl Summary {
    /// Summarise a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "sample contains non-finite values"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: quantile_sorted(&sorted, 0.5),
        }
    }

    /// Quantile `q ∈ [0, 1]` with linear interpolation.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        assert!(!values.is_empty());
        assert!((0.0..=1.0).contains(&q));
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        quantile_sorted(&sorted, q)
    }

    /// Half-width of an approximate 95% normal confidence interval on the
    /// mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.std / (self.n as f64).sqrt()
    }
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarises_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn singleton_has_zero_std() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [0.0, 10.0];
        assert!((Summary::quantile(&v, 0.25) - 2.5).abs() < 1e-12);
        assert_eq!(Summary::quantile(&v, 0.0), 0.0);
        assert_eq!(Summary::quantile(&v, 1.0), 10.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }
}
