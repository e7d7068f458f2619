//! Single-pass sample accumulation (Welford's algorithm) and summaries.

use crate::error::TelemetryError;
use crate::stats::student_t::t_quantile;

/// Numerically stable single-pass accumulator for mean and variance.
///
/// Uses Welford's online algorithm so that millions of EMON samples can be
/// folded in without storing them and without catastrophic cancellation.
///
/// # Example
///
/// ```
/// use softsku_telemetry::stats::RunningStats;
///
/// let mut acc = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 8);
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into the accumulator.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean. Returns `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n − 1 denominator). Zero for n < 2.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`). Zero for n < 2.
    pub fn std_err(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Freezes the accumulator into an immutable [`Summary`].
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::EmptySamples`] if nothing was pushed.
    pub fn summary(&self) -> Result<Summary, TelemetryError> {
        if self.count == 0 {
            return Err(TelemetryError::EmptySamples);
        }
        Ok(Summary {
            count: self.count,
            mean: self.mean,
            variance: self.variance(),
            min: self.min,
            max: self.max,
        })
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = RunningStats::new();
        acc.extend(iter);
        acc
    }
}

/// Immutable summary of a sample: count, mean, variance, extrema.
///
/// This is what µSKU stores per (knob setting, arm) in its design-space map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Summarizes a slice of observations.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::EmptySamples`] for an empty slice.
    ///
    /// # Example
    ///
    /// ```
    /// use softsku_telemetry::stats::Summary;
    ///
    /// let s = Summary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
    /// assert_eq!(s.count(), 3);
    /// assert!((s.mean() - 2.0).abs() < 1e-12);
    /// ```
    pub fn from_samples(samples: &[f64]) -> Result<Self, TelemetryError> {
        samples.iter().copied().collect::<RunningStats>().summary()
    }

    /// Builds a summary from already-known moments (used by tests and by the
    /// sampler when only aggregated counters are available).
    pub fn from_moments(count: u64, mean: f64, variance: f64) -> Self {
        Summary {
            count,
            mean,
            variance: variance.max(0.0),
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`NaN` if built from moments).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`NaN` if built from moments).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Two-sided confidence interval for the mean at `confidence` (e.g. 0.95)
    /// using the Student-t distribution with n − 1 degrees of freedom.
    ///
    /// Returns `(low, high)`. Degenerates to `(mean, mean)` for n < 2.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidConfidence`] if `confidence` is not in
    /// `(0, 1)`.
    pub fn mean_ci(&self, confidence: f64) -> Result<(f64, f64), TelemetryError> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(TelemetryError::InvalidConfidence(confidence));
        }
        if self.count < 2 {
            return Ok((self.mean, self.mean));
        }
        let df = (self.count - 1) as f64;
        let alpha = 1.0 - confidence;
        let t = t_quantile(1.0 - alpha / 2.0, df);
        let half = t * self.std_err();
        Ok((self.mean - half, self.mean + half))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 50.0)
            .collect();
        let acc: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-9);
        assert!((acc.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let (a, b) = xs.split_at(123);
        let mut left: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        left.merge(&right);
        let all: RunningStats = xs.iter().copied().collect();
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].iter().copied().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn empty_summary_is_error() {
        assert_eq!(
            RunningStats::new().summary().unwrap_err(),
            TelemetryError::EmptySamples
        );
        assert!(Summary::from_samples(&[]).is_err());
    }

    #[test]
    fn ci_widens_with_confidence() {
        let s = Summary::from_samples(&[9.0, 10.0, 11.0, 10.0, 9.5, 10.5]).unwrap();
        let (l90, h90) = s.mean_ci(0.90).unwrap();
        let (l99, h99) = s.mean_ci(0.99).unwrap();
        assert!(h99 - l99 > h90 - l90);
        assert!(l90 < s.mean() && s.mean() < h90);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few: Vec<f64> = (0..10).map(|i| 100.0 + (i % 3) as f64).collect();
        let many: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 3) as f64).collect();
        let width = |xs: &[f64]| {
            let (lo, hi) = Summary::from_samples(xs).unwrap().mean_ci(0.95).unwrap();
            hi - lo
        };
        assert!(width(&many) < width(&few));
    }

    #[test]
    fn invalid_confidence_rejected() {
        let s = Summary::from_samples(&[1.0, 2.0]).unwrap();
        assert!(s.mean_ci(0.0).is_err());
        assert!(s.mean_ci(1.0).is_err());
        assert!(s.mean_ci(-0.5).is_err());
    }

    #[test]
    fn single_sample_ci_degenerates() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.mean_ci(0.95).unwrap(), (42.0, 42.0));
    }
}
