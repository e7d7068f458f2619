//! Welch's unequal-variance two-sample t-test.
//!
//! µSKU compares two server arms (baseline knob setting vs. candidate) whose
//! sample variances differ — production noise is not homoscedastic across
//! machines — so the pooled-variance Student test would be wrong. Welch's
//! test with the Welch–Satterthwaite degrees of freedom is the standard fix.

use crate::stats::student_t::{t_cdf, t_quantile};
use crate::stats::Summary;

/// Result of a Welch two-sample t-test comparing arm A against arm B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// Difference of means, `mean(a) - mean(b)`.
    pub mean_diff: f64,
    /// Welch t statistic.
    pub t_statistic: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub degrees_of_freedom: f64,
    /// Two-sided p-value for the null hypothesis "means are equal".
    pub p_value: f64,
}

/// Confidence level of every Welch decision: the A/B tester's verdicts
/// and intervals, the rollout guardrail and the drift monitor's gain
/// interval all use the paper's 95 %.
const CONFIDENCE: f64 = 0.95;

impl WelchResult {
    /// True when the two-sided test rejects equality at 95 % confidence
    /// (α = 0.05).
    pub fn significant(&self) -> bool {
        self.p_value < 1.0 - CONFIDENCE
    }

    /// Two-sided 95 % confidence interval on the difference of means.
    pub fn diff_ci(&self, a: &Summary, b: &Summary) -> (f64, f64) {
        let se = pooled_se(a, b);
        if se == 0.0 || self.degrees_of_freedom <= 0.0 {
            return (self.mean_diff, self.mean_diff);
        }
        let alpha = 1.0 - CONFIDENCE;
        let t = t_quantile(1.0 - alpha / 2.0, self.degrees_of_freedom);
        (self.mean_diff - t * se, self.mean_diff + t * se)
    }
}

fn pooled_se(a: &Summary, b: &Summary) -> f64 {
    let va = a.variance() / a.count() as f64;
    let vb = b.variance() / b.count() as f64;
    (va + vb).sqrt()
}

/// Runs Welch's two-sample t-test on two summaries.
///
/// Degenerate inputs (fewer than two samples on either side, or both
/// variances zero) yield `p_value = 1.0` when the means are equal and
/// `p_value = 0.0` when they differ with zero variance — the limiting
/// behaviour a tuner wants.
///
/// # Example
///
/// ```
/// use softsku_telemetry::stats::{welch_test, Summary};
///
/// let a = Summary::from_moments(1000, 100.0, 4.0);
/// let b = Summary::from_moments(1000, 100.1, 4.0);
/// let r = welch_test(&a, &b);
/// assert!(r.p_value > 0.0 && r.p_value < 1.0);
/// ```
pub fn welch_test(a: &Summary, b: &Summary) -> WelchResult {
    let mean_diff = a.mean() - b.mean();
    let na = a.count() as f64;
    let nb = b.count() as f64;
    let va = a.variance() / na;
    let vb = b.variance() / nb;
    let se2 = va + vb;

    if a.count() < 2 || b.count() < 2 || se2 == 0.0 {
        let p = if mean_diff == 0.0 { 1.0 } else { 0.0 };
        return WelchResult {
            mean_diff,
            t_statistic: if mean_diff == 0.0 {
                0.0
            } else {
                f64::INFINITY.copysign(mean_diff)
            },
            degrees_of_freedom: 0.0,
            p_value: p,
        };
    }

    let t = mean_diff / se2.sqrt();
    // Welch–Satterthwaite approximation.
    let df = se2 * se2 / (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
    let p = 2.0 * (1.0 - t_cdf(t.abs(), df));
    WelchResult {
        mean_diff,
        t_statistic: t,
        degrees_of_freedom: df,
        p_value: p.clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(base: f64, n: usize, spread: f64) -> Vec<f64> {
        (0..n)
            .map(|i| base + spread * ((i as f64 * 2.399_963).sin()))
            .collect()
    }

    #[test]
    fn identical_samples_not_significant() {
        let xs = noisy(100.0, 500, 3.0);
        let s = Summary::from_samples(&xs).unwrap();
        let r = welch_test(&s, &s);
        assert_eq!(r.mean_diff, 0.0);
        assert!(r.p_value > 0.99);
        assert!(!r.significant());
    }

    #[test]
    fn clear_shift_is_significant() {
        let a = Summary::from_samples(&noisy(100.0, 400, 2.0)).unwrap();
        let b = Summary::from_samples(&noisy(103.0, 400, 2.0)).unwrap();
        let r = welch_test(&a, &b);
        assert!(r.significant(), "p = {}", r.p_value);
        assert!(r.mean_diff < 0.0);
    }

    #[test]
    fn tiny_shift_with_few_samples_not_significant() {
        let a = Summary::from_samples(&noisy(100.0, 8, 5.0)).unwrap();
        let b = Summary::from_samples(&noisy(100.2, 8, 5.0)).unwrap();
        let r = welch_test(&a, &b);
        assert!(!r.significant(), "p = {}", r.p_value);
    }

    #[test]
    fn known_welch_example() {
        // Worked example: a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9,
        // 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4],
        // b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
        // 21.9, 22.1, 22.9, 30.5, 25.2, 24.0, 23.8, 21.7, 24.4, 25.1].
        let a = [
            27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7,
            21.4,
        ];
        let b = [
            27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5,
            25.2, 24.0, 23.8, 21.7, 24.4, 25.1,
        ];
        let sa = Summary::from_samples(&a).unwrap();
        let sb = Summary::from_samples(&b).unwrap();
        let r = welch_test(&sa, &sb);
        // Reference values computed independently (Welch statistic, W-S dof,
        // and two-sided p via the regularized incomplete beta).
        assert!(
            (r.t_statistic - (-3.25022)).abs() < 2e-4,
            "t = {}",
            r.t_statistic
        );
        assert!(
            (r.degrees_of_freedom - 27.1227).abs() < 2e-3,
            "df = {}",
            r.degrees_of_freedom
        );
        assert!((r.p_value - 0.0030738).abs() < 1e-5, "p = {}", r.p_value);
    }

    #[test]
    fn degenerate_zero_variance() {
        let a = Summary::from_samples(&[5.0, 5.0, 5.0]).unwrap();
        let b = Summary::from_samples(&[6.0, 6.0, 6.0]).unwrap();
        let r = welch_test(&a, &b);
        assert_eq!(r.p_value, 0.0);
        let same = welch_test(&a, &a);
        assert_eq!(same.p_value, 1.0);
    }

    #[test]
    fn diff_ci_contains_true_difference() {
        let a = Summary::from_samples(&noisy(100.0, 300, 2.0)).unwrap();
        let b = Summary::from_samples(&noisy(102.0, 300, 2.0)).unwrap();
        let r = welch_test(&a, &b);
        let (lo, hi) = r.diff_ci(&a, &b);
        assert!(lo <= -2.0 && -2.0 <= hi || (lo + 2.0).abs() < 0.5);
        assert!(lo < hi);
    }
}
