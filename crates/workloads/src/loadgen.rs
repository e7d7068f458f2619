//! Load generation: diurnal traffic, short-term noise, and code evolution.
//!
//! µSKU runs against *production* traffic, which is why its statistics must
//! survive (paper Sec. 4): diurnal load swings, transient fluctuations, and
//! code pushes every few hours that perturb the service's performance
//! baseline. This module generates all three, deterministically, and the
//! seeded Poisson arrival process ([`PoissonArrivals`]) that code pushes,
//! injected hazards and chaos faults share.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softsku_telemetry::stats::standard_normal;

/// Diurnal load curve plus AR(1) noise, producing a load fraction in
/// `(0, 1]` of the service's peak.
///
/// # Example
///
/// ```
/// use softsku_workloads::loadgen::LoadGenerator;
///
/// let mut lg = LoadGenerator::new(0.75, 0.15, 86_400.0, 0.02, 7);
/// let l = lg.load_at(3_600.0);
/// assert!(l > 0.0 && l <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    base: f64,
    amplitude: f64,
    period_s: f64,
    noise_sd: f64,
    ar_state: f64,
    rng: SmallRng,
}

impl LoadGenerator {
    /// AR(1) persistence of the noise process.
    const AR_PHI: f64 = 0.9;

    /// Creates a generator: `base` mean load fraction, `amplitude` diurnal
    /// swing (fraction of base), `period_s` the diurnal period, `noise_sd`
    /// the stationary noise standard deviation, and a seed.
    pub fn new(base: f64, amplitude: f64, period_s: f64, noise_sd: f64, seed: u64) -> Self {
        LoadGenerator {
            base: base.clamp(0.05, 1.0),
            amplitude: amplitude.clamp(0.0, 0.9),
            period_s: period_s.max(1.0),
            noise_sd: noise_sd.max(0.0),
            ar_state: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A steady generator (no diurnal swing, no noise) — for unit tests and
    /// controlled sweeps.
    pub fn steady(load: f64) -> Self {
        Self::new(load, 0.0, 86_400.0, 0.0, 0)
    }

    /// Load fraction at time `t` seconds. Advances the internal noise
    /// process, so successive calls with increasing `t` are correlated.
    pub fn load_at(&mut self, t: f64) -> f64 {
        let diurnal = self.base
            * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * t / self.period_s).sin());
        // AR(1) step with innovation scaled for a stationary sd of noise_sd.
        let innovation_sd = self.noise_sd * (1.0 - Self::AR_PHI * Self::AR_PHI).sqrt();
        self.ar_state =
            Self::AR_PHI * self.ar_state + innovation_sd * standard_normal(&mut self.rng);
        (diurnal + self.ar_state).clamp(0.05, 1.0)
    }
}

/// A code push: production binaries change every few hours (Sec. 4 calls
/// this out as a key µSKU design challenge). Each push perturbs the
/// service's execution slightly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodePush {
    /// Multiplier applied to the service's base CPI (new code is a little
    /// faster or slower).
    pub cpi_scale: f64,
    /// Multiplier applied to miss-driven stall weight (icache footprint
    /// drifts with each release).
    pub miss_scale: f64,
}

/// A seeded Poisson arrival process: it owns its RNG and its next arrival
/// time, and the first gap is drawn at construction.
///
/// Arrivals carry marks (a victim, a pool, a push's size) that callers draw
/// from [`PoissonArrivals::rng`] around [`PoissonArrivals::advance`], so
/// one stream serves both and each caller keeps its own draw order.
///
/// # Example
///
/// ```
/// use softsku_workloads::loadgen::PoissonArrivals;
///
/// // Two arrivals per hour on average.
/// let mut crashes = PoissonArrivals::new(2.0, 3_600.0, 7);
/// let mut seen = 0;
/// while let Some(at_s) = crashes.due(36_000.0) {
///     assert!(at_s <= 36_000.0);
///     seen += 1;
///     crashes.advance();
/// }
/// assert!(seen > 0);
/// // A non-positive rate never arrives.
/// assert_eq!(PoissonArrivals::new(0.0, 3_600.0, 7).due(1e12), None);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: SmallRng,
    rate: f64,
    period_s: f64,
    next_t: f64,
}

impl PoissonArrivals {
    /// A process with `rate` mean arrivals per `period_s` seconds, seeded
    /// with `seed`. A rate that is not positive disables it.
    pub fn new(rate: f64, period_s: f64, seed: u64) -> Self {
        let mut arrivals = PoissonArrivals {
            rng: SmallRng::seed_from_u64(seed),
            rate,
            period_s,
            next_t: 0.0,
        };
        arrivals.next_t = arrivals.gap();
        arrivals
    }

    /// The next arrival time when it lands at or before `t`. A disabled
    /// process is never due, even at `t = ∞`.
    pub fn due(&self, t: f64) -> Option<f64> {
        (self.next_t <= t && self.next_t.is_finite()).then_some(self.next_t)
    }

    /// Moves the next arrival one exponential gap later.
    pub fn advance(&mut self) {
        self.next_t += self.gap();
    }

    /// The process's RNG, for drawing each arrival's marks.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// One exponential inter-arrival gap, or infinity when disabled.
    fn gap(&mut self) -> f64 {
        if self.rate <= 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * self.period_s / self.rate
    }
}

/// Poisson process of code pushes.
#[derive(Debug, Clone)]
pub struct CodeEvolution {
    magnitude: f64,
    pushes: PoissonArrivals,
}

impl CodeEvolution {
    /// Creates a push process with `rate_per_hour` mean pushes per hour and
    /// perturbation `magnitude` (relative sd of each multiplier).
    pub fn new(rate_per_hour: f64, magnitude: f64, seed: u64) -> Self {
        CodeEvolution {
            magnitude: magnitude.clamp(0.0, 0.2),
            pushes: PoissonArrivals::new(rate_per_hour, 3600.0, seed),
        }
    }

    /// Returns the push, if any, that lands before time `t` seconds; at most
    /// one per call (call repeatedly to drain).
    pub fn push_before(&mut self, t: f64) -> Option<CodePush> {
        self.pushes.due(t)?;
        self.pushes.advance();
        let jitter = |rng: &mut SmallRng, sd: f64| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            1.0 + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        Some(CodePush {
            cpi_scale: jitter(self.pushes.rng(), self.magnitude).clamp(0.9, 1.1),
            miss_scale: jitter(self.pushes.rng(), self.magnitude).clamp(0.9, 1.1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_stays_in_bounds() {
        let mut lg = LoadGenerator::new(0.8, 0.3, 86_400.0, 0.05, 3);
        for i in 0..5_000 {
            let l = lg.load_at(i as f64 * 30.0);
            assert!((0.05..=1.0).contains(&l), "load {l} at step {i}");
        }
    }

    #[test]
    fn diurnal_swing_visible() {
        let mut lg = LoadGenerator::new(0.6, 0.2, 86_400.0, 0.0, 0);
        let peak = lg.load_at(86_400.0 * 0.25); // sin = 1
        let trough = lg.load_at(86_400.0 * 0.75); // sin = -1
        assert!((peak - 0.72).abs() < 1e-9);
        assert!((trough - 0.48).abs() < 1e-9);
    }

    #[test]
    fn steady_generator_is_constant() {
        let mut lg = LoadGenerator::steady(0.7);
        for i in 0..100 {
            assert_eq!(lg.load_at(i as f64), 0.7);
        }
    }

    #[test]
    fn noise_is_correlated_but_bounded() {
        let mut lg = LoadGenerator::new(0.6, 0.0, 86_400.0, 0.03, 11);
        let xs: Vec<f64> = (0..2_000).map(|i| lg.load_at(i as f64)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.6).abs() < 0.02, "mean {mean}");
        // Lag-1 correlation of the noise should be clearly positive.
        let demeaned: Vec<f64> = xs.iter().map(|x| x - mean).collect();
        let var: f64 = demeaned.iter().map(|x| x * x).sum();
        let cov: f64 = demeaned.windows(2).map(|w| w[0] * w[1]).sum();
        assert!(
            cov / var > 0.5,
            "AR(1) noise must be persistent: {}",
            cov / var
        );
    }

    #[test]
    fn code_pushes_arrive_at_roughly_the_right_rate() {
        let mut ev = CodeEvolution::new(2.0, 0.01, 5); // 2/hour
        let horizon = 3600.0 * 200.0;
        let mut t = 0.0;
        let mut pushes = 0;
        while t < horizon {
            t += 60.0;
            while ev.push_before(t).is_some() {
                pushes += 1;
            }
        }
        // Expect ~400; accept generous tolerance.
        assert!((300..520).contains(&pushes), "pushes {pushes}");
    }

    #[test]
    fn pushes_are_bounded_perturbations() {
        let mut ev = CodeEvolution::new(10.0, 0.05, 9);
        let mut t = 0.0;
        for _ in 0..200 {
            t += 3600.0;
            while let Some(p) = ev.push_before(t) {
                assert!((0.9..=1.1).contains(&p.cpi_scale));
                assert!((0.9..=1.1).contains(&p.miss_scale));
            }
        }
    }

    #[test]
    fn zero_rate_never_pushes() {
        let mut ev = CodeEvolution::new(0.0, 0.05, 1);
        assert_eq!(ev.push_before(1e12), None);
    }
}
