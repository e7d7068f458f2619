//! EMON-like time-multiplexed performance-counter sampling.
//!
//! Intel's EMON measures "tens of thousands of hardware performance events"
//! (paper Sec. 2.2) on a CPU that physically has only a handful of counter
//! slots per core: a few *fixed* counters (cycles, instructions) that are
//! always live, and a small set of *programmable* counters that EMON rotates
//! through event groups, extrapolating each group's counts to the full
//! interval. The extrapolation introduces multiplexing error that shrinks
//! with dwell time.
//!
//! [`MultiplexedSampler`] reproduces that measurement pipeline on top of a
//! "ground truth" event-rate oracle (in this repo: the architecture
//! simulator). µSKU never sees the oracle directly — it sees noisy samples,
//! which is what forces its statistical machinery to exist.

use crate::error::TelemetryError;
use crate::stats::standard_normal;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An ordered collection of event names, split into fixed and programmable
/// events, mirroring the fixed/programmable counter split of a real PMU.
///
/// # Example
///
/// ```
/// use softsku_telemetry::EventSet;
///
/// let events = EventSet::new()
///     .fixed("cycles")
///     .fixed("instructions")
///     .programmable("llc_miss.code")
///     .programmable("llc_miss.data");
/// assert_eq!(events.fixed_events().len(), 2);
/// assert_eq!(events.programmable_events().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSet {
    fixed: Vec<String>,
    programmable: Vec<String>,
}

impl EventSet {
    /// Creates an empty event set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an always-measured (fixed-counter) event.
    #[must_use]
    pub fn fixed(mut self, name: &str) -> Self {
        self.fixed.push(name.to_string());
        self
    }

    /// Adds a multiplexed (programmable-counter) event.
    #[must_use]
    pub fn programmable(mut self, name: &str) -> Self {
        self.programmable.push(name.to_string());
        self
    }

    /// The fixed events, in insertion order.
    pub fn fixed_events(&self) -> &[String] {
        &self.fixed
    }

    /// The programmable events, in insertion order.
    pub fn programmable_events(&self) -> &[String] {
        &self.programmable
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.fixed.len() + self.programmable.len()
    }

    /// True when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.fixed.is_empty() && self.programmable.is_empty()
    }
}

/// Configuration for a [`MultiplexedSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Number of programmable counter slots available per rotation group.
    pub programmable_slots: usize,
    /// Relative standard deviation of the per-window measurement noise for a
    /// fully-dwelled event (fixed counters see exactly this much noise).
    pub base_noise_rel: f64,
    /// RNG seed; the sampler is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            programmable_slots: 8,
            base_noise_rel: 0.002,
            seed: 0,
        }
    }
}

/// One measured event value.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSample {
    /// Event name.
    pub event: String,
    /// Measured (noisy, extrapolated) event rate.
    pub value: f64,
    /// Fraction of the rotation during which the event was actually counted.
    pub dwell_fraction: f64,
}

/// Time-multiplexed sampler over a ground-truth event-rate oracle.
///
/// Each call to [`MultiplexedSampler::sample_rotation`] performs one full
/// rotation over the programmable groups: fixed events are measured over the
/// whole rotation with the base noise level, programmable events are measured
/// for `1/groups` of the rotation and extrapolated, inflating their noise by
/// `sqrt(groups)` — the real cost of counter multiplexing.
#[derive(Debug, Clone)]
pub struct MultiplexedSampler {
    events: EventSet,
    config: SamplerConfig,
    rng: SmallRng,
}

impl MultiplexedSampler {
    /// Creates a sampler for `events` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvalidSamplerConfig`] when there are zero
    /// programmable slots (with programmable events present), a non-finite or
    /// negative noise level, or an empty event set.
    pub fn new(events: EventSet, config: SamplerConfig) -> Result<Self, TelemetryError> {
        if events.is_empty() {
            return Err(TelemetryError::InvalidSamplerConfig(
                "event set is empty".to_string(),
            ));
        }
        if config.programmable_slots == 0 && !events.programmable_events().is_empty() {
            return Err(TelemetryError::InvalidSamplerConfig(
                "zero programmable slots but programmable events requested".to_string(),
            ));
        }
        if !config.base_noise_rel.is_finite() || config.base_noise_rel < 0.0 {
            return Err(TelemetryError::InvalidSamplerConfig(format!(
                "base_noise_rel must be a nonnegative finite number, got {}",
                config.base_noise_rel
            )));
        }
        let rng = SmallRng::seed_from_u64(config.seed);
        Ok(MultiplexedSampler {
            events,
            config,
            rng,
        })
    }

    /// Number of rotation groups needed to cover all programmable events.
    pub fn rotation_groups(&self) -> usize {
        let p = self.events.programmable_events().len();
        if p == 0 {
            1
        } else {
            p.div_ceil(self.config.programmable_slots)
        }
    }

    /// Performs one full multiplexing rotation against the ground-truth
    /// oracle `truth` (event name → true rate) and returns one sample per
    /// event.
    pub fn sample_rotation<F>(&mut self, truth: F) -> Vec<EventSample>
    where
        F: Fn(&str) -> f64,
    {
        let groups = self.rotation_groups() as f64;
        let mut out = Vec::with_capacity(self.events.len());
        let fixed: Vec<String> = self.events.fixed_events().to_vec();
        let programmable: Vec<String> = self.events.programmable_events().to_vec();
        for e in fixed {
            let v = truth(&e);
            let value = self.perturb(v, 1.0);
            out.push(EventSample {
                event: e,
                value,
                dwell_fraction: 1.0,
            });
        }
        let dwell = 1.0 / groups;
        for e in programmable {
            let v = truth(&e);
            let value = self.perturb(v, dwell);
            out.push(EventSample {
                event: e,
                value,
                dwell_fraction: dwell,
            });
        }
        out
    }

    /// Applies measurement + extrapolation noise: relative sd scales with
    /// `1/sqrt(dwell)`.
    fn perturb(&mut self, value: f64, dwell: f64) -> f64 {
        if value == 0.0 || self.config.base_noise_rel == 0.0 {
            return value;
        }
        let sd = self.config.base_noise_rel / dwell.sqrt();
        value * (1.0 + sd * standard_normal(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(slots: usize, noise: f64) -> MultiplexedSampler {
        let events = EventSet::new()
            .fixed("cycles")
            .fixed("instructions")
            .programmable("l1i_miss")
            .programmable("l1d_miss")
            .programmable("l2_miss")
            .programmable("llc_miss");
        MultiplexedSampler::new(
            events,
            SamplerConfig {
                programmable_slots: slots,
                base_noise_rel: noise,
                seed: 11,
            },
        )
        .unwrap()
    }

    #[test]
    fn rotation_covers_all_events() {
        let mut s = sampler(2, 0.0);
        let out = s.sample_rotation(|_| 100.0);
        assert_eq!(out.len(), 6);
        for sample in &out {
            assert_eq!(sample.value, 100.0, "zero noise must be exact");
        }
    }

    #[test]
    fn group_count_is_ceiling_division() {
        assert_eq!(sampler(2, 0.0).rotation_groups(), 2);
        assert_eq!(sampler(3, 0.0).rotation_groups(), 2);
        assert_eq!(sampler(4, 0.0).rotation_groups(), 1);
        assert_eq!(sampler(1, 0.0).rotation_groups(), 4);
    }

    #[test]
    fn multiplexed_events_are_noisier_than_fixed() {
        let mut s = sampler(1, 0.01); // 4 groups ⇒ dwell 0.25 ⇒ 2x noise
        let mut fixed_err = 0.0;
        let mut mux_err = 0.0;
        let rounds = 4000;
        for _ in 0..rounds {
            for sample in s.sample_rotation(|_| 1000.0) {
                let err = (sample.value - 1000.0) / 1000.0;
                if sample.dwell_fraction == 1.0 {
                    fixed_err += err * err;
                } else {
                    mux_err += err * err;
                }
            }
        }
        let fixed_rms = (fixed_err / (2.0 * rounds as f64)).sqrt();
        let mux_rms = (mux_err / (4.0 * rounds as f64)).sqrt();
        assert!(
            mux_rms > 1.5 * fixed_rms,
            "multiplexing must inflate noise: fixed={fixed_rms} mux={mux_rms}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = sampler(2, 0.01);
        let mut b = sampler(2, 0.01);
        assert_eq!(a.sample_rotation(|_| 7.0), b.sample_rotation(|_| 7.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let empty = EventSet::new();
        assert!(MultiplexedSampler::new(empty, SamplerConfig::default()).is_err());

        let events = EventSet::new().programmable("x");
        let bad_slots = SamplerConfig {
            programmable_slots: 0,
            ..SamplerConfig::default()
        };
        assert!(MultiplexedSampler::new(events.clone(), bad_slots).is_err());

        let bad_noise = SamplerConfig {
            base_noise_rel: f64::NAN,
            ..SamplerConfig::default()
        };
        assert!(MultiplexedSampler::new(events, bad_noise).is_err());
    }

    #[test]
    fn zero_rate_events_stay_zero() {
        let mut s = sampler(2, 0.05);
        for sample in s.sample_rotation(|_| 0.0) {
            assert_eq!(sample.value, 0.0);
        }
    }
}
