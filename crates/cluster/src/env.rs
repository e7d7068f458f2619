//! The production A/B environment µSKU drives.
//!
//! The paper's A/B tester "conducts A/B tests by comparing the performance of
//! two identical servers (same hardware platform, same fleet, and facing the
//! same load) that differ only in their knob configuration" (Sec. 4).
//! [`AbEnvironment`] provides exactly that: two [`SimServer`] arms fed the
//! same diurnal load with small per-arm imbalance, a noisy reading of each
//! arm's instruction rate, and a Poisson code-push process that perturbs both
//! arms — the statistical reality µSKU's confidence machinery exists for.

use crate::error::ClusterError;
use crate::hazards::{HazardConfig, HazardSchedule};
use crate::server::SimServer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softsku_archsim::engine::ServerConfig;
use softsku_telemetry::stats::standard_normal;
use softsku_telemetry::streams::{StreamFamily, StreamRegistry};
use softsku_telemetry::{Ods, SeriesKey};
use softsku_workloads::loadgen::{CodeEvolution, LoadGenerator};
use softsku_workloads::WorkloadProfile;

/// Which arm of the A/B pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// The baseline arm (production or previously-selected configuration).
    A,
    /// The candidate arm.
    B,
}

/// One noisy throughput measurement of both arms under common load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSample {
    /// Measured MIPS of arm A.
    pub a_mips: f64,
    /// Measured MIPS of arm B.
    pub b_mips: f64,
    /// Load fraction both arms faced.
    pub load: f64,
    /// Simulated timestamp (seconds).
    pub time_s: f64,
}

/// Configuration for an [`AbEnvironment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConfig {
    /// Spacing between successive samples, seconds (µSKU spaces samples "to
    /// ensure independence").
    pub sample_spacing_s: f64,
    /// Relative measurement noise of each arm's MIPS reading per sample.
    pub measurement_noise: f64,
    /// Per-arm load-imbalance noise (two machines never see identical load).
    pub arm_imbalance: f64,
    /// Diurnal amplitude of the common load.
    pub diurnal_amplitude: f64,
    /// AR(1) common-load noise.
    pub load_noise: f64,
    /// Mean code pushes per hour.
    pub pushes_per_hour: f64,
    /// Engine window per evaluation (smaller for tests).
    pub window_insns: u64,
    /// Seconds of downtime incurred by a reboot-requiring reconfiguration.
    pub reboot_cost_s: f64,
    /// Production-hazard injection knobs (all zero → hazard-free).
    pub hazards: HazardConfig,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            sample_spacing_s: 30.0,
            measurement_noise: 0.004,
            arm_imbalance: 0.010,
            diurnal_amplitude: 0.12,
            load_noise: 0.02,
            pushes_per_hour: 0.2,
            window_insns: SimServer::DEFAULT_WINDOW,
            reboot_cost_s: 300.0,
            hazards: HazardConfig::none(),
        }
    }
}

impl EnvConfig {
    /// A fast, low-noise configuration for unit tests.
    pub fn fast_test() -> Self {
        EnvConfig {
            sample_spacing_s: 30.0,
            measurement_noise: 0.002,
            arm_imbalance: 0.004,
            diurnal_amplitude: 0.05,
            load_noise: 0.01,
            pushes_per_hour: 0.0,
            window_insns: 60_000,
            reboot_cost_s: 60.0,
            hazards: HazardConfig::none(),
        }
    }
}

/// Two identical servers under common production traffic.
#[derive(Debug)]
pub struct AbEnvironment {
    arm_a: SimServer,
    arm_b: SimServer,
    load: LoadGenerator,
    evolution: CodeEvolution,
    config: EnvConfig,
    time_s: f64,
    rng: SmallRng,
    code_pushes_seen: u64,
    /// Per-arm measurement-noise draws of the MIPS channel.
    noise_a: SmallRng,
    noise_b: SmallRng,
    /// Injected-hazard timeline (inert when the config disables hazards).
    hazards: HazardSchedule,
    /// ODS series of injected hazards and consumer-reported recoveries.
    ods: Ods,
    /// Common load of the most recent sample, spikes included (for
    /// guardrail QoS checks between samples).
    last_load: f64,
}

impl AbEnvironment {
    /// Builds an environment for `profile`, both arms starting in the
    /// production configuration.
    ///
    /// # Errors
    ///
    /// Propagates server construction errors.
    pub fn new(
        profile: WorkloadProfile,
        config: EnvConfig,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        let prod = profile.production_config.clone();
        // Both arms share the engine seed: the paper's arms are "identical
        // servers", and a per-arm simulation-sampling bias would masquerade
        // as a knob effect. Arm differences come from the (seeded) load
        // imbalance and measurement noise only.
        let arm_a =
            SimServer::with_window(profile.clone(), prod.clone(), seed, config.window_insns)?;
        let arm_b = SimServer::with_window(profile, prod, seed, config.window_insns)?;
        Ok(Self::assemble(arm_a, arm_b, config, seed))
    }

    /// Builds an environment around already-constructed arms, seeding every
    /// noise/hazard stream from `seed` exactly as [`AbEnvironment::new`]
    /// does.
    ///
    /// Both construction paths ([`AbEnvironment::new`] and
    /// [`AbEnvironment::fork`]) funnel through this one derivation scope, so
    /// new and fork necessarily derive identical stream families — the
    /// parity the fork-replay determinism rests on. The [`StreamRegistry`]
    /// additionally panics (debug builds) if a family were ever derived
    /// twice or two families collided.
    fn assemble(arm_a: SimServer, arm_b: SimServer, config: EnvConfig, seed: u64) -> Self {
        let mut streams = StreamRegistry::new(seed);
        let noise_a = SmallRng::seed_from_u64(streams.derive(StreamFamily::EnvSamplerA));
        let noise_b = SmallRng::seed_from_u64(streams.derive(StreamFamily::EnvSamplerB));
        AbEnvironment {
            arm_a,
            arm_b,
            load: LoadGenerator::new(
                0.85,
                config.diurnal_amplitude,
                86_400.0,
                config.load_noise,
                streams.derive(StreamFamily::EnvCommonLoad),
            ),
            evolution: CodeEvolution::new(
                config.pushes_per_hour,
                0.01,
                streams.derive(StreamFamily::EnvCodePush),
            ),
            config,
            time_s: 0.0,
            rng: SmallRng::seed_from_u64(streams.derive(StreamFamily::EnvArmNoise)),
            code_pushes_seen: 0,
            noise_a,
            noise_b,
            hazards: HazardSchedule::new(config.hazards, streams.derive(StreamFamily::EnvHazards)),
            ods: Ods::unbounded(),
            last_load: 1.0,
        }
    }

    /// Forks an independent replica of this environment for one scheduled
    /// A/B test.
    ///
    /// The replica clones both arms — inheriting the proto-environment's
    /// engine seed ("identical hardware") and its warmed load-curve caches,
    /// which is what makes forking cheap — while every *noise* stream (load
    /// imbalance, diurnal AR(1) noise, measurement noise, code pushes,
    /// hazards) is re-seeded from `seed`, and the clock, push counter, and
    /// hazard/recovery ledger restart from zero. The replica's behaviour is
    /// therefore a pure function of `(proto construction, seed)`: two forks
    /// with the same seed are bit-identical regardless of what other forks
    /// ran in between, which is the property the parallel tuning scheduler's
    /// determinism rests on.
    pub fn fork(&self, seed: u64) -> AbEnvironment {
        Self::assemble(self.arm_a.clone(), self.arm_b.clone(), self.config, seed)
    }

    /// The workload under test.
    pub fn profile(&self) -> &WorkloadProfile {
        self.arm_a.profile()
    }

    /// Current simulated time (seconds).
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Number of code pushes that have landed so far.
    pub fn code_pushes_seen(&self) -> u64 {
        self.code_pushes_seen
    }

    /// Reconfigures one arm; a reboot-requiring change costs simulated time
    /// and is rejected for reboot-intolerant services.
    ///
    /// # Errors
    ///
    /// [`ClusterError::KnobApplyFailed`] when the (injected) fleet tooling
    /// flakes — transient, retry after a backoff. Otherwise
    /// [`ClusterError::RebootNotTolerated`] or engine validation errors.
    pub fn reconfigure(
        &mut self,
        arm: Arm,
        config: ServerConfig,
        needs_reboot: bool,
    ) -> Result<(), ClusterError> {
        if self.hazards.knob_failure() {
            self.record_event("hazards", "injected.knob_failure");
            return Err(ClusterError::KnobApplyFailed {
                arm,
                time_s: self.time_s,
            });
        }
        let server = match arm {
            Arm::A => &mut self.arm_a,
            Arm::B => &mut self.arm_b,
        };
        server.reconfigure(config, needs_reboot)?;
        if needs_reboot {
            self.time_s += self.config.reboot_cost_s;
        }
        Ok(())
    }

    /// The configuration of an arm.
    pub fn arm_config(&self, arm: Arm) -> &ServerConfig {
        match arm {
            Arm::A => self.arm_a.config(),
            Arm::B => self.arm_b.config(),
        }
    }

    /// Direct (non-noisy) access to an arm, for validation measurements.
    pub fn arm_mut(&mut self, arm: Arm) -> &mut SimServer {
        match arm {
            Arm::A => &mut self.arm_a,
            Arm::B => &mut self.arm_b,
        }
    }

    /// Advances time and takes one noisy paired MIPS measurement.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::ArmDown`] when an injected crash has an arm out —
    ///   time still advances; wait out the outage (see [`Self::wait`]) and
    ///   re-warm.
    /// * [`ClusterError::TelemetryDropout`] when the pipeline lost this
    ///   sample — the next call is unaffected.
    /// * Engine errors on first evaluation of a new configuration.
    pub fn sample_pair(&mut self) -> Result<PairSample, ClusterError> {
        self.time_s += self.config.sample_spacing_s;
        // Code pushes land on both arms simultaneously (fleet-wide deploy).
        while let Some(push) = self.evolution.push_before(self.time_s) {
            self.arm_a.apply_code_push(push);
            self.arm_b.apply_code_push(push);
            self.code_pushes_seen += 1;
        }
        let tick = self.hazards.tick(self.time_s);
        for _ in tick.crashes.iter().flatten() {
            self.record_event("hazards", "injected.arm_down");
        }
        if tick.spike_started.is_some() {
            self.record_event("hazards", "injected.spike");
        }
        for (idx, down) in tick.down_until.iter().enumerate() {
            if let Some(until_s) = down {
                let arm = if idx == 0 { Arm::A } else { Arm::B };
                return Err(ClusterError::ArmDown {
                    arm,
                    until_s: *until_s,
                });
            }
        }
        if tick.dropped {
            self.record_event("hazards", "injected.dropout");
            return Err(ClusterError::TelemetryDropout {
                time_s: self.time_s,
            });
        }
        let load = (self.load.load_at(self.time_s) * tick.load_multiplier).clamp(0.05, 1.2);
        self.last_load = load;
        let la = (load * (1.0 + self.config.arm_imbalance * standard_normal(&mut self.rng)))
            .clamp(0.05, 1.2);
        let lb = (load * (1.0 + self.config.arm_imbalance * standard_normal(&mut self.rng)))
            .clamp(0.05, 1.2);
        let noise = self.config.measurement_noise;
        let mut ma = measure(self.arm_a.mips(la)?, noise, &mut self.noise_a);
        let mut mb = measure(self.arm_b.mips(lb)?, noise, &mut self.noise_b);
        if let Some((arm, factor)) = tick.corrupt {
            self.record_event("hazards", "injected.outlier");
            match arm {
                Arm::A => ma *= factor,
                Arm::B => mb *= factor,
            }
        }
        Ok(PairSample {
            a_mips: ma,
            b_mips: mb,
            load,
            time_s: self.time_s,
        })
    }

    /// Advances the clock without sampling — how consumers wait out an
    /// injected outage or back off between retries.
    pub fn wait(&mut self, seconds: f64) {
        self.time_s += seconds.max(0.0);
    }

    /// Whether an arm currently satisfies QoS at peak load.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a new configuration.
    pub fn qos_ok(&mut self, arm: Arm) -> Result<bool, ClusterError> {
        self.arm_mut(arm).qos_ok(1.0)
    }

    /// Whether an arm satisfies QoS at the load of the most recent sample
    /// (spikes included) — the guardrail check self-healing consumers run
    /// while a test is in flight.
    ///
    /// # Errors
    ///
    /// Engine errors on first evaluation of a new configuration.
    pub fn qos_ok_now(&mut self, arm: Arm) -> Result<bool, ClusterError> {
        let load = self.last_load;
        self.arm_mut(arm).qos_ok(load)
    }

    /// The injected-hazard/recovery telemetry recorded so far.
    pub fn telemetry(&self) -> &Ods {
        &self.ods
    }

    /// Appends one counter event (value 1.0 at the current clock) to the
    /// environment's ODS. Consumers use it to record recoveries, e.g.
    /// `record_event("recovery", "arm_down")`.
    pub fn record_event(&mut self, entity: &str, metric: &str) {
        let key = SeriesKey::new(entity, metric);
        // detlint::allow(panic_path): the clock is monotone, so the ODS
        // append cannot be out of order.
        self.ods
            .append(&key, self.time_s, 1.0)
            .expect("environment clock is monotone");
    }

    /// Event counts per recorded series (`"hazards/injected.spike"` → n),
    /// sorted by series name.
    pub fn hazard_counts(&self) -> Vec<(String, u64)> {
        self.ods
            .keys()
            .map(|k| (k.to_string(), self.ods.len(k) as u64))
            .collect()
    }
}

/// One noisy reading of an arm's true instruction rate: the retired-
/// instructions counter µSKU reads (paper Sec. 4) with relative Gaussian
/// noise `noise`. A zero rate or zero noise reads exactly, without a draw.
fn measure(truth: f64, noise: f64, rng: &mut SmallRng) -> f64 {
    if truth == 0.0 || noise == 0.0 {
        return truth;
    }
    truth * (1.0 + noise * standard_normal(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;
    use softsku_workloads::Microservice;

    fn env() -> AbEnvironment {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        AbEnvironment::new(profile, EnvConfig::fast_test(), 11).unwrap()
    }

    #[test]
    fn new_and_fork_derive_identical_stream_families() {
        // Both construction paths funnel through `assemble`, so a fresh
        // environment and a fork at the same seed must replay bit-identically
        // — the family-parity guarantee the streams registry encodes. A
        // family derived by one path but not the other would desynchronise
        // every stream after it.
        let mut fresh = env();
        let mut forked = env().fork(11);
        for _ in 0..50 {
            let a = fresh.sample_pair().unwrap();
            let b = forked.sample_pair().unwrap();
            assert_eq!(a.a_mips.to_bits(), b.a_mips.to_bits());
            assert_eq!(a.b_mips.to_bits(), b.b_mips.to_bits());
        }
    }

    #[test]
    fn identical_arms_have_small_mean_difference() {
        let mut e = env();
        let mut diff = 0.0;
        let mut mean = 0.0;
        let n = 300;
        for _ in 0..n {
            let s = e.sample_pair().unwrap();
            diff += s.a_mips - s.b_mips;
            mean += s.a_mips;
        }
        let rel = (diff / n as f64).abs() / (mean / n as f64);
        assert!(rel < 0.005, "identical arms must match closely: {rel}");
    }

    #[test]
    fn better_config_shows_up_in_samples() {
        let mut e = env();
        // Arm B gets a clearly slower configuration.
        let mut slow = e.arm_config(Arm::B).clone();
        slow.core_freq_ghz = 1.6;
        e.reconfigure(Arm::B, slow, false).unwrap();
        let mut a = 0.0;
        let mut b = 0.0;
        for _ in 0..200 {
            let s = e.sample_pair().unwrap();
            a += s.a_mips;
            b += s.b_mips;
        }
        assert!(a > b * 1.05, "a {a} vs b {b}");
    }

    #[test]
    fn samples_are_noisy() {
        let mut e = env();
        let xs: Vec<f64> = (0..100).map(|_| e.sample_pair().unwrap().a_mips).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(var.sqrt() / mean > 0.001, "noise must be present");
    }

    #[test]
    fn time_advances_and_reboot_costs_time() {
        let mut e = env();
        let t0 = e.time_s();
        e.sample_pair().unwrap();
        assert!(e.time_s() > t0);
        let cfg = e.arm_config(Arm::B).clone();
        let before = e.time_s();
        e.reconfigure(Arm::B, cfg, true).unwrap();
        assert!(e.time_s() >= before + 60.0);
    }

    #[test]
    fn code_pushes_land_when_enabled() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut cfg = EnvConfig::fast_test();
        cfg.pushes_per_hour = 30.0;
        cfg.sample_spacing_s = 120.0;
        let mut e = AbEnvironment::new(profile, cfg, 3).unwrap();
        for _ in 0..60 {
            e.sample_pair().unwrap();
        }
        assert!(e.code_pushes_seen() > 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut e1 = AbEnvironment::new(profile.clone(), EnvConfig::fast_test(), 9).unwrap();
        let mut e2 = AbEnvironment::new(profile, EnvConfig::fast_test(), 9).unwrap();
        for _ in 0..20 {
            assert_eq!(e1.sample_pair().unwrap(), e2.sample_pair().unwrap());
        }
    }

    #[test]
    fn forks_are_deterministic_and_mutually_independent() {
        let mut proto = env();
        // Drive the proto a little; forks must not care about its state.
        for _ in 0..10 {
            proto.sample_pair().unwrap();
        }
        let mut f1 = proto.fork(123);
        let mut f2 = proto.fork(123);
        assert_eq!(f1.time_s(), 0.0, "fork clock restarts");
        for _ in 0..50 {
            assert_eq!(f1.sample_pair().unwrap(), f2.sample_pair().unwrap());
        }
        // Interleaving another fork must not perturb an equal-seed replay.
        let mut noisy = proto.fork(7);
        for _ in 0..20 {
            noisy.sample_pair().unwrap();
        }
        let mut f3 = proto.fork(123);
        let mut f4 = proto.fork(123);
        for _ in 0..50 {
            f3.sample_pair().unwrap();
        }
        for _ in 0..50 {
            f4.sample_pair().unwrap();
        }
        assert_eq!(f3.sample_pair().unwrap(), f4.sample_pair().unwrap());
        // Different seeds draw different noise.
        let s1 = proto.fork(1).sample_pair().unwrap();
        let s2 = proto.fork(2).sample_pair().unwrap();
        assert_ne!(s1, s2);
    }

    fn hazardous_env(hazards: HazardConfig, seed: u64) -> AbEnvironment {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut cfg = EnvConfig::fast_test();
        cfg.hazards = hazards;
        AbEnvironment::new(profile, cfg, seed).unwrap()
    }

    #[test]
    fn crashes_surface_as_arm_down_then_clear() {
        let mut e = hazardous_env(
            HazardConfig {
                crash_rate_per_hour: 6.0,
                crash_outage_s: 120.0,
                ..HazardConfig::none()
            },
            7,
        );
        let mut saw_outage = false;
        for _ in 0..2_000 {
            match e.sample_pair() {
                Ok(_) => {}
                Err(ClusterError::ArmDown { until_s, .. }) => {
                    saw_outage = true;
                    assert!(until_s > e.time_s());
                    // Waiting past the outage restores sampling.
                    let gap = until_s - e.time_s();
                    e.wait(gap);
                    e.sample_pair().expect("arm is back after the outage");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            if saw_outage {
                break;
            }
        }
        assert!(saw_outage, "crash rate 6/h must fire within 2000 samples");
        let counts = e.hazard_counts();
        assert!(counts
            .iter()
            .any(|(k, n)| k == "hazards/injected.arm_down" && *n > 0));
    }

    #[test]
    fn dropouts_lose_the_sample_but_not_the_run() {
        let mut e = hazardous_env(
            HazardConfig {
                dropout_prob: 0.2,
                ..HazardConfig::none()
            },
            9,
        );
        let mut ok = 0;
        let mut dropped = 0;
        for _ in 0..300 {
            match e.sample_pair() {
                Ok(_) => ok += 1,
                Err(ClusterError::TelemetryDropout { .. }) => dropped += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(ok > 150 && dropped > 20, "ok {ok} dropped {dropped}");
    }

    #[test]
    fn outliers_corrupt_one_arm_visibly() {
        let mut e = hazardous_env(
            HazardConfig {
                outlier_prob: 0.1,
                outlier_magnitude: 2.0,
                ..HazardConfig::none()
            },
            11,
        );
        let samples: Vec<PairSample> = (0..300).filter_map(|_| e.sample_pair().ok()).collect();
        let ratio_spread = |f: fn(&PairSample) -> f64| {
            let xs: Vec<f64> = samples.iter().map(f).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter()
                .map(|x| (x / mean - 1.0).abs())
                .fold(0.0, f64::max)
        };
        // A 3×/0.05× corruption dwarfs the percent-level noise.
        let max_dev = ratio_spread(|s| s.a_mips).max(ratio_spread(|s| s.b_mips));
        assert!(max_dev > 0.5, "corruption must be visible: {max_dev}");
        assert!(e
            .hazard_counts()
            .iter()
            .any(|(k, n)| k == "hazards/injected.outlier" && *n > 10));
    }

    #[test]
    fn spikes_raise_the_common_load() {
        let mut e = hazardous_env(
            HazardConfig {
                spike_rate_per_hour: 20.0,
                spike_duration_s: 600.0,
                spike_magnitude: 0.4,
                ..HazardConfig::none()
            },
            13,
        );
        let loads: Vec<f64> = (0..400)
            .filter_map(|_| e.sample_pair().ok().map(|s| s.load))
            .collect();
        let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = loads.iter().fold(2.0f64, |a, &b| a.min(b));
        assert!(max / min > 1.2, "spikes must move load: {min}..{max}");
    }

    #[test]
    fn knob_failures_are_transient_and_recorded() {
        let mut e = hazardous_env(
            HazardConfig {
                knob_failure_prob: 0.5,
                ..HazardConfig::none()
            },
            17,
        );
        let cfg = e.arm_config(Arm::B).clone();
        let mut failures = 0;
        let mut succeeded = false;
        for _ in 0..50 {
            match e.reconfigure(Arm::B, cfg.clone(), false) {
                Ok(()) => {
                    succeeded = true;
                    break;
                }
                Err(ClusterError::KnobApplyFailed { arm, .. }) => {
                    assert_eq!(arm, Arm::B);
                    failures += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(succeeded, "knob failures must be transient");
        if failures > 0 {
            assert!(e
                .hazard_counts()
                .iter()
                .any(|(k, _)| k == "hazards/injected.knob_failure"));
        }
    }

    #[test]
    fn hazardous_runs_are_deterministic_given_seed() {
        let hz = HazardConfig::moderate();
        let mut e1 = hazardous_env(hz, 19);
        let mut e2 = hazardous_env(hz, 19);
        for _ in 0..200 {
            assert_eq!(e1.sample_pair(), e2.sample_pair());
        }
        assert_eq!(e1.hazard_counts(), e2.hazard_counts());
    }

    #[test]
    fn recovery_events_are_recorded() {
        let mut e = env();
        e.sample_pair().unwrap();
        e.record_event("recovery", "arm_down");
        e.record_event("recovery", "arm_down");
        let counts = e.hazard_counts();
        assert!(counts
            .iter()
            .any(|(k, n)| k == "recovery/arm_down" && *n == 2));
        assert_eq!(e.telemetry().series_count(), 1);
    }
}
