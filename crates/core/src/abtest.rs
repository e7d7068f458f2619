//! The A/B tester (paper Sec. 4, Fig. 13).
//!
//! For each point of the sweep, the tester applies the knob setting to the
//! candidate arm, discards a warm-up phase "to avoid cold start bias",
//! records spaced performance samples, and stops when 95 % confidence is
//! achieved — or gives up after ~30 000 observations and declares no
//! statistically significant difference. QoS-violating settings are
//! discarded, and reboot-requiring settings are skipped for services that
//! cannot tolerate them.
//!
//! The tester is also *self-healing* against injected production hazards
//! (see [`softsku_cluster::hazards`]): knob-apply failures are retried with
//! exponential backoff, arm outages are waited out and followed by an
//! automatic re-warmup, corrupted samples are screened by a rolling
//! [`MadFilter`] before they reach the accumulators, a QoS guardrail rolls
//! the candidate back to production when it keeps violating the SLO while
//! the baseline does not, and when the disruption budget runs out the test
//! degrades gracefully to [`Verdict::Inconclusive`] — it never panics and
//! never loops forever.

use crate::error::UskuError;
use crate::metric::PerformanceMetric;
use softsku_cluster::{AbEnvironment, Arm, ClusterError};
use softsku_knobs::KnobSetting;
use softsku_telemetry::stats::{welch_test, MadFilter, RunningStats, Summary, WelchResult};

/// Stopping rules for one A/B test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbTestConfig {
    /// Warm-up samples discarded after a configuration change.
    pub warmup_samples: usize,
    /// Minimum samples per arm before any verdict.
    pub min_samples: usize,
    /// Sample budget; reaching it ⇒ "no statistically significant
    /// difference" (the paper's ~30 000-observation rule).
    pub max_samples: usize,
    /// Relative difference below which two settings are considered
    /// practically indistinguishable even if statistically significant.
    pub min_effect: f64,
    /// How many samples between statistical checks.
    pub batch: usize,
    /// Base backoff between knob-apply retries, seconds (doubled per retry).
    pub backoff_base_s: f64,
    /// Rolling window of the MAD outlier filter (accepted samples tracked
    /// per arm).
    pub mad_window: usize,
}

/// Retries for a transiently failing knob application (exponential backoff
/// between attempts) before the test is declared inconclusive.
const MAX_RETRIES: usize = 6;

/// MAD multiples beyond which a sample is rejected as corrupted. ~8 is
/// inert on clean data (a ≳5σ event) but catches injected outliers.
const MAD_K: f64 = 8.0;

/// Consecutive candidate-only QoS failures that trigger a rollback to
/// production (the guardrail ignores spikes that hurt both arms).
const QOS_GUARDRAIL_K: usize = 3;

impl Default for AbTestConfig {
    fn default() -> Self {
        AbTestConfig {
            warmup_samples: 12,
            min_samples: 120,
            max_samples: 30_000,
            min_effect: 0.0015,
            batch: 60,
            backoff_base_s: 60.0,
            mad_window: 64,
        }
    }
}

impl AbTestConfig {
    /// A small-budget configuration for unit tests.
    pub fn fast_test() -> Self {
        AbTestConfig {
            warmup_samples: 4,
            min_samples: 60,
            max_samples: 2_000,
            min_effect: 0.002,
            batch: 30,
            backoff_base_s: 30.0,
            mad_window: 48,
        }
    }

    /// Hard ceiling on environment samples spent on one test, disruptions
    /// included: twice the statistical budget.
    fn attempt_budget(&self) -> usize {
        self.max_samples.saturating_mul(2)
    }
}

/// Why a test ended without a statistical verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// Disruptions ate the sample budget (2 × `max_samples` attempts spent)
    /// before the stopping rules fired.
    SampleBudgetExhausted,
    /// An arm stayed down past every recovery attempt.
    ArmUnrecoverable,
    /// The knob never applied within the retry budget.
    KnobApplyFailed,
}

impl std::fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InconclusiveReason::SampleBudgetExhausted => {
                f.write_str("disruptions exhausted the sample budget")
            }
            InconclusiveReason::ArmUnrecoverable => f.write_str("arm did not recover"),
            InconclusiveReason::KnobApplyFailed => {
                f.write_str("knob application failed past the retry budget")
            }
        }
    }
}

/// Outcome category of one A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The candidate beats the baseline with statistical significance.
    Better {
        /// Relative gain of candidate over baseline.
        gain: f64,
    },
    /// The candidate loses with statistical significance.
    Worse {
        /// Relative loss (negative value).
        loss: f64,
    },
    /// No statistically significant difference within the sample budget.
    NoDifference,
    /// The setting violates the service's QoS and was discarded (paper
    /// Sec. 7: "we discard parts of the µSKU tuning space that lead to
    /// violations").
    QosViolated,
    /// The setting requires a reboot the service cannot tolerate.
    SkippedRebootIntolerant,
    /// Hazards disrupted the test beyond repair; no statistical claim is
    /// made either way (graceful degradation, never a panic).
    Inconclusive {
        /// What ended the test.
        reason: InconclusiveReason,
    },
}

impl Verdict {
    /// Relative gain if positive and significant, else `None`.
    pub fn gain(&self) -> Option<f64> {
        match self {
            Verdict::Better { gain } => Some(*gain),
            _ => None,
        }
    }

    /// Stable lowercase category label, used as a trace attribute and in
    /// `skuctl` output.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Better { .. } => "better",
            Verdict::Worse { .. } => "worse",
            Verdict::NoDifference => "no-difference",
            Verdict::QosViolated => "qos-violated",
            Verdict::SkippedRebootIntolerant => "skipped-reboot-intolerant",
            Verdict::Inconclusive { .. } => "inconclusive",
        }
    }
}

/// Full record of one A/B test.
#[derive(Debug, Clone)]
pub struct AbTestResult {
    /// The setting that was applied to the candidate arm.
    pub setting: KnobSetting,
    /// Baseline-arm sample summary.
    pub baseline: Option<Summary>,
    /// Candidate-arm sample summary.
    pub candidate: Option<Summary>,
    /// Welch test at stop time.
    pub welch: Option<WelchResult>,
    /// The verdict.
    pub verdict: Verdict,
    /// Samples collected per arm.
    pub samples: usize,
    /// Environment samples attempted, disruptions and warm-ups included
    /// (bounded at 2 × `max_samples`).
    pub attempts: usize,
    /// Paired samples rejected by the MAD outlier filter.
    pub rejected_outliers: usize,
}

impl AbTestResult {
    /// Relative mean difference (candidate/baseline − 1) when measured.
    pub fn relative_diff(&self) -> Option<f64> {
        match (&self.baseline, &self.candidate) {
            (Some(a), Some(b)) if a.mean() != 0.0 => Some(b.mean() / a.mean() - 1.0),
            _ => None,
        }
    }
}

/// Runs A/B tests against an [`AbEnvironment`].
#[derive(Debug)]
pub struct AbTester {
    config: AbTestConfig,
    metric: PerformanceMetric,
}

impl AbTester {
    /// Creates a tester with the given stopping rules and metric.
    pub fn new(config: AbTestConfig, metric: PerformanceMetric) -> Self {
        AbTester { config, metric }
    }

    /// Tests `setting` applied on top of `baseline_config` against
    /// `baseline_config` itself.
    ///
    /// The baseline arm (A) keeps `baseline_config`; the candidate arm (B)
    /// gets `baseline_config + setting`. Both arms face the same traffic.
    ///
    /// # Errors
    ///
    /// Environment/engine errors. Invalid-but-expected situations (QoS
    /// violation, reboot intolerance) are verdicts, not errors.
    pub fn run(
        &self,
        env: &mut AbEnvironment,
        baseline_config: &softsku_archsim::engine::ServerConfig,
        setting: KnobSetting,
    ) -> Result<AbTestResult, UskuError> {
        // Build the candidate configuration.
        let mut candidate_config = baseline_config.clone();
        if let Err(e) = setting.apply(&mut candidate_config) {
            // Platform-invalid settings are configurator bugs — surface them.
            return Err(UskuError::Knob(e));
        }
        let needs_reboot = setting.knob().requires_reboot();
        self.run_config(
            env,
            baseline_config,
            &candidate_config,
            needs_reboot,
            setting,
        )
    }

    /// Tests an arbitrary whole candidate configuration against the baseline
    /// (used by the exhaustive sweep and final soft-SKU validation). The
    /// result is labelled with `label` for the design-space map.
    ///
    /// # Errors
    ///
    /// Environment/engine errors; QoS and reboot outcomes are verdicts.
    pub fn run_config(
        &self,
        env: &mut AbEnvironment,
        baseline_config: &softsku_archsim::engine::ServerConfig,
        candidate_config: &softsku_archsim::engine::ServerConfig,
        needs_reboot: bool,
        label: KnobSetting,
    ) -> Result<AbTestResult, UskuError> {
        let setting = label;
        let early = |verdict: Verdict| AbTestResult {
            setting,
            baseline: None,
            candidate: None,
            welch: None,
            verdict,
            samples: 0,
            attempts: 0,
            rejected_outliers: 0,
        };

        // Reboot gating + knob application with bounded retry (fleet
        // tooling flakes transiently under injected hazards).
        match self.reconfigure_with_retry(env, Arm::B, candidate_config, needs_reboot) {
            Ok(true) => {}
            Ok(false) => {
                return Ok(early(Verdict::Inconclusive {
                    reason: InconclusiveReason::KnobApplyFailed,
                }));
            }
            Err(UskuError::Cluster(ClusterError::RebootNotTolerated { .. })) => {
                return Ok(early(Verdict::SkippedRebootIntolerant));
            }
            Err(e) => return Err(e),
        }
        if !self.reconfigure_with_retry(env, Arm::A, baseline_config, false)? {
            return Ok(early(Verdict::Inconclusive {
                reason: InconclusiveReason::KnobApplyFailed,
            }));
        }

        // QoS guard before spending samples.
        if !env.qos_ok(Arm::B)? {
            return Ok(early(Verdict::QosViolated));
        }

        let mut acc_a = RunningStats::new();
        let mut acc_b = RunningStats::new();
        let mut mad_a = MadFilter::new(self.config.mad_window, MAD_K);
        let mut mad_b = MadFilter::new(self.config.mad_window, MAD_K);
        let mut attempts = 0usize;
        let mut rejected_outliers = 0usize;
        // Initial warm-up, and re-warm after every outage: an arm that just
        // came back serves cold caches.
        let mut rewarm = self.config.warmup_samples;
        let mut qos_strikes = 0usize;
        let budget = self.config.attempt_budget();

        let finish = |verdict: Verdict,
                      acc_a: &RunningStats,
                      acc_b: &RunningStats,
                      attempts: usize,
                      rejected_outliers: usize| {
            let sa = acc_a.summary().ok();
            let sb = acc_b.summary().ok();
            let welch = match (&sa, &sb) {
                (Some(a), Some(b)) => Some(welch_test(b, a)),
                _ => None,
            };
            AbTestResult {
                setting,
                baseline: sa,
                candidate: sb,
                welch,
                verdict,
                samples: acc_a.count() as usize,
                attempts,
                rejected_outliers,
            }
        };

        loop {
            // Collect one batch, healing around disruptions as they land.
            let mut collected = 0usize;
            while collected < self.config.batch {
                if attempts >= budget {
                    return Ok(finish(
                        Verdict::Inconclusive {
                            reason: InconclusiveReason::SampleBudgetExhausted,
                        },
                        &acc_a,
                        &acc_b,
                        attempts,
                        rejected_outliers,
                    ));
                }
                attempts += 1;
                match self.metric.sample(env) {
                    Ok((a, b)) => {
                        if rewarm > 0 {
                            rewarm -= 1;
                            continue;
                        }
                        // Screen both readings; a corrupted reading on either
                        // arm drops the whole pair so the arms stay paired.
                        let ok_a = mad_a.accept(a);
                        let ok_b = mad_b.accept(b);
                        if ok_a && ok_b {
                            acc_a.push(a);
                            acc_b.push(b);
                            collected += 1;
                        } else {
                            rejected_outliers += 1;
                            env.record_event("recovery", "outlier_rejected");
                        }
                    }
                    Err(UskuError::Cluster(ClusterError::ArmDown { until_s, .. })) => {
                        // Wait out the outage, then re-warm the returned arm.
                        let gap = (until_s - env.time_s()).max(0.0);
                        env.wait(gap);
                        env.record_event("recovery", "arm_down");
                        rewarm = self.config.warmup_samples;
                    }
                    Err(UskuError::Cluster(ClusterError::TelemetryDropout { .. })) => {
                        // The sample is gone but the clock advanced; the next
                        // one is independent. Nothing to heal beyond noting it.
                        env.record_event("recovery", "dropout");
                    }
                    Err(e) => return Err(e),
                }
            }

            // QoS guardrail: a candidate that keeps violating the SLO while
            // the baseline (same load, spikes included) does not is rolled
            // back to production immediately — fleet safety beats finishing
            // the measurement.
            let b_ok = env.qos_ok_now(Arm::B)?;
            let a_ok = env.qos_ok_now(Arm::A)?;
            if !b_ok && a_ok {
                qos_strikes += 1;
            } else {
                qos_strikes = 0;
            }
            if qos_strikes >= QOS_GUARDRAIL_K {
                // Best-effort rollback; the verdict stands either way.
                let _ = self.reconfigure_with_retry(env, Arm::B, baseline_config, false);
                env.record_event("recovery", "qos_rollback");
                return Ok(finish(
                    Verdict::QosViolated,
                    &acc_a,
                    &acc_b,
                    attempts,
                    rejected_outliers,
                ));
            }

            let n = acc_a.count() as usize;
            if n < self.config.min_samples {
                continue;
            }
            let sa = acc_a.summary()?;
            let sb = acc_b.summary()?;
            let w = welch_test(&sb, &sa); // candidate minus baseline
            let rel = sb.mean() / sa.mean() - 1.0;
            let significant = w.significant();

            if significant && rel.abs() >= self.config.min_effect {
                let verdict = if rel > 0.0 {
                    Verdict::Better { gain: rel }
                } else {
                    Verdict::Worse { loss: rel }
                };
                return Ok(AbTestResult {
                    setting,
                    baseline: Some(sa),
                    candidate: Some(sb),
                    welch: Some(w),
                    verdict,
                    samples: n,
                    attempts,
                    rejected_outliers,
                });
            }

            // Converged-to-equality check: the CI on the relative difference
            // is narrower than the minimum effect we care about.
            let (lo, hi) = w.diff_ci(&sb, &sa);
            let half_rel = ((hi - lo) / 2.0 / sa.mean()).abs();
            if half_rel < self.config.min_effect || n >= self.config.max_samples {
                return Ok(AbTestResult {
                    setting,
                    baseline: Some(sa),
                    candidate: Some(sb),
                    welch: Some(w),
                    verdict: Verdict::NoDifference,
                    samples: n,
                    attempts,
                    rejected_outliers,
                });
            }
        }
    }

    /// Applies `config` to `arm`, retrying transient knob-apply failures
    /// with exponential backoff. Returns `Ok(false)` when the retry budget
    /// is exhausted (the caller degrades to an inconclusive verdict).
    ///
    /// # Errors
    ///
    /// Non-transient environment errors (reboot intolerance, engine
    /// validation) propagate untouched.
    fn reconfigure_with_retry(
        &self,
        env: &mut AbEnvironment,
        arm: Arm,
        config: &softsku_archsim::engine::ServerConfig,
        needs_reboot: bool,
    ) -> Result<bool, UskuError> {
        for attempt in 0..=MAX_RETRIES {
            match env.reconfigure(arm, config.clone(), needs_reboot) {
                Ok(()) => {
                    if attempt > 0 {
                        env.record_event("recovery", "knob_retry_ok");
                    }
                    return Ok(true);
                }
                Err(ClusterError::KnobApplyFailed { .. }) => {
                    let backoff =
                        self.config.backoff_base_s.max(1.0) * f64::powi(2.0, attempt as i32);
                    env.wait(backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_cluster::EnvConfig;
    use softsku_knobs::KnobSetting;
    use softsku_workloads::{Microservice, PlatformKind};

    fn env(service: Microservice, platform: PlatformKind, seed: u64) -> AbEnvironment {
        let profile = service.profile(platform).unwrap();
        AbEnvironment::new(profile, EnvConfig::fast_test(), seed).unwrap()
    }

    fn tester() -> AbTester {
        AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips)
    }

    #[test]
    fn clear_regression_is_detected_quickly() {
        let mut e = env(Microservice::Web, PlatformKind::Skylake18, 3);
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::CoreFrequencyGhz(1.6))
            .unwrap();
        match r.verdict {
            Verdict::Worse { loss } => {
                assert!(loss < -0.10, "1.6 GHz should lose >10%: {loss}");
            }
            other => panic!("expected Worse, got {other:?}"),
        }
        assert!(
            r.samples < 1000,
            "clear effects need few samples: {}",
            r.samples
        );
    }

    #[test]
    fn identical_setting_converges_to_no_difference() {
        let mut e = env(Microservice::Web, PlatformKind::Skylake18, 5);
        let base = e.profile().production_config.clone();
        // Re-apply the production core frequency: a true null effect.
        let r = tester()
            .run(
                &mut e,
                &base,
                KnobSetting::CoreFrequencyGhz(base.core_freq_ghz),
            )
            .unwrap();
        assert_eq!(
            r.verdict,
            Verdict::NoDifference,
            "diff {:?}",
            r.relative_diff()
        );
    }

    #[test]
    fn shp_improvement_is_detected() {
        let mut e = env(Microservice::Web, PlatformKind::Skylake18, 7);
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::ShpPages(300))
            .unwrap();
        match r.verdict {
            Verdict::Better { gain } => assert!(gain > 0.02, "gain {gain}"),
            other => panic!("expected Better, got {other:?} ({:?})", r.relative_diff()),
        }
    }

    #[test]
    fn reboot_intolerant_service_skips_reboot_knobs() {
        let mut e = env(Microservice::Cache2, PlatformKind::Skylake18, 9);
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::CoreCount(8))
            .unwrap();
        assert_eq!(r.verdict, Verdict::SkippedRebootIntolerant);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn qos_violating_setting_is_discarded() {
        // Cache fails QoS with a starved LLC (Fig. 10's exclusion); CAT is
        // not a reboot knob, so it reaches the QoS guard.
        let mut e = env(Microservice::Cache2, PlatformKind::Skylake18, 11);
        let mut base = e.profile().production_config.clone();
        base.llc_ways_enabled = 2;
        // Probe via a no-reboot knob on the already-starved baseline.
        let r = tester()
            .run(
                &mut e,
                &base,
                KnobSetting::Thp(softsku_archsim::ThpMode::Madvise),
            )
            .unwrap();
        assert_eq!(r.verdict, Verdict::QosViolated);
    }

    fn hazardous_env(hazards: softsku_cluster::HazardConfig, seed: u64) -> AbEnvironment {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut cfg = EnvConfig::fast_test();
        cfg.hazards = hazards;
        AbEnvironment::new(profile, cfg, seed).unwrap()
    }

    #[test]
    fn survives_crashes_dropouts_and_outliers() {
        use softsku_cluster::HazardConfig;
        let mut e = hazardous_env(
            HazardConfig {
                crash_rate_per_hour: 1.0,
                crash_outage_s: 300.0,
                dropout_prob: 0.05,
                outlier_prob: 0.05,
                outlier_magnitude: 0.8,
                ..HazardConfig::none()
            },
            3,
        );
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::CoreFrequencyGhz(1.6))
            .unwrap();
        // The regression is huge; hazards must not flip or hide it.
        match r.verdict {
            Verdict::Worse { loss } => assert!(loss < -0.10, "loss {loss}"),
            other => panic!("expected Worse despite hazards, got {other:?}"),
        }
        assert!(r.attempts >= r.samples);
        assert!(
            r.attempts <= AbTestConfig::fast_test().attempt_budget(),
            "attempts {} over budget",
            r.attempts
        );
        assert!(r.rejected_outliers > 0, "80 % outliers must get screened");
    }

    #[test]
    fn outliers_do_not_flip_a_null_effect() {
        use softsku_cluster::HazardConfig;
        let mut e = hazardous_env(
            HazardConfig {
                outlier_prob: 0.04,
                outlier_magnitude: 1.0,
                ..HazardConfig::none()
            },
            5,
        );
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(
                &mut e,
                &base,
                KnobSetting::CoreFrequencyGhz(base.core_freq_ghz),
            )
            .unwrap();
        assert_eq!(
            r.verdict,
            Verdict::NoDifference,
            "diff {:?}",
            r.relative_diff()
        );
        assert!(r.rejected_outliers > 0);
    }

    #[test]
    fn knob_failures_retry_then_succeed_or_degrade() {
        use softsku_cluster::HazardConfig;
        // Flaky-but-workable tooling: retries succeed.
        let mut e = hazardous_env(
            HazardConfig {
                knob_failure_prob: 0.5,
                ..HazardConfig::none()
            },
            7,
        );
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::CoreFrequencyGhz(1.6))
            .unwrap();
        assert!(
            matches!(r.verdict, Verdict::Worse { .. }),
            "retries should land the knob: {:?}",
            r.verdict
        );

        // Hopeless tooling (validated cap is 0.9): the test must degrade to
        // an inconclusive verdict, not loop forever or panic.
        let mut e = hazardous_env(
            HazardConfig {
                knob_failure_prob: 0.9,
                ..HazardConfig::none()
            },
            1,
        );
        let mut saw_inconclusive = false;
        for seed_extra in 0..6 {
            let _ = seed_extra;
            let r = tester()
                .run(&mut e, &base, KnobSetting::CoreFrequencyGhz(1.6))
                .unwrap();
            if let Verdict::Inconclusive { reason } = r.verdict {
                assert_eq!(reason, InconclusiveReason::KnobApplyFailed);
                assert_eq!(r.samples, 0);
                saw_inconclusive = true;
                break;
            }
        }
        assert!(
            saw_inconclusive,
            "p=0.9 across 7 attempts should fail at least once in 6 runs"
        );
    }

    #[test]
    fn heavy_dropouts_exhaust_budget_gracefully() {
        use softsku_cluster::HazardConfig;
        // 90 % dropouts (validation cap): a null-effect test cannot converge
        // within 2× max_samples attempts, so it must degrade, not hang.
        let mut e = hazardous_env(
            HazardConfig {
                dropout_prob: 0.95,
                ..HazardConfig::none()
            },
            9,
        );
        let base = e.profile().production_config.clone();
        let mut cfg = AbTestConfig::fast_test();
        cfg.max_samples = 300;
        let t = AbTester::new(cfg, PerformanceMetric::Mips);
        let r = t
            .run(
                &mut e,
                &base,
                KnobSetting::CoreFrequencyGhz(base.core_freq_ghz),
            )
            .unwrap();
        match r.verdict {
            Verdict::Inconclusive { reason } => {
                assert_eq!(reason, InconclusiveReason::SampleBudgetExhausted);
                assert!(r.attempts <= cfg.attempt_budget());
            }
            // With ~10 % of samples surviving it may still converge; both
            // are acceptable — what matters is neither panic nor hang.
            Verdict::NoDifference => {}
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn qos_guardrail_rolls_back_candidate_only_violations() {
        use softsku_cluster::HazardConfig;
        // Constant heavy spikes push the load to the cap; a near-QoS-edge
        // candidate then violates while the production baseline holds.
        let mut e = hazardous_env(
            HazardConfig {
                spike_rate_per_hour: 60.0,
                spike_duration_s: 600.0,
                spike_magnitude: 0.5,
                ..HazardConfig::none()
            },
            11,
        );
        let base = e.profile().production_config.clone();
        let r = tester()
            .run(&mut e, &base, KnobSetting::CoreFrequencyGhz(1.6))
            .unwrap();
        match r.verdict {
            // Either the guardrail fires (rolled back, QosViolated) or the
            // huge regression is detected first — both are self-healing.
            Verdict::QosViolated | Verdict::Worse { .. } => {}
            other => panic!("unexpected verdict {other:?}"),
        }
        if r.verdict == Verdict::QosViolated {
            // Candidate was rolled back to the production configuration.
            assert_eq!(e.arm_config(Arm::B), &base);
        }
    }
}
