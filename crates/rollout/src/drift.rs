//! Post-deployment drift monitoring (paper Sec. 7).
//!
//! "Frequent software releases … can change a microservice's architectural
//! bottlenecks, requiring µSKU tuning to be an ongoing process." A deployed
//! soft SKU's advantage over the holdback baseline group is re-measured in
//! rolling windows; when the upper confidence bound of the relative gain
//! falls below the configured floor, the SKU has drifted and a *scoped*
//! re-tune — same service, same knob subset, fresh seed from the
//! `RolloutRetune` stream family — is enqueued for the fleet tuner.

use crate::error::RolloutError;
use softsku_cluster::{FailureDomain, StagedFleet, TICK_S};
use softsku_knobs::Knob;
use softsku_telemetry::stats::{welch_test, RunningStats};
use softsku_telemetry::streams::{stream_seed, IdentitySeed, StreamFamily};
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey, SloEvaluator, SloSpec};
use softsku_workloads::{Microservice, PlatformKind};

/// Drift-detection parameters.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Fleet ticks per rolling gain window.
    pub window_ticks: usize,
    /// Windows observed before declaring the SKU healthy.
    pub max_windows: usize,
    /// Latency threshold of the deployed SKU's availability SLO, seconds:
    /// candidate latency samples above it burn error budget, and a
    /// sustained multi-window burn triggers a re-tune even while the
    /// throughput gain still holds. `0.0` disables the burn trigger.
    pub slo_threshold_s: f64,
}

/// The deployed SKU must keep this much relative gain: drift fires when the
/// *upper* confidence bound of the windowed gain drops below it.
const MIN_GAIN: f64 = 0.01;

/// Consecutive alerting SLO evaluations (sustained burn) that fire the
/// burn-triggered re-tune.
const SLO_SUSTAIN: u32 = 4;

impl DriftConfig {
    /// Small, fast parameters for tests and smoke runs. The SLO burn
    /// trigger ships disabled so gain-only monitoring replays exactly;
    /// set [`DriftConfig::slo_threshold_s`] to arm it.
    pub fn fast_test() -> Self {
        DriftConfig {
            window_ticks: 48,
            max_windows: 6,
            slo_threshold_s: 0.0,
        }
    }
}

/// Identity of the deployed SKU the monitor watches — also the scope of
/// any re-tune it enqueues.
#[derive(Debug, Clone)]
pub struct DeployedSku {
    /// The service the SKU serves.
    pub service: Microservice,
    /// The platform it runs on.
    pub platform: PlatformKind,
    /// The knobs the SKU changes (the re-tune sweeps exactly these).
    pub knobs: Vec<Knob>,
    /// The lifecycle base seed re-tune seeds derive from.
    pub base_seed: u64,
}

/// A scoped re-tune order for the fleet tuner.
#[derive(Debug, Clone)]
pub struct RetuneRequest {
    /// The service to re-tune.
    pub service: Microservice,
    /// The platform to re-tune on.
    pub platform: PlatformKind,
    /// The knob subset to sweep (the deployed SKU's knobs).
    pub knobs: Vec<Knob>,
    /// Base seed of the re-tune campaign, derived from the lifecycle seed
    /// and the drift window through [`StreamFamily::RolloutRetune`].
    pub base_seed: u64,
    /// The failure domain whose fleet drifted, when the fleet is tagged —
    /// a scoped re-tune must target this pool/rack, not re-tune healthy
    /// pools that happen to run the same service.
    pub domain: Option<FailureDomain>,
}

/// What the monitor concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftVerdict {
    /// The gain held through every window.
    Healthy {
        /// Windows observed.
        windows: usize,
        /// Relative gain of the final window.
        last_gain: f64,
    },
    /// The gain's upper confidence bound fell below the floor.
    Drifted {
        /// Zero-based window index that fired.
        window: usize,
        /// Relative gain of that window.
        gain: f64,
        /// Upper confidence bound of that gain.
        upper_ci: f64,
        /// Code pushes the fleet had absorbed by then.
        code_pushes: u64,
    },
    /// A sustained SLO burn demanded a re-tune while the throughput gain
    /// still held: the candidate serves enough queries but serves them
    /// too slowly.
    SloBurn {
        /// Zero-based window index in which the burn sustained.
        window: usize,
        /// Consecutive alerting evaluations at the trigger.
        sustained: u32,
        /// Fast-window burn rate at the trigger.
        burn_fast: f64,
    },
}

/// One rolling window's gain measurement.
#[derive(Debug, Clone, Copy)]
pub struct WindowGain {
    /// Zero-based window index.
    pub window: usize,
    /// Relative gain (candidate/baseline − 1) of the window means.
    pub gain: f64,
    /// Upper confidence bound of the relative gain.
    pub upper_ci: f64,
}

/// Outcome of a monitoring run.
#[derive(Debug)]
pub struct DriftOutcome {
    /// The verdict.
    pub verdict: DriftVerdict,
    /// Every window observed, in time order.
    pub windows: Vec<WindowGain>,
    /// The re-tune order, present exactly when the verdict is
    /// [`DriftVerdict::Drifted`] or [`DriftVerdict::SloBurn`].
    pub retune: Option<RetuneRequest>,
}

/// Watches a deployed SKU's measured gain over rolling windows.
#[derive(Debug, Clone, Copy)]
pub struct DriftMonitor {
    config: DriftConfig,
}

impl DriftMonitor {
    /// Creates a monitor.
    pub fn new(config: DriftConfig) -> Self {
        DriftMonitor { config }
    }

    /// Whether a measured window constitutes drift under this monitor's
    /// floor: the gain's *upper* confidence bound fell below 1 %.
    /// `skuctl ledger` and the SLO evaluator's sustained-burn path call
    /// this instead of re-implementing the comparison.
    pub fn drifted(&self, window: &WindowGain) -> bool {
        window.upper_ci < MIN_GAIN
    }

    /// Builds the scoped re-tune order for `sku` after window `window`
    /// fired — also the coordinator's entry point when a *sustained SLO
    /// burn* (rather than gain decay) demands a re-tune, so both triggers
    /// derive their campaign seeds through the same registered stream.
    pub fn retune_for(
        &self,
        sku: &DeployedSku,
        window: usize,
        domain: Option<FailureDomain>,
    ) -> RetuneRequest {
        RetuneRequest {
            service: sku.service,
            platform: sku.platform,
            knobs: sku.knobs.clone(),
            base_seed: self.retune_seed(sku, window),
            domain,
        }
    }

    /// Observes `fleet` (which must have candidate replicas staged) for up
    /// to `max_windows` rolling windows, recording per-window gains to the
    /// `rollout.drift_gain` series and, on drift, `rollout.drift` plus a
    /// [`RetuneRequest`] scoped to `sku`.
    ///
    /// The fleet's code pushes keep landing while the monitor watches —
    /// that is the drift mechanism — so the measured gain is live, not the
    /// rollout-time estimate.
    ///
    /// # Errors
    ///
    /// Fleet/engine errors and ODS append errors.
    pub fn watch(
        &self,
        fleet: &mut StagedFleet,
        sku: &DeployedSku,
        ods: &mut Ods,
    ) -> Result<DriftOutcome, RolloutError> {
        self.watch_traced(fleet, sku, ods, &mut TraceSink::disabled())
    }

    /// [`DriftMonitor::watch`] with observability: a root `drift` span on
    /// the sink's current track (time axis = the fleet's simulated clock),
    /// one child span per rolling window carrying its gain and upper
    /// confidence bound, a `drift.gain` counter per window, and — when
    /// drift fires — an instant `retune.request` event carrying the derived
    /// campaign seed and its `rollout.retune` stream family.
    ///
    /// The verdict and ledger contents are bit-identical with tracing on
    /// or off.
    ///
    /// # Errors
    ///
    /// Fleet/engine errors and ODS append errors.
    pub fn watch_traced(
        &self,
        fleet: &mut StagedFleet,
        sku: &DeployedSku,
        ods: &mut Ods,
        sink: &mut TraceSink,
    ) -> Result<DriftOutcome, RolloutError> {
        let service = sku.service.name();
        let root = sink.open("drift", &format!("drift {service}"), fleet.time_s());
        sink.attr(root, "service", AttrValue::Str(service.to_string()));
        sink.attr(root, "min_gain", AttrValue::F64(MIN_GAIN));
        // The burn trigger is armed only by a positive threshold; when it
        // is off, no evaluator exists and gain-only runs replay exactly.
        let mut slo = if self.config.slo_threshold_s > 0.0 {
            Some(SloEvaluator::new(SloSpec::new(
                service,
                self.config.slo_threshold_s,
                0.99,
                5.0 * TICK_S,
                20.0 * TICK_S,
            )?))
        } else {
            None
        };
        let mut windows = Vec::new();
        let mut last_gain = 0.0;
        for window in 0..self.config.max_windows.max(1) {
            let window_start = fleet.time_s();
            let mut base = RunningStats::new();
            let mut cand = RunningStats::new();
            for _ in 0..self.config.window_ticks.max(2) {
                let sample = fleet.tick()?;
                if let Some(cq) = sample.candidate_qps {
                    base.push(sample.baseline_qps);
                    cand.push(cq);
                }
                if let Some(eval) = slo.as_mut() {
                    if let Some(cl) = sample.candidate_latency_s {
                        eval.observe(sample.time_s, cl, None)?;
                    }
                    let status = eval.evaluate(sample.time_s, ods, sink)?;
                    if status.sustained >= SLO_SUSTAIN {
                        let now = sample.time_s;
                        ods.append(
                            &SeriesKey::keyed(service, LedgerKey::SloRetune),
                            now,
                            status.burn_fast,
                        )?;
                        let retune = self.retune_for(sku, window, fleet.domain().cloned());
                        let ev = sink.leaf(
                            LedgerKey::DriftEvent.name(),
                            LedgerKey::SloRetune.name(),
                            now,
                            0.0,
                        );
                        sink.attr(ev, "window", AttrValue::Int(window as i64));
                        sink.attr(ev, "sustained", AttrValue::Int(status.sustained as i64));
                        sink.attr(ev, "burn_fast", AttrValue::F64(status.burn_fast));
                        sink.attr(
                            ev,
                            "seed",
                            AttrValue::Str(format!("{:#018x}", retune.base_seed)),
                        );
                        sink.attr(root, "verdict", AttrValue::Str("slo_burn".to_string()));
                        sink.close(root, now);
                        return Ok(DriftOutcome {
                            verdict: DriftVerdict::SloBurn {
                                window,
                                sustained: status.sustained,
                                burn_fast: status.burn_fast,
                            },
                            windows,
                            retune: Some(retune),
                        });
                    }
                }
            }
            let wg = self.window_gain(window, &base, &cand)?;
            let (gain, upper_ci) = (wg.gain, wg.upper_ci);
            last_gain = gain;
            windows.push(wg);
            let now = fleet.time_s();
            let span = sink.leaf(
                LedgerKey::DriftWindow.name(),
                &format!("window {window}"),
                window_start,
                now - window_start,
            );
            sink.attr(span, "window", AttrValue::Int(window as i64));
            sink.attr(span, "gain", AttrValue::F64(gain));
            sink.attr(span, "upper_ci", AttrValue::F64(upper_ci));
            sink.counter(LedgerKey::DriftGain.name(), now, gain);
            ods.append(
                &SeriesKey::keyed(service, LedgerKey::RolloutDriftGain),
                now,
                gain,
            )?;
            if self.drifted(&wg) {
                ods.append(
                    &SeriesKey::keyed(service, LedgerKey::RolloutDrift),
                    now,
                    upper_ci,
                )?;
                let retune = self.retune_for(sku, window, fleet.domain().cloned());
                ods.append(
                    &SeriesKey::keyed(service, LedgerKey::RolloutRetune),
                    now,
                    window as f64,
                )?;
                let ev = sink.leaf(LedgerKey::DriftEvent.name(), "retune.request", now, 0.0);
                sink.attr(ev, "window", AttrValue::Int(window as i64));
                sink.attr(ev, "upper_ci", AttrValue::F64(upper_ci));
                sink.attr(
                    ev,
                    "seed",
                    AttrValue::Str(format!("{:#018x}", retune.base_seed)),
                );
                sink.attr(
                    ev,
                    "stream_family",
                    AttrValue::Str(StreamFamily::RolloutRetune.name().to_string()),
                );
                if let Some(domain) = &retune.domain {
                    sink.attr(ev, "domain", AttrValue::Str(domain.to_string()));
                }
                let verdict = DriftVerdict::Drifted {
                    window,
                    gain,
                    upper_ci,
                    code_pushes: fleet.code_pushes(),
                };
                sink.attr(root, "verdict", AttrValue::Str("drifted".to_string()));
                sink.close(root, now);
                return Ok(DriftOutcome {
                    verdict,
                    windows,
                    retune: Some(retune),
                });
            }
        }
        sink.attr(root, "verdict", AttrValue::Str("healthy".to_string()));
        sink.close(root, fleet.time_s());
        Ok(DriftOutcome {
            verdict: DriftVerdict::Healthy {
                windows: windows.len(),
                last_gain,
            },
            windows,
            retune: None,
        })
    }

    /// The re-tune campaign's base seed: a pure function of the lifecycle
    /// seed, the SKU identity, and the window that fired — no wall clock,
    /// no global counter — folded through the registered
    /// [`StreamFamily::RolloutRetune`] mask.
    fn retune_seed(&self, sku: &DeployedSku, window: usize) -> u64 {
        let identity = IdentitySeed::new(sku.base_seed)
            .field(sku.service.name())
            .field(&sku.platform.to_string())
            .field("retune")
            .field(&window.to_string())
            .finish();
        stream_seed(identity, StreamFamily::RolloutRetune)
    }

    /// The rolling window's relative gain and its upper confidence bound —
    /// the single implementation of the monitor's windowing math. Public so
    /// every consumer of the rolling upper-CI state (`skuctl ledger`, the
    /// SLO evaluator's burn-triggered re-tune path, tests) reads the same
    /// numbers the verdict is computed from instead of duplicating the
    /// Welch rescaling.
    ///
    /// # Errors
    ///
    /// Statistics errors from degenerate summaries.
    pub fn window_gain(
        &self,
        window: usize,
        base: &RunningStats,
        cand: &RunningStats,
    ) -> Result<WindowGain, RolloutError> {
        if base.count() < 2 || cand.count() < 2 || base.mean() <= 0.0 {
            // An unstaged or starved window measures no gain at all —
            // treat it as fully drifted rather than healthy.
            return Ok(WindowGain {
                window,
                gain: 0.0,
                upper_ci: f64::NEG_INFINITY,
            });
        }
        let b = base.summary()?;
        let c = cand.summary()?;
        // `mean_diff = candidate − baseline`; its CI rescaled by the
        // baseline mean is the relative-gain CI.
        let welch = welch_test(&c, &b);
        let (_, hi) = welch.diff_ci(&c, &b);
        Ok(WindowGain {
            window,
            gain: c.mean() / b.mean() - 1.0,
            upper_ci: hi / b.mean(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_cluster::StagedFleetConfig;
    use softsku_telemetry::stats::nearest_rank;

    fn staged_fleet(seed: u64, tail_mult: f64) -> StagedFleet {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let mut candidate = baseline.clone();
        candidate.shp_pages = 300;
        let mut fleet = StagedFleet::new(
            profile,
            baseline,
            candidate,
            StagedFleetConfig::fast_test(),
            seed,
        )
        .unwrap();
        fleet.stage_to(1.0);
        fleet.inject_tail_regression(tail_mult);
        fleet
    }

    fn deployed_sku(seed: u64) -> DeployedSku {
        DeployedSku {
            service: Microservice::Web,
            platform: PlatformKind::Skylake18,
            knobs: vec![Knob::Thp],
            base_seed: seed,
        }
    }

    /// The healthy candidate's own p99 latency, measured on a throwaway
    /// replica of the fleet — the SLO threshold tests pin against, so the
    /// test tracks the latency model instead of hardcoding seconds.
    fn healthy_p99(seed: u64) -> f64 {
        let mut fleet = staged_fleet(seed, 1.0);
        let mut lat = Vec::new();
        for _ in 0..400 {
            let s = fleet.tick().unwrap();
            if let Some(cl) = s.candidate_latency_s {
                lat.push(cl);
            }
        }
        lat.sort_by(f64::total_cmp);
        nearest_rank(&lat, 0.99).unwrap()
    }

    #[test]
    fn sustained_slo_burn_triggers_a_scoped_retune() {
        let threshold = healthy_p99(47);
        let mut cfg = DriftConfig::fast_test();
        cfg.slo_threshold_s = threshold;
        let monitor = DriftMonitor::new(cfg);
        // A 3x tail regression pushes nearly every candidate sample over
        // the healthy p99: the fast window burns ~100x budget and the
        // alert sustains within the first gain window.
        let mut fleet = staged_fleet(47, 3.0);
        let mut ods = Ods::rollout_ledger();
        let out = monitor
            .watch(&mut fleet, &deployed_sku(47), &mut ods)
            .unwrap();
        let DriftVerdict::SloBurn {
            window,
            sustained,
            burn_fast,
        } = out.verdict
        else {
            panic!(
                "3x regression must trip the burn trigger: {:?}",
                out.verdict
            );
        };
        assert_eq!(window, 0, "burn fires before the first gain window closes");
        assert!(sustained >= SLO_SUSTAIN);
        assert!(burn_fast > MIN_GAIN, "burn rate is far above 1");
        let retune = out.retune.expect("burn verdict carries a scoped re-tune");
        assert_eq!(retune.service, Microservice::Web);
        assert_eq!(
            ods.len(&SeriesKey::keyed("Web", LedgerKey::SloRetune)),
            1,
            "exactly one slo.retune ledger point"
        );
        assert!(
            ods.len(&SeriesKey::keyed("Web", LedgerKey::SloBurnFast)) > 0,
            "evaluator ledgered fast-window burn rates"
        );
    }

    #[test]
    fn healthy_latency_never_trips_the_burn_trigger() {
        // Production SLO thresholds carry headroom over the healthy tail;
        // at exactly the healthy p99 a 6-sample fast window alerts on any
        // single tail draw (burn 16.7 > 14.4), so 1.5x is the honest
        // "healthy" operating point. The 3x regression above still blows
        // through it.
        let threshold = 1.5 * healthy_p99(47);
        let mut cfg = DriftConfig::fast_test();
        cfg.slo_threshold_s = threshold;
        let monitor = DriftMonitor::new(cfg);
        let mut fleet = staged_fleet(47, 1.0);
        let mut ods = Ods::rollout_ledger();
        let out = monitor
            .watch(&mut fleet, &deployed_sku(47), &mut ods)
            .unwrap();
        assert!(
            !matches!(out.verdict, DriftVerdict::SloBurn { .. }),
            "healthy tail must not sustain a burn: {:?}",
            out.verdict
        );
        assert_eq!(
            ods.len(&SeriesKey::keyed("Web", LedgerKey::SloRetune)),
            0,
            "no slo.retune point without a sustained burn"
        );
    }

    #[test]
    fn disarmed_trigger_leaves_gain_only_monitoring_bit_identical() {
        let run = |arm: bool| {
            let mut cfg = DriftConfig::fast_test();
            if arm {
                // Threshold 0.0 is the disarmed sentinel; a negative-free
                // arm/disarm pair must replay the exact same fleet ticks.
                cfg.slo_threshold_s = 0.0;
            }
            let monitor = DriftMonitor::new(cfg);
            let mut fleet = staged_fleet(53, 1.0);
            let mut ods = Ods::rollout_ledger();
            let out = monitor
                .watch(&mut fleet, &deployed_sku(53), &mut ods)
                .unwrap();
            (
                format!("{:?}", out.verdict),
                out.windows
                    .iter()
                    .map(|w| w.gain.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
