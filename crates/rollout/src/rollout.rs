//! Staged canary rollout with statistical QoS guardrails.
//!
//! A validated soft SKU is not flipped fleet-wide: following the staged
//! deployment practice the client-variability literature motivates, the
//! candidate walks canary stages (1 % → 25 % → 100 % of the service's
//! replicas by default). At each stage the candidate group's QPS is
//! compared against the baseline group under Welch's test with a MAD
//! outlier screen — the same statistical machinery the A/B tester uses —
//! and a significant breach of the guard floor rolls every replica back.
//! Every transition lands in the `rollout.*` ODS ledger.

use crate::error::RolloutError;
use softsku_cluster::{StagedFleet, StagedSample};
use softsku_telemetry::stats::{welch_test, MadFilter, QuantileSketch, RunningStats};
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey};

/// Latency-percentile guardrail parameters: canary promotion requires
/// the candidate's stage p99 to stay within `p99_tolerance` of the
/// baseline's, on top of the existing Welch guard-loss floor.
#[derive(Debug, Clone, Copy)]
pub struct TailGuard {
    /// Relative p99 regression tolerated: the stage fails when
    /// `candidate_p99 > baseline_p99 × (1 + p99_tolerance)`.
    pub p99_tolerance: f64,
    /// Minimum latency samples *per group* surviving the stage before
    /// the verdict may fire; starved stages pass the tail check.
    pub min_samples: u64,
}

impl TailGuard {
    /// Default tuned for short test stages: per-tick latency samples are
    /// heavy-tailed, so a small-sample p99 is noisy — the tolerance is
    /// wide enough that a healthy candidate's sampling jitter never
    /// trips it, while a genuine 2× tail regression still lands far
    /// outside it.
    pub fn fast_test() -> Self {
        TailGuard {
            p99_tolerance: 0.60,
            min_samples: 16,
        }
    }
}

/// Guardrail and pacing parameters of a staged rollout.
#[derive(Debug, Clone)]
pub struct RolloutConfig {
    /// Fleet fractions of the successive stages, ascending.
    pub stages: Vec<f64>,
    /// Fleet ticks observed per stage before the promotion decision.
    pub ticks_per_stage: usize,
    /// Relative loss the guardrail tolerates: the stage fails when the
    /// candidate is *significantly* below `baseline × (1 − guard_loss)`.
    pub guard_loss: f64,
    /// Welch confidence level of the guardrail test.
    pub confidence: f64,
    /// MAD screen window over the per-tick relative diffs.
    pub mad_window: usize,
    /// MAD rejection threshold, in robust standard deviations.
    pub mad_k: f64,
    /// Consecutive ticks breaching `3 × guard_loss` that trigger an
    /// immediate mid-stage rollback (catastrophic-canary fast path).
    pub max_strikes: usize,
    /// The latency-percentile guardrail; `None` reverts to the
    /// throughput-only promotion gate.
    pub tail_guard: Option<TailGuard>,
}

impl RolloutConfig {
    /// The paper-shaped default: 1 % canary, 25 %, then full fleet.
    pub fn fast_test() -> Self {
        RolloutConfig {
            stages: vec![0.01, 0.25, 1.0],
            ticks_per_stage: 48,
            guard_loss: 0.02,
            confidence: 0.95,
            mad_window: 16,
            mad_k: 5.0,
            max_strikes: 5,
            tail_guard: Some(TailGuard::fast_test()),
        }
    }
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            ticks_per_stage: 144,
            ..RolloutConfig::fast_test()
        }
    }
}

/// Where the rollout state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutState {
    /// Not yet started.
    Pending,
    /// Observing stage `stage` (index into [`RolloutConfig::stages`]).
    Canary {
        /// Stage index under observation.
        stage: usize,
    },
    /// Every stage promoted; the SKU serves the fleet (minus holdback).
    Deployed,
    /// A guardrail fired at stage `stage`; every replica is back on the
    /// baseline.
    RolledBack {
        /// Stage index at which the violation fired.
        stage: usize,
    },
}

/// Why a stage failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageViolation {
    /// Welch's test found the candidate significantly below the guard
    /// floor at stage end.
    SignificantLoss,
    /// `max_strikes` consecutive ticks breached the hard floor mid-stage.
    HardStrikes,
    /// The candidate's stage p99 latency regressed past the
    /// [`TailGuard`] tolerance at stage end.
    TailRegression,
}

/// Observed statistics of one stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Fleet fraction the stage targeted.
    pub fraction: f64,
    /// Candidate replicas actually staged (holdback-clamped).
    pub candidate_replicas: usize,
    /// Ticks observed.
    pub ticks: usize,
    /// Ticks the MAD screen rejected.
    pub screened: usize,
    /// Mean per-replica baseline QPS over the stage.
    pub baseline_qps: f64,
    /// Mean per-replica candidate QPS over the stage.
    pub candidate_qps: f64,
    /// Relative diff of the stage means.
    pub relative_diff: f64,
    /// Stage p99 of the baseline group's sampled latency, seconds
    /// (`0.0` when the tail guard is off or the stage was starved).
    pub baseline_p99_s: f64,
    /// Stage p99 of the candidate group's sampled latency, seconds
    /// (`0.0` when unavailable, mirroring `baseline_p99_s`).
    pub candidate_p99_s: f64,
    /// The violation that ended the stage, if any.
    pub violation: Option<StageViolation>,
}

/// Outcome of one rollout execution.
#[derive(Debug)]
pub struct RolloutReport {
    /// Terminal state: [`RolloutState::Deployed`] or
    /// [`RolloutState::RolledBack`].
    pub state: RolloutState,
    /// Per-stage observations, in stage order (the last entry carries the
    /// violation on rollback).
    pub stages: Vec<StageReport>,
}

impl RolloutReport {
    /// Whether the SKU reached full deployment.
    pub fn deployed(&self) -> bool {
        self.state == RolloutState::Deployed
    }
}

/// The guardrail decision after feeding one fleet sample to a stepwise
/// rollout ([`StagedRollout::step`]).
#[derive(Debug)]
pub enum StepDecision {
    /// Mid-stage; keep feeding samples.
    Observing,
    /// The stage completed clean; call [`StagedRollout::promote`] to move
    /// on (the coordinator may defer this while a stage stall pins the
    /// domain).
    StageClean {
        /// The completed stage's index.
        stage: usize,
        /// The completed stage's statistics.
        report: StageReport,
    },
    /// A guardrail fired; the machine is now terminally
    /// [`RolloutState::RolledBack`] — revert the fleet.
    RolledBack {
        /// The violating stage's index.
        stage: usize,
        /// The violating stage's statistics (carrying the violation).
        report: StageReport,
    },
}

/// Per-stage guardrail accumulator: the MAD screen, both groups' running
/// statistics, and the hard-strikes fast path. Both the blocking
/// ([`StagedRollout::execute`]) and stepwise ([`StagedRollout::step`])
/// paths feed samples through this one type, so their verdicts are
/// bit-identical by construction.
#[derive(Debug)]
struct StageObserver {
    mad: MadFilter,
    base: RunningStats,
    cand: RunningStats,
    /// Streaming latency quantiles of both groups — the deterministic
    /// mergeable sketch, fed in tick order, so the stage p99 is a pure
    /// function of the sample sequence.
    base_lat: QuantileSketch,
    cand_lat: QuantileSketch,
    screened: usize,
    strikes: usize,
    ticks: usize,
    violation: Option<StageViolation>,
}

impl StageObserver {
    fn new(config: &RolloutConfig) -> Self {
        StageObserver {
            mad: MadFilter::new(config.mad_window, config.mad_k),
            base: RunningStats::new(),
            cand: RunningStats::new(),
            base_lat: QuantileSketch::new(),
            cand_lat: QuantileSketch::new(),
            screened: 0,
            strikes: 0,
            ticks: 0,
            violation: None,
        }
    }

    /// Feeds one sample; returns `true` when the stage is over (tick
    /// budget spent or the hard-strikes fast path fired).
    fn push(&mut self, config: &RolloutConfig, sample: &StagedSample) -> bool {
        self.ticks += 1;
        let done = self.ticks >= config.ticks_per_stage;
        let Some(cq) = sample.candidate_qps else {
            return done;
        };
        // Latency flows into the sketches unconditionally (no MAD
        // screen): the screen exists to reject corrupted throughput
        // telemetry, while the tail guard must see every slow request —
        // screening the tail would hide exactly what it watches for.
        if config.tail_guard.is_some() {
            self.base_lat.push(sample.baseline_latency_s);
            if let Some(cl) = sample.candidate_latency_s {
                self.cand_lat.push(cl);
            }
        }
        let diff = cq / sample.baseline_qps - 1.0;
        if diff < -3.0 * config.guard_loss {
            self.strikes += 1;
            if self.strikes >= config.max_strikes {
                self.violation = Some(StageViolation::HardStrikes);
                return true;
            }
        } else {
            self.strikes = 0;
        }
        if !self.mad.accept(diff) {
            self.screened += 1;
            return done;
        }
        self.base.push(sample.baseline_qps);
        self.cand.push(cq);
        done
    }

    /// Closes the stage: applies the Welch end-of-stage verdict and the
    /// latency-tail verdict (unless a mid-stage violation already fired)
    /// and produces the report.
    fn finish(
        self,
        config: &RolloutConfig,
        fraction: f64,
        staged: usize,
    ) -> Result<StageReport, RolloutError> {
        let baseline_qps = self.base.mean();
        let candidate_qps = self.cand.mean();
        let relative_diff = if baseline_qps > 0.0 {
            candidate_qps / baseline_qps - 1.0
        } else {
            0.0
        };
        let mut baseline_p99_s = 0.0;
        let mut candidate_p99_s = 0.0;
        let mut violation = self.violation;
        if let Some(guard) = config.tail_guard {
            if self.base_lat.count() >= guard.min_samples
                && self.cand_lat.count() >= guard.min_samples
            {
                baseline_p99_s = self.base_lat.quantile(0.99).unwrap_or(0.0);
                candidate_p99_s = self.cand_lat.quantile(0.99).unwrap_or(0.0);
                if violation.is_none()
                    && baseline_p99_s > 0.0
                    && candidate_p99_s > baseline_p99_s * (1.0 + guard.p99_tolerance)
                {
                    violation = Some(StageViolation::TailRegression);
                }
            }
        }
        if violation.is_none() {
            violation = stage_end_verdict(config, &self.base, &self.cand)?;
        }
        Ok(StageReport {
            fraction,
            candidate_replicas: staged,
            ticks: self.ticks,
            screened: self.screened,
            baseline_qps,
            candidate_qps,
            relative_diff,
            baseline_p99_s,
            candidate_p99_s,
            violation,
        })
    }
}

/// Welch's guardrail at stage end: the candidate fails when it sits
/// significantly below the shifted baseline `b × (1 − guard_loss)`.
fn stage_end_verdict(
    config: &RolloutConfig,
    base: &RunningStats,
    cand: &RunningStats,
) -> Result<Option<StageViolation>, RolloutError> {
    if base.count() < 2 || cand.count() < 2 {
        // Too little surviving data to make a claim either way.
        return Ok(None);
    }
    let b = base.summary()?;
    let c = cand.summary()?;
    let scale = 1.0 - config.guard_loss;
    let floor = softsku_telemetry::stats::Summary::from_moments(
        b.count(),
        b.mean() * scale,
        b.variance() * scale * scale,
    );
    // `mean_diff = floor − candidate`: positive when the candidate sits
    // below the guard floor.
    let welch = welch_test(&floor, &c);
    if welch.mean_diff > 0.0 && welch.significant_at(config.confidence) {
        return Ok(Some(StageViolation::SignificantLoss));
    }
    Ok(None)
}

/// Drives a [`StagedFleet`] through the configured canary stages.
#[derive(Debug)]
pub struct StagedRollout {
    config: RolloutConfig,
    state: RolloutState,
    /// The in-flight stage accumulator of the stepwise path; `None` when
    /// driven through the blocking [`StagedRollout::execute`] path or when
    /// no stage is under observation.
    observer: Option<StageObserver>,
}

impl StagedRollout {
    /// Creates the state machine in [`RolloutState::Pending`].
    pub fn new(config: RolloutConfig) -> Self {
        StagedRollout {
            config,
            state: RolloutState::Pending,
            observer: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> RolloutState {
        self.state
    }

    /// The guardrail configuration driving this rollout.
    pub fn config(&self) -> &RolloutConfig {
        &self.config
    }

    /// Begins stepwise observation: `Pending` → `Canary { stage: 0 }`.
    /// Returns the first stage's fleet fraction (stage the fleet toward it
    /// and start feeding samples through [`StagedRollout::step`]), or
    /// `None` when the machine is not pending or has no stages.
    pub fn begin(&mut self) -> Option<f64> {
        match self.state {
            RolloutState::Pending if !self.config.stages.is_empty() => {
                self.state = RolloutState::Canary { stage: 0 };
                self.observer = Some(StageObserver::new(&self.config));
                Some(self.config.stages[0])
            }
            _ => None,
        }
    }

    /// The fleet fraction of the stage currently under observation.
    pub fn current_fraction(&self) -> Option<f64> {
        match self.state {
            RolloutState::Canary { stage } => self.config.stages.get(stage).copied(),
            _ => None,
        }
    }

    /// Feeds one fleet sample to the stage under observation; `staged` is
    /// the candidate replica count the stage runs at (recorded into the
    /// stage report). Terminal or idle machines observe samples as no-ops,
    /// so a coordinator can keep ticking a rolled-back service's fleet
    /// without special-casing.
    ///
    /// # Errors
    ///
    /// Statistical-summary errors from the end-of-stage verdict.
    pub fn step(
        &mut self,
        sample: &StagedSample,
        staged: usize,
    ) -> Result<StepDecision, RolloutError> {
        let RolloutState::Canary { stage } = self.state else {
            return Ok(StepDecision::Observing);
        };
        let Some(observer) = self.observer.as_mut() else {
            return Ok(StepDecision::Observing);
        };
        if !observer.push(&self.config, sample) {
            return Ok(StepDecision::Observing);
        }
        // The observer was borrowed two lines up; take() cannot fail.
        let observer = self.observer.take().expect("observer present");
        let fraction = self.config.stages[stage];
        let report = observer.finish(&self.config, fraction, staged)?;
        if report.violation.is_some() {
            self.state = RolloutState::RolledBack { stage };
            return Ok(StepDecision::RolledBack { stage, report });
        }
        Ok(StepDecision::StageClean { stage, report })
    }

    /// Advances past a clean stage: `Canary { i }` → `Canary { i + 1 }`
    /// (returning the new stage's fraction) or → `Deployed` after the last
    /// stage (returning `None`). **A rolled-back machine never promotes**:
    /// this returns `None` and the state stays `RolledBack` — the
    /// invariant the property suite pins down.
    pub fn promote(&mut self) -> Option<f64> {
        let RolloutState::Canary { stage } = self.state else {
            return None;
        };
        let next = stage + 1;
        if next < self.config.stages.len() {
            self.state = RolloutState::Canary { stage: next };
            self.observer = Some(StageObserver::new(&self.config));
            Some(self.config.stages[next])
        } else {
            self.state = RolloutState::Deployed;
            self.observer = None;
            None
        }
    }

    /// Executes the staged rollout on `fleet`, recording every transition
    /// to the `rollout.*` ledger in `ods` under entity `service`.
    ///
    /// Series written: `rollout.stage` (fraction at each stage start),
    /// `rollout.promote` (stage index on promotion), `rollout.violation`
    /// (relative diff when a guardrail fires), `rollout.rollback` (stage
    /// index), and `rollout.deployed` (1.0 on full deployment).
    ///
    /// # Errors
    ///
    /// Fleet/engine errors and ODS append errors.
    pub fn execute(
        &mut self,
        fleet: &mut StagedFleet,
        service: &str,
        ods: &mut Ods,
    ) -> Result<RolloutReport, RolloutError> {
        self.execute_traced(fleet, service, ods, &mut TraceSink::disabled())
    }

    /// [`StagedRollout::execute`] with observability: a root `rollout` span
    /// on the sink's current track (time axis = the fleet's simulated
    /// clock), one child span per canary stage carrying the stage's
    /// statistics and verdict, instant leaf events for every promotion,
    /// rollback, and deployment, and a `rollout.relative_diff` counter
    /// sampled at each stage end.
    ///
    /// The rollout outcome and ledger contents are bit-identical with
    /// tracing on or off.
    ///
    /// # Errors
    ///
    /// Fleet/engine errors and ODS append errors.
    pub fn execute_traced(
        &mut self,
        fleet: &mut StagedFleet,
        service: &str,
        ods: &mut Ods,
        sink: &mut TraceSink,
    ) -> Result<RolloutReport, RolloutError> {
        let root = sink.open("rollout", &format!("rollout {service}"), fleet.time_s());
        sink.attr(root, "service", AttrValue::Str(service.to_string()));
        sink.attr(
            root,
            "stages",
            AttrValue::Int(self.config.stages.len() as i64),
        );
        let mut stages = Vec::with_capacity(self.config.stages.len());
        for (idx, &fraction) in self.config.stages.iter().enumerate() {
            self.state = RolloutState::Canary { stage: idx };
            let staged = fleet.stage_to(fraction);
            let stage_start = fleet.time_s();
            ods.append(
                &SeriesKey::keyed(service, LedgerKey::RolloutStage),
                stage_start,
                fraction,
            )?;
            let span = sink.open(
                LedgerKey::RolloutStage.name(),
                &format!("stage {idx}"),
                stage_start,
            );
            let report = self.observe_stage(fleet, fraction, staged)?;
            let now = fleet.time_s();
            sink.attr(span, "fraction", AttrValue::F64(fraction));
            sink.attr(
                span,
                "candidate_replicas",
                AttrValue::Int(report.candidate_replicas as i64),
            );
            sink.attr(span, "ticks", AttrValue::Int(report.ticks as i64));
            sink.attr(span, "screened", AttrValue::Int(report.screened as i64));
            sink.attr(span, "baseline_qps", AttrValue::F64(report.baseline_qps));
            sink.attr(span, "candidate_qps", AttrValue::F64(report.candidate_qps));
            sink.attr(span, "relative_diff", AttrValue::F64(report.relative_diff));
            if let Some(v) = report.violation {
                sink.attr(span, "violation", AttrValue::Str(format!("{v:?}")));
            }
            sink.counter(
                LedgerKey::RolloutRelativeDiff.name(),
                now,
                report.relative_diff,
            );
            // The tail-guard verdict lands in the ledger whenever the
            // stage produced a comparable p99 pair — clean stages too,
            // so `skuctl slo` can chart the guarded margin over time.
            if report.baseline_p99_s > 0.0 && report.candidate_p99_s > 0.0 {
                let p99_diff = report.candidate_p99_s / report.baseline_p99_s - 1.0;
                ods.append(
                    &SeriesKey::keyed(service, LedgerKey::SloGuardP99),
                    now,
                    p99_diff,
                )?;
                sink.attr(
                    span,
                    "baseline_p99_s",
                    AttrValue::F64(report.baseline_p99_s),
                );
                sink.attr(
                    span,
                    "candidate_p99_s",
                    AttrValue::F64(report.candidate_p99_s),
                );
            }
            let violated = report.violation.is_some();
            let diff = report.relative_diff;
            stages.push(report);
            if violated {
                fleet.rollback();
                let t = fleet.time_s();
                ods.append(
                    &SeriesKey::keyed(service, LedgerKey::RolloutViolation),
                    t,
                    diff,
                )?;
                ods.append(
                    &SeriesKey::keyed(service, LedgerKey::RolloutRollback),
                    t,
                    idx as f64,
                )?;
                let ev = sink.leaf(LedgerKey::RolloutEvent.name(), "rollback", t, 0.0);
                sink.attr(ev, "stage", AttrValue::Int(idx as i64));
                sink.attr(ev, "relative_diff", AttrValue::F64(diff));
                sink.close(span, t);
                self.state = RolloutState::RolledBack { stage: idx };
                sink.attr(root, "state", AttrValue::Str("rolled-back".to_string()));
                sink.close(root, t);
                return Ok(RolloutReport {
                    state: self.state,
                    stages,
                });
            }
            ods.append(
                &SeriesKey::keyed(service, LedgerKey::RolloutPromote),
                now,
                idx as f64,
            )?;
            let ev = sink.leaf(LedgerKey::RolloutEvent.name(), "promote", now, 0.0);
            sink.attr(ev, "stage", AttrValue::Int(idx as i64));
            sink.close(span, now);
        }
        self.state = RolloutState::Deployed;
        let t = fleet.time_s();
        ods.append(
            &SeriesKey::keyed(service, LedgerKey::RolloutDeployed),
            t,
            1.0,
        )?;
        sink.leaf(LedgerKey::RolloutEvent.name(), "deployed", t, 0.0);
        sink.attr(root, "state", AttrValue::Str("deployed".to_string()));
        sink.close(root, t);
        Ok(RolloutReport {
            state: self.state,
            stages,
        })
    }

    /// Observes one stage for `ticks_per_stage` ticks and applies the
    /// guardrails.
    fn observe_stage(
        &self,
        fleet: &mut StagedFleet,
        fraction: f64,
        staged: usize,
    ) -> Result<StageReport, RolloutError> {
        let mut observer = StageObserver::new(&self.config);
        while observer.ticks < self.config.ticks_per_stage {
            let sample: StagedSample = fleet.tick()?;
            if observer.push(&self.config, &sample) {
                break;
            }
        }
        observer.finish(&self.config, fraction, staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;
    use softsku_cluster::StagedFleetConfig;
    use softsku_workloads::Microservice;

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
        fleet.inject_tail_regression(tail_mult);
        fleet
    }

    #[test]
    fn healthy_candidate_promotes_through_the_tail_guard() {
        let mut fleet = staged_fleet(31, 1.0);
        let mut rollout = StagedRollout::new(RolloutConfig::fast_test());
        let mut ods = Ods::rollout_ledger();
        let report = rollout.execute(&mut fleet, "web", &mut ods).unwrap();
        assert!(
            report.deployed(),
            "healthy SKU must deploy: {:?}",
            report.state
        );
        for s in &report.stages {
            assert!(
                s.baseline_p99_s > 0.0 && s.candidate_p99_s > 0.0,
                "every stage yields a comparable p99 pair"
            );
        }
        // Clean stages still ledger their guarded p99 margin.
        let key = SeriesKey::keyed("web", LedgerKey::SloGuardP99);
        assert_eq!(ods.len(&key), report.stages.len());
    }

    #[test]
    fn injected_tail_regression_blocks_promotion_and_rolls_back() {
        let mut fleet = staged_fleet(31, 2.0);
        let mut rollout = StagedRollout::new(RolloutConfig::fast_test());
        let mut ods = Ods::rollout_ledger();
        let report = rollout.execute(&mut fleet, "web", &mut ods).unwrap();
        assert!(!report.deployed(), "2x tail regression must not deploy");
        let last = report.stages.last().unwrap();
        assert_eq!(last.violation, Some(StageViolation::TailRegression));
        assert!(last.candidate_p99_s > last.baseline_p99_s * 1.5);
        assert_eq!(fleet.candidate_replicas(), 0, "rollback reverts the fleet");
    }

    #[test]
    fn disabling_the_tail_guard_restores_the_throughput_only_gate() {
        // The same latency-only regression is invisible to the QPS gate:
        // turning the guard off must let it deploy, which is exactly the
        // blind spot the guard exists to close.
        let mut fleet = staged_fleet(31, 2.0);
        let mut cfg = RolloutConfig::fast_test();
        cfg.tail_guard = None;
        let mut ods = Ods::rollout_ledger();
        let report = StagedRollout::new(cfg)
            .execute(&mut fleet, "web", &mut ods)
            .unwrap();
        assert!(report.deployed());
        assert!(report.stages.iter().all(|s| s.baseline_p99_s == 0.0));
        let key = SeriesKey::keyed("web", LedgerKey::SloGuardP99);
        assert_eq!(ods.len(&key), 0, "no guard, no verdict series");
    }
}
