//! The closed tune → compose → rollout → monitor → re-tune loop.
//!
//! [`RolloutPipeline`] is the subsystem's front door: it tunes one service
//! with the core fleet tuner, composes the per-knob winners into a soft SKU
//! ([`SkuComposer`]), walks the SKU through staged canary deployment
//! ([`StagedRollout`]), then leaves a [`DriftMonitor`] watching the live
//! fleet. When drift fires, the scoped [`RetuneRequest`] re-enters the loop
//! — re-tune, re-compose, re-deploy — exactly once per run, which is the
//! paper's "ongoing process" (Sec. 7) closed into a single deterministic
//! cycle: every stage derives its randomness from the lifecycle base seed
//! through registered stream families, so the whole report is a pure
//! function of `(config, seed)`.

use crate::compose::{ComposerConfig, Composition, CompositionDecision, SkuComposer};
use crate::drift::{DeployedSku, DriftConfig, DriftMonitor, DriftOutcome, RetuneRequest};
use crate::error::RolloutError;
use crate::rollout::{RolloutConfig, RolloutReport, StagedRollout};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{AbEnvironment, EnvConfig, StagedFleet, StagedFleetConfig};
use softsku_knobs::Knob;
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::Ods;
use softsku_workloads::{Microservice, PlatformKind, WorkloadProfile};
use std::num::NonZeroUsize;
use usku::abtest::AbTestConfig;
use usku::map::DesignSpaceMap;
use usku::metric::PerformanceMetric;
use usku::scheduler::FleetTuner;

/// Every parameter of one lifecycle run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// A/B stopping rules for tuning and composition validation.
    pub abtest: AbTestConfig,
    /// A/B environment parameters.
    pub env: EnvConfig,
    /// Composer validation parameters.
    pub composer: ComposerConfig,
    /// Staged-rollout guardrails.
    pub rollout: RolloutConfig,
    /// Drift-detection parameters.
    pub drift: DriftConfig,
    /// Staged-fleet simulation parameters (drift injection lives here).
    pub staged: StagedFleetConfig,
    /// Worker-pool size for tuning and validation (wall-clock only; results
    /// are bit-identical for any value).
    pub workers: NonZeroUsize,
    /// The lifecycle base seed every stream derives from.
    pub base_seed: u64,
}

impl PipelineConfig {
    /// Small, fast parameters for tests and smoke runs.
    pub fn fast_test(base_seed: u64) -> Self {
        PipelineConfig {
            abtest: AbTestConfig::fast_test(),
            env: EnvConfig::fast_test(),
            composer: ComposerConfig::fast_test(),
            rollout: RolloutConfig::fast_test(),
            drift: DriftConfig::fast_test(),
            staged: StagedFleetConfig::fast_test(),
            workers: usku::scheduler::default_workers(),
            base_seed,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }
}

/// One compose → rollout pass.
#[derive(Debug)]
pub struct CycleReport {
    /// The composition decision and deployed configuration.
    pub composition: Composition,
    /// The staged rollout, absent when the composition fell back to the
    /// baseline (nothing to deploy).
    pub rollout: Option<RolloutReport>,
}

impl CycleReport {
    /// Whether this cycle ended with the SKU serving the fleet.
    pub fn deployed(&self) -> bool {
        self.rollout.as_ref().is_some_and(RolloutReport::deployed)
    }
}

/// The drift-triggered second pass.
#[derive(Debug)]
pub struct RetunedCycle {
    /// The re-tune order drift produced.
    pub request: RetuneRequest,
    /// The re-tuned design-space map's winner count.
    pub winners: usize,
    /// The re-compose → re-rollout pass.
    pub cycle: CycleReport,
}

/// Everything one lifecycle run produced.
#[derive(Debug)]
pub struct LifecycleReport {
    /// The service taken through the lifecycle.
    pub service: Microservice,
    /// Its platform.
    pub platform: PlatformKind,
    /// The initial tune → compose → rollout pass.
    pub initial: CycleReport,
    /// Drift monitoring, present when the initial pass deployed.
    pub drift: Option<DriftOutcome>,
    /// The re-tuned pass, present when drift fired.
    pub retuned: Option<RetunedCycle>,
    /// Per-campaign tuning telemetry (`tune.wall_s`/`tune.sim_s` series),
    /// one ledger per tuning campaign in run order — separate ledgers
    /// because each campaign restarts its plan-indexed time axis.
    pub tuning: Vec<Ods>,
    /// The `rollout.*` transition ledger, one continuous fleet-time axis,
    /// stored with tiered retention ([`Ods::rollout_ledger`]) so a
    /// long-lived fleet runs on bounded memory.
    pub rollout_ods: Ods,
}

impl LifecycleReport {
    /// Whether a SKU (initial or re-tuned) ended the run deployed.
    pub fn deployed(&self) -> bool {
        match &self.retuned {
            Some(r) => r.cycle.deployed(),
            None => self.initial.deployed(),
        }
    }

    /// Renders a human-readable lifecycle summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "rollout lifecycle — {} on {}\n",
            self.service, self.platform
        );
        render_cycle(&mut out, "initial", &self.initial);
        match &self.drift {
            Some(d) => {
                out.push_str(&format!("  drift: {:?}\n", d.verdict));
            }
            None => out.push_str("  drift: not monitored\n"),
        }
        if let Some(r) = &self.retuned {
            out.push_str(&format!(
                "  re-tune: {} knobs, seed {:#x}, {} winners\n",
                r.request.knobs.len(),
                r.request.base_seed,
                r.winners
            ));
            render_cycle(&mut out, "retuned", &r.cycle);
        }
        out.push_str(&format!(
            "  final: {}\n",
            if self.deployed() {
                "deployed"
            } else {
                "baseline"
            }
        ));
        out
    }
}

fn render_cycle(out: &mut String, label: &str, cycle: &CycleReport) {
    out.push_str(&format!(
        "  {label}: {:?} gain {:+.2}%\n",
        cycle.composition.decision,
        cycle.composition.measured_gain * 100.0
    ));
    if let Some(rollout) = &cycle.rollout {
        for s in &rollout.stages {
            out.push_str(&format!(
                "    stage {:>4.0}% × {:>3} replicas: diff {:+.2}% {}\n",
                s.fraction * 100.0,
                s.candidate_replicas,
                s.relative_diff * 100.0,
                match s.violation {
                    Some(v) => format!("VIOLATION {v:?}"),
                    None => "ok".to_string(),
                }
            ));
        }
        out.push_str(&format!("    state: {:?}\n", rollout.state));
    }
}

/// The `lifecycle` track (`track`) and its synthetic clock: `done` counts
/// completed phases.
struct PhaseClock {
    track: u32,
    done: f64,
}

impl PhaseClock {
    /// Runs one lifecycle phase inside a `phase` span named `name` on the
    /// lifecycle track. `work` records on track `track` when one is named
    /// (tuning picks its own tracks). An error propagates at once and
    /// leaves the phase span open, uncounted.
    fn phase<T>(
        &mut self,
        sink: &mut TraceSink,
        name: &str,
        track: Option<&str>,
        work: impl FnOnce(&mut TraceSink) -> Result<T, RolloutError>,
    ) -> Result<T, RolloutError> {
        let span = sink.open("phase", name, self.done);
        if let Some(track) = track {
            let id = sink.track(track);
            sink.set_track(id);
        }
        let out = work(sink)?;
        sink.set_track(self.track);
        sink.close(span, self.done + 1.0);
        self.done += 1.0;
        Ok(out)
    }
}

/// Runs the full lifecycle for one service.
#[derive(Debug)]
pub struct RolloutPipeline {
    config: PipelineConfig,
}

impl RolloutPipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        RolloutPipeline { config }
    }

    /// Drives `service` through tune → compose → staged rollout → drift
    /// watch, and — when drift fires — one scoped re-tune, re-compose, and
    /// re-rollout on the same live fleet.
    ///
    /// # Errors
    ///
    /// Tuning, environment, fleet, and telemetry errors.
    pub fn run(
        &self,
        service: Microservice,
        platform: PlatformKind,
        knobs: &[Knob],
    ) -> Result<LifecycleReport, RolloutError> {
        self.run_traced(service, platform, knobs, &mut TraceSink::disabled())
    }

    /// [`RolloutPipeline::run`] with observability: the whole lifecycle
    /// becomes one span tree. A `lifecycle` root span (on a `lifecycle`
    /// track whose synthetic time axis counts phases) holds one `phase`
    /// span per step — tune, compose, rollout, drift, and the re-tuned
    /// second cycle — and each step's own spans nest inside its phase:
    /// tuning campaigns on `tune:<service>@<platform>` tracks (cumulative
    /// sim-seconds), composition on `compose#N` tracks (validation
    /// sim-seconds), rollout and drift on the shared `fleet` track (the
    /// staged fleet's continuous simulated clock).
    ///
    /// Everything is recorded on this orchestration thread in canonical
    /// order, so the trace — like the report — is a pure function of
    /// `(config, seed)`: bit-identical across worker counts and across
    /// traced/untraced runs.
    ///
    /// # Errors
    ///
    /// Tuning, environment, fleet, and telemetry errors.
    pub fn run_traced(
        &self,
        service: Microservice,
        platform: PlatformKind,
        knobs: &[Knob],
        sink: &mut TraceSink,
    ) -> Result<LifecycleReport, RolloutError> {
        let lifecycle_track = sink.track("lifecycle");
        sink.set_track(lifecycle_track);
        let root = sink.open("lifecycle", &format!("lifecycle {}", service.name()), 0.0);
        sink.attr(root, "service", AttrValue::Str(service.name().to_string()));
        sink.attr(root, "platform", AttrValue::Str(platform.to_string()));
        sink.attr(
            root,
            "base_seed",
            AttrValue::Str(format!("{:#018x}", self.config.base_seed)),
        );
        let mut clock = PhaseClock {
            track: lifecycle_track,
            done: 0.0,
        };
        let result = self.run_inner(service, platform, knobs, sink, &mut clock);
        sink.set_track(lifecycle_track);
        if let Ok(r) = &result {
            sink.attr(root, "deployed", AttrValue::Bool(r.deployed()));
        }
        sink.close(root, clock.done);
        result
    }

    /// The lifecycle body; `clock` counts completed phase spans on the
    /// `lifecycle` track's synthetic axis.
    fn run_inner(
        &self,
        service: Microservice,
        platform: PlatformKind,
        knobs: &[Knob],
        sink: &mut TraceSink,
        clock: &mut PhaseClock,
    ) -> Result<LifecycleReport, RolloutError> {
        let cfg = &self.config;
        let profile = service.profile(platform)?;

        // 1. Tune: the core fleet tuner sweeps the knob subset.
        let (map, ods) = clock.phase(sink, "tune", None, |sink| {
            self.tune(service, platform, knobs, cfg.base_seed, sink)
        })?;

        // 2. Compose the winners and validate jointly.
        let composition = clock.phase(sink, "compose", Some("compose#0"), |sink| {
            let baseline = &profile.production_config;
            self.compose(service, platform, baseline, &map, cfg.base_seed, sink)
        })?;
        let mut report = LifecycleReport {
            service,
            platform,
            initial: CycleReport {
                composition,
                rollout: None,
            },
            drift: None,
            retuned: None,
            tuning: vec![ods],
            rollout_ods: Ods::rollout_ledger(),
        };
        self.deploy_and_watch(&mut report, profile, sink, clock)?;
        Ok(report)
    }

    /// Steps 3–5 of the lifecycle, filling `report` in: the staged rollout
    /// of the initial composition, the drift watch, and the re-tuned
    /// cycle. Stops early when the composition fell back to the baseline,
    /// when the rollout rolled back, or when drift did not fire.
    fn deploy_and_watch(
        &self,
        report: &mut LifecycleReport,
        profile: WorkloadProfile,
        sink: &mut TraceSink,
        clock: &mut PhaseClock,
    ) -> Result<(), RolloutError> {
        if report.initial.composition.decision == CompositionDecision::Baseline {
            return Ok(());
        }
        let cfg = &self.config;
        let (service, platform) = (report.service, report.platform);
        let baseline = profile.production_config.clone();

        // 3. Staged rollout on the service's replica fleet.
        let fleet_seed = IdentitySeed::new(cfg.base_seed)
            .field(service.name())
            .field("staged-fleet")
            .field(&platform.to_string())
            .finish();
        let mut fleet = StagedFleet::new(
            profile,
            baseline.clone(),
            report.initial.composition.config.clone(),
            cfg.staged,
            fleet_seed,
        )?;
        let roll_out = |fleet: &mut StagedFleet, ods: &mut Ods, sink: &mut TraceSink| {
            StagedRollout::new(cfg.rollout.clone()).execute_traced(fleet, service.name(), ods, sink)
        };
        let rollout = clock.phase(sink, "rollout", Some("fleet"), |sink| {
            roll_out(&mut fleet, &mut report.rollout_ods, sink)
        })?;
        report.initial.rollout = Some(rollout);
        if !report.initial.deployed() {
            return Ok(());
        }

        // 4. Drift watch on the live fleet (code pushes keep landing).
        let sku = DeployedSku {
            service,
            platform,
            knobs: report.initial.composition.deployed_knobs(),
            base_seed: cfg.base_seed,
        };
        let monitor = DriftMonitor::new(cfg.drift);
        let drift = clock.phase(sink, "drift", Some("fleet"), |sink| {
            monitor.watch_traced(&mut fleet, &sku, &mut report.rollout_ods, sink)
        })?;
        let retune = drift.retune.clone();
        report.drift = Some(drift);
        let Some(request) = retune else {
            return Ok(());
        };

        // 5. Scoped re-tune against current code, then re-deploy through
        // the same staged guardrails on the same live fleet.
        let (remap, ods) = clock.phase(sink, "re-tune", None, |sink| {
            self.tune(
                request.service,
                request.platform,
                &request.knobs,
                request.base_seed,
                sink,
            )
        })?;
        report.tuning.push(ods);
        let composition = clock.phase(sink, "re-compose", Some("compose#1"), |sink| {
            self.compose(
                service,
                platform,
                &baseline,
                &remap,
                request.base_seed,
                sink,
            )
        })?;
        let mut cycle = CycleReport {
            composition,
            rollout: None,
        };
        if cycle.composition.decision == CompositionDecision::Baseline {
            // Nothing validated; the fleet stays rolled back to baseline.
            fleet.rollback();
        } else {
            let config = cycle.composition.config.clone();
            fleet.deploy_candidate(config.clone(), Knob::reboot_between(&baseline, &config))?;
            let rollout = clock.phase(sink, "re-rollout", Some("fleet"), |sink| {
                roll_out(&mut fleet, &mut report.rollout_ods, sink)
            })?;
            cycle.rollout = Some(rollout);
        }
        report.retuned = Some(RetunedCycle {
            request,
            winners: remap.winners().len(),
            cycle,
        });
        Ok(())
    }

    /// One tuning campaign; returns the design-space map and its telemetry.
    fn tune(
        &self,
        service: Microservice,
        platform: PlatformKind,
        knobs: &[Knob],
        base_seed: u64,
        sink: &mut TraceSink,
    ) -> Result<(DesignSpaceMap, Ods), RolloutError> {
        let cfg = &self.config;
        let tuner = FleetTuner::new(cfg.abtest, cfg.env, base_seed)
            .with_workers(cfg.workers)
            .with_knobs(knobs.to_vec());
        let mut outcome = tuner.tune_traced(&[(service, platform)], sink)?;
        // tune() returns one ServiceTuning per target; exactly one target.
        let tuned = outcome.services.pop().expect("one target, one tuning");
        Ok((tuned.outcome.map, outcome.ods))
    }

    /// One composition pass on a fresh proto environment derived from
    /// `base_seed`.
    #[allow(clippy::too_many_arguments)]
    fn compose(
        &self,
        service: Microservice,
        platform: PlatformKind,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
        base_seed: u64,
        sink: &mut TraceSink,
    ) -> Result<Composition, RolloutError> {
        let cfg = &self.config;
        let proto_seed = IdentitySeed::new(base_seed)
            .field(service.name())
            .field("compose-proto")
            .field(&platform.to_string())
            .finish();
        let profile = service.profile(platform)?;
        let mut proto = AbEnvironment::new(profile, cfg.env, proto_seed)?;
        let composer = SkuComposer::new(
            cfg.abtest,
            PerformanceMetric::recommended_for(service),
            cfg.composer,
            base_seed,
        )
        .with_workers(cfg.workers);
        composer.compose_traced(&mut proto, baseline, map, sink)
    }
}
