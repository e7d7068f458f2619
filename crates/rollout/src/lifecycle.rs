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

use crate::compose::{ComposerConfig, Composition, SkuComposer};
use crate::drift::{DeployedSku, DriftConfig, DriftMonitor, DriftOutcome, RetuneRequest};
use crate::error::RolloutError;
use crate::rollout::{RolloutConfig, RolloutReport, StagedRollout};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{AbEnvironment, EnvConfig, StagedFleet, StagedFleetConfig};
use softsku_knobs::Knob;
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::Ods;
use softsku_workloads::{Microservice, PlatformKind};
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
        let mut phases = 0.0;
        let result = self.run_inner(service, platform, knobs, sink, lifecycle_track, &mut phases);
        sink.set_track(lifecycle_track);
        if let Ok(r) = &result {
            sink.attr(root, "deployed", AttrValue::Bool(r.deployed()));
        }
        sink.close(root, phases);
        result
    }

    /// The lifecycle body; `phases` counts completed phase spans on the
    /// `lifecycle` track's synthetic axis.
    fn run_inner(
        &self,
        service: Microservice,
        platform: PlatformKind,
        knobs: &[Knob],
        sink: &mut TraceSink,
        lifecycle_track: u32,
        phases: &mut f64,
    ) -> Result<LifecycleReport, RolloutError> {
        let cfg = &self.config;
        let profile = service.profile(platform)?;
        let baseline = profile.production_config.clone();
        let mut tuning = Vec::new();
        let mut rollout_ods = Ods::rollout_ledger();

        // 1. Tune: the core fleet tuner sweeps the knob subset.
        let ph = sink.open("phase", "tune", *phases);
        let (map, ods) = self.tune(service, platform, knobs, cfg.base_seed, sink)?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;
        tuning.push(ods);

        // 2. Compose the winners and validate jointly.
        let ph = sink.open("phase", "compose", *phases);
        let track = sink.track("compose#0");
        sink.set_track(track);
        let composition = self.compose(service, platform, &baseline, &map, cfg.base_seed, sink)?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;

        if composition.decision == crate::compose::CompositionDecision::Baseline {
            return Ok(LifecycleReport {
                service,
                platform,
                initial: CycleReport {
                    composition,
                    rollout: None,
                },
                drift: None,
                retuned: None,
                tuning,
                rollout_ods,
            });
        }

        // 3. Staged rollout on the service's replica fleet.
        let fleet_seed = IdentitySeed::new(cfg.base_seed)
            .field(service.name())
            .field("staged-fleet")
            .field(&platform.to_string())
            .finish();
        let mut fleet = StagedFleet::new(
            profile.clone(),
            baseline.clone(),
            composition.config.clone(),
            cfg.staged,
            fleet_seed,
        )?;
        let mut rollout = StagedRollout::new(cfg.rollout.clone());
        let ph = sink.open("phase", "rollout", *phases);
        let track = sink.track("fleet");
        sink.set_track(track);
        let report = rollout.execute_traced(&mut fleet, service.name(), &mut rollout_ods, sink)?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;
        let deployed_knobs = composition.deployed_knobs();
        let initial = CycleReport {
            composition,
            rollout: Some(report),
        };
        if !initial.deployed() {
            return Ok(LifecycleReport {
                service,
                platform,
                initial,
                drift: None,
                retuned: None,
                tuning,
                rollout_ods,
            });
        }

        // 4. Drift watch on the live fleet (code pushes keep landing).
        let sku = DeployedSku {
            service,
            platform,
            knobs: deployed_knobs,
            base_seed: cfg.base_seed,
        };
        let monitor = DriftMonitor::new(cfg.drift);
        let ph = sink.open("phase", "drift", *phases);
        let track = sink.track("fleet");
        sink.set_track(track);
        let drift = monitor.watch_traced(&mut fleet, &sku, &mut rollout_ods, sink)?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;
        let Some(request) = drift.retune.clone() else {
            return Ok(LifecycleReport {
                service,
                platform,
                initial,
                drift: Some(drift),
                retuned: None,
                tuning,
                rollout_ods,
            });
        };

        // 5. Scoped re-tune against current code, then re-deploy through
        // the same staged guardrails on the same live fleet.
        let ph = sink.open("phase", "re-tune", *phases);
        let (remap, ods) = self.tune(
            request.service,
            request.platform,
            &request.knobs,
            request.base_seed,
            sink,
        )?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;
        tuning.push(ods);
        let ph = sink.open("phase", "re-compose", *phases);
        let track = sink.track("compose#1");
        sink.set_track(track);
        let recomposition = self.compose(
            service,
            platform,
            &baseline,
            &remap,
            request.base_seed,
            sink,
        )?;
        sink.set_track(lifecycle_track);
        sink.close(ph, *phases + 1.0);
        *phases += 1.0;
        let winners = remap.winners().len();
        let cycle = if recomposition.decision == crate::compose::CompositionDecision::Baseline {
            // Nothing validated; the fleet stays rolled back to baseline.
            fleet.rollback();
            CycleReport {
                composition: recomposition,
                rollout: None,
            }
        } else {
            let needs_reboot = recomposition.config.active_cores != baseline.active_cores
                || recomposition.config.shp_pages != baseline.shp_pages;
            fleet.deploy_candidate(recomposition.config.clone(), needs_reboot)?;
            let mut redo = StagedRollout::new(cfg.rollout.clone());
            let ph = sink.open("phase", "re-rollout", *phases);
            let track = sink.track("fleet");
            sink.set_track(track);
            let report = redo.execute_traced(&mut fleet, service.name(), &mut rollout_ods, sink)?;
            sink.set_track(lifecycle_track);
            sink.close(ph, *phases + 1.0);
            *phases += 1.0;
            CycleReport {
                composition: recomposition,
                rollout: Some(report),
            }
        };
        Ok(LifecycleReport {
            service,
            platform,
            initial,
            drift: Some(drift),
            retuned: Some(RetunedCycle {
                request,
                winners,
                cycle,
            }),
            tuning,
            rollout_ods,
        })
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
