//! Soft-SKU composition with interaction detection (paper Secs. 5.3/6).
//!
//! The design-space map holds *per-knob* winners, each measured alone
//! against the production baseline. The paper's soft SKU applies them
//! together — but knobs interact (Sec. 6: "the benefits of individual knob
//! configurations are not additive"), so the composed configuration must be
//! re-validated jointly before it earns fleet deployment. [`SkuComposer`]
//! runs that joint validation as parallel scheduler replicas and, when the
//! composition underperforms the best single knob, demotes the SKU to the
//! strongest per-knob winner that still survives validation.

use crate::error::RolloutError;
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::AbEnvironment;
use softsku_knobs::{Knob, KnobSetting};
use softsku_telemetry::nearest_rank;
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use std::num::NonZeroUsize;
use usku::abtest::{AbTestConfig, AbTestResult, AbTester};
use usku::map::DesignSpaceMap;
use usku::metric::PerformanceMetric;
use usku::scheduler::{run_trials, trace_test_span, warm_baseline, Trial, TrialTarget};
use usku::search::{compose, Selection};

/// Validation parameters of the composer.
#[derive(Debug, Clone, Copy)]
pub struct ComposerConfig {
    /// Independent A/B validation replicas per candidate configuration; the
    /// combined verdict needs a strict majority of `Better` outcomes.
    pub replicas: usize,
}

/// The composed SKU must retain at least this fraction of the best single
/// knob's *measured* gain, or it is demoted (interaction detection).
const MIN_COMPOSED_FRACTION: f64 = 0.8;

impl ComposerConfig {
    /// Small, fast parameters for tests and smoke runs.
    pub fn fast_test() -> Self {
        ComposerConfig { replicas: 3 }
    }
}

/// What the composer decided to deploy.
#[derive(Debug, Clone, PartialEq)]
pub enum CompositionDecision {
    /// The jointly validated composition of every per-knob winner.
    Composed {
        /// The knobs whose winners were composed.
        knobs: Vec<Knob>,
    },
    /// Knob interactions sank the composition; the strongest per-knob
    /// winner that survived validation is deployed alone.
    PerKnobFallback {
        /// The surviving knob.
        knob: Knob,
        /// Its winning setting.
        setting: KnobSetting,
    },
    /// Nothing survived validation; the production baseline stands.
    Baseline,
}

/// Joint validation of one candidate configuration across replicas.
#[derive(Debug, Clone)]
pub struct CandidateValidation {
    /// Display label of the candidate.
    pub label: String,
    /// Whether a strict majority of replicas returned `Better`.
    pub accepted: bool,
    /// Median measured gain across the `Better` replicas (0.0 if none).
    pub gain: f64,
    /// Replicas that returned `Better`.
    pub better_votes: usize,
    /// Replicas run.
    pub replicas: usize,
    /// The per-replica A/B results, in replica order.
    pub results: Vec<AbTestResult>,
    /// Simulated machine-seconds consumed across the replicas.
    pub sim_time_s: f64,
}

/// The composed-SKU outcome.
#[derive(Debug)]
pub struct Composition {
    /// What to deploy.
    pub decision: CompositionDecision,
    /// The deployable configuration (the baseline itself for
    /// [`CompositionDecision::Baseline`]).
    pub config: ServerConfig,
    /// Measured gain of the deployed configuration (0.0 for baseline).
    pub measured_gain: f64,
    /// The per-knob winners the map claimed, in knob order.
    pub winners: Vec<Selection>,
    /// Every joint validation run, in decision order.
    pub validations: Vec<CandidateValidation>,
}

impl Composition {
    /// The knobs the deployed configuration changes relative to baseline.
    pub fn deployed_knobs(&self) -> Vec<Knob> {
        match &self.decision {
            CompositionDecision::Composed { knobs } => knobs.clone(),
            CompositionDecision::PerKnobFallback { knob, .. } => vec![*knob],
            CompositionDecision::Baseline => Vec::new(),
        }
    }
}

impl CompositionDecision {
    /// Stable lowercase category label, used as a trace attribute and in
    /// `skuctl` output.
    pub fn label(&self) -> &'static str {
        match self {
            CompositionDecision::Composed { .. } => "composed",
            CompositionDecision::PerKnobFallback { .. } => "per-knob-fallback",
            CompositionDecision::Baseline => "baseline",
        }
    }
}

/// Composes per-knob winners into a soft SKU and validates the composition
/// jointly on parallel environment replicas.
#[derive(Debug)]
pub struct SkuComposer {
    tester: AbTester,
    config: ComposerConfig,
    base_seed: u64,
    workers: NonZeroUsize,
}

impl SkuComposer {
    /// Creates a composer with the given A/B stopping rules, metric, and
    /// validation parameters.
    pub fn new(
        abtest: AbTestConfig,
        metric: PerformanceMetric,
        config: ComposerConfig,
        base_seed: u64,
    ) -> Self {
        SkuComposer {
            tester: AbTester::new(abtest, metric),
            config,
            base_seed,
            workers: usku::scheduler::default_workers(),
        }
    }

    /// Overrides the worker count used for validation replicas.
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// Composes the map's per-knob winners onto `baseline` and validates.
    ///
    /// With no winners the baseline stands. With one winner the composition
    /// *is* that winner, so a single validation decides between it and the
    /// baseline. With several, both the composition and the best single
    /// winner are measured; the composition deploys only if it is accepted
    /// and keeps `MIN_COMPOSED_FRACTION` (80 %) of the single
    /// knob's measured gain — otherwise winners are retried alone in
    /// descending claimed-gain order until one validates. Every candidate
    /// configuration is built by [`usku::search::compose`], the rule the
    /// searches and the fleet tuner compose with.
    ///
    /// # Errors
    ///
    /// Tester/environment errors, and [`usku::UskuError::Knob`] when a
    /// winner does not apply to `baseline`; rejections are decisions, not
    /// errors.
    pub fn compose(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
    ) -> Result<Composition, RolloutError> {
        self.compose_traced(proto, baseline, map, &mut TraceSink::disabled())
    }

    /// [`SkuComposer::compose`] with observability: a root `compose` span
    /// on the sink's current track (time axis = cumulative validation
    /// sim time) carrying the decision and measured gain, one child span
    /// per joint validation, and one grandchild span per validation
    /// replica with the full A/B record and per-arm TMAM attribution.
    ///
    /// Spans are recorded post-merge in canonical order; the composition
    /// outcome is bit-identical with tracing on or off.
    ///
    /// # Errors
    ///
    /// Tester/environment errors; rejections are decisions, not errors.
    pub fn compose_traced(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
        sink: &mut TraceSink,
    ) -> Result<Composition, RolloutError> {
        let service = proto.profile().service.name().to_string();
        let root = sink.open("compose", &format!("compose {service}"), 0.0);
        sink.attr(root, "service", AttrValue::Str(service));
        let mut cursor = 0.0;
        let result = self.compose_inner(proto, baseline, map, sink, &mut cursor);
        match &result {
            Ok(c) => {
                sink.attr(
                    root,
                    "decision",
                    AttrValue::Str(c.decision.label().to_string()),
                );
                sink.attr(root, "measured_gain", AttrValue::F64(c.measured_gain));
                sink.attr(root, "winners", AttrValue::Int(c.winners.len() as i64));
            }
            Err(_) => sink.attr(root, "decision", AttrValue::Str("error".to_string())),
        }
        sink.close(root, cursor);
        result
    }

    fn compose_inner(
        &self,
        proto: &mut AbEnvironment,
        baseline: &ServerConfig,
        map: &DesignSpaceMap,
        sink: &mut TraceSink,
        cursor: &mut f64,
    ) -> Result<Composition, RolloutError> {
        let mut out = Composition {
            decision: CompositionDecision::Baseline,
            config: baseline.clone(),
            measured_gain: 0.0,
            winners: map.winners(),
            validations: Vec::new(),
        };
        let Some(composed_label) = out.winners.last().map(|w| w.setting) else {
            return Ok(out);
        };
        let composed = compose(baseline, &out.winners)?;
        let composed_name = out
            .winners
            .iter()
            .map(|w| w.setting.to_string())
            .collect::<Vec<_>>()
            .join(" + ");
        warm_baseline(proto, baseline);

        let v = self.validate(
            proto,
            baseline,
            &composed,
            composed_label,
            &composed_name,
            sink,
            cursor,
        )?;
        let (composed_accepted, composed_gain) = (v.accepted, v.gain);
        out.validations.push(v);
        let knobs = out.winners.iter().map(Selection::knob).collect();

        if out.winners.len() == 1 {
            // One winner: the composition and the per-knob SKU coincide.
            if composed_accepted {
                let decision = CompositionDecision::Composed { knobs };
                (out.decision, out.config, out.measured_gain) = (decision, composed, composed_gain);
            }
            return Ok(out);
        }

        // Interaction detection: measure the strongest single claim under
        // the same validation regime and compare measured gains; when the
        // composition does not hold, deploy the first winner, in ranked
        // order, that validates alone.
        for (i, w) in map.ranked_winners().into_iter().enumerate() {
            let single = compose(baseline, &[w])?;
            let name = w.setting.to_string();
            let v = self.validate(proto, baseline, &single, w.setting, &name, sink, cursor)?;
            let (accepted, gain) = (v.accepted, v.gain);
            out.validations.push(v);
            if i == 0
                && composed_accepted
                && (!accepted || composed_gain >= MIN_COMPOSED_FRACTION * gain)
            {
                let decision = CompositionDecision::Composed { knobs };
                (out.decision, out.config, out.measured_gain) = (decision, composed, composed_gain);
                return Ok(out);
            }
            if accepted {
                let decision = CompositionDecision::PerKnobFallback {
                    knob: w.knob(),
                    setting: w.setting,
                };
                (out.decision, out.config, out.measured_gain) = (decision, single, gain);
                return Ok(out);
            }
        }
        Ok(out)
    }

    /// Validates one candidate configuration on `replicas` forked
    /// environments, each seeded purely from the candidate's identity and
    /// the replica index — the verdict cannot depend on worker count.
    ///
    /// When the sink is enabled, records a `compose.validate` span at the
    /// caller's cumulative sim-time cursor with one child span per replica
    /// (spans laid down post-merge, in replica order), and advances the
    /// cursor by the validation's total simulated time.
    #[allow(clippy::too_many_arguments)]
    fn validate(
        &self,
        proto: &AbEnvironment,
        baseline: &ServerConfig,
        candidate: &ServerConfig,
        label: KnobSetting,
        name: &str,
        sink: &mut TraceSink,
        cursor: &mut f64,
    ) -> Result<CandidateValidation, RolloutError> {
        let service = proto.profile().service.name();
        let platform = proto.profile().platform.to_string();
        let needs_reboot = Knob::reboot_between(baseline, candidate);
        let trials: Vec<Trial> = (0..self.config.replicas.max(1))
            .map(|i| Trial {
                target: 0,
                config: candidate.clone(),
                needs_reboot,
                label,
                seed: IdentitySeed::new(self.base_seed)
                    .field(service)
                    .field("compose.validate")
                    .field(name)
                    .field(&i.to_string())
                    .finish(),
            })
            .collect();
        let target = TrialTarget {
            tester: &self.tester,
            proto,
            baseline,
        };
        let runs = run_trials(&[target], &trials, self.workers.get(), sink.is_enabled())
            .map_err(RolloutError::Usku)?;

        let sim_time_s: f64 = runs.iter().map(|r| r.sim_time_s).sum();
        let mut gains: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.result.verdict.gain())
            .collect();
        gains.sort_by(f64::total_cmp);
        let better_votes = gains.len();
        let accepted = better_votes * 2 > trials.len();
        // Lower median of the winning replicas' gains: a conservative,
        // order-independent point estimate.
        let gain = match nearest_rank(&gains, 0.5) {
            Some(g) if accepted => g,
            _ => 0.0,
        };

        if sink.is_enabled() {
            let span = sink.open("compose.validate", name, *cursor);
            sink.attr(span, "candidate", AttrValue::Str(name.to_string()));
            sink.attr(span, "accepted", AttrValue::Bool(accepted));
            sink.attr(span, "gain", AttrValue::F64(gain));
            sink.attr(span, "better_votes", AttrValue::Int(better_votes as i64));
            sink.attr(span, "replicas", AttrValue::Int(trials.len() as i64));
            let mut t = *cursor;
            for (trial, run) in trials.iter().zip(&runs) {
                trace_test_span(sink, service, &platform, run, trial.seed, t);
                t += run.sim_time_s;
            }
            sink.close(span, *cursor + sim_time_s);
        }
        *cursor += sim_time_s;

        let results: Vec<AbTestResult> = runs.into_iter().map(|r| r.result).collect();
        Ok(CandidateValidation {
            label: name.to_string(),
            accepted,
            gain,
            better_votes,
            replicas: trials.len(),
            results,
            sim_time_s,
        })
    }
}
