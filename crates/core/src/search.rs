//! Search strategies over the soft-SKU design space.
//!
//! The paper's prototype sweeps knobs *independently* (one A/B test per
//! candidate setting against the production baseline), because "the
//! exhaustive approach requires an impractically large number of A/B tests"
//! (Sec. 4). Sec. 7 suggests better heuristics such as hill climbing for
//! capturing non-additive knob interactions; both extensions are implemented
//! here with explicit test budgets.
//!
//! Every strategy works the same way: it plans its tests
//! ([`crate::scheduler`]), runs each on its own fork of the proto
//! environment seeded from the test's identity, spread over the
//! [`Schedule`]'s workers, and merges the results in plan order. An outcome
//! is therefore bit-identical for any worker count.

use crate::abtest::{AbTester, Verdict};
use crate::error::UskuError;
use crate::map::DesignSpaceMap;
use crate::scheduler::{
    plan_exhaustive, plan_independent, run_trials, warm_baseline, ReplicaRun, Schedule, Trial,
    TrialTarget,
};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::AbEnvironment;
use softsku_knobs::{Knob, KnobSetting, KnobSpace};
use softsku_telemetry::streams::IdentitySeed;
use std::fmt;

/// What a selected setting's gain means. Every variant is relative to the
/// *original baseline*; they differ in what was measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectedGain {
    /// The setting's own A/B gain, measured alone against the baseline
    /// (the independent sweep).
    Individual(f64),
    /// The gain of the whole joint configuration the setting is part of,
    /// shared by every selected setting (the exhaustive sweep).
    Joint(f64),
    /// One accepted hill-climbing move: its gain over the configuration it
    /// was measured against, and the accepted configuration's gain over the
    /// baseline (the product of every `1 + marginal` so far, minus 1).
    Step {
        /// Gain over the then-current configuration.
        marginal: f64,
        /// Gain of the configuration after this move.
        cumulative: f64,
    },
}

/// Formats as `+5.57% individually`, `+5.57% jointly` or
/// `+3.10% step, +8.20% cumulative`, at the caller's precision (2 decimals
/// by default).
impl fmt::Display for SelectedGain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        match *self {
            SelectedGain::Individual(g) => write!(f, "{:+.p$}% individually", g * 100.0),
            SelectedGain::Joint(g) => write!(f, "{:+.p$}% jointly", g * 100.0),
            SelectedGain::Step {
                marginal,
                cumulative,
            } => write!(
                f,
                "{:+.p$}% step, {:+.p$}% cumulative",
                marginal * 100.0,
                cumulative * 100.0
            ),
        }
    }
}

/// One applied setting of a search's composed configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The applied setting.
    pub setting: KnobSetting,
    /// What selecting it gained.
    pub gain: SelectedGain,
}

impl Selection {
    /// The knob the setting belongs to.
    pub fn knob(&self) -> Knob {
        self.setting.knob()
    }
}

/// Formats as one report line, `knob -> setting (gain)`, passing the
/// caller's precision on to the gain.
impl fmt::Display for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        write!(
            f,
            "{:<16} -> {:<w$} ({:.p$})",
            self.knob().to_string(),
            self.setting.to_string(),
            self.gain,
            w = KnobSetting::LABEL_WIDTH
        )
    }
}

/// Sum of the selections' individual gains — compared against the measured
/// composite gain, this quantifies the paper's "gains are not strictly
/// additive" observation. `None` unless every gain is
/// [`SelectedGain::Individual`]: joint and step gains do not add.
pub fn additive_prediction(selections: &[Selection]) -> Option<f64> {
    selections
        .iter()
        .map(|s| match s.gain {
            SelectedGain::Individual(g) => Some(g),
            _ => None,
        })
        .sum()
}

/// Outcome of a search: the design-space map plus the selected composite
/// configuration.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Every A/B test performed.
    pub map: DesignSpaceMap,
    /// The composed best configuration.
    pub best_config: ServerConfig,
    /// The settings applied to the baseline to reach `best_config`, in the
    /// order they were applied.
    pub selected: Vec<Selection>,
    /// Simulated machine-seconds the search's replicas consumed, summed in
    /// plan order.
    pub sim_time_s: f64,
    /// Injected-hazard and recovery event counts summed over the replicas
    /// (`"hazards/injected.spike"` → n), sorted by series name; empty for
    /// hazard-free runs.
    pub hazard_counts: Vec<(String, u64)>,
}

impl SearchOutcome {
    /// An outcome with nothing run yet: an empty map and the baseline as the
    /// best configuration.
    pub(crate) fn start(baseline: &ServerConfig) -> Self {
        SearchOutcome {
            map: DesignSpaceMap::new(),
            best_config: baseline.clone(),
            selected: Vec::new(),
            sim_time_s: 0.0,
            hazard_counts: Vec::new(),
        }
    }

    /// Charges one replica's simulated time and hazard counts; callers
    /// charge runs in plan order.
    pub(crate) fn charge(&mut self, run: &ReplicaRun) {
        self.sim_time_s += run.sim_time_s;
        add_counts(&mut self.hazard_counts, &run.hazard_counts);
    }
}

/// Adds `from`'s per-series event counts into `into`, keeping `into` sorted
/// by series name.
pub(crate) fn add_counts(into: &mut Vec<(String, u64)>, from: &[(String, u64)]) {
    for (series, n) in from {
        match into.binary_search_by(|(s, _)| s.as_str().cmp(series)) {
            Ok(i) => into[i].1 += n,
            Err(i) => into.insert(i, (series.clone(), *n)),
        }
    }
}

/// Independent per-knob sweep (the paper's deployed strategy).
///
/// Each candidate setting of each knob is A/B-tested against the production
/// baseline; the per-knob winners are presumed additive and composed by
/// [`compose`] in `knobs` order.
///
/// # Errors
///
/// Propagates tester/environment errors (deterministically: the failing
/// unit at the lowest plan index wins) and [`compose`]'s knob errors.
pub fn independent_sweep(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    schedule: Schedule,
) -> Result<SearchOutcome, UskuError> {
    let runs = sweep_against(tester, proto, baseline, space, knobs, schedule)?;
    let mut out = SearchOutcome::start(baseline);
    for run in runs {
        out.charge(&run);
        out.map.record(run.result);
    }
    out.selected = out.map.winners_of(knobs.iter().copied());
    out.best_config = compose(baseline, &out.selected)?;
    Ok(out)
}

/// Exhaustive cross-product sweep over a (small) knob subset, bounded by
/// `budget` A/B tests. Returns the best *joint* setting found — capable of
/// capturing interactions the independent sweep misses, at a cost that
/// explodes combinatorially (which is the paper's point).
///
/// Joint results land in the map's joint ledger in plan order, so no single
/// knob is credited with a joint gain; the winner is the earliest-planned
/// maximum gain.
///
/// # Errors
///
/// Propagates tester/environment errors and [`compose`]'s knob errors.
pub fn exhaustive_sweep(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    budget: usize,
    schedule: Schedule,
) -> Result<SearchOutcome, UskuError> {
    let service = proto.profile().service.name().to_string();
    let plan = plan_exhaustive(baseline, space, knobs, budget, &service, schedule.base_seed);
    let (trials, settings): (Vec<_>, Vec<_>) = plan.into_iter().unzip();
    let runs = run_against(tester, proto, baseline, &trials, schedule)?;
    let mut out = SearchOutcome::start(baseline);
    for (settings, run) in settings.into_iter().zip(runs) {
        out.charge(&run);
        out.map.record_joint(settings, run.result);
    }
    if let Some((joint, gain)) = out.map.best_joint() {
        out.selected = joint
            .settings
            .iter()
            .map(|&setting| Selection {
                setting,
                gain: SelectedGain::Joint(gain),
            })
            .collect();
        out.best_config = compose(baseline, &out.selected)?;
    }
    Ok(out)
}

/// Hill climbing: start from the baseline and greedily accept the best
/// significant single-knob move until no move improves or `max_steps` is
/// reached (the Sec. 7 heuristic for non-additive interactions).
///
/// Each step is a planned independent sweep against the current
/// configuration, its replica seeds derived under the step's own base seed
/// `IdentitySeed(base).field("hill_climb").field(step)`. The accepted move
/// is the first `Better` verdict with the strictly largest gain, in plan
/// order. Every accepted move is selected as a [`SelectedGain::Step`], in
/// acceptance order, so a knob moved twice appears twice.
///
/// # Errors
///
/// Propagates tester/environment errors and [`compose`]'s knob errors.
pub fn hill_climb(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    baseline: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    max_steps: usize,
    schedule: Schedule,
) -> Result<SearchOutcome, UskuError> {
    let mut out = SearchOutcome::start(baseline);
    // Each step's A/B test measures against the *current* config; the
    // running product converts step gains into gains vs. the original
    // baseline.
    let mut cumulative_factor = 1.0f64;

    for step in 0..max_steps {
        let step_schedule = Schedule {
            base_seed: IdentitySeed::new(schedule.base_seed)
                .field("hill_climb")
                .field(&step.to_string())
                .finish(),
            ..schedule
        };
        let runs = sweep_against(tester, proto, &out.best_config, space, knobs, step_schedule)?;
        let mut best_move: Option<(KnobSetting, f64)> = None;
        for run in runs {
            out.charge(&run);
            if let Verdict::Better { gain } = run.result.verdict {
                if best_move.is_none_or(|(_, g)| gain > g) {
                    best_move = Some((run.result.setting, gain));
                }
            }
            out.map.record(run.result);
        }
        let Some((setting, marginal)) = best_move else {
            break;
        };
        cumulative_factor *= 1.0 + marginal;
        let selection = Selection {
            setting,
            gain: SelectedGain::Step {
                marginal,
                cumulative: cumulative_factor - 1.0,
            },
        };
        out.best_config = compose(&out.best_config, &[selection])?;
        out.selected.push(selection);
    }
    Ok(out)
}

/// Runs one planned independent sweep against `base`: every candidate on
/// its own fork of `proto`, results in plan order.
fn sweep_against(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    base: &ServerConfig,
    space: &KnobSpace,
    knobs: &[Knob],
    schedule: Schedule,
) -> Result<Vec<ReplicaRun>, UskuError> {
    let service = proto.profile().service.name().to_string();
    let trials = plan_independent(base, space, knobs, &service, schedule.base_seed)?;
    run_against(tester, proto, base, &trials, schedule)
}

/// Warms `proto` at `base` and runs `trials` against that one target.
fn run_against(
    tester: &AbTester,
    proto: &mut AbEnvironment,
    base: &ServerConfig,
    trials: &[Trial],
    schedule: Schedule,
) -> Result<Vec<ReplicaRun>, UskuError> {
    warm_baseline(proto, base);
    let target = TrialTarget {
        tester,
        proto,
        baseline: base,
    };
    run_trials(&[target], trials, schedule.workers.get(), false)
}

/// Applies `selections` to `baseline` in the given order: the one routine
/// that turns a search's winners into a configuration, used by every
/// strategy, the [`crate::scheduler::FleetTuner`] and the rollout crate's
/// `SkuComposer`.
///
/// # Errors
///
/// [`UskuError::Knob`] when a selection does not apply on top of the ones
/// before it.
pub fn compose(
    baseline: &ServerConfig,
    selections: &[Selection],
) -> Result<ServerConfig, UskuError> {
    let mut config = baseline.clone();
    for s in selections {
        s.setting.apply(&mut config)?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abtest::AbTestConfig;
    use crate::metric::PerformanceMetric;
    use softsku_cluster::EnvConfig;
    use softsku_knobs::WorkloadConstraints;
    use softsku_workloads::{Microservice, PlatformKind};

    fn setup() -> (AbTester, AbEnvironment, ServerConfig, KnobSpace) {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let baseline = profile.production_config.clone();
        let space = KnobSpace::for_platform(
            &profile.production_config.platform,
            WorkloadConstraints::permissive(),
        );
        let env = AbEnvironment::new(profile, EnvConfig::fast_test(), 21).unwrap();
        let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);
        (tester, env, baseline, space)
    }

    #[test]
    fn independent_sweep_finds_the_shp_and_thp_wins() {
        let (tester, mut env, baseline, space) = setup();
        let out = independent_sweep(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp, Knob::Shp],
            Schedule::new(21),
        )
        .unwrap();
        let knobs: Vec<Knob> = out.selected.iter().map(Selection::knob).collect();
        assert!(knobs.contains(&Knob::Shp), "selected: {:?}", out.selected);
        assert!(knobs.contains(&Knob::Thp), "selected: {:?}", out.selected);
        // The composed config carries both winners.
        assert_eq!(out.best_config.shp_pages, 300);
        assert_eq!(out.best_config.thp, softsku_archsim::ThpMode::AlwaysOn);
        assert!(out.map.test_count() >= 7);
    }

    #[test]
    fn hill_climb_improves_over_baseline() {
        let (tester, mut env, baseline, space) = setup();
        let out = hill_climb(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp, Knob::Shp],
            2,
            Schedule::new(21),
        )
        .unwrap();
        assert!(
            !out.selected.is_empty(),
            "hill climb should take at least one improving step"
        );
        assert_ne!(out.best_config, baseline);
    }

    #[test]
    fn exhaustive_respects_budget() {
        let (tester, mut env, baseline, space) = setup();
        let out = exhaustive_sweep(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp],
            2,
            Schedule::new(21),
        )
        .unwrap();
        assert!(out.map.test_count() <= 2);
    }

    #[test]
    fn exhaustive_records_joint_results_under_every_constituent_knob() {
        let (tester, mut env, baseline, space) = setup();
        let out = exhaustive_sweep(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp, Knob::Shp],
            8,
            Schedule::new(21),
        )
        .unwrap();
        let joints = out.map.joint_results();
        assert!(!joints.is_empty(), "exhaustive sweep must record results");
        for j in joints {
            assert_eq!(
                j.settings.len(),
                2,
                "every joint entry carries all constituent settings"
            );
            assert_eq!(j.settings[0].knob(), Knob::Thp);
            assert_eq!(j.settings[1].knob(), Knob::Shp);
        }
        // Regression (the old code recorded the joint result under the
        // *last* knob only): no single knob may claim a joint gain.
        assert!(out.map.best_setting(Knob::Thp).is_none());
        assert!(out.map.best_setting(Knob::Shp).is_none());
        assert_eq!(out.map.knobs().count(), 0);
        assert_eq!(out.map.test_count(), joints.len());
        // The winner reported by the sweep is the joint-ledger winner.
        if let Some((best, gain)) = out.map.best_joint() {
            assert_eq!(out.selected.len(), best.settings.len());
            for s in &out.selected {
                assert_eq!(s.gain, SelectedGain::Joint(gain), "{s:?}");
            }
            let mut cfg = baseline.clone();
            for s in &best.settings {
                s.apply(&mut cfg).unwrap();
            }
            assert_eq!(cfg, out.best_config);
        }
    }

    #[test]
    fn hill_climb_reports_cumulative_gain_vs_original_baseline() {
        let (tester, mut env, baseline, space) = setup();
        let out = hill_climb(
            &tester,
            &mut env,
            &baseline,
            &space,
            &[Knob::Thp, Knob::Shp],
            2,
            Schedule::new(21),
        )
        .unwrap();
        let cumulative: Vec<f64> = out
            .selected
            .iter()
            .map(|s| match s.gain {
                SelectedGain::Step { cumulative, .. } => cumulative,
                other => panic!("hill climbing selects steps, got {other:?}"),
            })
            .collect();
        let [first, last] = cumulative[..] else {
            panic!("two-step climb accepts two moves: {:?}", out.selected);
        };
        assert_ne!(
            out.selected[0].knob(),
            out.selected[1].knob(),
            "the two moves are on distinct knobs"
        );
        assert!(first > 0.0 && last > 0.0);
        assert!(
            last > first,
            "cumulative gain grows across accepted steps: {first} then {last}"
        );
        // Cross-check against ground truth: the last accepted move's
        // cumulative gain is the best_config's true gain vs. the original
        // baseline (within A/B measurement noise) — not the step-2
        // marginal, which is several points smaller.
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut base_srv =
            softsku_cluster::SimServer::with_window(profile.clone(), baseline.clone(), 21, 60_000)
                .unwrap();
        let mut best_srv =
            softsku_cluster::SimServer::with_window(profile, out.best_config.clone(), 21, 60_000)
                .unwrap();
        let true_gain = best_srv.mips(1.0).unwrap() / base_srv.mips(1.0).unwrap() - 1.0;
        assert!(
            (last - true_gain).abs() < 0.05,
            "cumulative {last:+.4} vs true {true_gain:+.4}"
        );
    }
}
