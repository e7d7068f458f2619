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

/// Outcome of a search: the design-space map plus the selected composite
/// configuration.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Every A/B test performed.
    pub map: DesignSpaceMap,
    /// The composed best configuration.
    pub best_config: ServerConfig,
    /// Per-knob winning settings actually applied. The `f64` is always a
    /// gain relative to the *original baseline*: the measured per-knob gain
    /// for the independent sweep, the joint-configuration gain for the
    /// exhaustive sweep, and the cumulative gain of the accepted
    /// configuration for hill climbing (each step measures against the
    /// then-current config; the cumulative product is reported so the three
    /// strategies' numbers are comparable).
    pub selected: Vec<(Knob, KnobSetting, f64)>,
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
/// baseline; the per-knob winners are presumed additive and composed by the
/// soft-SKU generator.
///
/// # Errors
///
/// Propagates tester/environment errors (deterministically: the failing
/// unit at the lowest plan index wins).
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
    (out.best_config, out.selected) = compose(baseline, &out.map, knobs);
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
/// Propagates tester/environment errors.
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
        let mut config = baseline.clone();
        let mut selected = Vec::with_capacity(joint.settings.len());
        for s in &joint.settings {
            // detlint::allow(panic_path): every planned setting was
            // validated against the same baseline when the plan was built.
            s.apply(&mut config).expect("planned settings are valid");
            selected.push((s.knob(), *s, gain));
        }
        (out.best_config, out.selected) = (config, selected);
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
/// order.
///
/// # Errors
///
/// Propagates tester/environment errors.
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
    // cumulative product converts step gains into gains vs. the original
    // baseline, matching the `selected` semantics of the other strategies.
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
        let Some((setting, gain)) = best_move else {
            break;
        };
        // detlint::allow(panic_path): the move was applied to a clone of
        // this very config when it was planned; apply cannot fail.
        setting
            .apply(&mut out.best_config)
            .expect("previously validated move");
        cumulative_factor *= 1.0 + gain;
        // Replace any earlier selection of the same knob; the stored gain is
        // the cumulative gain vs. the original baseline at the time this
        // move was accepted.
        out.selected.retain(|(k, _, _)| *k != setting.knob());
        out.selected
            .push((setting.knob(), setting, cumulative_factor - 1.0));
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

/// Composes per-knob winners onto the baseline (the independent strategy's
/// additive assumption). Shared with the [`crate::scheduler::FleetTuner`].
pub(crate) fn compose(
    baseline: &ServerConfig,
    map: &DesignSpaceMap,
    knobs: &[Knob],
) -> (ServerConfig, Vec<(Knob, KnobSetting, f64)>) {
    let mut config = baseline.clone();
    let mut selected = Vec::new();
    for &knob in knobs {
        if let Some((setting, gain)) = map.best_setting(knob) {
            if setting.apply(&mut config).is_ok() {
                selected.push((knob, setting, gain));
            }
        }
    }
    (config, selected)
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
        let knobs: Vec<Knob> = out.selected.iter().map(|(k, _, _)| *k).collect();
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
            let sel_gain = out.selected.first().expect("winner selected").2;
            assert!((gain - sel_gain).abs() < 1e-12);
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
        assert_eq!(
            out.selected.len(),
            2,
            "two-step climb accepts two distinct knobs: {:?}",
            out.selected
        );
        let first = out.selected[0].2;
        let last = out.selected[1].2;
        assert!(first > 0.0 && last > 0.0);
        assert!(
            last > first,
            "cumulative gain grows across accepted steps: {first} then {last}"
        );
        // Cross-check against ground truth: the last accepted move's stored
        // gain is the best_config's true gain vs. the original baseline
        // (within A/B measurement noise) — not the step-2 marginal, which is
        // several points smaller.
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
