//! Determinism suite for the search strategies: the same search must
//! produce verdict-for-verdict identical design-space maps — and the same
//! composed configuration, simulated time and hazard ledger — for any worker
//! count, because each test's replica seed derives from the test's
//! identity, not from scheduling. Covers all three strategies, with and
//! without injected production hazards.

use softsku::cluster::{AbEnvironment, EnvConfig, HazardConfig};
use softsku::knobs::{Knob, KnobSpace};
use softsku::usku::metric::PerformanceMetric;
use softsku::usku::scheduler::Schedule;
use softsku::usku::search::{
    exhaustive_sweep, hill_climb, independent_sweep, SearchOutcome, SelectedGain,
};
use softsku::usku::{AbTestConfig, AbTester};
use softsku::workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

const SEED: u64 = 21;
const KNOBS: [Knob; 2] = [Knob::Thp, Knob::Shp];

fn setup(env_config: EnvConfig) -> (AbTester, AbEnvironment, KnobSpace) {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
    let space = KnobSpace::for_platform(&profile.production_config.platform, profile.constraints);
    let env = AbEnvironment::new(profile, env_config, SEED).unwrap();
    let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);
    (tester, env, space)
}

fn independent_with(workers: usize, env_config: EnvConfig) -> SearchOutcome {
    let (tester, mut env, space) = setup(env_config);
    let baseline = env.profile().production_config.clone();
    independent_sweep(
        &tester,
        &mut env,
        &baseline,
        &space,
        &KNOBS,
        Schedule::new(SEED).with_workers(NonZeroUsize::new(workers).unwrap()),
    )
    .unwrap()
}

fn exhaustive_with(workers: usize, env_config: EnvConfig) -> SearchOutcome {
    let (tester, mut env, space) = setup(env_config);
    let baseline = env.profile().production_config.clone();
    exhaustive_sweep(
        &tester,
        &mut env,
        &baseline,
        &space,
        &[Knob::Thp, Knob::CoreFrequency],
        6,
        Schedule::new(SEED).with_workers(NonZeroUsize::new(workers).unwrap()),
    )
    .unwrap()
}

fn hill_climb_with(workers: usize) -> SearchOutcome {
    let (tester, mut env, space) = setup(EnvConfig::fast_test());
    let baseline = env.profile().production_config.clone();
    hill_climb(
        &tester,
        &mut env,
        &baseline,
        &space,
        &KNOBS,
        2,
        Schedule::new(SEED).with_workers(NonZeroUsize::new(workers).unwrap()),
    )
    .unwrap()
}

/// Bit-level equality of two outcomes: every verdict and sample count (via
/// the rendered map), every selection (setting, gain kind, exact gain), the
/// composed configuration, the simulated time, and the hazard ledger.
fn assert_identical(a: &SearchOutcome, b: &SearchOutcome, what: &str) {
    assert_eq!(a.map.render(), b.map.render(), "{what}: maps diverged");
    assert_eq!(a.best_config, b.best_config, "{what}: best_config diverged");
    assert_eq!(
        a.sim_time_s.to_bits(),
        b.sim_time_s.to_bits(),
        "{what}: simulated time not bit-identical"
    );
    assert_eq!(
        a.hazard_counts, b.hazard_counts,
        "{what}: hazard ledgers diverged"
    );
    assert_eq!(
        a.selected.len(),
        b.selected.len(),
        "{what}: selection count diverged"
    );
    for (sa, sb) in a.selected.iter().zip(&b.selected) {
        assert_eq!(sa.setting, sb.setting, "{what}: selected setting diverged");
        assert_eq!(
            gain_bits(sa.gain),
            gain_bits(sb.gain),
            "{what}: selected gain not bit-identical"
        );
    }
}

/// A selected gain's kind and the bits of every field it carries.
fn gain_bits(gain: SelectedGain) -> (&'static str, Vec<u64>) {
    match gain {
        SelectedGain::Individual(g) => ("individual", vec![g.to_bits()]),
        SelectedGain::Joint(g) => ("joint", vec![g.to_bits()]),
        SelectedGain::Step {
            marginal,
            cumulative,
        } => ("step", vec![marginal.to_bits(), cumulative.to_bits()]),
    }
}

#[test]
fn independent_sweep_is_bit_identical_across_worker_counts() {
    let one = independent_with(1, EnvConfig::fast_test());
    let two = independent_with(2, EnvConfig::fast_test());
    let eight = independent_with(8, EnvConfig::fast_test());
    assert_identical(&one, &two, "1 vs 2 workers");
    assert_identical(&one, &eight, "1 vs 8 workers");
    assert!(one.map.test_count() >= 7, "sweep actually ran tests");
}

#[test]
fn independent_sweep_stays_deterministic_under_hazards() {
    let mut config = EnvConfig::fast_test();
    config.hazards = HazardConfig::moderate();
    let one = independent_with(1, config);
    let two = independent_with(2, config);
    let eight = independent_with(8, config);
    assert_identical(&one, &two, "hazards, 1 vs 2 workers");
    assert_identical(&one, &eight, "hazards, 1 vs 8 workers");
    assert!(
        one.hazard_counts
            .iter()
            .any(|(series, n)| series.starts_with("hazards/") && *n > 0),
        "moderate weather injected hazards: {:?}",
        one.hazard_counts
    );
}

#[test]
fn exhaustive_sweep_is_bit_identical_across_worker_counts() {
    let one = exhaustive_with(1, EnvConfig::fast_test());
    let three = exhaustive_with(3, EnvConfig::fast_test());
    assert_identical(&one, &three, "exhaustive, 1 vs 3 workers");
    assert!(
        !one.map.joint_results().is_empty(),
        "exhaustive sweep recorded joint configurations"
    );
}

#[test]
fn hill_climb_is_bit_identical_across_worker_counts() {
    let one = hill_climb_with(1);
    let two = hill_climb_with(2);
    let eight = hill_climb_with(8);
    assert_identical(&one, &two, "hill climb, 1 vs 2 workers");
    assert_identical(&one, &eight, "hill climb, 1 vs 8 workers");
    assert!(!one.selected.is_empty(), "the climb accepted a move");
}

/// The climb records one step per accepted move, and the steps compose:
/// the product of every `1 + marginal`, minus 1, is the last cumulative
/// gain bit for bit, at any worker count.
#[test]
fn hill_climb_steps_multiply_to_the_cumulative_gain() {
    for workers in [1, 2] {
        let out = hill_climb_with(workers);
        let steps: Vec<(f64, f64)> = out
            .selected
            .iter()
            .map(|s| match s.gain {
                SelectedGain::Step {
                    marginal,
                    cumulative,
                } => (marginal, cumulative),
                other => panic!("hill climbing selects steps, got {other:?}"),
            })
            .collect();
        assert!(
            steps.len() >= 2,
            "{workers} workers: the climb accepts at least two moves: {steps:?}"
        );
        let product = steps.iter().fold(1.0f64, |acc, &(m, _)| acc * (1.0 + m)) - 1.0;
        let (_, last) = steps[steps.len() - 1];
        assert_eq!(product.to_bits(), last.to_bits(), "{workers} workers");
    }
}
