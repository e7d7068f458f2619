//! One composition rule from design-space map to soft SKU: the composer
//! composes the map's winners through `usku::search::compose`, the routine
//! the searches and the fleet tuner use, so both pick the same selections,
//! build the same configuration, and fail the same typed way on a winner
//! that does not apply.

use softsku_cluster::{AbEnvironment, EnvConfig};
use softsku_knobs::{Knob, KnobSetting};
use softsku_rollout::{ComposerConfig, CompositionDecision, RolloutError, SkuComposer};
use softsku_workloads::{Microservice, PlatformKind};
use usku::metric::PerformanceMetric;
use usku::search::compose;
use usku::{AbTestConfig, AbTestResult, DesignSpaceMap, FleetTuner, UskuError, Verdict};

const SEED: u64 = 21;

fn composer(service: Microservice) -> SkuComposer {
    SkuComposer::new(
        AbTestConfig::fast_test(),
        PerformanceMetric::recommended_for(service),
        ComposerConfig::fast_test(),
        SEED,
    )
}

#[test]
fn the_composer_composes_the_tuners_selections() {
    let (service, platform) = (Microservice::Web, PlatformKind::Skylake18);
    let tuner = FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), SEED)
        .with_knobs(vec![Knob::Thp, Knob::Shp]);
    let mut fleet = tuner.tune(&[(service, platform)]).unwrap();
    let outcome = fleet.services.pop().unwrap().outcome;
    assert!(!outcome.selected.is_empty(), "the sweep finds winners");

    let profile = service.profile(platform).unwrap();
    let baseline = profile.production_config.clone();
    let mut proto = AbEnvironment::new(profile, EnvConfig::fast_test(), SEED).unwrap();
    let composition = composer(service)
        .compose(&mut proto, &baseline, &outcome.map)
        .unwrap();

    assert_eq!(composition.winners, outcome.selected);
    if let CompositionDecision::Composed { .. } = composition.decision {
        assert_eq!(composition.config, outcome.best_config);
    }
}

#[test]
fn a_claim_that_does_not_apply_is_a_typed_error() {
    let service = Microservice::Web;
    let profile = service.profile(PlatformKind::Skylake18).unwrap();
    let baseline = profile.production_config.clone();
    let mut map = DesignSpaceMap::new();
    map.record(AbTestResult {
        setting: KnobSetting::CoreFrequencyGhz(9.9),
        baseline: None,
        candidate: None,
        welch: None,
        verdict: Verdict::Better { gain: 0.05 },
        samples: 60,
        attempts: 60,
        rejected_outliers: 0,
    });

    let searched = compose(&baseline, &map.winners());
    assert!(
        matches!(searched, Err(UskuError::Knob(_))),
        "search::compose: {searched:?}"
    );
    let mut proto = AbEnvironment::new(profile, EnvConfig::fast_test(), SEED).unwrap();
    let composed = composer(service).compose(&mut proto, &baseline, &map);
    assert!(
        matches!(composed, Err(RolloutError::Usku(UskuError::Knob(_)))),
        "SkuComposer::compose: {composed:?}"
    );
}
