//! Hostile mesh configurations get typed errors instead of NaN reports:
//! an arrival rate that passes `validate` but is so small that the root
//! arrivals overflow to infinity would otherwise yield `p99_s = NaN`,
//! and the tuner's `p99_s <` comparison would silently keep plan 0. A
//! request count too large for the `u32` job table is likewise a typed
//! error rather than a `capacity overflow` panic.

use softsku::mesh::{
    media, social_network, MeshCanary, MeshCanaryConfig, MeshConfig, MeshError, MeshObjective,
    MeshSim, MeshTuner,
};
use softsku::telemetry::trace::TraceSink;
use softsku::telemetry::Ods;

fn overflowing_config() -> MeshConfig {
    MeshConfig {
        requests: 200,
        arrival_rate_hz: 1e-310,
        window_insns: 60_000,
        seed: 21,
        ..MeshConfig::default()
    }
}

#[test]
fn overflowing_arrival_times_are_a_config_error() {
    let graph = media().unwrap();
    let skus: Vec<_> = graph
        .tiers()
        .iter()
        .map(|t| {
            t.service
                .production_config(t.service.default_platform())
                .unwrap()
        })
        .collect();
    let sim = MeshSim::new(&graph, overflowing_config()).expect("the rate itself is finite");
    match sim.run(&skus) {
        Err(MeshError::Config(msg)) => assert!(msg.contains("arrival rate"), "{msg}"),
        other => panic!("expected MeshError::Config, got {other:?}"),
    }
    let tuner = MeshTuner::with_default_candidates(&graph, overflowing_config()).unwrap();
    assert!(
        tuner.tune(MeshObjective::GraphP99, 1).is_err(),
        "the tuner must not rank NaN reports"
    );
}

/// A request count whose job table cannot be indexed by `u32` (requests ×
/// root-to-tier paths) is a config error before anything is allocated,
/// for the simulator, both tuner objectives and the canary campaign alike.
#[test]
fn job_tables_beyond_u32_are_a_config_error() {
    let graph = social_network().unwrap();
    // social_network has 8 root-to-tier paths: one each to web, feed,
    // ranker and ads, two each to cache and store.
    for requests in [usize::MAX, (u32::MAX / 8) as usize + 1] {
        let config = MeshConfig {
            requests,
            window_insns: 60_000,
            ..MeshConfig::default()
        };
        match MeshSim::new(&graph, config) {
            Err(MeshError::Config(msg)) => assert!(msg.contains("u32"), "{msg}"),
            other => panic!("expected MeshError::Config, got {other:?}"),
        }
        let tuner = MeshTuner::with_default_candidates(&graph, config).unwrap();
        for objective in [MeshObjective::GraphP99, MeshObjective::PerTierMips] {
            assert!(matches!(
                tuner.tune(objective, 1),
                Err(MeshError::Config(_))
            ));
        }
        let canary = MeshCanary::new(&graph, config, MeshCanaryConfig::default()).unwrap();
        let campaign = canary.run(1, &mut Ods::unbounded(), &mut TraceSink::new());
        assert!(matches!(campaign, Err(MeshError::Config(_))));
    }
    let fits = MeshConfig {
        requests: (u32::MAX / 8) as usize,
        ..MeshConfig::default()
    };
    assert!(MeshSim::new(&graph, fits).is_ok(), "the bound is exact");
}
