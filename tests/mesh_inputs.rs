//! Hostile mesh configurations get typed errors instead of NaN reports:
//! an arrival rate that passes `validate` but is so small that the root
//! arrivals overflow to infinity would otherwise yield `p99_s = NaN`,
//! and the tuner's `p99_s <` comparison would silently keep plan 0.

use softsku::mesh::{media, MeshConfig, MeshError, MeshObjective, MeshSim, MeshTuner};

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
