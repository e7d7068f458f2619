//! The graph-p99 tuner shares tier segments across its assignments: a
//! tier's forward pass is simulated once per distinct cone of upstream
//! calibrations, not once per assignment. Sharing must be invisible in
//! the verdict — the tuned report equals a fresh `MeshSim::run` on the
//! selected SKUs bit for bit — and the number of simulated segments is a
//! deterministic function of the graph and candidates, at any worker count.

use softsku::mesh::{
    colocation_mix, media, social_network, MeshConfig, MeshObjective, MeshSim, MeshTuner,
    ServiceGraph,
};

fn config() -> MeshConfig {
    MeshConfig {
        requests: 300,
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: 60_000,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed: 21,
    }
}

/// Tunes `graph` at 1 and 2 workers; checks each tuned report against a
/// fresh simulation, and the assignment and segment counts.
fn check(graph: &ServiceGraph, evaluated: usize, passes: usize) {
    let tuner = MeshTuner::with_default_candidates(graph, config()).unwrap();
    for workers in [1usize, 2] {
        let tuned = tuner.tune(MeshObjective::GraphP99, workers).unwrap();
        let skus: Vec<_> = tuned.selections.iter().map(|s| s.config.clone()).collect();
        let fresh = MeshSim::new(graph, config()).unwrap().run(&skus).unwrap();
        assert_eq!(
            format!("{:?}", tuned.report),
            format!("{fresh:?}"),
            "{} at {workers} workers: shared segments changed the report",
            graph.name()
        );
        assert_eq!(tuned.report.p99_s.to_bits(), fresh.p99_s.to_bits());
        assert_eq!(
            (tuned.evaluated, tuned.tier_passes),
            (evaluated, passes),
            "{} at {workers} workers",
            graph.name()
        );
    }
}

/// Six tiers, two candidates each, 64 assignments: web 2 + feed, ranker
/// and ads 4 each + cache 16 (web, feed, ranker, cache) + store 32 = 62
/// of 384 tier passes.
#[test]
fn social_network_simulates_62_of_384_tier_passes() {
    check(&social_network().unwrap(), 64, 62);
}

/// A serial chain of four, 16 assignments: 2 + 4 + 8 + 16 = 30 of 64.
#[test]
fn media_simulates_30_of_64_tier_passes() {
    check(&media().unwrap(), 16, 30);
}

/// Colocated retention couples web with feed and ranker with ads, so web
/// and feed each see 4 cones and ranker and ads 16: 40 of 64.
#[test]
fn colocation_mix_simulates_40_of_64_tier_passes() {
    check(&colocation_mix().unwrap(), 16, 40);
}
