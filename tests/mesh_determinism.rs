//! Mesh determinism contract (ISSUE acceptance): the request-graph
//! simulator and joint tuner are pure functions of `(graph, config,
//! seed)` — the graph p99 and the full Chrome trace are bit-identical
//! across 1, 2, and 8 scheduler workers — and queueing conserves
//! requests under arbitrary random DAGs.

use proptest::prelude::*;
use softsku::mesh::{
    colocation_mix, Edge, MeshConfig, MeshObjective, MeshSim, MeshTuner, ServiceGraph, Tier,
};
use softsku::telemetry::trace::TraceSink;
use softsku::workloads::Microservice;

fn tuner_config() -> MeshConfig {
    MeshConfig {
        requests: 600,
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: 60_000,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed: 21,
    }
}

/// The headline contract: the joint-tuning verdict — winning labels and
/// the winning report, down to the last bit of the p99 — is identical at
/// 1, 2, and 8 workers.
#[test]
fn graph_p99_is_bit_identical_across_1_2_and_8_workers() {
    let graph = colocation_mix().unwrap();
    let tuner = MeshTuner::with_default_candidates(&graph, tuner_config()).unwrap();
    let mut reference: Option<(Vec<String>, u64, String)> = None;
    for workers in [1usize, 2, 8] {
        let tuned = tuner.tune(MeshObjective::GraphP99, workers).unwrap();
        let view = (
            tuned
                .labels()
                .iter()
                .map(|l| (*l).to_string())
                .collect::<Vec<_>>(),
            tuned.report.p99_s.to_bits(),
            format!("{:?}", tuned.report),
        );
        match &reference {
            None => reference = Some(view),
            Some(first) => assert_eq!(*first, view, "verdict changed at {workers} workers"),
        }
    }
}

/// The full Chrome trace of a traced run is byte-identical across
/// replays: same spans, same order, same rendered JSON.
#[test]
fn chrome_trace_export_is_replay_stable() {
    let graph = colocation_mix().unwrap();
    let skus: Vec<_> = graph
        .tiers()
        .iter()
        .map(|t| {
            t.service
                .production_config(t.service.default_platform())
                .unwrap()
        })
        .collect();
    let mut cfg = tuner_config();
    cfg.requests = 120;
    let sim = MeshSim::new(&graph, cfg).unwrap();

    let mut renders = Vec::new();
    for _ in 0..2 {
        let mut sink = TraceSink::new();
        let report = sim.run_instrumented(&skus, &mut sink).unwrap().0;
        let json = sink.chrome_trace().render_pretty();
        assert!(json.contains("traceEvents"));
        let hops: u64 = report.tiers.iter().map(|t| t.jobs).sum();
        assert_eq!(
            sink.spans().len() as u64,
            report.injected + hops,
            "one span per request plus one per hop"
        );
        renders.push(json);
    }
    assert_eq!(renders[0], renders[1], "trace export must be replay-stable");
}

/// Random-DAG construction from raw draws: up to 5 tiers, edges only
/// from lower to higher index (acyclic by construction, root never a
/// target), random services, concurrency, budgets, hit rates, and RTTs.
/// The vendored proptest has no `prop_map`, so the test body assembles
/// the graph from plain generated vectors.
fn build_graph(
    n: usize,
    svc: &[usize],
    conc: &[u32],
    budget: &[f64],
    hit: &[f64],
    mask: &[bool],
    rtts: &[f64],
) -> ServiceGraph {
    let tiers: Vec<Tier> = (0..n)
        .map(|i| {
            Tier::new(
                &format!("t{i}"),
                Microservice::ALL[svc[i] % Microservice::ALL.len()],
                conc[i],
                budget[i],
            )
            .with_hit_rate(hit[i])
        })
        .collect();
    let mut edge_list = Vec::new();
    let mut k = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if mask[k] {
                edge_list.push(Edge {
                    from: i,
                    to: j,
                    rtt_s: rtts[k],
                });
            }
            k += 1;
        }
    }
    ServiceGraph::new("random", tiers, edge_list).expect("construction is valid by design")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Queueing conserves requests under arbitrary DAGs and horizons:
    /// injected == completed + in-flight at the graph level, jobs ==
    /// done + pending at every tier, and the percentile ladder is
    /// ordered and finite.
    #[test]
    fn queueing_conserves_requests_under_random_dags(
        n in 2usize..=5,
        svc in prop::collection::vec(0usize..Microservice::ALL.len(), 5),
        conc in prop::collection::vec(1u32..6, 5),
        budget in prop::collection::vec(0.2e-3..4.0e-3f64, 5),
        hit in prop::collection::vec(0.0..0.9f64, 5),
        mask in prop::collection::vec(any::<bool>(), 10),
        rtts in prop::collection::vec(20e-6..500e-6f64, 10),
        seed in 0u64..1_000,
        horizon_frac in 0.05f64..2.0,
    ) {
        let graph = build_graph(n, &svc, &conc, &budget, &hit, &mask, &rtts);
        let cfg = MeshConfig {
            requests: 80,
            arrival_rate_hz: 2_000.0,
            horizon_s: 80.0 / 2_000.0 * horizon_frac,
            window_insns: 12_000,
            regress_frac: 0.0,
            regress_scale: 1.0,
            seed,
        };
        let skus: Vec<_> = graph
            .tiers()
            .iter()
            .map(|t| t.service.production_config(t.service.default_platform()).unwrap())
            .collect();
        let report = MeshSim::new(&graph, cfg).unwrap().run(&skus).unwrap();
        prop_assert_eq!(report.injected, cfg.requests as u64);
        prop_assert_eq!(report.injected, report.completed + report.in_flight);
        for tier in &report.tiers {
            prop_assert_eq!(
                tier.jobs,
                tier.jobs_done_by_horizon + tier.jobs_pending_at_horizon,
                "tier {} leaks jobs", &tier.name
            );
        }
        // The root serves every request exactly once.
        prop_assert_eq!(report.tiers[0].jobs, report.injected);
        prop_assert!(report.p50_s <= report.p95_s && report.p95_s <= report.p99_s);
        prop_assert!(report.p99_s.is_finite() && report.p99_s > 0.0);
    }
}
