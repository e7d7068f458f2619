//! Mesh golden digests: every bit of full `MeshReport`s — each
//! `TierStats` field and every critical-path share, not just the p99 —
//! plus the request samples and the Chrome trace of instrumented runs,
//! pinned at seed 21. A refactor of the request-graph simulator must
//! leave all of them unchanged.

use softsku::mesh::{
    colocation_mix, media, social_network, Edge, MeshConfig, MeshObjective, MeshReport, MeshSim,
    MeshTuner, RequestSample, ServiceGraph, Tier,
};
use softsku::telemetry::trace::TraceSink;
use softsku::workloads::Microservice;

/// FNV-1a over the canonical bit patterns of a result.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn report(&mut self, r: &MeshReport) {
        self.str(&r.graph);
        for v in [r.injected, r.completed, r.in_flight] {
            self.u64(v);
        }
        for v in [
            r.mean_s,
            r.p50_s,
            r.p95_s,
            r.p99_s,
            r.network_critical_share,
        ] {
            self.f64(v);
        }
        self.u64(r.tiers.len() as u64);
        for t in &r.tiers {
            self.str(&t.name);
            for v in [t.jobs, t.jobs_done_by_horizon, t.jobs_pending_at_horizon] {
                self.u64(v);
            }
            for v in [
                t.mean_wait_s,
                t.mean_service_s,
                t.calibrated_service_s,
                t.retention,
                t.critical_share,
            ] {
                self.f64(v);
            }
        }
    }

    fn samples(&mut self, samples: &[RequestSample]) {
        self.u64(samples.len() as u64);
        for s in samples {
            self.u64(s.req as u64);
            for v in [s.start_s, s.latency_s, s.finish_s] {
                self.f64(v);
            }
            self.u64(s.span_id.unwrap_or(u64::MAX));
        }
    }
}

fn production_skus(graph: &ServiceGraph) -> Vec<softsku::archsim::engine::ServerConfig> {
    graph
        .tiers()
        .iter()
        .map(|t| {
            t.service
                .production_config(t.service.default_platform())
                .unwrap()
        })
        .collect()
}

/// A finite-horizon run with an injected tail regression, so the
/// conservation counters, the pending jobs and the regression draws all
/// reach the report.
fn regressed_config() -> MeshConfig {
    MeshConfig {
        requests: 600,
        horizon_s: 600.0 / 900.0 * 0.6,
        window_insns: 60_000,
        regress_frac: 0.1,
        regress_scale: 3.0,
        seed: 21,
        ..MeshConfig::default()
    }
}

/// Digest of one instrumented run: the report, the request samples
/// (span ids included) and the rendered Chrome trace.
fn instrumented_digest(graph: &ServiceGraph) -> u64 {
    let sim = MeshSim::new(graph, regressed_config()).unwrap();
    let mut sink = TraceSink::new();
    let (report, samples) = sim
        .run_instrumented(&production_skus(graph), &mut sink)
        .unwrap();
    assert!(report.in_flight > 0, "the horizon cuts the run short");
    let mut d = Digest::new();
    d.report(&report);
    d.samples(&samples);
    d.str(&sink.chrome_trace().render());
    d.0
}

#[test]
fn social_network_instrumented_run_is_pinned() {
    let graph = social_network().unwrap();
    assert_eq!(instrumented_digest(&graph), 0x37ceabb0e8bc7e8f);
}

#[test]
fn media_instrumented_run_is_pinned() {
    let graph = media().unwrap();
    assert_eq!(instrumented_digest(&graph), 0x554263a425f51eff);
}

#[test]
fn colocation_mix_instrumented_run_is_pinned() {
    let graph = colocation_mix().unwrap();
    assert_eq!(instrumented_digest(&graph), 0x75bf4e51b22d9d6a);
}

#[test]
fn both_tuner_objectives_are_pinned() {
    let graph = colocation_mix().unwrap();
    let config = MeshConfig {
        requests: 600,
        window_insns: 60_000,
        seed: 21,
        ..MeshConfig::default()
    };
    let tuner = MeshTuner::with_default_candidates(&graph, config).unwrap();
    let mut digests = Vec::new();
    for objective in [MeshObjective::PerTierMips, MeshObjective::GraphP99] {
        let tuned = tuner.tune(objective, 2).unwrap();
        let mut d = Digest::new();
        for label in tuned.labels() {
            d.str(label);
        }
        d.u64(tuned.evaluated as u64);
        d.report(&tuned.report);
        digests.push(d.0);
    }
    assert_eq!(digests, [0xe51bb0c83f2cfa86, 0xd46495c6e0a40970]);
}

/// An upstream tier that always hits its cache leaves the downstream
/// tier with zero jobs: its mean wait and service are empty sums, which
/// are `-0.0`.
#[test]
fn empty_downstream_tier_is_pinned() {
    let graph = ServiceGraph::new(
        "shielded",
        vec![
            Tier::new("front", Microservice::Web, 2, 1e-3).with_hit_rate(1.0),
            Tier::new("back", Microservice::Cache1, 4, 0.3e-3),
        ],
        vec![Edge {
            from: 0,
            to: 1,
            rtt_s: 100e-6,
        }],
    )
    .unwrap();
    let config = MeshConfig {
        requests: 200,
        window_insns: 60_000,
        seed: 21,
        ..MeshConfig::default()
    };
    let report = MeshSim::new(&graph, config)
        .unwrap()
        .run(&production_skus(&graph))
        .unwrap();
    let back = &report.tiers[1];
    assert_eq!(back.jobs, 0);
    assert_eq!(back.mean_wait_s.to_bits(), (-0.0f64).to_bits());
    assert_eq!(back.mean_service_s.to_bits(), (-0.0f64).to_bits());
    let mut d = Digest::new();
    d.report(&report);
    assert_eq!(d.0, 0x136914d0aaa58ed4);
}
