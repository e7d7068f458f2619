//! Mesh golden digests: every bit of full `MeshReport`s — each
//! `TierStats` field and every critical-path share, not just the p99 —
//! plus the request samples and the Chrome trace of instrumented runs,
//! and whole SLO-gated canary campaigns, pinned at seed 21. A refactor of
//! the request-graph simulator must leave all of them unchanged.

use softsku::mesh::{
    colocation_mix, media, social_network, Edge, MeshCanary, MeshCanaryConfig, MeshCanaryReport,
    MeshConfig, MeshObjective, MeshReport, MeshSim, MeshTuner, RequestSample, ServiceGraph, Tier,
    TierSelection,
};
use softsku::telemetry::slo::{SloEvaluator, SloSpec};
use softsku::telemetry::trace::{AttrValue, TraceSink};
use softsku::telemetry::{LedgerKey, Ods, SeriesKey};
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

    /// A whole campaign: the verdict, both reports, the tuned candidate,
    /// the `slo.*` ledger and the rendered Chrome trace.
    fn campaign(&mut self, r: &MeshCanaryReport, ods: &Ods, sink: &TraceSink) {
        for label in r.tuned.labels() {
            self.str(label);
        }
        self.u64(r.tuned.evaluated as u64);
        self.u64(r.tuned.tier_passes as u64);
        self.report(&r.tuned.report);
        self.report(&r.baseline);
        self.report(&r.canary);
        self.f64(r.threshold_s);
        self.u64(u64::from(r.promoted));
        self.u64(r.alerts);
        self.u64(u64::from(r.max_sustained));
        self.u64(r.blocked_at_s.map_or(u64::MAX, f64::to_bits));
        self.u64(r.exemplars.len() as u64);
        for e in &r.exemplars {
            self.f64(e.t_s);
            self.f64(e.latency_s);
            self.u64(e.span_id);
        }
        for s in &r.deployed {
            self.str(&s.label);
        }
        for key in ods.keys().filter(|k| k.metric().starts_with("slo.")) {
            self.str(key.entity());
            self.str(key.metric());
            let points = ods.raw_points(key);
            self.u64(points.len() as u64);
            for &(t, v) in points {
                self.f64(t);
                self.f64(v);
            }
        }
        self.str(&sink.chrome_trace().render());
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

/// A small `social_network` canary scenario, clean or with 20 % of
/// requests 4x slower.
fn canary_config(regressed: bool) -> MeshConfig {
    MeshConfig {
        requests: 300,
        window_insns: 60_000,
        regress_frac: if regressed { 0.2 } else { 0.0 },
        regress_scale: if regressed { 4.0 } else { 1.0 },
        seed: 21,
        ..MeshConfig::default()
    }
}

fn canary_digest(config: MeshConfig, workers: usize) -> (MeshCanaryReport, u64) {
    let graph = social_network().unwrap();
    let canary = MeshCanary::new(&graph, config, MeshCanaryConfig::default()).unwrap();
    let mut ods = Ods::unbounded();
    let mut sink = TraceSink::new();
    let report = canary.run(workers, &mut ods, &mut sink).unwrap();
    assert!(
        ods.keys().any(|k| k.metric().starts_with("slo.")),
        "the gate ledgers slo.* points"
    );
    let mut d = Digest::new();
    d.campaign(&report, &ods, &sink);
    (report, d.0)
}

#[test]
fn clean_social_network_canary_campaign_is_pinned() {
    let (report, digest) = canary_digest(canary_config(false), 2);
    assert!(report.promoted);
    assert_eq!(digest, 0xc4784eed9774c0f4);
}

#[test]
fn regressed_social_network_canary_campaign_is_pinned() {
    let (report, digest) = canary_digest(canary_config(true), 2);
    assert!(!report.promoted);
    assert_eq!(digest, 0x3625a7c73a936bbf);
}

/// `MeshCanary::run` spelled out through the public API, call by call:
/// the clean baseline, the tune, the instrumented canary and the
/// burn-rate loop, with the same ledger appends and trace leaf.
fn composed_campaign(
    graph: &ServiceGraph,
    config: MeshConfig,
    workers: usize,
) -> (MeshCanaryReport, Ods, TraceSink) {
    let gate = MeshCanaryConfig::default();
    let mut ods = Ods::unbounded();
    let mut sink = TraceSink::new();
    let mut clean = config;
    clean.regress_frac = 0.0;
    clean.regress_scale = 1.0;
    let prod_skus = production_skus(graph);
    let baseline = MeshSim::new(graph, clean).unwrap().run(&prod_skus).unwrap();
    let tuned = MeshTuner::with_default_candidates(graph, clean)
        .unwrap()
        .tune(gate.objective, workers)
        .unwrap();
    let cand_skus: Vec<_> = tuned.selections.iter().map(|s| s.config.clone()).collect();
    let (canary, samples) = MeshSim::new(graph, config)
        .unwrap()
        .run_instrumented(&cand_skus, &mut sink)
        .unwrap();

    let threshold_s = gate.threshold_margin * baseline.p99_s;
    let fast_w = gate.fast_requests / config.arrival_rate_hz;
    let slow_w = gate.slow_requests / config.arrival_rate_hz;
    let spec = SloSpec::new(graph.name(), threshold_s, gate.target, fast_w, slow_w).unwrap();
    let mut slo = SloEvaluator::new(spec);
    let (mut blocked_at_s, mut exemplars, mut max_sustained) = (None, Vec::new(), 0u32);
    for s in &samples {
        slo.observe(s.finish_s, s.latency_s, s.span_id).unwrap();
        let status = slo.evaluate(s.finish_s, &mut ods, &mut sink).unwrap();
        max_sustained = max_sustained.max(status.sustained);
        if blocked_at_s.is_none() && status.sustained >= gate.sustain {
            blocked_at_s = Some(status.t_s);
            exemplars = status.exemplars;
        }
    }
    let promoted = blocked_at_s.is_none();
    if promoted {
        exemplars = slo.exemplars().to_vec();
    }
    let t_end = samples.last().map_or(0.0, |s| s.finish_s);
    ods.append(
        &SeriesKey::keyed(graph.name(), LedgerKey::SloGuardP99),
        t_end,
        canary.p99_s / baseline.p99_s - 1.0,
    )
    .unwrap();
    if let Some(t) = blocked_at_s {
        ods.append(
            &SeriesKey::keyed(graph.name(), LedgerKey::SloRetune),
            t_end.max(t),
            slo.burn_rate(t, fast_w),
        )
        .unwrap();
        let h = sink.leaf(LedgerKey::SloWindow.name(), "canary.blocked", t, 0.0);
        sink.attr(h, "graph", AttrValue::Str(graph.name().to_string()));
        sink.attr(h, "threshold_s", AttrValue::F64(threshold_s));
        sink.attr(h, "sustained", AttrValue::Int(i64::from(gate.sustain)));
    }
    let deployed = if promoted {
        tuned.selections.clone()
    } else {
        graph
            .tiers()
            .iter()
            .zip(prod_skus)
            .map(|(t, config)| TierSelection {
                tier: t.name.clone(),
                label: "prod".to_string(),
                config,
            })
            .collect()
    };
    let report = MeshCanaryReport {
        tuned,
        baseline,
        canary,
        threshold_s,
        promoted,
        alerts: slo.alerts(),
        max_sustained,
        blocked_at_s,
        exemplars,
        deployed,
    };
    (report, ods, sink)
}

/// The campaign computes nothing its public parts would not: it equals
/// their call-by-call composition, clean and regressed, at 1 and 2
/// workers.
#[test]
fn canary_campaign_equals_its_public_composition() {
    let graph = social_network().unwrap();
    for regressed in [false, true] {
        let config = canary_config(regressed);
        for workers in [1usize, 2] {
            let (report, ods, sink) = composed_campaign(&graph, config, workers);
            let mut composed = Digest::new();
            composed.campaign(&report, &ods, &sink);
            assert_eq!(
                canary_digest(config, workers).1,
                composed.0,
                "regressed={regressed} at {workers} workers"
            );
        }
    }
}
