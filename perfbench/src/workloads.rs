//! The three benchmark workloads: their pinned inputs, the entry-point call
//! each cold process times, the traced decomposition of that call into
//! per-crate spans, and the digest plus invariants every run is checked
//! against.
//!
//! Why these three: `lifecycle_web` is the paper's tune → compose → staged
//! rollout → drift → re-tune loop, dominated by 60k-instruction engine
//! windows seen for the first time; `chaos_campaign` drives the same engine
//! through four services' 6k-instruction windows, where per-window fixed
//! cost (trace-generator construction, structure pre-fill) dominates and no
//! fork re-reads a tuple; `mesh_canary_social` is the one workload where
//! the request loop, SLO gate and spans outweigh engine calibration.

use crate::clock::Spans;
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{AbEnvironment, StagedFleet};
use softsku_knobs::Knob;
use softsku_mesh::{
    social_network, MeshCanary, MeshCanaryConfig, MeshCanaryReport, MeshConfig, MeshReport,
    MeshSim, MeshTuner, ServiceGraph, TierSelection,
};
use softsku_rollout::{
    demo_campaign, CompositionDecision, CoordinatorConfig, CoordinatorReport, CycleReport,
    DeployedSku, DriftMonitor, FleetCoordinator, LifecycleReport, PipelineConfig, RolloutPipeline,
    SkuComposer, StagedRollout,
};
use softsku_telemetry::streams::IdentitySeed;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{LedgerKey, Ods, SeriesKey, SloEvaluator, SloSpec, TieredOds};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use usku::metric::PerformanceMetric;
use usku::scheduler::FleetTuner;
use usku::DesignSpaceMap;

/// Boxed error for the benchmark's own plumbing.
pub type BoxError = Box<dyn std::error::Error>;

/// Worker-pool size of every workload. Fixed here rather than taken from
/// the host so the memo and scheduler behave the same on every machine;
/// results are bit-identical for any value.
pub const WORKERS: usize = 2;

/// The seed whose digests are pinned below.
pub const PINNED_SEED: u64 = 21;

/// Consecutive campaign seeds one `chaos_campaign` process runs.
pub const CHAOS_CAMPAIGNS: u64 = 3;

/// `mesh_canary_social` requests per simulation.
pub const MESH_REQUESTS: usize = 30_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `RolloutPipeline::run`, Web on Skylake18, knobs THP and SHP.
    LifecycleWeb,
    /// `FleetCoordinator::run` over `demo_campaign` for consecutive seeds.
    ChaosCampaign,
    /// `MeshCanary::run` on `social_network`.
    MeshCanarySocial,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::LifecycleWeb,
        Workload::ChaosCampaign,
        Workload::MeshCanarySocial,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LifecycleWeb => "lifecycle_web",
            Workload::ChaosCampaign => "chaos_campaign",
            Workload::MeshCanarySocial => "mesh_canary_social",
        }
    }

    /// Parses a benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of the deterministic result at [`PINNED_SEED`].
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::LifecycleWeb => "a7209eb2eada630d",
            Workload::ChaosCampaign => "e6a627ef6b01a65c",
            Workload::MeshCanarySocial => "dd18ca6b78ba019f",
        }
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(WORKERS).unwrap_or(NonZeroUsize::MIN)
}

/// FNV-1a over a canonical rendering of a result.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A workload's deterministic result, reduced to what runs compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Verified {
    /// Hex digest of the result.
    pub digest: String,
    /// Simulated requests (mesh only; 0 elsewhere).
    pub sim_requests: u64,
}

fn check(cond: bool, what: &str) -> Result<(), BoxError> {
    if cond {
        Ok(())
    } else {
        Err(format!("invariant broken: {what}").into())
    }
}

/// Inputs built before the timed call: everything the entry point takes.
pub enum Prepared {
    /// The pipeline configuration for one lifecycle run.
    Lifecycle { config: Box<PipelineConfig> },
    /// One prepared campaign per consecutive seed.
    Chaos {
        campaigns: Vec<ChaosCampaign>,
        coordinator: FleetCoordinator,
    },
    /// The graph and canary scenario.
    Mesh {
        graph: ServiceGraph,
        config: MeshConfig,
    },
}

/// One `demo_campaign` with the seed it was built from.
pub struct ChaosCampaign {
    seed: u64,
    topology: softsku_cluster::FleetTopology,
    chaos: softsku_cluster::ChaosConfig,
    plans: Vec<softsku_rollout::ServicePlan>,
}

impl ChaosCampaign {
    /// Replicas across the campaign's fleets.
    fn replicas(&self) -> usize {
        self.plans.iter().map(|p| p.fleet.replicas()).sum()
    }
}

/// `rolloutbench`'s drifting staged config: pushes land often enough that
/// drift fires and the re-tune and re-rollout run.
pub fn lifecycle_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::fast_test(seed).with_workers(workers());
    config.staged.pushes_per_hour = 2.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.0005;
    config
}

const LIFECYCLE_SERVICE: Microservice = Microservice::Web;
const LIFECYCLE_PLATFORM: PlatformKind = PlatformKind::Skylake18;
const LIFECYCLE_KNOBS: [Knob; 2] = [Knob::Thp, Knob::Shp];

/// The canary scenario: 900 Hz Poisson arrivals, 120k-instruction
/// calibration windows, no injected regression.
pub fn mesh_config(seed: u64) -> MeshConfig {
    MeshConfig {
        requests: MESH_REQUESTS,
        arrival_rate_hz: 900.0,
        window_insns: 120_000,
        seed,
        ..MeshConfig::default()
    }
}

fn chaos_campaigns(seed: u64) -> Result<Vec<ChaosCampaign>, BoxError> {
    (seed..seed + CHAOS_CAMPAIGNS)
        .map(|s| {
            let (topology, chaos, plans) = demo_campaign(s)?;
            Ok(ChaosCampaign {
                seed: s,
                topology,
                chaos,
                plans,
            })
        })
        .collect()
}

/// Builds the entry point's inputs (the part of a cold process before the
/// timed call).
pub fn prepare(w: Workload, seed: u64) -> Result<Prepared, BoxError> {
    Ok(match w {
        Workload::LifecycleWeb => Prepared::Lifecycle {
            config: Box::new(lifecycle_config(seed)),
        },
        Workload::ChaosCampaign => Prepared::Chaos {
            campaigns: chaos_campaigns(seed)?,
            coordinator: FleetCoordinator::new(CoordinatorConfig::fast_test())
                .with_workers(workers()),
        },
        Workload::MeshCanarySocial => Prepared::Mesh {
            graph: social_network()?,
            config: mesh_config(seed),
        },
    })
}

/// The timed call: the workload's public entry point, untraced.
pub fn run(prepared: Prepared) -> Result<Verified, BoxError> {
    match prepared {
        Prepared::Lifecycle { config } => {
            let report = RolloutPipeline::new(*config).run(
                LIFECYCLE_SERVICE,
                LIFECYCLE_PLATFORM,
                &LIFECYCLE_KNOBS,
            )?;
            verify_lifecycle(&report)
        }
        Prepared::Chaos {
            campaigns,
            coordinator,
        } => {
            let mut reports = Vec::with_capacity(campaigns.len());
            for c in campaigns {
                let replicas = c.replicas();
                reports.push((
                    replicas,
                    coordinator.run(&c.topology, c.chaos, c.plans, c.seed)?,
                ));
            }
            verify_chaos(&reports)
        }
        Prepared::Mesh { graph, config } => {
            let canary = MeshCanary::new(&graph, config, MeshCanaryConfig::default())?;
            let mut ods = TieredOds::unbounded();
            let mut sink = TraceSink::new();
            let report = canary.run(WORKERS, &mut ods, &mut sink)?;
            verify_mesh(&report, &sink, &config)
        }
    }
}

fn digest_cycle(d: &mut Digest, c: &CycleReport) {
    d.str(&format!("{:?}", c.composition.decision));
    d.f64(c.composition.measured_gain);
    if let Some(r) = &c.rollout {
        d.str(&format!("{:?}", r.state));
        for s in &r.stages {
            d.f64(s.fraction);
            d.u64(s.candidate_replicas as u64);
            d.f64(s.relative_diff);
            d.str(&format!("{:?}", s.violation));
        }
    }
}

fn check_cycle(c: &CycleReport) -> Result<(), BoxError> {
    if let Some(r) = &c.rollout {
        check(
            r.stages.windows(2).all(|p| p[0].fraction < p[1].fraction),
            "rollout stage fractions increase",
        )?;
        check(
            r.stages.iter().all(|s| (0.0..=1.0).contains(&s.fraction)),
            "rollout stage fractions lie in [0, 1]",
        )?;
    }
    Ok(())
}

/// Digest: decisions, gain bits, stage verdicts and the drift verdict.
pub fn verify_lifecycle(r: &LifecycleReport) -> Result<Verified, BoxError> {
    check_cycle(&r.initial)?;
    check(
        r.drift.is_none() || r.initial.deployed(),
        "drift is watched only after a deployment",
    )?;
    check(
        r.retuned.is_none() || r.drift.as_ref().is_some_and(|d| d.retune.is_some()),
        "a re-tune follows a drift verdict",
    )?;
    check(
        r.tuning.len() == 1 + usize::from(r.retuned.is_some()),
        "one tuning ledger per campaign",
    )?;
    let mut d = Digest::new();
    digest_cycle(&mut d, &r.initial);
    d.str(&format!("{:?}", r.drift.as_ref().map(|o| o.verdict)));
    if let Some(rt) = &r.retuned {
        check_cycle(&rt.cycle)?;
        d.str(&format!("{:?}", rt.request.knobs));
        d.u64(rt.request.base_seed);
        d.u64(rt.winners as u64);
        digest_cycle(&mut d, &rt.cycle);
    }
    Ok(Verified {
        digest: d.hex(),
        sim_requests: 0,
    })
}

/// Digest: each campaign report's full `Debug` rendering. Each report comes
/// with the replica count of the fleets it staged.
pub fn verify_chaos(reports: &[(usize, CoordinatorReport)]) -> Result<Verified, BoxError> {
    let mut d = Digest::new();
    for (replicas, r) in reports {
        check(r.services.len() == 4, "one summary per demo service")?;
        check(r.ticks > 0, "the coordinator ticks")?;
        check(
            r.mttr_s.is_finite() && r.mttr_s >= 0.0,
            "MTTR is a finite non-negative time",
        )?;
        check(r.max_blast <= *replicas, "blast radius within the fleet")?;
        d.str(&format!("{r:?}"));
    }
    Ok(Verified {
        digest: d.hex(),
        sim_requests: 0,
    })
}

fn check_conserved(r: &MeshReport, requests: usize) -> Result<(), BoxError> {
    check(
        r.injected == r.completed + r.in_flight,
        "mesh injected == completed + in_flight",
    )?;
    check(r.injected == requests as u64, "every request is injected")?;
    check(
        r.p50_s <= r.p95_s && r.p95_s <= r.p99_s,
        "mesh percentiles are ordered",
    )
}

/// Digest: `promoted`, `blocked_at_s`, p99 bits, tuned labels and exemplar
/// span ids.
pub fn verify_mesh(
    r: &MeshCanaryReport,
    sink: &TraceSink,
    config: &MeshConfig,
) -> Result<Verified, BoxError> {
    for m in [&r.baseline, &r.canary, &r.tuned.report] {
        check_conserved(m, config.requests)?;
    }
    check(
        r.promoted == r.blocked_at_s.is_none(),
        "promotion iff never blocked",
    )?;
    check(r.tuned.evaluated > 0, "the tuner evaluates assignments")?;
    let ids: std::collections::BTreeSet<u64> = sink.spans().iter().map(|s| s.id).collect();
    check(
        r.exemplars
            .iter()
            .all(|e| e.span_id == u64::MAX || ids.contains(&e.span_id)),
        "exemplars resolve to recorded spans",
    )?;
    let mut d = Digest::new();
    d.u64(u64::from(r.promoted));
    d.str(&format!("{:?}", r.blocked_at_s.map(f64::to_bits)));
    for m in [&r.baseline, &r.canary, &r.tuned.report] {
        d.f64(m.p99_s);
    }
    for label in r.tuned.labels() {
        d.str(label);
    }
    for e in &r.exemplars {
        d.u64(e.span_id);
    }
    Ok(Verified {
        digest: d.hex(),
        sim_requests: (r.tuned.evaluated as u64 + 2) * config.requests as u64,
    })
}

/// Exact counts and timings the traced decomposition gathers beyond spans.
#[derive(Debug, Default)]
pub struct Facts {
    /// Lifecycle: A/B tests across the tune and re-tune maps.
    pub ab_tests: u64,
    /// Lifecycle: A/B samples across the tune and re-tune maps.
    pub ab_samples: u64,
    /// Lifecycle: summed per-test `tune.wall_s` over both campaigns.
    pub tune_test_wall_s: f64,
    /// Chaos: coordinator ticks × services, summed over campaigns.
    pub service_ticks: u64,
    /// Spans in the library's trace sink.
    pub spans: u64,
    /// Points in the ledgers the workload wrote.
    pub ledger_points: u64,
}

fn tiered_points(ods: &TieredOds) -> u64 {
    ods.keys().map(|k| ods.len(k) as u64).sum()
}

fn ods_points(ods: &Ods) -> u64 {
    ods.keys().map(|k| ods.len(k) as u64).sum()
}

/// Runs the workload through the same public calls its entry point makes,
/// one span around each, and returns the verified result plus the counts
/// the per-layer metrics divide by. Span names are the per-layer metric
/// names without their unit suffix.
pub fn traced(
    prepared: Prepared,
    spans: &mut Spans,
    facts: &mut Facts,
) -> Result<Verified, BoxError> {
    match prepared {
        Prepared::Lifecycle { config } => traced_lifecycle(&config, spans, facts),
        Prepared::Chaos {
            campaigns,
            coordinator,
        } => {
            let mut reports = Vec::with_capacity(campaigns.len());
            for c in campaigns {
                let (services, replicas) = (c.plans.len() as u64, c.replicas());
                let report = spans.span("layer.rollout.coordinator", |_| {
                    coordinator.run(&c.topology, c.chaos, c.plans, c.seed)
                })?;
                facts.service_ticks += report.ticks * services;
                facts.ledger_points += tiered_points(&report.ledger);
                reports.push((replicas, report));
            }
            verify_chaos(&reports)
        }
        Prepared::Mesh { graph, config } => traced_mesh(&graph, config, spans, facts),
    }
}

/// One tuning campaign, as `RolloutPipeline` runs it.
fn tune(
    cfg: &PipelineConfig,
    knobs: &[Knob],
    base_seed: u64,
    spans: &mut Spans,
    facts: &mut Facts,
) -> Result<(DesignSpaceMap, Ods), BoxError> {
    let tuner = FleetTuner::new(cfg.abtest, cfg.env, base_seed)
        .with_workers(cfg.workers)
        .with_knobs(knobs.to_vec());
    let mut outcome = spans.span("layer.usku.tune", |_| {
        tuner.tune(&[(LIFECYCLE_SERVICE, LIFECYCLE_PLATFORM)])
    })?;
    let test_wall = LedgerKey::TuneWallS.name();
    for key in outcome.ods.keys().filter(|k| k.metric() == test_wall) {
        let points = outcome.ods.range(key, f64::NEG_INFINITY, f64::INFINITY)?;
        facts.tune_test_wall_s += points.iter().map(|p| p.1).sum::<f64>();
    }
    facts.ledger_points += ods_points(&outcome.ods);
    let tuned = outcome.services.pop().ok_or("one target, one tuning")?;
    facts.ab_tests += tuned.outcome.map.test_count() as u64;
    facts.ab_samples += tuned.outcome.map.sample_count() as u64;
    Ok((tuned.outcome.map, outcome.ods))
}

/// One composition pass, as `RolloutPipeline` runs it.
fn compose(
    cfg: &PipelineConfig,
    baseline: &ServerConfig,
    map: &DesignSpaceMap,
    base_seed: u64,
    spans: &mut Spans,
) -> Result<softsku_rollout::Composition, BoxError> {
    spans.span("layer.rollout.compose", |_| {
        let proto_seed = IdentitySeed::new(base_seed)
            .field(LIFECYCLE_SERVICE.name())
            .field("compose-proto")
            .field(&LIFECYCLE_PLATFORM.to_string())
            .finish();
        let profile = LIFECYCLE_SERVICE.profile(LIFECYCLE_PLATFORM)?;
        let mut proto = AbEnvironment::new(profile, cfg.env, proto_seed)?;
        let composer = SkuComposer::new(
            cfg.abtest,
            PerformanceMetric::recommended_for(LIFECYCLE_SERVICE),
            cfg.composer,
            base_seed,
        )
        .with_workers(cfg.workers);
        Ok(composer.compose(&mut proto, baseline, map)?)
    })
}

/// One staged rollout on the live fleet, as `RolloutPipeline` runs it.
fn rollout(
    cfg: &PipelineConfig,
    fleet: &mut StagedFleet,
    ods: &mut TieredOds,
    spans: &mut Spans,
) -> Result<softsku_rollout::RolloutReport, BoxError> {
    spans.span("layer.rollout.staged", |_| {
        Ok(
            StagedRollout::new(cfg.rollout.clone()).execute(
                fleet,
                LIFECYCLE_SERVICE.name(),
                ods,
            )?,
        )
    })
}

/// `RolloutPipeline::run`, call by call, in `lifecycle.rs`'s order and
/// with its seed derivations.
fn traced_lifecycle(
    cfg: &PipelineConfig,
    spans: &mut Spans,
    facts: &mut Facts,
) -> Result<Verified, BoxError> {
    let (service, platform) = (LIFECYCLE_SERVICE, LIFECYCLE_PLATFORM);
    let profile = service.profile(platform)?;
    let baseline = profile.production_config.clone();
    let mut report = LifecycleReport {
        service,
        platform,
        initial: CycleReport {
            composition: softsku_rollout::Composition {
                decision: CompositionDecision::Baseline,
                config: baseline.clone(),
                measured_gain: 0.0,
                winners: Vec::new(),
                validations: Vec::new(),
            },
            rollout: None,
        },
        drift: None,
        retuned: None,
        tuning: Vec::new(),
        rollout_ods: TieredOds::rollout_ledger(),
    };
    let done = |report: LifecycleReport, facts: &mut Facts| {
        facts.ledger_points += tiered_points(&report.rollout_ods);
        verify_lifecycle(&report)
    };

    let (map, ods) = tune(cfg, &LIFECYCLE_KNOBS, cfg.base_seed, spans, facts)?;
    report.tuning.push(ods);
    report.initial.composition = compose(cfg, &baseline, &map, cfg.base_seed, spans)?;
    let composition = &report.initial.composition;
    if composition.decision == CompositionDecision::Baseline {
        return done(report, facts);
    }

    let fleet_seed = IdentitySeed::new(cfg.base_seed)
        .field(service.name())
        .field("staged-fleet")
        .field(&platform.to_string())
        .finish();
    let mut fleet = spans.span("layer.rollout.staged", |_| {
        StagedFleet::new(
            profile.clone(),
            baseline.clone(),
            composition.config.clone(),
            cfg.staged,
            fleet_seed,
        )
    })?;
    let deployed_knobs = composition.deployed_knobs();
    report.initial.rollout = Some(rollout(cfg, &mut fleet, &mut report.rollout_ods, spans)?);
    if !report.initial.deployed() {
        return done(report, facts);
    }

    let sku = DeployedSku {
        service,
        platform,
        knobs: deployed_knobs,
        base_seed: cfg.base_seed,
    };
    let drift = spans.span("layer.rollout.drift", |_| {
        DriftMonitor::new(cfg.drift).watch(&mut fleet, &sku, &mut report.rollout_ods)
    })?;
    let request = drift.retune.clone();
    report.drift = Some(drift);
    let Some(request) = request else {
        return done(report, facts);
    };

    let (remap, ods) = tune(cfg, &request.knobs, request.base_seed, spans, facts)?;
    report.tuning.push(ods);
    let recomposition = compose(cfg, &baseline, &remap, request.base_seed, spans)?;
    let winners = remap.winners().len();
    let cycle = if recomposition.decision == CompositionDecision::Baseline {
        fleet.rollback();
        CycleReport {
            composition: recomposition,
            rollout: None,
        }
    } else {
        let needs_reboot = recomposition.config.active_cores != baseline.active_cores
            || recomposition.config.shp_pages != baseline.shp_pages;
        spans.span("layer.rollout.staged", |_| {
            fleet.deploy_candidate(recomposition.config.clone(), needs_reboot)
        })?;
        let rollout_report = rollout(cfg, &mut fleet, &mut report.rollout_ods, spans)?;
        CycleReport {
            composition: recomposition,
            rollout: Some(rollout_report),
        }
    };
    report.retuned = Some(softsku_rollout::RetunedCycle {
        request,
        winners,
        cycle,
    });
    done(report, facts)
}

/// `MeshCanary::run`, call by call (see `canary.rs`): baseline → tune →
/// instrumented canary → SLO gate, with the same ledger appends.
fn traced_mesh(
    graph: &ServiceGraph,
    config: MeshConfig,
    spans: &mut Spans,
    facts: &mut Facts,
) -> Result<Verified, BoxError> {
    let gate = MeshCanaryConfig::default();
    let mut ods = TieredOds::unbounded();
    let mut sink = TraceSink::new();
    let mut clean = config;
    clean.regress_frac = 0.0;
    clean.regress_scale = 1.0;
    let prod_skus = graph
        .tiers()
        .iter()
        .map(|t| t.service.production_config(t.service.default_platform()))
        .collect::<Result<Vec<_>, _>>()?;
    let baseline = spans.span("layer.mesh.baseline", |_| {
        MeshSim::new(graph, clean)?.run(&prod_skus)
    })?;
    let tuned = spans.span("layer.mesh.tune", |_| {
        MeshTuner::with_default_candidates(graph, clean)?.tune(gate.objective, WORKERS)
    })?;
    let cand_skus: Vec<_> = tuned.selections.iter().map(|s| s.config.clone()).collect();

    let threshold_s = gate.threshold_margin * baseline.p99_s;
    let fast_w = gate.fast_requests / config.arrival_rate_hz;
    let slow_w = gate.slow_requests / config.arrival_rate_hz;
    let spec = SloSpec::new(graph.name(), threshold_s, gate.target, fast_w, slow_w)?;
    let mut slo = SloEvaluator::new(spec);
    let (canary, samples) = spans.span("layer.mesh.canary", |_| {
        MeshSim::new(graph, config)?.run_instrumented(&cand_skus, &mut sink)
    })?;

    let (mut blocked_at_s, mut exemplars, mut max_sustained) = (None, Vec::new(), 0u32);
    spans.span("layer.telemetry.slo_gate", |_| {
        for s in &samples {
            slo.observe(s.finish_s, s.latency_s, s.span_id)?;
            let status = slo.evaluate(s.finish_s, &mut ods, &mut sink)?;
            max_sustained = max_sustained.max(status.sustained);
            if blocked_at_s.is_none() && status.sustained >= gate.sustain {
                blocked_at_s = Some(status.t_s);
                exemplars = status.exemplars;
            }
        }
        Ok::<_, BoxError>(())
    })?;
    let promoted = blocked_at_s.is_none();
    if promoted {
        exemplars = slo.exemplars().to_vec();
    }
    let t_end = samples.last().map_or(0.0, |s| s.finish_s);
    ods.append(
        &SeriesKey::keyed(graph.name(), LedgerKey::SloGuardP99),
        t_end,
        canary.p99_s / baseline.p99_s - 1.0,
    )?;
    if let Some(t) = blocked_at_s {
        ods.append(
            &SeriesKey::keyed(graph.name(), LedgerKey::SloRetune),
            t_end.max(t),
            slo.burn_rate(t, fast_w),
        )?;
        let h = sink.leaf(LedgerKey::SloWindow.name(), "canary.blocked", t, 0.0);
        sink.attr(h, "graph", AttrValue::Str(graph.name().to_string()));
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
    facts.spans = sink.spans().len() as u64;
    facts.ledger_points = tiered_points(&ods);
    verify_mesh(&report, &sink, &config)
}

/// The request loop alone: the baseline `MeshSim::run` repeated once its
/// calibration windows are in the report memo.
pub fn mesh_request_loop(seed: u64) -> Result<(), BoxError> {
    let graph = social_network()?;
    let prod_skus = graph
        .tiers()
        .iter()
        .map(|t| t.service.production_config(t.service.default_platform()))
        .collect::<Result<Vec<_>, _>>()?;
    MeshSim::new(&graph, mesh_config(seed))?.run(&prod_skus)?;
    Ok(())
}
