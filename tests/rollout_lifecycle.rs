//! End-to-end rollout lifecycle (ISSUE acceptance): a seeded run drives
//! tune → compose → staged canary rollout → injected code-push drift →
//! automatic scoped re-tune, replays bit-identically across worker counts
//! — including its trace: the serialized Chrome trace-event export of the
//! whole span tree is bit-identical across 1 and 8 workers — and a
//! guardrail violation injected into a staged fleet rolls the candidate
//! back instead of promoting it.

use softsku::cluster::{StagedFleet, StagedFleetConfig};
use softsku::knobs::Knob;
use softsku::rollout::{
    CompositionDecision, LifecycleReport, PipelineConfig, RolloutConfig, RolloutPipeline,
    RolloutState, StageViolation, StagedRollout,
};
use softsku::telemetry::trace::TraceSink;
use softsku::telemetry::{LedgerKey, Ods, SeriesKey};
use softsku::workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;

const SEED: u64 = 21;

/// A debug-budget pipeline: small A/B samples, a small fleet, short stages
/// and drift windows, and code churn hot enough that the drift monitor
/// fires inside its horizon but mild enough that the rollout survives.
fn tiny_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::fast_test(seed);
    config.abtest.min_samples = 24;
    config.abtest.max_samples = 240;
    config.abtest.batch = 12;
    config.env.window_insns = 12_000;
    config.staged.replicas = 20;
    config.staged.window_insns = 6_000;
    config.rollout.ticks_per_stage = 12;
    config.rollout.mad_window = 8;
    config.drift.window_ticks = 12;
    config.drift.max_windows = 4;
    config.staged.pushes_per_hour = 4.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.002;
    config
}

fn run_cycle(workers: usize) -> (LifecycleReport, TraceSink) {
    let config = tiny_config(SEED)
        .with_workers(NonZeroUsize::new(workers).expect("worker counts are positive"));
    let mut sink = TraceSink::new();
    let report = RolloutPipeline::new(config)
        .run_traced(
            Microservice::Web,
            PlatformKind::Skylake18,
            &[Knob::Thp, Knob::Shp],
            &mut sink,
        )
        .expect("the lifecycle pipeline runs clean");
    (report, sink)
}

/// Everything the determinism contract covers: every field except
/// `tuning`, whose `tune.wall_s` series is wall-clock telemetry — the one
/// stream explicitly exempt from bit-identical replay. Debug formatting
/// round-trips every f64 exactly, so string equality is bit equality.
fn deterministic_view(r: &LifecycleReport) -> String {
    format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        r.service, r.platform, r.initial, r.drift, r.retuned, r.rollout_ods
    )
}

fn series_len(ods: &Ods, service: &str, metric: &str) -> usize {
    ods.len(&SeriesKey::new(service, metric))
}

#[test]
fn full_cycle_deploys_drifts_retunes_and_replays_bit_identically() {
    let (report, sink) = run_cycle(1);
    let service = report.service.name();

    // Tune → compose: the sweeps find real winners and the composed SKU
    // joint-validates (the Web THP/SHP pair is synergistic).
    assert!(
        matches!(
            report.initial.composition.decision,
            CompositionDecision::Composed { .. }
        ),
        "expected a composed SKU, got {:?}",
        report.initial.composition.decision
    );
    assert!(
        report.initial.composition.measured_gain > 0.0,
        "the composed SKU must beat production"
    );

    // Staged rollout: every canary stage promotes, ending Deployed.
    let rollout = report
        .initial
        .rollout
        .as_ref()
        .expect("a composed SKU must reach the staged rollout");
    assert_eq!(rollout.state, RolloutState::Deployed);
    assert_eq!(rollout.stages.len(), 3);
    assert!(rollout.stages.iter().all(|s| s.violation.is_none()));

    // Injected code-push churn drifts the deployed SKU; the monitor fires
    // and enqueues a scoped re-tune, which redeploys.
    let retuned = report
        .retuned
        .as_ref()
        .expect("injected drift must trigger a re-tune");
    assert_eq!(retuned.request.service, report.service);
    assert!(
        retuned.winners > 0,
        "the scoped re-tune must rediscover winners"
    );
    assert!(report.deployed(), "the retuned SKU must end deployed");

    // The ODS rollout ledger records the whole story.
    for (metric, at_least) in [
        (LedgerKey::RolloutStage.name(), 3),
        (LedgerKey::RolloutPromote.name(), 3),
        (LedgerKey::RolloutDeployed.name(), 1),
        (LedgerKey::RolloutDriftGain.name(), 1),
        (LedgerKey::RolloutDrift.name(), 1),
        (LedgerKey::RolloutRetune.name(), 1),
    ] {
        assert!(
            series_len(&report.rollout_ods, service, metric) >= at_least,
            "expected >= {at_least} {metric} points"
        );
    }
    assert_eq!(
        series_len(
            &report.rollout_ods,
            service,
            LedgerKey::RolloutRollback.name()
        ),
        0
    );

    // The whole cycle is a pure function of (config, seed): an 8-worker
    // replay reproduces every gain, verdict, stage statistic, drift window,
    // and ledger point bit for bit.
    let (eight, sink_eight) = run_cycle(8);
    assert_eq!(deterministic_view(&report), deterministic_view(&eight));
    assert_eq!(report.render(), eight.render());

    // So is the trace: spans are recorded post-merge on the orchestration
    // thread in canonical plan order, so the serialized Chrome export is
    // bit-identical across worker counts.
    let export = sink.chrome_trace().render();
    assert_eq!(export, sink_eight.chrome_trace().render());
    assert!(export.contains("\"traceEvents\""));

    // The span tree covers the whole story: the lifecycle root, one phase
    // span per step (tune through the re-tuned second cycle), the A/B test
    // spans under the tuning campaigns, the composition validations, the
    // canary stages, and the drift windows with the retune request event.
    let span_names = |cat: &str| -> Vec<&str> {
        sink.spans()
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.name.as_str())
            .collect()
    };
    assert_eq!(span_names("lifecycle"), ["lifecycle Web"]);
    assert_eq!(
        span_names("phase"),
        [
            "tune",
            "compose",
            "rollout",
            "drift",
            "re-tune",
            "re-compose",
            "re-rollout"
        ]
    );
    assert!(
        span_names("tune").len() >= 2,
        "one campaign per tuning pass"
    );
    assert!(span_names("abtest").len() >= 4, "every A/B test is a span");
    assert!(!span_names("compose.validate").is_empty());
    assert!(span_names(LedgerKey::RolloutStage.name()).len() >= 3);
    assert!(!span_names(LedgerKey::DriftWindow.name()).is_empty());
    assert!(span_names(LedgerKey::DriftEvent.name()).contains(&"retune.request"));
    assert!(span_names(LedgerKey::RolloutEvent.name()).contains(&"deployed"));

    // CPI-stack attribution: at least one knob win names the TMAM bound it
    // relieved (the paper's Figs. 7-10 analysis, per A/B arm).
    let relieved = sink
        .spans()
        .iter()
        .filter(|s| s.cat == "abtest")
        .filter(|s| s.attrs.iter().any(|(k, _)| k == "tmam.relieved"))
        .count();
    assert!(
        relieved >= 1,
        "expected >= 1 knob win attributed to a TMAM bound"
    );
}

#[test]
fn guardrail_violation_rolls_the_candidate_back() {
    let profile = Microservice::Web
        .profile(PlatformKind::Skylake18)
        .expect("the Web profile exists");
    let baseline = profile.production_config.clone();
    // Inject a violation: "deploy" the untouched production config while
    // hot per-push drift erodes the candidate group's throughput below the
    // guardrail floor during the canary stages.
    let candidate = baseline.clone();
    let mut staged = StagedFleetConfig::fast_test();
    staged.replicas = 20;
    staged.window_insns = 6_000;
    staged.pushes_per_hour = 8.0;
    staged.push_magnitude = 0.002;
    staged.drift_per_push = 0.05;
    let mut fleet =
        StagedFleet::new(profile, baseline, candidate, staged, SEED).expect("fleet builds");

    let mut config = RolloutConfig::fast_test();
    config.ticks_per_stage = 12;
    config.mad_window = 8;
    let mut ods = Ods::rollout_ledger();
    let report = StagedRollout::new(config)
        .execute(&mut fleet, "web", &mut ods)
        .expect("the rollout executes");

    let RolloutState::RolledBack { stage } = report.state else {
        panic!("expected a rollback, got {:?}", report.state);
    };
    let violation = report.stages[stage]
        .violation
        .expect("the rolled-back stage records its violation");
    assert!(matches!(
        violation,
        StageViolation::SignificantLoss | StageViolation::HardStrikes
    ));
    // The fleet reverts to production everywhere and the ledger records it.
    assert_eq!(fleet.candidate_replicas(), 0);
    assert!(series_len(&ods, "web", LedgerKey::RolloutViolation.name()) >= 1);
    assert!(series_len(&ods, "web", LedgerKey::RolloutRollback.name()) >= 1);
    assert_eq!(
        series_len(&ods, "web", LedgerKey::RolloutDeployed.name()),
        0
    );
}
