//! Rollout lifecycle: composition, staged deployment, drift.
//!
//! Part 1 runs the closed tune → compose → rollout → drift → re-tune
//! lifecycle for one service under drift-inducing code churn and reports
//! each phase's outcome plus the end-to-end wall time. Part 2 measures the
//! staged fleet's raw sampling throughput (ticks per second), the quantity
//! that bounds how much monitoring horizon a simulation budget buys. Part 3
//! (full mode) times composed-SKU validation at 1 worker vs the machine
//! width, the scheduler-replica speedup the composer inherits.

use super::{drifting_config, BoxError, BASE_SEED};
use softsku_archsim::ThpMode;
use softsku_cluster::{AbEnvironment, EnvConfig, StagedFleet, StagedFleetConfig};
use softsku_knobs::{Knob, KnobSetting};
use softsku_rollout::{ComposerConfig, RolloutPipeline, SkuComposer};
use softsku_telemetry::{Json, Stopwatch};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use usku::metric::PerformanceMetric;
use usku::{AbTestConfig, AbTestResult, DesignSpaceMap, Verdict};

/// Part 1: the full lifecycle, timed end to end.
fn lifecycle() -> Result<Json, BoxError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    let knobs = [Knob::Thp, Knob::Shp];
    println!("== lifecycle: {service} on {platform}, knobs {knobs:?} ==");
    let pipeline = RolloutPipeline::new(drifting_config(BASE_SEED));
    let clock = Stopwatch::start();
    let report = pipeline.run(service, platform, &knobs)?;
    let wall_s = clock.elapsed_s();
    println!("{}", report.render());
    println!("  lifecycle wall: {wall_s:.2} s");
    Ok(Json::obj()
        .set("service", Json::Str(service.to_string()))
        .set("platform", Json::Str(platform.to_string()))
        .set(
            "initial_decision",
            Json::Str(format!("{:?}", report.initial.composition.decision)),
        )
        .set(
            "initial_gain",
            Json::Num(report.initial.composition.measured_gain),
        )
        .set("drift_fired", Json::Bool(report.retuned.is_some()))
        .set("deployed", Json::Bool(report.deployed()))
        .set(
            "rollout_series",
            Json::Int(report.rollout_ods.series_count() as i64),
        )
        .set("wall_s", Json::Num(wall_s)))
}

/// Part 2: staged-fleet sampling throughput.
fn fleet_throughput(ticks: usize) -> Result<Json, BoxError> {
    let profile = Microservice::Web.profile(PlatformKind::Skylake18)?;
    let baseline = profile.production_config.clone();
    let mut candidate = baseline.clone();
    candidate.shp_pages = 300;
    let mut fleet = StagedFleet::new(
        profile,
        baseline,
        candidate,
        StagedFleetConfig::fast_test(),
        BASE_SEED,
    )?;
    fleet.stage_to(1.0);
    let clock = Stopwatch::start();
    for _ in 0..ticks {
        fleet.tick()?;
    }
    let wall_s = clock.elapsed_s();
    let rate = ticks as f64 / wall_s.max(1e-9);
    println!("== staged fleet: {ticks} ticks in {wall_s:.3} s ({rate:.0} ticks/s) ==");
    Ok(Json::obj()
        .set("ticks", Json::Int(ticks as i64))
        .set("wall_s", Json::Num(wall_s))
        .set("ticks_per_s", Json::Num(rate)))
}

/// Part 3: composed-SKU validation speedup across worker counts.
fn composer_speedup(hw: usize) -> Result<Json, BoxError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    let profile = service.profile(platform)?;
    let baseline = profile.production_config.clone();

    // A synthetic map carrying the two winners the Web sweeps find, so the
    // benchmark isolates validation cost from tuning cost.
    let mut map = DesignSpaceMap::new();
    for setting in [
        KnobSetting::Thp(ThpMode::AlwaysOn),
        KnobSetting::ShpPages(300),
    ] {
        map.record(AbTestResult {
            setting,
            baseline: None,
            candidate: None,
            welch: None,
            verdict: Verdict::Better { gain: 0.02 },
            samples: 100,
            attempts: 100,
            rejected_outliers: 0,
        });
    }

    let mut runs = Vec::new();
    let mut reference_gain: Option<f64> = None;
    for workers in [1, hw] {
        let composer = SkuComposer::new(
            AbTestConfig::fast_test(),
            PerformanceMetric::recommended_for(service),
            ComposerConfig {
                replicas: 2 * hw.max(2),
            },
            BASE_SEED,
        )
        .with_workers(NonZeroUsize::new(workers.max(1)).unwrap_or(NonZeroUsize::MIN));
        let mut proto = AbEnvironment::new(
            service.profile(platform)?,
            EnvConfig::fast_test(),
            BASE_SEED,
        )?;
        let clock = Stopwatch::start();
        let composition = composer.compose(&mut proto, &baseline, &map)?;
        let wall_s = clock.elapsed_s();
        println!(
            "== composer ({workers:>2} workers): {:?} in {wall_s:.2} s ==",
            composition.decision
        );
        match reference_gain {
            None => reference_gain = Some(composition.measured_gain),
            Some(g) => assert!(
                (composition.measured_gain - g).abs() < 1e-12,
                "validation verdicts must not depend on worker count"
            ),
        }
        runs.push(
            Json::obj()
                .set("workers", Json::Int(workers as i64))
                .set("wall_s", Json::Num(wall_s))
                .set("gain", Json::Num(composition.measured_gain)),
        );
    }
    Ok(Json::obj().set("runs", Json::Arr(runs)))
}

/// Runs the suite: the lifecycle and 500 staged ticks when `smoke`; 20 000
/// ticks plus the composer worker sweep otherwise.
///
/// # Errors
///
/// Returns the first pipeline, fleet, or composer error.
pub fn run(smoke: bool, hw: usize) -> Result<Json, BoxError> {
    let mut payload = Json::obj()
        .set("lifecycle", lifecycle()?)
        .set("fleet", fleet_throughput(if smoke { 500 } else { 20_000 })?);
    if !smoke {
        payload = payload.set("composer", composer_speedup(hw)?);
    }
    Ok(payload)
}
