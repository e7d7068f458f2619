//! Rollout-lifecycle benchmark: composition, staged deployment, drift.
//!
//! ```text
//! cargo run --release -p softsku-bench --bin rolloutbench            # full
//! cargo run --release -p softsku-bench --bin rolloutbench -- --smoke # CI
//! cargo run --release -p softsku-bench --bin rolloutbench -- --json out.json
//! ```
//!
//! Part 1 runs the closed tune → compose → rollout → drift → re-tune
//! lifecycle for one service under drift-inducing code churn and reports
//! each phase's outcome plus the end-to-end wall time. Part 2 measures the
//! staged fleet's raw sampling throughput (ticks per second), the quantity
//! that bounds how much monitoring horizon a simulation budget buys. Part 3
//! (full mode) times composed-SKU validation at 1 worker vs the machine
//! width, the scheduler-replica speedup the composer inherits. `--json`
//! writes the same measurements for BENCH_*.json trajectory tracking.

use softsku_cluster::{StagedFleet, StagedFleetConfig};
use softsku_knobs::Knob;
use softsku_rollout::{ComposerConfig, PipelineConfig, RolloutPipeline, SkuComposer};
use softsku_telemetry::Json;
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use std::time::Instant;
use usku::metric::PerformanceMetric;
use usku::{AbTestConfig, DesignSpaceMap};

const BASE_SEED: u64 = 21;

type BoxError = Box<dyn std::error::Error>;

fn drifting_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::fast_test(seed);
    config.staged.pushes_per_hour = 2.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.0005;
    config
}

/// Part 1: the full lifecycle, timed end to end.
fn lifecycle() -> Result<Json, BoxError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    let knobs = [Knob::Thp, Knob::Shp];
    println!("== lifecycle: {service} on {platform}, knobs {knobs:?} ==");
    let pipeline = RolloutPipeline::new(drifting_config(BASE_SEED));
    // detlint::allow(wall_clock): benchmark harness measures its own speed;
    // wall time is the quantity under test, not a simulated result.
    let t0 = Instant::now();
    let report = pipeline.run(service, platform, &knobs)?;
    let wall_s = t0.elapsed().as_secs_f64();
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
    // detlint::allow(wall_clock): benchmark harness measures its own speed.
    let t0 = Instant::now();
    for _ in 0..ticks {
        fleet.tick()?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
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
        softsku_knobs::KnobSetting::Thp(softsku_archsim::ThpMode::AlwaysOn),
        softsku_knobs::KnobSetting::ShpPages(300),
    ] {
        map.record(usku::AbTestResult {
            setting,
            baseline: None,
            candidate: None,
            welch: None,
            verdict: usku::Verdict::Better { gain: 0.02 },
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
                min_composed_fraction: 0.8,
            },
            BASE_SEED,
        )
        .with_workers(NonZeroUsize::new(workers.max(1)).unwrap_or(NonZeroUsize::MIN));
        let mut proto = softsku_cluster::AbEnvironment::new(
            service.profile(platform)?,
            softsku_cluster::EnvConfig::fast_test(),
            BASE_SEED,
        )?;
        // detlint::allow(wall_clock): benchmark harness measures its own speed.
        let t0 = Instant::now();
        let composition = composer.compose(&mut proto, &baseline, &map)?;
        let wall_s = t0.elapsed().as_secs_f64();
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

/// Parses `--json <path>` out of the argument list.
fn json_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next();
        }
    }
    None
}

fn main() -> Result<(), BoxError> {
    let hw = usku::scheduler::default_workers().get();
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("hardware threads: {hw}");

    let mut summary = Json::obj()
        .set("bench", Json::Str("rolloutbench".into()))
        .set("smoke", Json::Bool(smoke))
        .set("hardware_threads", Json::Int(hw as i64))
        .set("base_seed", Json::Int(BASE_SEED as i64))
        .set("lifecycle", lifecycle()?)
        .set("fleet", fleet_throughput(if smoke { 500 } else { 20_000 })?);
    if !smoke {
        summary = summary.set("composer", composer_speedup(hw)?);
    }

    if let Some(path) = json_path() {
        std::fs::write(&path, summary.render_pretty())?;
        println!("wrote {path}");
    }
    if smoke {
        println!("smoke ok");
    }
    Ok(())
}
