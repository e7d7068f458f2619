//! Sweep throughput of the deterministic scheduler.
//!
//! Part 1 times one service's `independent_sweep` (one forked replica per
//! test) at one worker and at more, and asserts that every worker count
//! renders a byte-identical design-space map (`"maps_identical": true`).
//! Part 2 times a multi-service fleet campaign: per-service sweeps run
//! back-to-back on one worker vs the `FleetTuner` interleaving every
//! service's tests on a shared pool. The numbers feed the EXPERIMENTS.md
//! scheduler row.

use super::{BoxError, BASE_SEED};
use softsku_cluster::{AbEnvironment, EnvConfig};
use softsku_knobs::{Knob, KnobSpace};
use softsku_telemetry::{Json, Stopwatch};
use softsku_workloads::{Microservice, PlatformKind};
use std::num::NonZeroUsize;
use usku::metric::PerformanceMetric;
use usku::scheduler::{FleetTuner, Schedule};
use usku::search::{independent_sweep, SearchOutcome};
use usku::{AbTestConfig, AbTester, UskuError};

fn workers(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("worker counts are positive")
}

/// Builds the tester/environment/baseline/space quadruple for one target.
fn setup(
    service: Microservice,
    platform: PlatformKind,
) -> Result<(AbTester, AbEnvironment, KnobSpace), UskuError> {
    let profile = service.profile(platform)?;
    let space = KnobSpace::for_platform(&profile.production_config.platform, profile.constraints);
    let env = AbEnvironment::new(profile, EnvConfig::fast_test(), BASE_SEED)?;
    let tester = AbTester::new(
        AbTestConfig::fast_test(),
        PerformanceMetric::recommended_for(service),
    );
    Ok((tester, env, space))
}

fn single_service(knobs: &[Knob], worker_counts: &[usize]) -> Result<Json, UskuError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    println!("== {service} on {platform}: independent sweep, {knobs:?} ==");

    let sweep = |n: usize| -> Result<(SearchOutcome, f64), UskuError> {
        let (tester, mut env, space) = setup(service, platform)?;
        let baseline = env.profile().production_config.clone();
        let schedule = Schedule::new(BASE_SEED).with_workers(workers(n));
        let clock = Stopwatch::start();
        let out = independent_sweep(&tester, &mut env, &baseline, &space, knobs, schedule)?;
        Ok((out, clock.elapsed_s()))
    };
    let (reference, reference_s) = sweep(1)?;
    let reference_map = reference.map.render();
    let tests = reference.map.test_count();
    let mut timings = vec![(1, reference_s)];
    let mut maps_identical = true;
    for &n in worker_counts {
        let (out, wall_s) = sweep(n)?;
        maps_identical &= out.map.render() == reference_map;
        timings.push((n, wall_s));
    }
    assert!(
        maps_identical,
        "every worker count must render the 1-worker map byte for byte"
    );
    let mut runs = Vec::new();
    for (n, wall_s) in timings {
        let speedup = reference_s / wall_s.max(1e-9);
        println!(
            "  {n:>2} worker(s)  {wall_s:>6.2} s   {tests:>3} tests   {:>6.1} tests/s   {speedup:.2}x vs 1 worker",
            tests as f64 / wall_s.max(1e-9),
        );
        runs.push(
            Json::obj()
                .set("workers", Json::Int(n as i64))
                .set("tests", Json::Int(tests as i64))
                .set("wall_s", Json::Num(wall_s))
                .set("speedup_vs_1_worker", Json::Num(speedup)),
        );
    }
    Ok(Json::obj()
        .set("service", Json::Str(service.to_string()))
        .set("platform", Json::Str(platform.to_string()))
        .set(
            "knobs",
            Json::Arr(knobs.iter().map(|k| Json::Str(k.to_string())).collect()),
        )
        .set("maps_identical", Json::Bool(maps_identical))
        .set("runs", Json::Arr(runs)))
}

fn fleet(
    targets: &[(Microservice, PlatformKind)],
    knobs: &[Knob],
    pool: usize,
) -> Result<Json, UskuError> {
    println!(
        "== fleet campaign: {} services, knobs {knobs:?} ==",
        targets.len()
    );

    // Baseline: each service tuned alone, back to back, one worker — the
    // paper's one-service-at-a-time operating mode.
    let sequential = FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), BASE_SEED)
        .with_knobs(knobs.to_vec())
        .with_workers(workers(1));
    let clock = Stopwatch::start();
    let mut seq_tests = 0usize;
    for &target in targets {
        seq_tests += sequential.tune(&[target])?.test_count();
    }
    let seq_s = clock.elapsed_s();
    println!(
        "  sequential (1 worker)   {:>6.2} s   {:>3} tests   {:>6.1} tests/s",
        seq_s,
        seq_tests,
        seq_tests as f64 / seq_s.max(1e-9)
    );

    let tuner = FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), BASE_SEED)
        .with_knobs(knobs.to_vec())
        .with_workers(workers(pool));
    let clock = Stopwatch::start();
    let fleet = tuner.tune(targets)?;
    let par_s = clock.elapsed_s();
    println!(
        "  fleet ({pool:>2} workers)     {:>6.2} s   {:>3} tests   {:>6.1} tests/s   {:.2}x vs sequential",
        par_s,
        fleet.test_count(),
        fleet.tests_per_second(),
        seq_s / par_s.max(1e-9)
    );
    assert_eq!(
        fleet.test_count(),
        seq_tests,
        "the fleet plan must cover exactly the sequential tests"
    );
    println!("{}", fleet.render());
    Ok(Json::obj()
        .set("services", Json::Int(targets.len() as i64))
        .set("tests", Json::Int(fleet.test_count() as i64))
        .set("sequential_wall_s", Json::Num(seq_s))
        .set("fleet_wall_s", Json::Num(par_s))
        .set("fleet_workers", Json::Int(pool as i64))
        .set("speedup_vs_sequential", Json::Num(seq_s / par_s.max(1e-9))))
}

/// Runs the suite: a one-knob sweep and a two-service fleet when `smoke`,
/// three knobs up to `hw` workers and the default fleet otherwise.
///
/// # Errors
///
/// Returns the first tuning error.
pub fn run(smoke: bool, hw: usize) -> Result<Json, BoxError> {
    let (single, campaign) = if smoke {
        (
            single_service(&[Knob::Thp], &[2])?,
            fleet(
                &[
                    (Microservice::Web, PlatformKind::Skylake18),
                    (Microservice::Cache2, PlatformKind::Skylake18),
                ],
                &[Knob::Thp],
                2,
            )?,
        )
    } else {
        let knobs = [Knob::Thp, Knob::Shp, Knob::CoreFrequency];
        (
            single_service(&knobs, &[2, hw])?,
            fleet(&FleetTuner::default_targets(), &knobs, hw)?,
        )
    };
    Ok(Json::obj()
        .set("single_service", single)
        .set("fleet", campaign))
}
