//! Robustness: the fleet coordinator under a chaos campaign.
//!
//! Part 1 replays the shared demo campaign (four services, two pools, all
//! four fault families) and reports the injected-fault counts, the
//! coordinator's reactions (breaker trips, rollbacks, quarantines,
//! demotions), recovery MTTR in sim-time, and the coordinated staging
//! throughput in service-ticks per second. Each run times building the
//! campaign (`setup_s`: the four fleets' calibration windows) apart from
//! the coordinator's `wall_s`. Part 2 forces every brownout
//! dark (`blackout_prob = 1`) so degrade → recover episodes dominate and
//! MTTR measures the graceful-degradation path. Smoke and full mode run
//! the same two parts: the coordinator ticks its fleets on the calling
//! thread, so there is no worker count to sweep.

use super::{BoxError, BASE_SEED};
use softsku_cluster::ChaosConfig;
use softsku_rollout::{demo_campaign, CoordinatorConfig, CoordinatorReport, FleetCoordinator};
use softsku_telemetry::{Json, Stopwatch};

/// Runs the demo campaign under `chaos` (falling back to the campaign's
/// own chaos when `None`) and packages the report plus wall metrics.
/// Only the process's first build pays cold calibration windows; later
/// builds of the same campaign hit the pass memo, so their `setup_s` is
/// near zero.
fn campaign_run(
    label: &str,
    chaos: Option<ChaosConfig>,
) -> Result<(CoordinatorReport, Json), BoxError> {
    let setup = Stopwatch::start();
    let (topology, default_chaos, plans) = demo_campaign(BASE_SEED)?;
    let setup_s = setup.elapsed_s();
    let services = plans.len();
    let chaos = chaos.unwrap_or(default_chaos);
    let coordinator = FleetCoordinator::new(CoordinatorConfig::fast_test());
    let clock = Stopwatch::start();
    let report = coordinator.run(&topology, chaos, plans, BASE_SEED)?;
    let wall_s = clock.elapsed_s();
    let service_ticks = report.ticks as f64 * services as f64;
    let rate = service_ticks / wall_s.max(1e-9);
    println!("== {label} ==");
    print!("{}", report.render());
    println!("  wall: {wall_s:.2} s ({rate:.0} staged service-ticks/s), set-up {setup_s:.3} s");
    let json = Json::obj()
        .set("ticks", Json::Int(report.ticks as i64))
        .set("sim_h", Json::Num(report.sim_time_s / 3600.0))
        .set("brownouts", Json::Int(report.faults[0] as i64))
        .set("push_waves", Json::Int(report.faults[1] as i64))
        .set("canary_crashes", Json::Int(report.faults[2] as i64))
        .set("stalls", Json::Int(report.faults[3] as i64))
        .set("breaker_trips", Json::Int(report.breaker_trips as i64))
        .set("rollbacks", Json::Int(report.rollbacks as i64))
        .set("quarantines", Json::Int(report.quarantines as i64))
        .set("demotions", Json::Int(report.demotions as i64))
        .set("max_blast", Json::Int(report.max_blast as i64))
        .set("recoveries", Json::Int(report.recoveries as i64))
        .set("mttr_sim_s", Json::Num(report.mttr_s))
        .set("converged", Json::Bool(report.converged()))
        .set("deployed", {
            let n = report.services.iter().filter(|s| s.deployed()).count();
            Json::Int(n as i64)
        })
        .set("setup_s", Json::Num(setup_s))
        .set("wall_s", Json::Num(wall_s))
        .set("service_ticks_per_s", Json::Num(rate));
    Ok((report, json))
}

/// Runs the suite: the campaign and its forced-blackout variant. Neither
/// reads the smoke flag or the machine width.
///
/// # Errors
///
/// Returns the first campaign or coordinator error.
pub fn run(_smoke: bool, _hw: usize) -> Result<Json, BoxError> {
    let (_, campaign) = campaign_run("chaos campaign", None)?;

    // Graceful degradation under forced blackouts: every brownout goes
    // dark, so recovery episodes (and their MTTR) measure the degrade →
    // recover path rather than quarantine retries.
    let mut dark = ChaosConfig::campaign();
    dark.blackout_prob = 1.0;
    let (dark_report, blackout) = campaign_run("forced blackouts", Some(dark))?;
    assert!(
        dark_report.recoveries > 0,
        "forced blackouts must produce degrade→recover episodes"
    );

    Ok(Json::obj()
        .set("campaign", campaign)
        .set("blackout", blackout))
}
