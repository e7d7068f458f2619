//! Fleet-wide tuning: all seven services on one parallel scheduler.
//!
//! ```text
//! cargo run --release --example fleet_tuning
//! ```
//!
//! The paper tunes one microservice at a time; a real deployment would tune
//! the whole fleet. This example hands every (service, platform) target to
//! the `FleetTuner`, which flattens their independent-sweep test matrices
//! into one plan and shards it across the machine's hardware threads — each
//! A/B test on its own forked environment replica, seeded from the test's
//! identity so the results match tuning each service alone, bit for bit.
//! Afterwards it prints the per-service winners and the ODS-style tuning
//! counters the scheduler records (wall-clock and simulated machine-time
//! per service).

use softsku::knobs::Knob;
use softsku::telemetry::{LedgerKey, SeriesKey};
use softsku::usku::scheduler::FleetTuner;
use softsku::usku::AbTestConfig;
use softsku_cluster::EnvConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let targets = FleetTuner::default_targets();
    let tuner = FleetTuner::new(AbTestConfig::fast_test(), EnvConfig::fast_test(), 21)
        .with_knobs(vec![Knob::Thp, Knob::Shp, Knob::CoreFrequency]);

    println!(
        "tuning {} services concurrently on {} workers...\n",
        targets.len(),
        softsku::usku::scheduler::default_workers()
    );
    let fleet = tuner.tune(&targets)?;
    println!("{}", fleet.render());

    println!("ODS tuning counters (per service):");
    for s in &fleet.services {
        let entity = format!("{}@{}", s.service, s.platform);
        let wall = fleet
            .ods
            .len(&SeriesKey::keyed(&entity, LedgerKey::TuneWallS));
        let sim = fleet
            .ods
            .len(&SeriesKey::keyed(&entity, LedgerKey::TuneSimS));
        println!(
            "  {entity:<24} tune.wall_s[{wall}]  tune.sim_s[{sim}]  total {:.2} s wall / {:.1} sim-h",
            s.wall_s,
            s.outcome.sim_time_s / 3600.0
        );
    }
    Ok(())
}
