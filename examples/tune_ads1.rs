//! Tuning under constraints: Ads1.
//!
//! ```text
//! cargo run --release --example tune_ads1
//! ```
//!
//! Ads1 is the paper's constrained evaluation target: its AVX-dense ranking
//! code pays a power-budget frequency tax (it runs at 2.0 GHz with the knob
//! set to 2.2), it never calls the SHP APIs (so the SHP knob is
//! inapplicable), and its load-balancer design fails QoS below full core
//! count (so µSKU excludes the core-count sweep). This example shows how
//! those constraints flow through the configurator and what the tuned SKU
//! looks like.

use softsku::knobs::Knob;
use softsku::usku::{AbTestConfigurator, InputFile, Usku, UskuConfig};
use softsku::workloads::Microservice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = InputFile::parse(
        "microservice = ads1\nplatform = skylake18\nsweep = independent\nseed = 9\n",
    )?;

    // Inspect what the configurator plans before running anything.
    let configurator = AbTestConfigurator::new(input.clone());
    let knobs = configurator.knobs()?;
    println!("Knobs in the Ads1 sweep: {knobs:?}");
    assert!(
        !knobs.contains(&Knob::Shp),
        "SHP must be gated: Ads1 never allocates through the hugetlbfs APIs"
    );

    // The AVX tax is a property of the workload, not a knob: the effective
    // frequency under the production configuration is already 2.0 GHz.
    let profile = Microservice::Ads1.profile(input.platform)?;
    let fp = profile.stream.mix.fp;
    let effective = profile.production_config.effective_core_freq_ghz(fp);
    println!(
        "AVX power-budget tax: knob at {:.1} GHz, effective {:.1} GHz (fp fraction {:.0}%)",
        profile.production_config.core_freq_ghz,
        effective,
        fp * 100.0
    );

    // Run the sweep with reduced budgets.
    let mut config = UskuConfig::fast_test();
    config.validate_days = 0.5;
    let report = Usku::with_config(input, config).run()?;
    println!("\n{}", report.render());

    // The paper's headline for Ads1: ~+2.5% vs both stock and production,
    // with the CDP knob as the main contributor.
    if let Some(cdp) = report
        .soft_sku
        .selections
        .iter()
        .find(|s| s.knob() == Knob::Cdp)
    {
        println!(
            "CDP winner: {} ({}) — the paper found {{9, 2}} at +2.5%",
            cdp.setting, cdp.gain
        );
    }
    Ok(())
}
