//! The soft-SKU generator (paper Sec. 4, Fig. 13).
//!
//! "The A/B tester's design space map is fed to the soft SKU generator,
//! which selects the most performant knob configurations. It then applies
//! this configuration to live servers running the microservice. Once the
//! selected soft SKU is deployed, µSKU performs further A/B tests by
//! comparing the QPS achieved (via ODS) by soft-SKU servers against
//! hand-tuned production servers for prolonged durations … to validate that
//! the soft SKU offers a stable advantage."

use crate::abtest::AbTester;
use crate::error::UskuError;
use crate::search::{SearchOutcome, Selection};
use softsku_archsim::engine::ServerConfig;
use softsku_cluster::{AbEnvironment, ValidationFleet, ValidationOutcome};
use softsku_knobs::{Knob, KnobSetting};
use softsku_workloads::WorkloadProfile;

/// A deployable soft SKU: the composed configuration plus provenance.
#[derive(Debug, Clone)]
pub struct SoftSku {
    /// The composed server configuration.
    pub config: ServerConfig,
    /// The search's selections, each with the gain the strategy measured
    /// for it.
    pub selections: Vec<Selection>,
    /// Measured composite gain over the hand-tuned production baseline.
    pub gain_vs_production: f64,
    /// Measured composite gain over the stock configuration.
    pub gain_vs_stock: f64,
}

/// Builds, measures, and validates soft SKUs.
#[derive(Debug)]
pub struct SoftSkuGenerator<'a> {
    tester: &'a AbTester,
}

impl<'a> SoftSkuGenerator<'a> {
    /// Creates a generator that uses `tester` for composite measurements.
    pub fn new(tester: &'a AbTester) -> Self {
        SoftSkuGenerator { tester }
    }

    /// Measures the configuration the search composed against both the
    /// production and stock baselines (paper Fig. 19).
    ///
    /// # Errors
    ///
    /// Environment/engine errors.
    pub fn generate(
        &self,
        env: &mut AbEnvironment,
        outcome: &SearchOutcome,
        production: &ServerConfig,
        stock: &ServerConfig,
    ) -> Result<SoftSku, UskuError> {
        let config = outcome.best_config.clone();
        let label = KnobSetting::Thp(config.thp); // provenance label only
        let needs_reboot = Knob::reboot_between(production, &config);

        let vs_prod = self
            .tester
            .run_config(env, production, &config, needs_reboot, label)?;
        let gain_vs_production = vs_prod.relative_diff().unwrap_or(0.0);

        let needs_reboot_stock = Knob::reboot_between(stock, &config);
        let vs_stock = self
            .tester
            .run_config(env, stock, &config, needs_reboot_stock, label)?;
        let gain_vs_stock = vs_stock.relative_diff().unwrap_or(0.0);

        Ok(SoftSku {
            config,
            selections: outcome.selected.clone(),
            gain_vs_production,
            gain_vs_stock,
        })
    }

    /// Long-horizon deployment validation: soft-SKU servers vs hand-tuned
    /// production servers under diurnal load and code pushes, compared by
    /// fleet QPS via ODS.
    ///
    /// # Errors
    ///
    /// Environment/engine errors.
    pub fn validate(
        &self,
        profile: WorkloadProfile,
        soft_sku: &SoftSku,
        production: &ServerConfig,
        duration_s: f64,
        window_insns: u64,
        seed: u64,
    ) -> Result<ValidationOutcome, UskuError> {
        let mut fleet = ValidationFleet::new(
            profile,
            production.clone(),
            soft_sku.config.clone(),
            window_insns,
            1800.0,
            seed,
        )?;
        Ok(fleet.run(duration_s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abtest::AbTestConfig;
    use crate::metric::PerformanceMetric;
    use crate::scheduler::Schedule;
    use crate::search::{additive_prediction, independent_sweep};
    use softsku_cluster::EnvConfig;
    use softsku_knobs::{KnobSpace, WorkloadConstraints};
    use softsku_workloads::{Microservice, PlatformKind};

    #[test]
    fn generated_soft_sku_beats_both_baselines_for_web() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let production = profile.production_config.clone();
        let stock = profile.stock_config.clone();
        let space =
            KnobSpace::for_platform(&production.platform, WorkloadConstraints::permissive());
        let mut env = AbEnvironment::new(profile.clone(), EnvConfig::fast_test(), 31).unwrap();
        let tester = AbTester::new(AbTestConfig::fast_test(), PerformanceMetric::Mips);

        // Study two high-yield knobs only (full sweeps live in the bench
        // harness); SHP and THP both beat Web's production settings.
        let outcome = independent_sweep(
            &tester,
            &mut env,
            &production,
            &space,
            &[Knob::Thp, Knob::Shp],
            Schedule::new(31),
        )
        .unwrap();
        let generator = SoftSkuGenerator::new(&tester);
        let sku = generator
            .generate(&mut env, &outcome, &production, &stock)
            .unwrap();
        assert!(
            sku.gain_vs_production > 0.02,
            "composite vs production: {:+.2}%",
            sku.gain_vs_production * 100.0
        );
        assert!(!sku.selections.is_empty());
        // Additivity is approximate, not exact.
        assert!(additive_prediction(&sku.selections).is_some_and(|sum| sum > 0.0));

        // Long-horizon validation holds up.
        let validation = generator
            .validate(profile, &sku, &production, 86_400.0, 50_000, 5)
            .unwrap();
        assert!(
            validation.relative_gain > 0.01,
            "validated gain {:+.2}%",
            validation.relative_gain * 100.0
        );
    }
}
