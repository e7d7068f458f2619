//! The end-to-end µSKU pipeline (paper Fig. 13): input file → A/B test
//! configurator → A/B tester → soft SKU generator.

use crate::abtest::{AbTestConfig, AbTester};
use crate::error::UskuError;
use crate::generator::{SoftSku, SoftSkuGenerator};
use crate::input::{InputFile, SweepConfig};
use crate::map::DesignSpaceMap;
use crate::scheduler::Schedule;
use crate::search::{
    add_counts, additive_prediction, exhaustive_sweep, hill_climb, independent_sweep, SearchOutcome,
};
use softsku_cluster::{AbEnvironment, EnvConfig, ValidationOutcome};
use softsku_knobs::{Knob, KnobSpace};
use softsku_telemetry::streams::{stream_seed, StreamFamily};

/// The A/B test configurator (Fig. 13): resolves the input file into the
/// concrete sweep plan — which knobs, which candidates, which strategy.
#[derive(Debug)]
pub struct AbTestConfigurator {
    input: InputFile,
}

impl AbTestConfigurator {
    /// Creates a configurator for a parsed input file.
    pub fn new(input: InputFile) -> Self {
        AbTestConfigurator { input }
    }

    /// The knob space for this service/platform, with service constraints
    /// applied (reboot tolerance, SHP API usage, QoS core floors).
    ///
    /// # Errors
    ///
    /// Workload resolution errors.
    pub fn knob_space(&self) -> Result<KnobSpace, UskuError> {
        let profile = self.input.microservice.profile(self.input.platform)?;
        Ok(KnobSpace::for_platform(
            &profile.production_config.platform,
            profile.constraints,
        ))
    }

    /// The knobs to study: the user's subset intersected with the knobs the
    /// constraints leave active.
    ///
    /// # Errors
    ///
    /// Workload resolution errors.
    pub fn knobs(&self) -> Result<Vec<Knob>, UskuError> {
        let space = self.knob_space()?;
        let active = space.active_knobs();
        Ok(match &self.input.knobs {
            None => active,
            Some(requested) => requested
                .iter()
                .copied()
                .filter(|k| active.contains(k))
                .collect(),
        })
    }
}

/// Full report of one µSKU run.
#[derive(Debug)]
pub struct UskuReport {
    /// The input that drove the run.
    pub input: InputFile,
    /// Every A/B test performed.
    pub map: DesignSpaceMap,
    /// The generated soft SKU.
    pub soft_sku: SoftSku,
    /// Long-horizon deployment validation vs hand-tuned production.
    pub validation: Option<ValidationOutcome>,
    /// Simulated machine-seconds the search consumed: its replicas' time
    /// plus the composite measurements (the paper's prototype takes "5-10
    /// hours" per service).
    pub search_time_s: f64,
    /// Injected-hazard and recovery event counts summed over the search's
    /// replicas and the composite measurements
    /// (`"hazards/injected.spike"` → n), empty for hazard-free runs.
    pub hazard_counts: Vec<(String, u64)>,
}

/// Tunables for a full µSKU run.
#[derive(Debug, Clone, Copy)]
pub struct UskuConfig {
    /// A/B stopping rules.
    pub abtest: AbTestConfig,
    /// Environment parameters.
    pub env: EnvConfig,
    /// Budget for the exhaustive strategy.
    pub exhaustive_budget: usize,
    /// Step limit for hill climbing.
    pub hill_climb_steps: usize,
    /// Run the long-horizon fleet validation (simulated days; skippable for
    /// quick sweeps).
    pub validate_days: f64,
}

impl Default for UskuConfig {
    fn default() -> Self {
        UskuConfig {
            abtest: AbTestConfig::default(),
            env: EnvConfig::default(),
            exhaustive_budget: 500,
            hill_climb_steps: 3,
            validate_days: 2.0,
        }
    }
}

impl UskuConfig {
    /// Small-budget settings for unit tests.
    pub fn fast_test() -> Self {
        UskuConfig {
            abtest: AbTestConfig::fast_test(),
            env: EnvConfig::fast_test(),
            exhaustive_budget: 10,
            hill_climb_steps: 1,
            validate_days: 0.0,
        }
    }
}

/// The µSKU design tool.
#[derive(Debug)]
pub struct Usku {
    input: InputFile,
    config: UskuConfig,
}

impl Usku {
    /// Creates the tool from a parsed input file with default tunables.
    pub fn new(input: InputFile) -> Self {
        Self::with_config(input, UskuConfig::default())
    }

    /// Creates the tool with explicit tunables.
    pub fn with_config(input: InputFile, config: UskuConfig) -> Self {
        Usku { input, config }
    }

    /// Runs the full pipeline: sweep, compose, measure vs baselines, and
    /// (optionally) validate at fleet scale.
    ///
    /// # Errors
    ///
    /// Any pipeline error.
    pub fn run(&self) -> Result<UskuReport, UskuError> {
        let configurator = AbTestConfigurator::new(self.input.clone());
        let profile = self.input.microservice.profile(self.input.platform)?;
        let production = profile.production_config.clone();
        let stock = profile.stock_config.clone();
        let space = configurator.knob_space()?;
        let knobs = configurator.knobs()?;

        // The proto environment: the search runs every test on a fork of
        // it, and the generator measures the composite on it directly.
        let mut env = AbEnvironment::new(profile.clone(), self.config.env, self.input.seed)?;
        let tester = AbTester::new(self.config.abtest, self.input.metric);
        let schedule = Schedule::new(self.input.seed);

        let outcome: SearchOutcome = match self.input.sweep {
            SweepConfig::Independent => {
                independent_sweep(&tester, &mut env, &production, &space, &knobs, schedule)?
            }
            SweepConfig::Exhaustive => exhaustive_sweep(
                &tester,
                &mut env,
                &production,
                &space,
                &knobs,
                self.config.exhaustive_budget,
                schedule,
            )?,
            SweepConfig::HillClimbing => hill_climb(
                &tester,
                &mut env,
                &production,
                &space,
                &knobs,
                self.config.hill_climb_steps,
                schedule,
            )?,
        };

        let generator = SoftSkuGenerator::new(&tester);
        let soft_sku = generator.generate(&mut env, &outcome, &production, &stock)?;
        let search_time_s = outcome.sim_time_s + env.time_s();
        let mut hazard_counts = outcome.hazard_counts;
        add_counts(&mut hazard_counts, &env.hazard_counts());

        let validation = if self.config.validate_days > 0.0 {
            Some(generator.validate(
                profile,
                &soft_sku,
                &production,
                self.config.validate_days * 86_400.0,
                self.config.env.window_insns,
                stream_seed(self.input.seed, StreamFamily::UskuValidation),
            )?)
        } else {
            None
        };

        Ok(UskuReport {
            input: self.input.clone(),
            map: outcome.map,
            soft_sku,
            validation,
            search_time_s,
            hazard_counts,
        })
    }
}

impl UskuReport {
    /// Renders the report in the shape of the paper's Sec. 6 summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "µSKU report — {} on {} ({} sweep, {} metric)\n",
            self.input.microservice, self.input.platform, self.input.sweep, self.input.metric
        ));
        out.push_str(&format!(
            "  tests: {} ({} samples; {} QoS discards, {} reboot skips, {} inconclusive)\n",
            self.map.test_count(),
            self.map.sample_count(),
            self.map.qos_discards(),
            self.map.reboot_skips(),
            self.map.inconclusive()
        ));
        if !self.hazard_counts.is_empty() {
            out.push_str("  hazards survived:\n");
            for (series, n) in &self.hazard_counts {
                out.push_str(&format!("    {series:<36} {n}\n"));
            }
        }
        out.push_str(&format!(
            "  search time: {:.1} simulated hours\n",
            self.search_time_s / 3600.0
        ));
        out.push_str("  selections:\n");
        for selection in &self.soft_sku.selections {
            out.push_str(&format!("    {selection}\n"));
        }
        out.push_str(&format!(
            "  soft SKU vs production: {:+.2}%   vs stock: {:+.2}%",
            self.soft_sku.gain_vs_production * 100.0,
            self.soft_sku.gain_vs_stock * 100.0,
        ));
        if let Some(sum) = additive_prediction(&self.soft_sku.selections) {
            out.push_str(&format!("   (additive prediction {:+.2}%)", sum * 100.0));
        }
        out.push('\n');
        if let Some(v) = &self.validation {
            out.push_str(&format!(
                "  fleet validation: {:+.2}% QPS over {} code pushes (stable: {})\n",
                v.relative_gain * 100.0,
                v.code_pushes,
                v.stable_across_days
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_workloads::Microservice;

    #[test]
    fn configurator_respects_constraints_and_subsets() {
        let input = InputFile::parse("microservice = ads1\n").unwrap();
        let c = AbTestConfigurator::new(input);
        let knobs = c.knobs().unwrap();
        // Ads1: SHP gated (no API use); core count restricted to the QoS
        // floor (a single candidate remains, so the knob stays "active" but
        // the sweep is trivial).
        assert!(!knobs.contains(&Knob::Shp));

        let input =
            InputFile::parse("microservice = web\nknobs = thp, shp, core_frequency\n").unwrap();
        let c = AbTestConfigurator::new(input);
        let knobs = c.knobs().unwrap();
        assert_eq!(knobs, vec![Knob::Thp, Knob::Shp, Knob::CoreFrequency]);
    }

    #[test]
    fn cache_knob_set_excludes_reboot_knobs() {
        let input = InputFile::parse("microservice = cache2\n").unwrap();
        let knobs = AbTestConfigurator::new(input).knobs().unwrap();
        assert!(!knobs.contains(&Knob::CoreCount));
        assert!(!knobs.contains(&Knob::Shp));
        assert!(knobs.contains(&Knob::CoreFrequency));
    }

    #[test]
    fn end_to_end_small_run_produces_winning_sku() {
        let input = InputFile::parse("microservice = web\nknobs = thp, shp\nseed = 13\n").unwrap();
        let usku = Usku::with_config(input, UskuConfig::fast_test());
        let report = usku.run().unwrap();
        assert!(
            report.soft_sku.gain_vs_production > 0.02,
            "{}",
            report.render()
        );
        assert!(report.map.test_count() >= 7);
        assert!(report.search_time_s > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("soft SKU vs production"));
        assert!(rendered.contains("Web"));
    }

    #[test]
    fn recommended_metric_for_cache_is_qps() {
        use crate::metric::PerformanceMetric;
        assert_eq!(
            PerformanceMetric::recommended_for(Microservice::Cache1),
            PerformanceMetric::Qps
        );
    }
}
