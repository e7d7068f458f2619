//! Server power for the energy objective (paper Sec. 7).
//!
//! "With support to also measure system power/energy, µSKU can be extended
//! to perform energy- or power-efficiency optimization rather than
//! optimizing only for performance." This module provides the power half
//! of that extension: a simple server power model (static platform power
//! plus an activity-dependent core term cubic in frequency and a linear
//! uncore term). [`crate::metric::PerformanceMetric::MipsPerWatt`] divides
//! throughput by it.

use softsku_archsim::engine::{ServerConfig, WindowReport};

/// Simple server power model; coefficients are representative of a 2-socket
/// class datacenter node and documented in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Non-CPU platform power (fans, NIC, DRAM idle), watts.
    pub static_watts: f64,
    /// Per-core dynamic coefficient, watts at 1 GHz and full utilization.
    pub core_watts_per_ghz3: f64,
    /// Per-core leakage/idle, watts.
    pub core_idle_watts: f64,
    /// Uncore power at nominal frequency, watts.
    pub uncore_watts: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            static_watts: 60.0,
            core_watts_per_ghz3: 0.55,
            core_idle_watts: 1.0,
            uncore_watts: 25.0,
        }
    }
}

impl PowerModel {
    /// Estimated wall power for an operating point.
    pub fn watts(&self, config: &ServerConfig, report: &WindowReport, load: f64) -> f64 {
        let f = report.effective_core_freq_ghz;
        let cores = config.active_cores as f64;
        let util = load.clamp(0.0, 1.0);
        let dynamic = cores * self.core_watts_per_ghz3 * f * f * f * util;
        let idle = cores * self.core_idle_watts;
        let uncore =
            self.uncore_watts * (config.uncore_freq_ghz / config.platform.uncore_freq_range_ghz.1);
        self.static_watts + dynamic + idle + uncore
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::engine::Engine;
    use softsku_workloads::{Microservice, PlatformKind};

    fn report_for(freq: f64) -> (ServerConfig, WindowReport) {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut cfg = profile.production_config.clone();
        cfg.core_freq_ghz = freq;
        let engine = Engine::new(cfg.clone(), profile.stream.clone(), 3).unwrap();
        let report = engine.run_window(80_000, profile.peak_utilization).unwrap();
        (cfg, report)
    }

    #[test]
    fn power_grows_with_frequency_and_cores() {
        let model = PowerModel::default();
        let (cfg_hi, rep_hi) = report_for(2.2);
        let (cfg_lo, rep_lo) = report_for(1.6);
        let hi = model.watts(&cfg_hi, &rep_hi, 0.6);
        let lo = model.watts(&cfg_lo, &rep_lo, 0.6);
        assert!(hi > lo, "2.2 GHz {hi}W vs 1.6 GHz {lo}W");

        let mut fewer = cfg_hi.clone();
        fewer.active_cores = 4;
        let small = model.watts(&fewer, &rep_hi, 0.6);
        assert!(small < hi);
    }

    #[test]
    fn perf_per_watt_can_prefer_lower_frequency() {
        // Throughput always prefers 2.2 GHz; perf/watt narrows the gap
        // because dynamic power is cubic in frequency.
        let model = PowerModel::default();
        let (cfg_hi, rep_hi) = report_for(2.2);
        let (cfg_lo, rep_lo) = report_for(1.8);
        let tput_ratio = rep_hi.mips_total / rep_lo.mips_total;
        let ppw_ratio = (rep_hi.mips_total / model.watts(&cfg_hi, &rep_hi, 0.6))
            / (rep_lo.mips_total / model.watts(&cfg_lo, &rep_lo, 0.6));
        assert!(tput_ratio > 1.0);
        assert!(
            ppw_ratio < tput_ratio,
            "perf/watt must discount the frequency win: {ppw_ratio} vs {tput_ratio}"
        );
    }
}
