//! Shared measurement helpers for the figure-regeneration harness.

use softsku_archsim::engine::{Engine, ServerConfig, WindowReport};
use softsku_workloads::{Microservice, PlatformKind};

/// Engine window for figure-quality measurements.
pub const FIG_WINDOW: u64 = 400_000;

/// All (service, characterization platform) pairs in paper order.
pub fn service_platforms() -> Vec<(Microservice, PlatformKind)> {
    Microservice::ALL
        .into_iter()
        .map(|s| (s, s.default_platform()))
        .collect()
}

/// Peak-load production report for a service on its default platform.
/// Many figures share these measurements; repeats are served by the
/// engine's pass memo.
pub fn peak_report(service: Microservice) -> WindowReport {
    let platform = service.default_platform();
    let profile = service
        .profile(platform)
        .expect("default platform is always supported");
    report_for(service, platform, &profile.production_config)
}

/// Peak-load report under an arbitrary configuration.
pub fn report_for(
    service: Microservice,
    platform: PlatformKind,
    config: &ServerConfig,
) -> WindowReport {
    let profile = service.profile(platform).expect("supported platform");
    let engine = Engine::new(config.clone(), profile.stream, 42).expect("valid config");
    engine
        .run_window(FIG_WINDOW, profile.peak_utilization)
        .expect("operating point simulates")
}

/// Total MIPS under a configuration (the A/B comparison quantity).
pub fn mips_for(service: Microservice, platform: PlatformKind, config: &ServerConfig) -> f64 {
    report_for(service, platform, config).mips_total
}

/// Formats a percent gain column.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Pads/truncates into a fixed-width cell.
pub fn cell(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

/// Order-of-magnitude label (`O(100K)` style) used by Table 2.
pub fn order_of(x: f64) -> String {
    if x <= 0.0 {
        return "O(0)".to_string();
    }
    let exp = x.log10().floor() as i32;
    match exp {
        e if e >= 6 => format!("O(10^{e})"),
        5 => "O(100K)".to_string(),
        4 => "O(10K)".to_string(),
        3 => "O(1000)".to_string(),
        2 => "O(100)".to_string(),
        1 => "O(10)".to_string(),
        0 => "O(1)".to_string(),
        e => format!("O(10^{e})"),
    }
}
