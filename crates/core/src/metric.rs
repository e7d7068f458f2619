//! Performance metrics for A/B decisions.
//!
//! The µSKU prototype "estimates performance by measuring the Millions of
//! Instructions per Second (MIPS) rate … which we have confirmed is
//! proportional to several key microservices' throughput (e.g., Web and
//! Ads1)" (paper Sec. 4). MIPS is invalid for the Cache tiers, whose
//! exception handlers make instructions-per-query vary with performance; the
//! Sec. 7 extension measures QPS instead. Both metrics are implemented here.

use crate::error::UskuError;
use crate::objective::PowerModel;
use softsku_cluster::{AbEnvironment, Arm};

/// Which observable the A/B tester optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PerformanceMetric {
    /// Millions of instructions per second (the paper's prototype metric).
    #[default]
    Mips,
    /// Queries per second (the Sec. 7 extension; required for services whose
    /// instruction counts are performance-introspective, like Cache).
    Qps,
    /// Throughput per watt (the Sec. 7 energy extension): MIPS divided by
    /// the arm's modeled wall power, so the A/B decision trades performance
    /// against the power cost of the configuration it came from.
    MipsPerWatt,
}

impl PerformanceMetric {
    /// Parses a metric name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "mips" => Some(PerformanceMetric::Mips),
            "qps" => Some(PerformanceMetric::Qps),
            "mips_per_watt" | "perf_per_watt" => Some(PerformanceMetric::MipsPerWatt),
            _ => None,
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PerformanceMetric::Mips => "mips",
            PerformanceMetric::Qps => "qps",
            PerformanceMetric::MipsPerWatt => "mips_per_watt",
        }
    }

    /// The metric appropriate for a service: QPS for the Cache tiers, MIPS
    /// otherwise (Sec. 7's recommendation).
    pub fn recommended_for(service: softsku_workloads::Microservice) -> Self {
        match service {
            softsku_workloads::Microservice::Cache1 | softsku_workloads::Microservice::Cache2 => {
                PerformanceMetric::Qps
            }
            _ => PerformanceMetric::Mips,
        }
    }

    /// Takes one paired measurement `(arm_a, arm_b)` from the environment.
    ///
    /// # Errors
    ///
    /// Propagates environment/engine errors.
    pub fn sample(self, env: &mut AbEnvironment) -> Result<(f64, f64), UskuError> {
        let pair = env.sample_pair()?;
        match self {
            PerformanceMetric::Mips => Ok((pair.a_mips, pair.b_mips)),
            PerformanceMetric::Qps => {
                // QPS derives from the same throughput measurement through
                // each arm's path length: both arms are read at the load the
                // pair sample faced, scaled by the relative noise the MIPS
                // channel saw.
                let mut qps = |arm: Arm, measured: f64| -> Result<f64, UskuError> {
                    let server = env.arm_mut(arm);
                    let base = server.mips(pair.load)?;
                    let noise = if base > 0.0 { measured / base } else { 1.0 };
                    Ok(server.qps(pair.load)? * noise)
                };
                Ok((qps(Arm::A, pair.a_mips)?, qps(Arm::B, pair.b_mips)?))
            }
            PerformanceMetric::MipsPerWatt => {
                let model = PowerModel::default();
                let watts = |env: &mut AbEnvironment, arm: Arm| -> Result<f64, UskuError> {
                    let cfg = env.arm_config(arm).clone();
                    let report = env.arm_mut(arm).peak_report()?;
                    Ok(model.watts(&cfg, &report, pair.load))
                };
                let wa = watts(env, Arm::A)?;
                let wb = watts(env, Arm::B)?;
                Ok((pair.a_mips / wa.max(1.0), pair.b_mips / wb.max(1.0)))
            }
        }
    }
}

impl std::fmt::Display for PerformanceMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_cluster::EnvConfig;
    use softsku_workloads::{Microservice, PlatformKind};

    #[test]
    fn names_roundtrip() {
        for m in [
            PerformanceMetric::Mips,
            PerformanceMetric::Qps,
            PerformanceMetric::MipsPerWatt,
        ] {
            assert_eq!(PerformanceMetric::from_name(m.name()), Some(m));
        }
        assert_eq!(PerformanceMetric::from_name("latency"), None);
    }

    #[test]
    fn recommendation_matches_paper() {
        assert_eq!(
            PerformanceMetric::recommended_for(Microservice::Web),
            PerformanceMetric::Mips
        );
        assert_eq!(
            PerformanceMetric::recommended_for(Microservice::Cache1),
            PerformanceMetric::Qps
        );
    }

    #[test]
    fn both_metrics_sample_positive_pairs() {
        let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
        let mut env = AbEnvironment::new(profile, EnvConfig::fast_test(), 5).unwrap();
        for metric in [
            PerformanceMetric::Mips,
            PerformanceMetric::Qps,
            PerformanceMetric::MipsPerWatt,
        ] {
            let (a, b) = metric.sample(&mut env).unwrap();
            assert!(a > 0.0 && b > 0.0, "{metric}: ({a}, {b})");
        }
    }
}
