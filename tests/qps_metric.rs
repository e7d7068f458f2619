//! The QPS channel reads both arms of a pair at the load that pair sample
//! faced: with no measurement noise and no per-arm load imbalance, an A/A
//! environment (both arms in the production configuration) must read
//! identical QPS, sample after sample.

use softsku::cluster::{AbEnvironment, EnvConfig};
use softsku::usku::PerformanceMetric;
use softsku::workloads::{Microservice, PlatformKind};

#[test]
fn a_a_environment_reads_equal_qps_without_noise() {
    let profile = Microservice::Cache2
        .profile(PlatformKind::Skylake18)
        .unwrap();
    let mut cfg = EnvConfig::fast_test();
    cfg.measurement_noise = 0.0;
    cfg.arm_imbalance = 0.0;
    // The common load still varies (diurnal swing plus AR(1) noise), so a
    // reading taken at any load other than the sample's would split the
    // arms.
    assert!(cfg.load_noise > 0.0);
    let mut env = AbEnvironment::new(profile, cfg, 21).unwrap();
    for i in 0..40 {
        let (a, b) = PerformanceMetric::Qps.sample(&mut env).unwrap();
        assert!(a > 0.0, "sample {i}: qps {a}");
        assert_eq!(a.to_bits(), b.to_bits(), "sample {i}: {a} vs {b}");
    }
}
