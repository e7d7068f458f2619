//! The soft-SKU design space: per-knob candidate settings for a platform,
//! filtered by workload applicability (paper Secs. 4–5).

use crate::error::KnobError;
use crate::knob::{Knob, KnobSetting};
use softsku_archsim::cache::CdpPartition;
use softsku_archsim::pagemap::ThpMode;
use softsku_archsim::platform::PlatformSpec;
use softsku_archsim::prefetch::PrefetcherConfig;

/// Constraints a target microservice imposes on the sweep (µSKU input file,
/// Sec. 4: "some microservices may not tolerate reboots on live traffic",
/// "SHPs are inapplicable to Ads1 since it does not use the APIs", and
/// Sec. 6.1's Ads1 core-count exclusion for QoS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConstraints {
    /// Whether live-traffic reboots are tolerable (gates CoreCount and SHP
    /// sweeps when false… SHP only needs a boot-parameter change, which also
    /// reboots).
    pub tolerates_reboot: bool,
    /// Whether the service allocates through the SHP APIs at all.
    pub uses_shp: bool,
    /// Minimum core count below which QoS collapses (load-balancer design);
    /// `None` allows the full 2..=max sweep.
    pub min_cores_for_qos: Option<u32>,
}

impl WorkloadConstraints {
    /// Fully permissive constraints.
    pub fn permissive() -> Self {
        WorkloadConstraints {
            tolerates_reboot: true,
            uses_shp: true,
            min_cores_for_qos: None,
        }
    }
}

/// Candidate settings for every knob on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobSpace {
    core_freq: Vec<KnobSetting>,
    uncore_freq: Vec<KnobSetting>,
    core_count: Vec<KnobSetting>,
    cdp: Vec<KnobSetting>,
    prefetcher: Vec<KnobSetting>,
    thp: Vec<KnobSetting>,
    shp: Vec<KnobSetting>,
}

impl KnobSpace {
    /// Builds the paper's sweep for `platform` under `constraints`:
    ///
    /// * core frequency 1.6–2.2 GHz in 0.1 GHz steps;
    /// * uncore frequency 1.4–1.8 GHz in 0.1 GHz steps;
    /// * core count 2..=max in steps of 2 (reboot-gated);
    /// * CDP off plus every `{data, code}` split of the LLC ways;
    /// * the five prefetcher configurations;
    /// * the three THP modes;
    /// * SHP 0–600 in steps of 100 (reboot- and API-gated).
    pub fn for_platform(platform: &PlatformSpec, constraints: WorkloadConstraints) -> Self {
        let (cf_lo, cf_hi) = platform.core_freq_range_ghz;
        let core_freq = freq_steps(cf_lo, cf_hi)
            .into_iter()
            .map(KnobSetting::CoreFrequencyGhz)
            .collect();
        let (uf_lo, uf_hi) = platform.uncore_freq_range_ghz;
        let uncore_freq = freq_steps(uf_lo, uf_hi)
            .into_iter()
            .map(KnobSetting::UncoreFrequencyGhz)
            .collect();

        let core_count = if constraints.tolerates_reboot {
            let max = platform.total_cores();
            let min = constraints.min_cores_for_qos.unwrap_or(2).max(2);
            let mut counts: Vec<u32> = (min..=max).step_by(2).collect();
            if counts.last() != Some(&max) {
                counts.push(max);
            }
            counts.into_iter().map(KnobSetting::CoreCount).collect()
        } else {
            Vec::new()
        };

        let mut cdp = vec![KnobSetting::Cdp(None)];
        cdp.extend(
            CdpPartition::sweep(platform.llc.ways)
                .into_iter()
                .map(|p| KnobSetting::Cdp(Some(p))),
        );

        let prefetcher = PrefetcherConfig::sweep()
            .into_iter()
            .map(KnobSetting::Prefetcher)
            .collect();

        let thp = ThpMode::ALL.into_iter().map(KnobSetting::Thp).collect();

        let shp = if constraints.tolerates_reboot && constraints.uses_shp {
            (0..=600).step_by(100).map(KnobSetting::ShpPages).collect()
        } else {
            Vec::new()
        };

        KnobSpace {
            core_freq,
            uncore_freq,
            core_count,
            cdp,
            prefetcher,
            thp,
            shp,
        }
    }

    /// The candidate settings for `knob` (empty when gated off).
    pub fn candidates(&self, knob: Knob) -> &[KnobSetting] {
        match knob {
            Knob::CoreFrequency => &self.core_freq,
            Knob::UncoreFrequency => &self.uncore_freq,
            Knob::CoreCount => &self.core_count,
            Knob::Cdp => &self.cdp,
            Knob::Prefetcher => &self.prefetcher,
            Knob::Thp => &self.thp,
            Knob::Shp => &self.shp,
        }
    }

    /// Candidates, as a `Result` that surfaces gating as an error.
    ///
    /// # Errors
    ///
    /// [`KnobError::EmptySweep`] when the knob is gated off for this
    /// workload.
    pub fn candidates_checked(&self, knob: Knob) -> Result<&[KnobSetting], KnobError> {
        let c = self.candidates(knob);
        if c.is_empty() {
            Err(KnobError::EmptySweep(knob.name()))
        } else {
            Ok(c)
        }
    }

    /// Knobs with at least one candidate, in sweep order.
    pub fn active_knobs(&self) -> Vec<Knob> {
        Knob::ALL
            .into_iter()
            .filter(|&k| !self.candidates(k).is_empty())
            .collect()
    }

    /// Total number of points in the exhaustive cross-product sweep — the
    /// quantity that makes exhaustive search "prohibitive" (Sec. 7).
    pub fn exhaustive_size(&self) -> u128 {
        Knob::ALL
            .into_iter()
            .map(|k| self.candidates(k).len().max(1) as u128)
            .product()
    }

    /// Total number of A/B tests for the independent sweep.
    pub fn independent_size(&self) -> usize {
        Knob::ALL
            .into_iter()
            .map(|k| self.candidates(k).len())
            .sum()
    }
}

/// 0.1 GHz-step inclusive frequency ladder.
fn freq_steps(lo: f64, hi: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut f = lo;
    while f <= hi + 1e-9 {
        v.push((f * 10.0).round() / 10.0);
        f += 0.1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformKind;

    #[test]
    fn label_width_is_the_longest_swept_label() {
        let longest = PlatformKind::ALL
            .into_iter()
            .flat_map(|kind| {
                let space =
                    KnobSpace::for_platform(&kind.spec(), WorkloadConstraints::permissive());
                Knob::ALL.map(|k| space.candidates(k).to_vec())
            })
            .flatten()
            .map(|setting| setting.to_string().len())
            .max();
        assert_eq!(longest, Some(KnobSetting::LABEL_WIDTH));
    }

    #[test]
    fn skylake_space_matches_paper() {
        let plat = PlatformSpec::skylake18();
        let space = KnobSpace::for_platform(&plat, WorkloadConstraints::permissive());
        // 1.6..2.2 → 7 core frequencies; 1.4..1.8 → 5 uncore.
        assert_eq!(space.candidates(Knob::CoreFrequency).len(), 7);
        assert_eq!(space.candidates(Knob::UncoreFrequency).len(), 5);
        // CDP: off + 10 partitions of 11 ways.
        assert_eq!(space.candidates(Knob::Cdp).len(), 11);
        assert_eq!(space.candidates(Knob::Prefetcher).len(), 5);
        assert_eq!(space.candidates(Knob::Thp).len(), 3);
        // SHP 0..600 step 100.
        assert_eq!(space.candidates(Knob::Shp).len(), 7);
        // Core count: 2,4,…,18.
        assert_eq!(space.candidates(Knob::CoreCount).len(), 9);
        assert_eq!(space.active_knobs().len(), 7);
    }

    #[test]
    fn exhaustive_is_prohibitive_independent_is_not() {
        let plat = PlatformSpec::skylake18();
        let space = KnobSpace::for_platform(&plat, WorkloadConstraints::permissive());
        assert!(space.exhaustive_size() > 100_000);
        assert!(space.independent_size() < 60);
    }

    #[test]
    fn reboot_intolerance_gates_core_count_and_shp() {
        let plat = PlatformSpec::skylake18();
        let c = WorkloadConstraints {
            tolerates_reboot: false,
            uses_shp: true,
            min_cores_for_qos: None,
        };
        let space = KnobSpace::for_platform(&plat, c);
        assert!(space.candidates(Knob::CoreCount).is_empty());
        assert!(space.candidates(Knob::Shp).is_empty());
        assert!(space.candidates_checked(Knob::Shp).is_err());
        assert_eq!(space.active_knobs().len(), 5);
    }

    #[test]
    fn non_shp_service_gates_shp_only() {
        let plat = PlatformSpec::skylake18();
        let c = WorkloadConstraints {
            tolerates_reboot: true,
            uses_shp: false,
            min_cores_for_qos: None,
        };
        let space = KnobSpace::for_platform(&plat, c);
        assert!(space.candidates(Knob::Shp).is_empty());
        assert!(!space.candidates(Knob::CoreCount).is_empty());
    }

    #[test]
    fn qos_floor_trims_core_counts() {
        let plat = PlatformSpec::skylake18();
        let c = WorkloadConstraints {
            tolerates_reboot: true,
            uses_shp: true,
            min_cores_for_qos: Some(10),
        };
        let space = KnobSpace::for_platform(&plat, c);
        for s in space.candidates(Knob::CoreCount) {
            if let KnobSetting::CoreCount(n) = s {
                assert!(*n >= 10);
            }
        }
    }

    #[test]
    fn broadwell_cdp_sweep_has_twelve_ways() {
        let plat = PlatformSpec::broadwell16();
        let space = KnobSpace::for_platform(&plat, WorkloadConstraints::permissive());
        // Off + 11 partitions of 12 ways.
        assert_eq!(space.candidates(Knob::Cdp).len(), 12);
    }

    #[test]
    fn every_candidate_applies_cleanly() {
        use softsku_archsim::engine::ServerConfig;
        let plat = PlatformSpec::skylake18();
        let space = KnobSpace::for_platform(&plat, WorkloadConstraints::permissive());
        for knob in space.active_knobs() {
            for setting in space.candidates(knob) {
                let mut cfg = ServerConfig::stock(PlatformSpec::skylake18());
                setting
                    .apply(&mut cfg)
                    .unwrap_or_else(|e| panic!("{setting} failed: {e}"));
            }
        }
    }
}
