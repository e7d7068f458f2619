//! The seven configurable server knobs (paper Sec. 5).

use crate::error::KnobError;
use softsku_archsim::cache::CdpPartition;
use softsku_archsim::engine::ServerConfig;
use softsku_archsim::pagemap::ThpMode;
use softsku_archsim::prefetch::PrefetcherConfig;

/// Identifies one of the seven knobs µSKU tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Knob {
    /// Core-domain frequency (MSR-controlled, Sec. 5 knob 1).
    CoreFrequency,
    /// Uncore-domain frequency (Sec. 5 knob 2).
    UncoreFrequency,
    /// Active physical core count via `isolcpus` + reboot (knob 3).
    CoreCount,
    /// Code/data prioritization in the LLC ways via Intel RDT (knob 4).
    Cdp,
    /// Hardware prefetcher enables (knob 5).
    Prefetcher,
    /// Transparent huge pages (knob 6).
    Thp,
    /// Statically-allocated huge pages (knob 7).
    Shp,
}

impl Knob {
    /// All knobs in the paper's order.
    pub const ALL: [Knob; 7] = [
        Knob::CoreFrequency,
        Knob::UncoreFrequency,
        Knob::CoreCount,
        Knob::Cdp,
        Knob::Prefetcher,
        Knob::Thp,
        Knob::Shp,
    ];

    /// Short identifier used in input files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Knob::CoreFrequency => "core_frequency",
            Knob::UncoreFrequency => "uncore_frequency",
            Knob::CoreCount => "core_count",
            Knob::Cdp => "cdp",
            Knob::Prefetcher => "prefetcher",
            Knob::Thp => "thp",
            Knob::Shp => "shp",
        }
    }

    /// Parses a knob from its [`Knob::name`] identifier.
    pub fn from_name(name: &str) -> Option<Knob> {
        Knob::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether changing this knob requires a server reboot (core-count
    /// changes go through the boot loader's `isolcpus`; SHP pools are
    /// reserved by the kernel at boot).
    pub fn requires_reboot(self) -> bool {
        matches!(self, Knob::CoreCount | Knob::Shp)
    }

    /// Whether moving a server between configurations `a` and `b` costs a
    /// reboot: some knob that [`Knob::requires_reboot`] is set differently.
    pub fn reboot_between(a: &ServerConfig, b: &ServerConfig) -> bool {
        Knob::ALL.into_iter().any(|k| {
            k.requires_reboot() && KnobSetting::read_from(k, a) != KnobSetting::read_from(k, b)
        })
    }
}

impl std::fmt::Display for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete setting of one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnobSetting {
    /// Core frequency in GHz.
    CoreFrequencyGhz(f64),
    /// Uncore frequency in GHz.
    UncoreFrequencyGhz(f64),
    /// Number of active physical cores.
    CoreCount(u32),
    /// CDP partition; `None` disables CDP (shared ways).
    Cdp(Option<CdpPartition>),
    /// Prefetcher enables.
    Prefetcher(PrefetcherConfig),
    /// THP mode.
    Thp(ThpMode),
    /// SHP page count.
    ShpPages(u32),
}

impl KnobSetting {
    /// Characters in the longest label a [`KnobSpace`](crate::KnobSpace)
    /// sweeps, "prefetch: L2 hardware & DCU on". Tables size their setting
    /// column to it, so every row's next column lines up.
    pub const LABEL_WIDTH: usize = 30;

    /// The knob this setting belongs to.
    pub fn knob(&self) -> Knob {
        match self {
            KnobSetting::CoreFrequencyGhz(_) => Knob::CoreFrequency,
            KnobSetting::UncoreFrequencyGhz(_) => Knob::UncoreFrequency,
            KnobSetting::CoreCount(_) => Knob::CoreCount,
            KnobSetting::Cdp(_) => Knob::Cdp,
            KnobSetting::Prefetcher(_) => Knob::Prefetcher,
            KnobSetting::Thp(_) => Knob::Thp,
            KnobSetting::ShpPages(_) => Knob::Shp,
        }
    }

    /// Applies the setting to a server configuration, validating against the
    /// platform.
    ///
    /// Setting the CDP knob re-derives the partition against the currently
    /// enabled way count; setting core count leaves the LLC allocation
    /// untouched (all ways stay shared among fewer cores, as `isolcpus`
    /// does).
    ///
    /// # Errors
    ///
    /// [`KnobError::Platform`] when the platform rejects the value.
    pub fn apply(&self, config: &mut ServerConfig) -> Result<(), KnobError> {
        match *self {
            KnobSetting::CoreFrequencyGhz(ghz) => {
                config.platform.validate_core_freq(ghz)?;
                config.core_freq_ghz = ghz;
            }
            KnobSetting::UncoreFrequencyGhz(ghz) => {
                config.platform.validate_uncore_freq(ghz)?;
                config.uncore_freq_ghz = ghz;
            }
            KnobSetting::CoreCount(n) => {
                config.platform.validate_core_count(n)?;
                config.active_cores = n;
            }
            KnobSetting::Cdp(p) => {
                if let Some(part) = p {
                    // Validate against enabled ways.
                    CdpPartition::new(part.data_ways, part.code_ways, config.llc_ways_enabled)?;
                }
                config.cdp = p;
            }
            KnobSetting::Prefetcher(pc) => config.prefetchers = pc,
            KnobSetting::Thp(mode) => config.thp = mode,
            KnobSetting::ShpPages(n) => config.shp_pages = n,
        }
        config.validate()?;
        Ok(())
    }

    /// Reads the current setting of `knob` out of a configuration.
    pub fn read_from(knob: Knob, config: &ServerConfig) -> KnobSetting {
        match knob {
            Knob::CoreFrequency => KnobSetting::CoreFrequencyGhz(config.core_freq_ghz),
            Knob::UncoreFrequency => KnobSetting::UncoreFrequencyGhz(config.uncore_freq_ghz),
            Knob::CoreCount => KnobSetting::CoreCount(config.active_cores),
            Knob::Cdp => KnobSetting::Cdp(config.cdp),
            Knob::Prefetcher => KnobSetting::Prefetcher(config.prefetchers),
            Knob::Thp => KnobSetting::Thp(config.thp),
            Knob::Shp => KnobSetting::ShpPages(config.shp_pages),
        }
    }
}

impl std::fmt::Display for KnobSetting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnobSetting::CoreFrequencyGhz(g) => write!(f, "core {g:.1} GHz"),
            KnobSetting::UncoreFrequencyGhz(g) => write!(f, "uncore {g:.1} GHz"),
            KnobSetting::CoreCount(n) => write!(f, "{n} cores"),
            KnobSetting::Cdp(None) => write!(f, "CDP off"),
            KnobSetting::Cdp(Some(p)) => write!(f, "CDP {p}"),
            KnobSetting::Prefetcher(p) => write!(f, "prefetch: {p}"),
            KnobSetting::Thp(m) => write!(f, "THP {m}"),
            KnobSetting::ShpPages(n) => write!(f, "{n} SHPs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsku_archsim::platform::PlatformSpec;

    fn base() -> ServerConfig {
        ServerConfig::stock(PlatformSpec::skylake18())
    }

    #[test]
    fn knob_names_roundtrip() {
        for k in Knob::ALL {
            assert_eq!(Knob::from_name(k.name()), Some(k));
        }
        assert_eq!(Knob::from_name("bogus"), None);
    }

    #[test]
    fn reboot_knobs() {
        assert!(Knob::CoreCount.requires_reboot());
        assert!(Knob::Shp.requires_reboot());
        assert!(!Knob::CoreFrequency.requires_reboot());
        assert!(!Knob::Thp.requires_reboot());
    }

    #[test]
    fn a_config_pair_needs_a_reboot_iff_a_reboot_knob_differs() {
        let stock = base();
        assert!(!Knob::reboot_between(&stock, &stock));
        let moves = [
            KnobSetting::CoreFrequencyGhz(1.8),
            KnobSetting::UncoreFrequencyGhz(1.5),
            KnobSetting::CoreCount(8),
            KnobSetting::Cdp(Some(CdpPartition::new(6, 5, 11).unwrap())),
            KnobSetting::Prefetcher(PrefetcherConfig::dcu_only()),
            KnobSetting::Thp(ThpMode::NeverOn),
            KnobSetting::ShpPages(300),
        ];
        assert_eq!(moves.map(|m| m.knob()), Knob::ALL, "one move per knob");
        for setting in moves {
            // `stock` with only this one knob moved.
            let k = setting.knob();
            assert_ne!(KnobSetting::read_from(k, &stock), setting, "{k}");
            let mut moved = stock.clone();
            setting.apply(&mut moved).unwrap();
            assert_eq!(Knob::reboot_between(&stock, &moved), k.requires_reboot());
            assert_eq!(Knob::reboot_between(&moved, &stock), k.requires_reboot());
        }
    }

    #[test]
    fn apply_and_read_back() {
        let mut cfg = base();
        for setting in [
            KnobSetting::CoreFrequencyGhz(1.8),
            KnobSetting::UncoreFrequencyGhz(1.5),
            KnobSetting::CoreCount(8),
            KnobSetting::Cdp(Some(CdpPartition::new(6, 5, 11).unwrap())),
            KnobSetting::Prefetcher(PrefetcherConfig::dcu_only()),
            KnobSetting::Thp(ThpMode::NeverOn),
            KnobSetting::ShpPages(300),
        ] {
            setting.apply(&mut cfg).unwrap();
            assert_eq!(KnobSetting::read_from(setting.knob(), &cfg), setting);
        }
    }

    #[test]
    fn invalid_values_rejected() {
        let mut cfg = base();
        assert!(KnobSetting::CoreFrequencyGhz(3.5).apply(&mut cfg).is_err());
        assert!(KnobSetting::UncoreFrequencyGhz(0.9)
            .apply(&mut cfg)
            .is_err());
        assert!(KnobSetting::CoreCount(99).apply(&mut cfg).is_err());
        // Partition that does not match the 11 enabled ways.
        let bad = CdpPartition::new(4, 4, 8).unwrap();
        assert!(KnobSetting::Cdp(Some(bad)).apply(&mut cfg).is_err());
        // Config unchanged by failed applies.
        assert_eq!(cfg, base());
    }

    #[test]
    fn display_is_informative() {
        let s = KnobSetting::Cdp(Some(CdpPartition::new(6, 5, 11).unwrap()));
        assert_eq!(s.to_string(), "CDP {6, 5}");
        assert_eq!(KnobSetting::ShpPages(300).to_string(), "300 SHPs");
    }
}
