//! Hardware platform descriptions (paper Table 1).
//!
//! Three platforms appear in the paper:
//!
//! | | Skylake18 | Skylake20 | Broadwell16 |
//! |---|---|---|---|
//! | Microarchitecture | Skylake | Skylake | Broadwell |
//! | Sockets | 1 | 2 | 1 |
//! | Cores/socket | 18 | 20 | 16 |
//! | SMT | 2 | 2 | 2 |
//! | L1-I / L1-D | 32 KiB | 32 KiB | 32 KiB |
//! | Private L2 | 1 MiB | 1 MiB | 256 KiB |
//! | Shared LLC/socket | 24.75 MiB | 27 MiB | 24 MiB |
//!
//! Sec. 6.1 adds that the Skylake LLC has 11 ways and the Broadwell LLC 12,
//! and that the core (1.6–2.2 GHz) and uncore (1.4–1.8 GHz) frequency domains
//! share a fixed CPU power budget — AVX-heavy services (Ads1) pay a frequency
//! tax out of that budget.

use crate::error::ArchSimError;

/// Cache-line size used throughout (Table 1: 64 B on all platforms).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Identifies one of the three paper platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlatformKind {
    /// 18-core single-socket Intel Skylake (most microservices).
    Skylake18,
    /// 20-core dual-socket Intel Skylake (Ads2, Cache1).
    Skylake20,
    /// 16-core single-socket Intel Broadwell (older Web fleet).
    Broadwell16,
}

impl PlatformKind {
    /// All platforms, in Table 1 order.
    pub const ALL: [PlatformKind; 3] = [
        PlatformKind::Skylake18,
        PlatformKind::Skylake20,
        PlatformKind::Broadwell16,
    ];

    /// The platform's specification sheet.
    pub fn spec(self) -> PlatformSpec {
        match self {
            PlatformKind::Skylake18 => PlatformSpec::skylake18(),
            PlatformKind::Skylake20 => PlatformSpec::skylake20(),
            PlatformKind::Broadwell16 => PlatformSpec::broadwell16(),
        }
    }
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            PlatformKind::Skylake18 => "Skylake18",
            PlatformKind::Skylake20 => "Skylake20",
            PlatformKind::Broadwell16 => "Broadwell16",
        };
        f.write_str(name)
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Load-to-use latency in cycles at nominal frequency.
    pub latency_cycles: u32,
}

impl CacheGeometry {
    /// Number of sets implied by capacity, associativity, and line size.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * CACHE_LINE_BYTES)
    }

    /// Capacity expressed in cache lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / CACHE_LINE_BYTES
    }
}

/// Geometry of one TLB level for one page size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Entries for 4 KiB pages.
    pub entries_4k: u32,
    /// Entries for 2 MiB pages.
    pub entries_2m: u32,
}

/// Full platform specification: Table 1 plus the frequency/power and memory
/// parameters Secs. 5–6 rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Which platform this is.
    pub kind: PlatformKind,
    /// Marketing microarchitecture name.
    pub microarchitecture: &'static str,
    /// Socket count.
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// SMT ways per core.
    pub smt: u32,
    /// L1 instruction cache (per core).
    pub l1i: CacheGeometry,
    /// L1 data cache (per core).
    pub l1d: CacheGeometry,
    /// Unified private L2 (per core).
    pub l2: CacheGeometry,
    /// Shared last-level cache (per socket).
    pub llc: CacheGeometry,
    /// First-level ITLB geometry.
    pub itlb: TlbGeometry,
    /// First-level DTLB geometry.
    pub dtlb: TlbGeometry,
    /// Unified second-level TLB entries (page-size agnostic).
    pub stlb_entries: u32,
    /// Page-walk cost in cycles on an STLB miss (all-levels-cached walk).
    pub page_walk_cycles: u32,
    /// Retirement/issue width in micro-op slots per cycle (TMAM slot width).
    pub issue_width: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty_cycles: u32,
    /// Branch target buffer capacity in entries.
    pub btb_entries: u32,
    /// Supported core frequency range in GHz (min, nominal/turbo max).
    pub core_freq_range_ghz: (f64, f64),
    /// Supported uncore frequency range in GHz.
    pub uncore_freq_range_ghz: (f64, f64),
    /// Core frequency tax in GHz when running AVX-dense code (power budget).
    pub avx_freq_tax_ghz: f64,
    /// Floating-point instruction fraction above which the AVX tax applies.
    pub avx_fp_threshold: f64,
    /// Unloaded (idle) memory latency in nanoseconds at nominal uncore freq.
    pub mem_unloaded_latency_ns: f64,
    /// Saturation memory bandwidth in GB/s across all channels.
    pub mem_peak_bw_gbps: f64,
}

impl PlatformSpec {
    /// Single-socket 18-core Skylake (Web, Feed1, Feed2, Ads1, Cache2).
    pub fn skylake18() -> Self {
        PlatformSpec {
            kind: PlatformKind::Skylake18,
            microarchitecture: "Intel Skylake",
            sockets: 1,
            cores_per_socket: 18,
            smt: 2,
            l1i: CacheGeometry {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l1d: CacheGeometry {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l2: CacheGeometry {
                capacity_bytes: 1 << 20,
                ways: 16,
                latency_cycles: 14,
            },
            llc: CacheGeometry {
                capacity_bytes: (2475 << 20) / 100, // 24.75 MiB
                ways: 11,
                latency_cycles: 44,
            },
            itlb: TlbGeometry {
                entries_4k: 128,
                entries_2m: 8,
            },
            dtlb: TlbGeometry {
                entries_4k: 64,
                entries_2m: 32,
            },
            stlb_entries: 1536,
            page_walk_cycles: 90,
            issue_width: 4,
            mispredict_penalty_cycles: 17,
            btb_entries: 4096,
            core_freq_range_ghz: (1.6, 2.2),
            uncore_freq_range_ghz: (1.4, 1.8),
            avx_freq_tax_ghz: 0.2,
            avx_fp_threshold: 0.10,
            mem_unloaded_latency_ns: 85.0,
            mem_peak_bw_gbps: 95.0,
        }
    }

    /// Dual-socket 20-core Skylake (Ads2, Cache1): higher peak bandwidth.
    pub fn skylake20() -> Self {
        let mut spec = Self::skylake18();
        spec.kind = PlatformKind::Skylake20;
        spec.sockets = 2;
        spec.cores_per_socket = 20;
        spec.llc = CacheGeometry {
            capacity_bytes: 27 << 20,
            ways: 11,
            latency_cycles: 46,
        };
        spec.mem_unloaded_latency_ns = 92.0;
        spec.mem_peak_bw_gbps = 145.0;
        spec
    }

    /// Single-socket 16-core Broadwell (older Web fleet): smaller L2, 12-way
    /// LLC, and markedly lower memory bandwidth headroom — the property that
    /// makes Web-on-Broadwell bandwidth-bound in Figs. 16–17.
    pub fn broadwell16() -> Self {
        PlatformSpec {
            kind: PlatformKind::Broadwell16,
            microarchitecture: "Intel Broadwell",
            sockets: 1,
            cores_per_socket: 16,
            smt: 2,
            l1i: CacheGeometry {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l1d: CacheGeometry {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 4,
            },
            l2: CacheGeometry {
                capacity_bytes: 256 << 10,
                ways: 8,
                latency_cycles: 12,
            },
            llc: CacheGeometry {
                capacity_bytes: 24 << 20,
                ways: 12,
                latency_cycles: 50,
            },
            itlb: TlbGeometry {
                entries_4k: 128,
                entries_2m: 8,
            },
            dtlb: TlbGeometry {
                entries_4k: 64,
                entries_2m: 32,
            },
            stlb_entries: 1024,
            page_walk_cycles: 100,
            issue_width: 4,
            mispredict_penalty_cycles: 16,
            btb_entries: 4096,
            core_freq_range_ghz: (1.6, 2.2),
            uncore_freq_range_ghz: (1.4, 1.8),
            avx_freq_tax_ghz: 0.2,
            avx_fp_threshold: 0.10,
            mem_unloaded_latency_ns: 88.0,
            mem_peak_bw_gbps: 40.0,
        }
    }

    /// Total physical cores across sockets.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Validates a core frequency request against the supported range.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::FrequencyOutOfRange`] when outside the range.
    pub fn validate_core_freq(&self, ghz: f64) -> Result<(), ArchSimError> {
        let (lo, hi) = self.core_freq_range_ghz;
        if !(lo..=hi).contains(&ghz) {
            return Err(ArchSimError::FrequencyOutOfRange {
                requested_ghz: ghz,
                min_ghz: lo,
                max_ghz: hi,
            });
        }
        Ok(())
    }

    /// Validates an uncore frequency request against the supported range.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::FrequencyOutOfRange`] when outside the range.
    pub fn validate_uncore_freq(&self, ghz: f64) -> Result<(), ArchSimError> {
        let (lo, hi) = self.uncore_freq_range_ghz;
        if !(lo..=hi).contains(&ghz) {
            return Err(ArchSimError::FrequencyOutOfRange {
                requested_ghz: ghz,
                min_ghz: lo,
                max_ghz: hi,
            });
        }
        Ok(())
    }

    /// Validates an active-core-count request.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::CoreCountOutOfRange`] when outside `[1, total_cores]`.
    pub fn validate_core_count(&self, cores: u32) -> Result<(), ArchSimError> {
        if cores == 0 || cores > self.total_cores() {
            return Err(ArchSimError::CoreCountOutOfRange {
                requested: cores,
                available: self.total_cores(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let s18 = PlatformSpec::skylake18();
        assert_eq!(s18.total_cores(), 18);
        assert_eq!(s18.l2.capacity_bytes, 1 << 20);
        assert_eq!(s18.llc.capacity_bytes, 25_952_256); // 24.75 MiB
        assert_eq!(s18.llc.ways, 11);

        let s20 = PlatformSpec::skylake20();
        assert_eq!(s20.total_cores(), 40);
        assert_eq!(s20.llc.capacity_bytes, 27 << 20);

        let b16 = PlatformSpec::broadwell16();
        assert_eq!(b16.total_cores(), 16);
        assert_eq!(b16.l2.capacity_bytes, 256 << 10);
        assert_eq!(b16.llc.ways, 12);
    }

    #[test]
    fn geometry_derivations() {
        let llc = PlatformSpec::skylake18().llc;
        assert_eq!(llc.lines() * CACHE_LINE_BYTES, llc.capacity_bytes);
        assert_eq!(
            llc.sets() * llc.ways as u64 * CACHE_LINE_BYTES,
            llc.capacity_bytes
        );
    }

    #[test]
    fn frequency_validation() {
        let spec = PlatformSpec::skylake18();
        assert!(spec.validate_core_freq(2.2).is_ok());
        assert!(spec.validate_core_freq(1.6).is_ok());
        assert!(spec.validate_core_freq(2.3).is_err());
        assert!(spec.validate_uncore_freq(1.8).is_ok());
        assert!(spec.validate_uncore_freq(1.3).is_err());
    }

    #[test]
    fn core_count_validation() {
        let spec = PlatformSpec::broadwell16();
        assert!(spec.validate_core_count(1).is_ok());
        assert!(spec.validate_core_count(16).is_ok());
        assert!(spec.validate_core_count(0).is_err());
        assert!(spec.validate_core_count(17).is_err());
    }

    #[test]
    fn kind_roundtrip_and_display() {
        for kind in PlatformKind::ALL {
            let spec = kind.spec();
            assert_eq!(spec.kind, kind);
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn broadwell_is_bandwidth_constrained_relative_to_skylake() {
        // The Fig. 16/17 asymmetry requires Broadwell to have much less
        // memory headroom than the Skylakes.
        let b = PlatformSpec::broadwell16();
        let s = PlatformSpec::skylake18();
        assert!(b.mem_peak_bw_gbps < 0.7 * s.mem_peak_bw_gbps);
    }
}
