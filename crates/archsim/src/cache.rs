//! Set-associative cache structures with CAT way-masking and CDP
//! code/data partitioning.
//!
//! The knob experiments require *structural* cache models, not just miss
//! curves: Intel Cache Allocation Technology (CAT) enables a subset of LLC
//! ways (Fig. 10's capacity sweep) and Code/Data Prioritization (CDP) splits
//! the enabled ways between instruction and data fills (Fig. 16). Both
//! manipulate ways, so the simulator models caches as per-set LRU way
//! arrays.

use crate::error::ArchSimError;
use crate::platform::CacheGeometry;

/// A set-associative cache with per-set true-LRU replacement (the policy
/// the reuse-distance calibration is exact for).
///
/// # Example
///
/// ```
/// use softsku_archsim::cache::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(64, 8).unwrap(); // 64 sets × 8 ways
/// assert!(!cache.access(42)); // cold miss
/// assert!(cache.access(42)); // now resident
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    sets: u64,
    ways: u32,
    /// Flat tag storage, `ways` consecutive slots per set in recency order
    /// (front = MRU); only the first `occ[set]` slots are live. A flat
    /// stride keeps each set's ways on one or two cache lines instead of a
    /// pointer-chased `Vec<Vec<_>>`, which is what the per-access position
    /// scan and move-to-front shuffle touch.
    lines: Vec<u64>,
    /// Per-set live-way count.
    occ: Vec<u32>,
    accesses: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidGeometry`] if either dimension is zero.
    pub fn new(sets: u64, ways: u32) -> Result<Self, ArchSimError> {
        if sets == 0 || ways == 0 {
            return Err(ArchSimError::InvalidGeometry(format!(
                "cache needs nonzero sets and ways, got {sets}x{ways}"
            )));
        }
        Ok(SetAssocCache {
            sets,
            ways,
            lines: vec![0; (sets as usize) * (ways as usize)],
            occ: vec![0; sets as usize],
            accesses: 0,
            misses: 0,
        })
    }

    /// Builds a cache from a platform [`CacheGeometry`], optionally enabling
    /// only `ways_enabled` of its ways (CAT) and scaling capacity by
    /// `capacity_scale` (multi-core contention share).
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidGeometry`] when `ways_enabled` is zero or
    /// exceeds the geometry, or `capacity_scale` is not in `(0, 1]`.
    pub fn from_geometry(
        geom: &CacheGeometry,
        ways_enabled: u32,
        capacity_scale: f64,
    ) -> Result<Self, ArchSimError> {
        if ways_enabled == 0 || ways_enabled > geom.ways {
            return Err(ArchSimError::InvalidGeometry(format!(
                "{} of {} ways enabled",
                ways_enabled, geom.ways
            )));
        }
        if !(capacity_scale > 0.0 && capacity_scale <= 1.0) {
            return Err(ArchSimError::InvalidGeometry(format!(
                "capacity scale {capacity_scale} outside (0, 1]"
            )));
        }
        let sets = ((geom.sets() as f64 * capacity_scale).round() as u64).max(1);
        Self::new(sets, ways_enabled)
    }

    /// Looks up `line`, updating recency and filling on miss. Returns `true`
    /// on hit.
    pub fn access(&mut self, line: u64) -> bool {
        self.accesses += 1;
        let ways = self.ways as usize;
        let set = self.set_of(line);
        let base = set * ways;
        let occ = self.occ[set] as usize;
        let slice = &mut self.lines[base..base + occ];
        if let Some(pos) = slice.iter().position(|&t| t == line) {
            // Move to MRU: shift the younger tags down one slot.
            slice.copy_within(0..pos, 1);
            slice[0] = line;
            true
        } else {
            self.misses += 1;
            // Fill at MRU; a full set drops its LRU tag off the end of the
            // shift.
            let occ = if occ == ways { ways } else { occ + 1 };
            self.occ[set] = occ as u32;
            let slice = &mut self.lines[base..base + occ];
            slice.copy_within(0..occ - 1, 1);
            slice[0] = line;
            false
        }
    }

    /// Pre-fills an empty cache with distinct `lines` given most recent
    /// first, leaving exactly the contents that [`SetAssocCache::access`]
    /// would leave after the same lines in reverse (oldest first), without
    /// counting them as accesses.
    ///
    /// Replayed, each line misses (the lines are distinct) and lands at its
    /// set's MRU slot, so a set ends up holding the youngest `ways` lines
    /// that map to it, youngest first. Walking the lines youngest first
    /// and appending each to its set while the set has a free way builds
    /// that order directly: one hash per line and no shifts.
    pub fn fill_mru_first(&mut self, lines: impl IntoIterator<Item = u64>) {
        debug_assert!(
            self.occ.iter().all(|&o| o == 0),
            "fill_mru_first needs an empty cache"
        );
        let ways = self.ways as usize;
        for line in lines {
            let set = self.set_of(line);
            let occ = self.occ[set] as usize;
            if occ < ways {
                let base = set * ways;
                debug_assert!(
                    !self.lines[base..base + occ].contains(&line),
                    "fill_mru_first needs distinct lines, {line} repeats"
                );
                self.lines[base + occ] = line;
                self.occ[set] += 1;
            }
        }
    }

    /// The set `line` maps to.
    fn set_of(&self, line: u64) -> usize {
        (mix64(line) % self.sets) as usize
    }

    /// Invalidates a `fraction` of resident lines (context-switch
    /// pollution). Deterministic: truncating each set's occupancy drops
    /// its LRU tail.
    pub fn flush_fraction(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        for occ in &mut self.occ {
            *occ = ((*occ as f64) * (1.0 - fraction)).floor() as u32;
        }
    }

    /// Total lookups so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio so far (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Number of enabled ways.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Resets the hit/miss statistics without touching contents (used to
    /// discard warm-up).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Avalanching 64-bit hash (splitmix64 finalizer) used for set indexing, so
/// sequential line ids spread uniformly over sets.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A CDP partition of the LLC's enabled ways (paper Sec. 5, knob 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CdpPartition {
    /// Ways dedicated to data fills.
    pub data_ways: u32,
    /// Ways dedicated to code fills.
    pub code_ways: u32,
}

impl CdpPartition {
    /// Creates a partition, checking both sides are nonzero and the total
    /// matches `total_ways` (the paper sweeps {1, N−1} … {N−1, 1}).
    ///
    /// # Errors
    ///
    /// [`ArchSimError::InvalidCdpPartition`] on mismatch or a starved side.
    pub fn new(data_ways: u32, code_ways: u32, total_ways: u32) -> Result<Self, ArchSimError> {
        if data_ways == 0 || code_ways == 0 || data_ways + code_ways != total_ways {
            return Err(ArchSimError::InvalidCdpPartition {
                data_ways,
                code_ways,
                total_ways,
            });
        }
        Ok(CdpPartition {
            data_ways,
            code_ways,
        })
    }

    /// Every valid partition of `total_ways` in the paper's sweep order
    /// ({1, N−1} … {N−1, 1}, labelled {data, code}).
    pub fn sweep(total_ways: u32) -> Vec<CdpPartition> {
        (1..total_ways)
            .map(|data| CdpPartition {
                data_ways: data,
                code_ways: total_ways - data,
            })
            .collect()
    }
}

impl std::fmt::Display for CdpPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}, {}}}", self.data_ways, self.code_ways)
    }
}

/// The shared last-level cache: code and data fill disjoint partitions,
/// either an enforced CDP way split or the natural competitive split.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedLlc {
    data: SetAssocCache,
    code: SetAssocCache,
}

impl SharedLlc {
    /// Builds the LLC for `geom` with `ways_enabled` CAT-enabled ways split
    /// by the CDP partition `cdp`, and a contention capacity scale.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors; rejects partitions that do not sum to the
    /// enabled way count.
    pub fn build(
        geom: &CacheGeometry,
        ways_enabled: u32,
        cdp: CdpPartition,
        capacity_scale: f64,
    ) -> Result<Self, ArchSimError> {
        if cdp.data_ways + cdp.code_ways != ways_enabled {
            return Err(ArchSimError::InvalidCdpPartition {
                data_ways: cdp.data_ways,
                code_ways: cdp.code_ways,
                total_ways: ways_enabled,
            });
        }
        Ok(SharedLlc {
            data: SetAssocCache::from_geometry(geom, cdp.data_ways, capacity_scale)?,
            code: SetAssocCache::from_geometry(geom, cdp.code_ways, capacity_scale)?,
        })
    }

    /// Builds an LLC that models the *natural competitive split* between the
    /// code and data streams under shared LRU: each side gets a
    /// capacity-scaled partition with the full enabled associativity. The
    /// CDP knob replaces this competitive split with an enforced way split
    /// (see [`SharedLlc::build`]).
    ///
    /// # Errors
    ///
    /// Propagates geometry errors; `code_share` must lie in `(0, 1)`.
    pub fn natural_split(
        geom: &CacheGeometry,
        ways_enabled: u32,
        code_share: f64,
        capacity_scale: f64,
    ) -> Result<Self, ArchSimError> {
        if !(code_share > 0.0 && code_share < 1.0) {
            return Err(ArchSimError::InvalidFraction {
                name: "code_share".to_string(),
                value: code_share,
            });
        }
        let code = SetAssocCache::from_geometry(geom, ways_enabled, capacity_scale * code_share)?;
        let data =
            SetAssocCache::from_geometry(geom, ways_enabled, capacity_scale * (1.0 - code_share))?;
        Ok(SharedLlc { data, code })
    }

    /// Looks up a data line.
    pub fn access_data(&mut self, line: u64) -> bool {
        self.data.access(line)
    }

    /// Looks up a code line.
    pub fn access_code(&mut self, line: u64) -> bool {
        self.code.access(line)
    }

    /// Pre-fills the empty data partition with distinct lines, most recent
    /// first (see [`SetAssocCache::fill_mru_first`]).
    pub fn fill_data_mru_first(&mut self, lines: impl IntoIterator<Item = u64>) {
        self.data.fill_mru_first(lines);
    }

    /// Pre-fills the empty code partition with distinct lines, most recent
    /// first (see [`SetAssocCache::fill_mru_first`]).
    pub fn fill_code_mru_first(&mut self, lines: impl IntoIterator<Item = u64>) {
        self.code.fill_mru_first(lines);
    }

    /// Capacity in lines of the (code, data) partitions.
    pub fn capacities(&self) -> (u64, u64) {
        let lines = |c: &SetAssocCache| c.sets() * u64::from(c.ways());
        (lines(&self.code), lines(&self.data))
    }

    /// Resets statistics on both partitions.
    pub fn reset_stats(&mut self) {
        self.data.reset_stats();
        self.code.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;

    #[test]
    fn lru_behaviour_within_a_set() {
        // Single set, 2 ways: classic LRU sequence.
        let mut c = SetAssocCache::new(1, 2).unwrap();
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // 1 is MRU now, 2 is LRU
        assert!(!c.access(3)); // evicts 2
        assert!(!c.access(2)); // 2 was evicted
        assert!(c.access(3));
    }

    #[test]
    fn miss_ratio_tracks_reuse() {
        let mut c = SetAssocCache::new(256, 8).unwrap();
        // A working set at half capacity: the second pass hits except for
        // the few sets that the hash overfills (Poisson tail).
        for line in 0..1024u64 {
            c.access(line);
        }
        c.reset_stats();
        for line in 0..1024u64 {
            c.access(line);
        }
        assert!(
            c.miss_ratio() < 0.05,
            "half-capacity working set should mostly hit: {}",
            c.miss_ratio()
        );
        // A working set 4x capacity thrashes LRU completely.
        let mut big = SetAssocCache::new(64, 4).unwrap();
        for _ in 0..4 {
            for line in 0..1024u64 {
                big.access(line);
            }
        }
        assert!(big.miss_ratio() > 0.9);
    }

    #[test]
    fn geometry_construction_and_cat() {
        let spec = PlatformSpec::skylake18();
        let full = SetAssocCache::from_geometry(&spec.llc, spec.llc.ways, 1.0).unwrap();
        assert_eq!(full.ways(), 11);
        assert_eq!(full.sets(), spec.llc.sets());
        let cat = SetAssocCache::from_geometry(&spec.llc, 4, 1.0).unwrap();
        assert_eq!(cat.ways(), 4);
        assert!(SetAssocCache::from_geometry(&spec.llc, 0, 1.0).is_err());
        assert!(SetAssocCache::from_geometry(&spec.llc, 12, 1.0).is_err());
        assert!(SetAssocCache::from_geometry(&spec.llc, 4, 0.0).is_err());
    }

    #[test]
    fn fewer_ways_means_more_misses() {
        let spec = PlatformSpec::skylake18();
        let mut misses = Vec::new();
        for ways in [2u32, 6, 11] {
            let mut c = SetAssocCache::from_geometry(&spec.llc, ways, 0.02).unwrap();
            // Zipf-ish cyclic pattern bigger than the smallest config.
            for rep in 0..3 {
                for i in 0..40_000u64 {
                    c.access(i % (10_000 + rep * 7));
                }
            }
            misses.push(c.miss_ratio());
        }
        assert!(
            misses[0] > misses[1],
            "2 ways {} vs 6 ways {}",
            misses[0],
            misses[1]
        );
        assert!(
            misses[1] > misses[2],
            "6 ways {} vs 11 ways {}",
            misses[1],
            misses[2]
        );
    }

    #[test]
    fn cdp_partition_validation() {
        assert!(CdpPartition::new(6, 5, 11).is_ok());
        assert!(CdpPartition::new(0, 11, 11).is_err());
        assert!(CdpPartition::new(6, 6, 11).is_err());
        let sweep = CdpPartition::sweep(11);
        assert_eq!(sweep.len(), 10);
        assert_eq!(
            sweep[0],
            CdpPartition {
                data_ways: 1,
                code_ways: 10
            }
        );
        assert_eq!(
            sweep[9],
            CdpPartition {
                data_ways: 10,
                code_ways: 1
            }
        );
        assert_eq!(sweep[5].to_string(), "{6, 5}");
    }

    #[test]
    fn partitioned_llc_isolates_streams() {
        let spec = PlatformSpec::skylake18();
        let p = CdpPartition::new(6, 5, 11).unwrap();
        let mut llc = SharedLlc::build(&spec.llc, 11, p, 0.01).unwrap();
        // Fill the code side well below its partition capacity (~1.8k lines
        // at this scale); the data stream must not evict it.
        for i in 0..800u64 {
            llc.access_code(i);
        }
        for i in 0..1_000_000u64 {
            llc.access_data(i);
        }
        llc.reset_stats();
        let mut hits = 0;
        for i in 0..800u64 {
            if llc.access_code(i) {
                hits += 1;
            }
        }
        // A handful of self-conflict misses from hash-overfilled sets are
        // expected; wholesale eviction by the million data lines is not.
        assert!(
            hits >= 700,
            "data stream must not evict partitioned code: {hits}/800 hits"
        );
    }

    #[test]
    fn flush_fraction_pollutes() {
        let mut c = SetAssocCache::new(64, 8).unwrap();
        for i in 0..512u64 {
            c.access(i);
        }
        c.flush_fraction(0.5);
        c.reset_stats();
        for i in 0..512u64 {
            c.access(i);
        }
        assert!(
            c.miss_ratio() > 0.3 && c.miss_ratio() < 0.9,
            "flush(0.5) should cause substantial re-misses: {}",
            c.miss_ratio()
        );
    }

    #[test]
    fn cdp_must_match_enabled_ways() {
        let spec = PlatformSpec::skylake18();
        let p = CdpPartition::new(6, 5, 11).unwrap();
        // Enabled ways (8) != partition total (11).
        assert!(SharedLlc::build(&spec.llc, 8, p, 1.0).is_err());
    }
}
