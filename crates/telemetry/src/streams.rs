//! The RNG seed-stream registry — the single source of truth for how every
//! derived random stream in the workspace is seeded.
//!
//! # Why this exists
//!
//! Every result this repository produces rests on one invariant: a
//! simulation is a pure function of `(config, seed)`, bit-identical across
//! runs and worker counts. That invariant dies quietly when two supposedly
//! independent noise streams are seeded with the same derived value — the
//! streams draw identical sequences and couple, and no test that looks at
//! either stream alone will notice. Exactly that happened once: the
//! validation fleet's code-push stream and the engine's sampling stream
//! both derived `seed ^ 0xBEEF` from the same base seed.
//!
//! The registry closes the hole from three directions:
//!
//! 1. **Statically** — every stream family's XOR mask lives in one table
//!    ([`StreamFamily::mask`]); the `detlint` static pass rejects any raw
//!    `seed ^ 0x…` derivation outside this module, and the mask table is
//!    unit- and property-tested to be collision-free.
//! 2. **At runtime (debug builds)** — a [`StreamRegistry`] records every
//!    `(base_seed, family)` stream actually derived within one construction
//!    scope and panics on a collision or a double-derivation.
//! 3. **For identity-derived seeds** — the parallel scheduler derives
//!    replica seeds from test *identity* (service/knob/setting names);
//!    [`IdentitySeed`] centralizes that FNV-1a derivation so its separator
//!    discipline and width are fixed in one place.
//!
//! Masks preserve the historical constants byte-for-byte (except the fixed
//! `0xBEEF` collision noted above), so centralizing the registry changed no
//! simulated result.

#[cfg(debug_assertions)]
use std::collections::BTreeMap;
use std::fmt;

/// Every registered RNG stream family in the workspace, one variant per
/// independent derived stream.
///
/// The naming convention is `<Owner><Stream>`: `Env*` families belong to
/// the A/B environment, `Hazard*` to the hazard schedule (derived from the
/// environment's `EnvHazards` stream, so they compose), `Fleet*` to the
/// validation fleet, `Trace*`/`Engine*`/`Rank*` to the architecture
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamFamily {
    /// MIPS measurement noise, A/B arm A (`cluster::env`).
    EnvSamplerA,
    /// MIPS measurement noise, A/B arm B (`cluster::env`).
    EnvSamplerB,
    /// Common diurnal load AR(1) noise (`cluster::env`).
    EnvCommonLoad,
    /// Poisson code-push process (`cluster::env`).
    EnvCodePush,
    /// Per-arm load-imbalance gaussians (`cluster::env`).
    EnvArmNoise,
    /// Base stream handed to the hazard schedule (`cluster::env`); the
    /// `Hazard*` families derive from its value.
    EnvHazards,
    /// Machine-crash arrivals (`cluster::hazards`).
    HazardCrash,
    /// Telemetry dropout/corruption fates (`cluster::hazards`).
    HazardTelemetry,
    /// Load-spike arrivals (`cluster::hazards`).
    HazardSpike,
    /// Knob-tooling transient failures (`cluster::hazards`).
    HazardKnob,
    /// Validation-fleet diurnal load noise (`cluster::fleet`).
    FleetLoad,
    /// Validation-fleet code-push process (`cluster::fleet`). Historically
    /// `0xBEEF`, which collided with [`StreamFamily::EngineSampling`] on
    /// the same base seed and silently coupled the two streams.
    FleetCodePush,
    /// The colocation pair's second engine (`cluster::colocation`); the
    /// first engine uses the base seed itself.
    ColocationPairB,
    /// Queueing-model service-time draws of the retired server tail-latency
    /// model. No longer derived; the mask stays reserved.
    ServerQueue,
    /// Long-horizon validation fleet seed (`usku::usku`).
    UskuValidation,
    /// Engine sampling jitter — pollution placement and window sampling
    /// (`archsim::engine`).
    EngineSampling,
    /// Code cache-line reuse stack (`archsim::trace`). No longer derived
    /// (the stacks are deterministic); the six `Trace*` masks stay reserved.
    TraceCodeLines,
    /// Data cache-line reuse stack (`archsim::trace`).
    TraceDataLines,
    /// Code 4 KiB page reuse stack (`archsim::trace`).
    TraceCodePages4k,
    /// Data 4 KiB page reuse stack (`archsim::trace`).
    TraceDataPages4k,
    /// Code 2 MiB page reuse stack (`archsim::trace`).
    TraceCodePages2m,
    /// Data 2 MiB page reuse stack (`archsim::trace`).
    TraceDataPages2m,
    /// Treap priority stream of the rank-list LRU stacks
    /// (`archsim::ranklist`).
    RankPriorities,
    /// Staged-rollout fleet diurnal load noise (`cluster::fleet`).
    RolloutStagedLoad,
    /// Staged-rollout per-group replica-sampling noise (`cluster::fleet`).
    RolloutGroupNoise,
    /// Base seed of a drift-triggered scoped re-tune (`rollout::drift`).
    RolloutRetune,
    /// Keep/drop draws of the retired leaf-span sampler of the trace layer.
    /// No longer derived; the mask stays reserved.
    ObsSpanSampling,
    /// Pool-wide load-brownout arrivals of the rollout-layer chaos
    /// campaign (`cluster::domains`).
    ChaosBrownout,
    /// Correlated code-push waves eroding several services' tuned gains at
    /// once (`cluster::domains`).
    ChaosPushWave,
    /// Canary-replica crash arrivals (`cluster::domains`).
    ChaosCanaryCrash,
    /// Stuck/stalled stage-transition windows (`cluster::domains`).
    ChaosStall,
    /// Poisson request arrivals at a service graph's root tier
    /// (`mesh::sim`).
    MeshArrivals,
    /// Per-hop network round-trip draws between graph tiers (`mesh::sim`).
    MeshRtt,
    /// Per-tier service-time draws of the request-graph queueing model
    /// (`mesh::sim`); per-tier sub-streams derive from this value through
    /// [`IdentitySeed`] over the tier name.
    MeshService,
    /// Cache hit/miss fates that short-circuit a cache tier's backing call
    /// (`mesh::sim`).
    MeshCacheHit,
    /// Service-time jitter on co-located tiers sharing a socket
    /// (`mesh::sim`); scaled by the pair's measured interference.
    MeshInterference,
    /// Per-tick latency-sampling noise of the staged-rollout fleet
    /// (`cluster::fleet`); independent of the qps noise streams so the
    /// latency channel leaves historical qps draws bit-identical.
    FleetLatency,
    /// Seeded tail-regression fates of an injected p99 regression
    /// (`mesh::sim`): which requests land in the slowed tail.
    MeshRegression,
}

impl StreamFamily {
    /// Every registered family, in declaration order. The uniqueness tests
    /// and the injectivity proptest iterate this.
    pub const ALL: [StreamFamily; 38] = [
        StreamFamily::EnvSamplerA,
        StreamFamily::EnvSamplerB,
        StreamFamily::EnvCommonLoad,
        StreamFamily::EnvCodePush,
        StreamFamily::EnvArmNoise,
        StreamFamily::EnvHazards,
        StreamFamily::HazardCrash,
        StreamFamily::HazardTelemetry,
        StreamFamily::HazardSpike,
        StreamFamily::HazardKnob,
        StreamFamily::FleetLoad,
        StreamFamily::FleetCodePush,
        StreamFamily::ColocationPairB,
        StreamFamily::ServerQueue,
        StreamFamily::UskuValidation,
        StreamFamily::EngineSampling,
        StreamFamily::TraceCodeLines,
        StreamFamily::TraceDataLines,
        StreamFamily::TraceCodePages4k,
        StreamFamily::TraceDataPages4k,
        StreamFamily::TraceCodePages2m,
        StreamFamily::TraceDataPages2m,
        StreamFamily::RankPriorities,
        StreamFamily::RolloutStagedLoad,
        StreamFamily::RolloutGroupNoise,
        StreamFamily::RolloutRetune,
        StreamFamily::ObsSpanSampling,
        StreamFamily::ChaosBrownout,
        StreamFamily::ChaosPushWave,
        StreamFamily::ChaosCanaryCrash,
        StreamFamily::ChaosStall,
        StreamFamily::MeshArrivals,
        StreamFamily::MeshRtt,
        StreamFamily::MeshService,
        StreamFamily::MeshCacheHit,
        StreamFamily::MeshInterference,
        StreamFamily::FleetLatency,
        StreamFamily::MeshRegression,
    ];

    /// The family's XOR mask. Masks are pairwise distinct (tested below and
    /// property-tested in `tests/properties.rs`), which makes
    /// [`stream_seed`] injective over families for any fixed base seed.
    ///
    /// Values are the historical constants from the call sites they
    /// replaced — changing one changes every simulated result downstream of
    /// that stream, so treat this table as append-only.
    pub const fn mask(self) -> u64 {
        match self {
            StreamFamily::EnvSamplerA => 0xE301,
            StreamFamily::EnvSamplerB => 0xE302,
            StreamFamily::EnvCommonLoad => 0x10AD,
            StreamFamily::EnvCodePush => 0xC0DE,
            StreamFamily::EnvArmNoise => 0xE940,
            StreamFamily::EnvHazards => 0x4A2D,
            StreamFamily::HazardCrash => 0xC8A5_0001,
            StreamFamily::HazardTelemetry => 0x7E1E_0002,
            StreamFamily::HazardSpike => 0x5B1C_0003,
            StreamFamily::HazardKnob => 0x6B0B_0004,
            StreamFamily::FleetLoad => 0x0D5,
            // Not the historical 0xBEEF: that value collided with
            // EngineSampling under a shared base seed (see module docs).
            StreamFamily::FleetCodePush => 0x9A7C_0005,
            StreamFamily::ColocationPairB => 0xC0,
            StreamFamily::ServerQueue => 0x7A11,
            StreamFamily::UskuValidation => 0xF1EE7,
            StreamFamily::EngineSampling => 0xBEEF,
            StreamFamily::TraceCodeLines => 0x1,
            StreamFamily::TraceDataLines => 0x2,
            StreamFamily::TraceCodePages4k => 0x3,
            StreamFamily::TraceDataPages4k => 0x4,
            StreamFamily::TraceCodePages2m => 0x5,
            StreamFamily::TraceDataPages2m => 0x6,
            StreamFamily::RankPriorities => 0x9E37_79B9_7F4A_7C15,
            StreamFamily::RolloutStagedLoad => 0x57A6_0006,
            StreamFamily::RolloutGroupNoise => 0x6E01_0007,
            StreamFamily::RolloutRetune => 0x2E7A_0008,
            StreamFamily::ObsSpanSampling => 0x5BA9_0009,
            StreamFamily::ChaosBrownout => 0xB207_000A,
            StreamFamily::ChaosPushWave => 0x3A4E_000B,
            StreamFamily::ChaosCanaryCrash => 0xCC45_000C,
            StreamFamily::ChaosStall => 0x57AB_000D,
            StreamFamily::MeshArrivals => 0x4E2A_000E,
            StreamFamily::MeshRtt => 0x77F1_000F,
            StreamFamily::MeshService => 0x8C3D_0010,
            StreamFamily::MeshCacheHit => 0x1B96_0011,
            StreamFamily::MeshInterference => 0xA5C2_0012,
            StreamFamily::FleetLatency => 0x4F1A_0013,
            StreamFamily::MeshRegression => 0xD98B_0014,
        }
    }

    /// Stable display name (used in registry panic messages and audits).
    pub const fn name(self) -> &'static str {
        match self {
            StreamFamily::EnvSamplerA => "env.sampler_a",
            StreamFamily::EnvSamplerB => "env.sampler_b",
            StreamFamily::EnvCommonLoad => "env.common_load",
            StreamFamily::EnvCodePush => "env.code_push",
            StreamFamily::EnvArmNoise => "env.arm_noise",
            StreamFamily::EnvHazards => "env.hazards",
            StreamFamily::HazardCrash => "hazard.crash",
            StreamFamily::HazardTelemetry => "hazard.telemetry",
            StreamFamily::HazardSpike => "hazard.spike",
            StreamFamily::HazardKnob => "hazard.knob",
            StreamFamily::FleetLoad => "fleet.load",
            StreamFamily::FleetCodePush => "fleet.code_push",
            StreamFamily::ColocationPairB => "colocation.pair_b",
            StreamFamily::ServerQueue => "server.queue",
            StreamFamily::UskuValidation => "usku.validation",
            StreamFamily::EngineSampling => "engine.sampling",
            StreamFamily::TraceCodeLines => "trace.code_lines",
            StreamFamily::TraceDataLines => "trace.data_lines",
            StreamFamily::TraceCodePages4k => "trace.code_pages_4k",
            StreamFamily::TraceDataPages4k => "trace.data_pages_4k",
            StreamFamily::TraceCodePages2m => "trace.code_pages_2m",
            StreamFamily::TraceDataPages2m => "trace.data_pages_2m",
            StreamFamily::RankPriorities => "rank.priorities",
            StreamFamily::RolloutStagedLoad => "rollout.staged_load",
            StreamFamily::RolloutGroupNoise => "rollout.group_noise",
            StreamFamily::RolloutRetune => "rollout.retune",
            StreamFamily::ObsSpanSampling => "obs.span_sampling",
            StreamFamily::ChaosBrownout => "chaos.brownout",
            StreamFamily::ChaosPushWave => "chaos.push_wave",
            StreamFamily::ChaosCanaryCrash => "chaos.canary_crash",
            StreamFamily::ChaosStall => "chaos.stall",
            StreamFamily::MeshArrivals => "mesh.arrivals",
            StreamFamily::MeshRtt => "mesh.rtt",
            StreamFamily::MeshService => "mesh.service",
            StreamFamily::MeshCacheHit => "mesh.cache_hit",
            StreamFamily::MeshInterference => "mesh.interference",
            StreamFamily::FleetLatency => "fleet.latency",
            StreamFamily::MeshRegression => "mesh.regression",
        }
    }
}

impl fmt::Display for StreamFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Derives the seed of one stream family from a base seed.
///
/// Pure and injective over [`StreamFamily`] for any fixed base (masks are
/// pairwise distinct, and XOR by a constant is a bijection). Call sites
/// that derive several families from one base should prefer
/// [`StreamRegistry::derive`], which additionally checks the derivation
/// discipline in debug builds.
pub fn stream_seed(base: u64, family: StreamFamily) -> u64 {
    base ^ family.mask()
}

/// Debug-mode ledger of every stream derived from one base seed within one
/// construction scope (an environment, a hazard schedule, a trace
/// generator).
///
/// In debug builds, [`StreamRegistry::derive`] panics when a family is
/// derived twice from the same base (a copy-paste hazard that would alias
/// two streams) or when two families map to the same derived seed (a mask
/// collision — the `0xBEEF` bug class). In release builds it compiles down
/// to the bare XOR.
///
/// # Example
///
/// ```
/// use softsku_telemetry::streams::{StreamFamily, StreamRegistry};
///
/// let mut streams = StreamRegistry::new(42);
/// let crash = streams.derive(StreamFamily::HazardCrash);
/// let spike = streams.derive(StreamFamily::HazardSpike);
/// assert_ne!(crash, spike);
/// ```
#[derive(Debug)]
pub struct StreamRegistry {
    base: u64,
    #[cfg(debug_assertions)]
    derived: BTreeMap<u64, StreamFamily>,
}

impl StreamRegistry {
    /// Opens a derivation scope over `base`.
    pub fn new(base: u64) -> Self {
        StreamRegistry {
            base,
            #[cfg(debug_assertions)]
            derived: BTreeMap::new(),
        }
    }

    /// The base seed this scope derives from.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Derives `family`'s stream seed, recording the derivation (debug
    /// builds only).
    ///
    /// # Panics
    ///
    /// In debug builds, when `family` was already derived in this scope or
    /// when the derived seed collides with a previously derived family.
    pub fn derive(&mut self, family: StreamFamily) -> u64 {
        let seed = stream_seed(self.base, family);
        #[cfg(debug_assertions)]
        self.record(family, seed);
        seed
    }

    /// Records one derivation and enforces the scope discipline. Split out
    /// so the panic paths are directly testable with forged seeds.
    #[cfg(debug_assertions)]
    fn record(&mut self, family: StreamFamily, seed: u64) {
        match self.derived.insert(seed, family) {
            Some(prev) if prev == family => panic!(
                "stream family {family} derived twice from base {base:#x} — \
                 two consumers would draw the identical sequence",
                base = self.base,
            ),
            Some(prev) => panic!(
                "stream seed collision: families {prev} and {family} both \
                 derive {seed:#x} from base {base:#x}",
                base = self.base,
            ),
            None => {}
        }
    }
}

/// FNV-1a identity-seed builder: derives a replica seed from a base seed
/// plus a sequence of identity fields (service, knob, setting, …).
///
/// This is the scheduler's derivation, centralized: the hash constants and
/// the `0xFF` field separator (which keeps `"ab"+"c"` distinct from
/// `"a"+"bc"`) are fixed here so every identity-derived seed in the
/// workspace uses the same discipline.
///
/// # Example
///
/// ```
/// use softsku_telemetry::streams::IdentitySeed;
///
/// let a = IdentitySeed::new(7).field("Web").field("thp=always").finish();
/// let b = IdentitySeed::new(7).field("Web").field("thp=always").finish();
/// assert_eq!(a, b);
/// assert_ne!(a, IdentitySeed::new(7).field("We").field("bthp=always").finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IdentitySeed(u64);

impl IdentitySeed {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Starts a derivation from `base`.
    pub fn new(base: u64) -> Self {
        let mut s = IdentitySeed(Self::FNV_OFFSET);
        s.write(&base.to_le_bytes());
        s
    }

    /// Folds one identity field (with separator) into the seed.
    #[must_use]
    pub fn field(mut self, s: &str) -> Self {
        self.write(s.as_bytes());
        self.write(&[0xFF]);
        self
    }

    /// The derived 64-bit seed.
    pub fn finish(self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn masks_are_pairwise_distinct() {
        let masks: BTreeSet<u64> = StreamFamily::ALL.iter().map(|f| f.mask()).collect();
        assert_eq!(
            masks.len(),
            StreamFamily::ALL.len(),
            "duplicate stream-family constants"
        );
    }

    #[test]
    fn names_are_pairwise_distinct() {
        let names: BTreeSet<&str> = StreamFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), StreamFamily::ALL.len());
    }

    #[test]
    fn stream_seed_applies_the_mask() {
        assert_eq!(
            stream_seed(0, StreamFamily::EngineSampling),
            StreamFamily::EngineSampling.mask()
        );
        let base = 0xDEAD_BEEF_0123_4567;
        for &f in &StreamFamily::ALL {
            assert_eq!(stream_seed(base, f) ^ base, f.mask());
        }
    }

    #[test]
    fn fleet_code_push_no_longer_aliases_engine_sampling() {
        // The historical bug: both streams derived base ^ 0xBEEF.
        for base in [0u64, 1, 42, u64::MAX] {
            assert_ne!(
                stream_seed(base, StreamFamily::FleetCodePush),
                stream_seed(base, StreamFamily::EngineSampling),
            );
        }
    }

    #[test]
    fn registry_derives_every_family_once() {
        let mut r = StreamRegistry::new(7);
        let seeds: BTreeSet<u64> = StreamFamily::ALL.iter().map(|&f| r.derive(f)).collect();
        assert_eq!(seeds.len(), StreamFamily::ALL.len());
        assert_eq!(r.base(), 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "derived twice")]
    fn registry_panics_on_double_derivation() {
        let mut r = StreamRegistry::new(3);
        let _ = r.derive(StreamFamily::HazardCrash);
        let _ = r.derive(StreamFamily::HazardCrash);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stream seed collision")]
    fn registry_panics_on_seed_collision() {
        // Masks are collision-free by construction, so forge a collision
        // through the recording path directly.
        let mut r = StreamRegistry::new(3);
        r.record(StreamFamily::EnvSamplerA, 0x1234);
        r.record(StreamFamily::EnvSamplerB, 0x1234);
    }

    #[test]
    fn identity_seed_matches_reference_fnv() {
        // Reference implementation: FNV-1a over base LE bytes, then each
        // field's bytes followed by a 0xFF separator.
        fn reference(base: u64, fields: &[&str]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let write = |bytes: &[u8], h: &mut u64| {
                for &b in bytes {
                    *h ^= u64::from(b);
                    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            };
            write(&base.to_le_bytes(), &mut h);
            for f in fields {
                write(f.as_bytes(), &mut h);
                write(&[0xFF], &mut h);
            }
            h
        }
        let derived = IdentitySeed::new(9)
            .field("Web")
            .field("thp")
            .field("thp=always")
            .finish();
        assert_eq!(derived, reference(9, &["Web", "thp", "thp=always"]));
    }

    #[test]
    fn identity_seed_separator_discipline() {
        assert_ne!(
            IdentitySeed::new(7).field("ab").field("c").finish(),
            IdentitySeed::new(7).field("a").field("bc").finish()
        );
        assert_ne!(
            IdentitySeed::new(7).field("x").finish(),
            IdentitySeed::new(8).field("x").finish()
        );
    }
}
