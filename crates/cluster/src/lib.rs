//! Simulated production fleet for the SoftSKU reproduction.
//!
//! µSKU runs against live production servers; this crate is the stand-in:
//!
//! * [`server::SimServer`] — one server (workload × platform × knob config)
//!   exposing MIPS/QPS/latency/QoS with cached engine evaluations.
//! * [`env::AbEnvironment`] — the two-arm A/B substrate with common diurnal
//!   load, per-arm imbalance, per-arm MIPS measurement noise, reboot costs,
//!   and fleet-wide code pushes.
//! * [`fleet::ValidationFleet`] — the long-horizon ODS-backed QPS comparison
//!   the soft-SKU generator uses to confirm a deployed configuration's win.
//! * [`fleet::StagedFleet`] — one service's replica fleet partitioned into
//!   baseline and candidate groups for staged canary rollout, with a
//!   code-push drift-injection hook for the rollout crate's monitoring.
//! * [`hazards::HazardSchedule`] — seeded production-hazard injection (arm
//!   crashes, telemetry dropouts/outliers, load spikes, flaky knob tooling)
//!   that the self-healing A/B consumer must survive.
//! * [`domains`] — named failure domains (platform pools, racks) and the
//!   rollout-layer chaos campaign: pool-wide brownouts, correlated
//!   code-push waves, canary-replica crashes, and stalled stage
//!   transitions, all deterministic per `(topology, config, seed)`.
//! * [`colocation`] — the paper's Sec. 7 future-work extension: two services
//!   sharing a socket (coupled LLC + memory queue) and a µSKU-aware pairing
//!   scheduler.
//!
//! # Example
//!
//! ```no_run
//! use softsku_cluster::env::{AbEnvironment, Arm, EnvConfig};
//! use softsku_workloads::{Microservice, PlatformKind};
//!
//! # fn main() -> Result<(), softsku_cluster::ClusterError> {
//! let profile = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
//! let mut env = AbEnvironment::new(profile, EnvConfig::default(), 42)?;
//! let sample = env.sample_pair()?;
//! assert!(sample.a_mips > 0.0 && sample.b_mips > 0.0);
//! # let _ = Arm::A;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colocation;
pub mod domains;
pub mod env;
pub mod error;
pub mod fleet;
pub mod hazards;
pub mod server;

pub use colocation::{
    best_pairing, ColocatedPair, ColocationOutcome, ColocationScenario, MeasuredPair, Pairing,
};
pub use domains::{ChaosConfig, ChaosEvent, ChaosSchedule, FailureDomain, FleetTopology};
pub use env::{AbEnvironment, Arm, EnvConfig, PairSample};
pub use error::ClusterError;
pub use fleet::{
    StagedFleet, StagedFleetConfig, StagedSample, ValidationFleet, ValidationOutcome, TICK_S,
};
pub use hazards::{HazardConfig, HazardEvent, HazardSchedule};
pub use server::SimServer;
