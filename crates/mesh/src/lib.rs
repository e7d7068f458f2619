//! Deterministic microservice request-graph scenario for the SoftSKU
//! reproduction: tune soft SKUs for *end-to-end* p99, not per-tier MIPS.
//!
//! The paper tunes each microservice in isolation. This crate layers the
//! missing fleet context on top of the same calibrated engines: a
//! [`ServiceGraph`] of RPC-connected tiers (fan-out joins, serial
//! chains, cache short-circuits, colocated sockets) through which seeded
//! requests flow, producing an exact end-to-end latency distribution —
//! and a [`MeshTuner`] that contrasts the paper's per-tier-MIPS rule
//! with joint tuning for graph p99. Under colocation the two objectives
//! provably part ways: a bandwidth-hungry SKU's private MIPS win is paid
//! for by its socket-mate's retention, and the graph's tail feels it.
//!
//! Everything is deterministic: randomness flows through append-only
//! [`StreamFamily`](softsku_telemetry::streams::StreamFamily) variants
//! with per-tier/per-edge identity-derived sub-streams, assignments are
//! enumerated in canonical order, and reports are bit-identical for any
//! scheduler worker count.
//!
//! # Example
//!
//! ```no_run
//! use softsku_mesh::{colocation_mix, MeshConfig, MeshObjective, MeshTuner};
//!
//! # fn main() -> Result<(), softsku_mesh::MeshError> {
//! let graph = colocation_mix()?;
//! let tuner = MeshTuner::with_default_candidates(&graph, MeshConfig::default())?;
//! let joint = tuner.tune(MeshObjective::GraphP99, 4)?;
//! let private = tuner.tune(MeshObjective::PerTierMips, 4)?;
//! println!(
//!     "graph p99: {:.3} ms jointly vs {:.3} ms per-tier",
//!     joint.report.p99_s * 1e3,
//!     private.report.p99_s * 1e3,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canary;
pub mod error;
pub mod graph;
mod segment;
pub mod sim;
pub mod tune;

pub use canary::{MeshCanary, MeshCanaryConfig, MeshCanaryReport};
pub use error::MeshError;
pub use graph::{colocation_mix, media, social_network, Colocation, Edge, ServiceGraph, Tier};
pub use sim::{MeshConfig, MeshReport, MeshSim, RequestSample, TierStats};
pub use tune::{
    default_candidates, MeshObjective, MeshTuner, SkuCandidate, TierSelection, TunedMesh,
};
