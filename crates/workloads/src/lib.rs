//! Workload models for the SoftSKU reproduction.
//!
//! The paper characterizes seven production microservices (Web, Feed1,
//! Feed2, Ads1, Ads2, Cache1, Cache2) and contrasts them with SPEC CPU2006.
//! This crate turns that characterization into simulator inputs:
//!
//! * [`calib`] — the target tables transcribed from the paper's figures.
//! * [`profile`] — inversion of targets into reuse-distance distributions
//!   and stream specifications.
//! * [`microservices`] — the seven services with their textures,
//!   constraints, and stock/production server configurations.
//! * [`spec2006`] / [`comparisons`] — SPEC CPU2006, CloudSuite, and Google
//!   comparison reference data (the paper's contrast classes).
//! * [`request`] — request-latency breakdowns, Erlang-C queueing, and QoS.
//! * [`queuesim`] — event-driven FCFS queue simulation for tail latency.
//! * [`loadgen`] — diurnal load, AR(1) noise, and code-push processes.
//!
//! # Example
//!
//! ```
//! use softsku_workloads::{Microservice, PlatformKind};
//!
//! let web = Microservice::Web.profile(PlatformKind::Skylake18).unwrap();
//! assert_eq!(web.stream.name, "web");
//! assert!(web.production_config.shp_pages == 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod comparisons;
pub mod error;
pub mod loadgen;
pub mod microservices;
pub mod profile;
pub mod queuesim;
pub mod request;
pub mod spec2006;

pub use error::WorkloadError;
pub use loadgen::{CodeEvolution, CodePush, LoadGenerator};
pub use microservices::{Microservice, WorkloadProfile};
pub use queuesim::{simulate_queue, ServiceDist, ServiceSampler, TailLatency};
pub use request::{RequestBreakdown, RequestProfile};
// Re-export the platform enum callers need to pick a deployment target.
pub use softsku_archsim::platform::PlatformKind;
