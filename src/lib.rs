//! # SoftSKU — soft server SKUs for diverse microservices
//!
//! A full Rust reproduction of *"SoftSKU: Optimizing Server Architectures
//! for Microservice Diversity @Scale"* (Sriraman, Dhanotia, Wenisch —
//! ISCA 2019): the characterization of seven production microservices, the
//! simulated production substrate standing in for Facebook's fleet, and
//! **µSKU**, the automated A/B-testing tool that tunes seven coarse-grain
//! server knobs into microservice-specific "soft SKUs".
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`telemetry`] | `softsku-telemetry` | statistics, ODS-like time series, sim-time traces, SLO engine |
//! | [`archsim`] | `softsku-archsim` | platforms, caches/CAT/CDP, TLBs, prefetchers, memory, TMAM engine |
//! | [`knobs`] | `softsku-knobs` | the seven-knob design space |
//! | [`workloads`] | `softsku-workloads` | the seven microservices + SPEC CPU2006 references |
//! | [`cluster`] | `softsku-cluster` | simulated servers, A/B environment, validation fleet |
//! | [`usku`] | `usku` | the µSKU pipeline: input → configurator → A/B tester → generator |
//! | [`mesh`] | `softsku-mesh` | deterministic request-graph scenario: joint SKU tuning for end-to-end p99 |
//! | [`rollout`] | `softsku-rollout` | soft-SKU composition, staged canary rollout, drift-triggered re-tune |
//!
//! # Quickstart
//!
//! ```no_run
//! use softsku::usku::{InputFile, Usku};
//!
//! let input = InputFile::parse(
//!     "microservice = web\nplatform = skylake18\nsweep = independent\n",
//! )?;
//! let report = Usku::new(input).run()?;
//! println!("{}", report.render());
//! # Ok::<(), softsku::usku::UskuError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use softsku_archsim as archsim;
pub use softsku_cluster as cluster;
pub use softsku_knobs as knobs;
pub use softsku_mesh as mesh;
pub use softsku_rollout as rollout;
pub use softsku_telemetry as telemetry;
pub use softsku_workloads as workloads;
pub use usku;
