//! Calibrated server-architecture simulator for the SoftSKU reproduction.
//!
//! The paper measures seven Facebook microservices on Intel Skylake and
//! Broadwell servers and then tunes seven coarse-grain hardware/OS knobs via
//! A/B testing (µSKU). This crate is the hardware those experiments need:
//!
//! * [`platform`] — the three server platforms of Table 1.
//! * [`reuse`] + [`trace`] — synthetic address/instruction streams generated
//!   from calibrated reuse-distance distributions.
//! * [`cache`] — set-associative caches with CAT way-masking and CDP
//!   code/data partitioning.
//! * [`tlb`] — multi-page-size ITLB/DTLB/STLB hierarchy.
//! * [`branch`] — direction + BTB-aliasing branch model.
//! * [`prefetch`] — the four Intel prefetchers and their bandwidth/latency
//!   trade-off.
//! * [`memory`] — the loaded-latency curve of Fig. 12.
//! * [`pagemap`] — THP modes and SHP reservations.
//! * [`engine`] — the window simulator with its bandwidth↔latency fixed
//!   point, producing [`counters::Counters`] and a [`tmam::TmamBreakdown`].
//!
//! # Example
//!
//! ```
//! use softsku_archsim::engine::{Engine, ServerConfig};
//! use softsku_archsim::platform::PlatformSpec;
//! use softsku_archsim::reuse::ReuseDistanceDist;
//! use softsku_archsim::stream::*;
//!
//! # fn main() -> Result<(), softsku_archsim::ArchSimError> {
//! let line = ReuseDistanceDist::single_knee(512, 0.10, 0.005, 1 << 20)?;
//! let page = ReuseDistanceDist::single_knee(48, 0.02, 0.002, 1 << 14)?;
//! let spec = StreamSpec {
//!     name: "demo".into(),
//!     mix: InstructionMix::new(0.20, 0.0, 0.31, 0.36, 0.13)?,
//!     code_reuse: line.clone(),
//!     data_reuse: line,
//!     code_page_reuse: page.clone(),
//!     data_page_reuse: page,
//!     branch: BranchProfile { taken_rate: 0.6, base_mispredict: 0.02, branch_working_set: 2000 },
//!     prefetch: PrefetchAffinity::modest(),
//!     pages: PageProfile {
//!         data_compaction: 32.0,
//!         code_compaction: 128.0,
//!         madvise_fraction: 0.25,
//!         uses_shp: false,
//!         shp_target_bytes: 0,
//!     },
//!     context_switch: ContextSwitchProfile::quiet(),
//!     mlp: 3.0,
//!     smt_gain: 0.25,
//!     base_cpi_scale: 1.0,
//!     writeback_factor: 0.4,
//!     burstiness: 1.0,
//!     llc_contention: 0.3,
//!     natural_code_llc_share: 0.35,
//!     extra_mem_lines_per_ki: 0.0,
//!     extra_traffic_prefetch_fraction: 0.3,
//!     frontend_exposure: 0.6,
//! };
//! let engine = Engine::new(ServerConfig::stock(PlatformSpec::skylake18()), spec, 42)?;
//! let report = engine.run_window(50_000, 1.0)?;
//! assert!(report.ipc_core > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod counters;
pub mod engine;
pub mod error;
mod fingerprint;
pub mod memory;
pub mod pagemap;
pub mod platform;
pub mod prefetch;
pub mod ranklist;
pub mod reuse;
pub mod stream;
pub mod tlb;
pub mod tmam;
pub mod trace;

pub use cache::CdpPartition;
pub use counters::Counters;
pub use engine::{Engine, ServerConfig, WindowReport};
pub use error::ArchSimError;
pub use pagemap::ThpMode;
pub use platform::{PlatformKind, PlatformSpec};
pub use prefetch::PrefetcherConfig;
pub use stream::StreamSpec;
pub use tmam::TmamBreakdown;
