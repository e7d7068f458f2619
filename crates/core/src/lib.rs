//! µSKU: an automated design tool for microservice-specific *soft* server
//! SKUs — the primary contribution of "SoftSKU: Optimizing Server
//! Architectures for Microservice Diversity @Scale" (ISCA 2019).
//!
//! Data-center operators keep hardware SKU diversity low for fungibility and
//! procurement reasons, yet microservices have wildly diverse bottlenecks.
//! µSKU bridges the gap by tuning seven coarse-grain configuration knobs
//! (core/uncore frequency, core count, LLC code/data prioritization,
//! prefetchers, THP, SHP) per microservice via automated A/B testing on
//! production traffic, with statistical confidence tests that can detect
//! single-digit-percent effects under noise.
//!
//! Pipeline (paper Fig. 13):
//!
//! 1. [`input::InputFile`] — the three-parameter input file.
//! 2. [`usku::AbTestConfigurator`] — resolves the knob space and sweep plan.
//! 3. [`abtest::AbTester`] — warm-up discard, spaced noisy samples, Welch
//!    95 % tests, ~30 k-sample give-up, QoS and reboot gating.
//! 4. [`map::DesignSpaceMap`] — per-knob results and winners.
//! 5. [`generator::SoftSkuGenerator`] — measures `outcome.best_config`,
//!    which [`search::compose`] composed from the search's selections,
//!    vs stock and production, and validates the deployment at fleet
//!    scale via ODS-style QPS comparison. It composes nothing itself.
//!
//! Extensions from the paper's Sec. 7 are included: exhaustive and
//! hill-climbing searches ([`search`]), a QPS metric for services where
//! MIPS is invalid, and a perf-per-watt metric ([`metric`]) over the
//! server power model ([`objective`]).
//!
//! Every search shards its A/B tests across a worker pool ([`scheduler`])
//! — each test on its own forked environment replica with a seed derived
//! from the test's identity — so results are bit-identical regardless of
//! worker count, and a [`scheduler::FleetTuner`] can tune all seven
//! services concurrently.
//!
//! # Example
//!
//! ```no_run
//! use usku::{InputFile, Usku};
//!
//! let input = InputFile::parse(
//!     "microservice = web\nplatform = skylake18\nsweep = independent\n",
//! )?;
//! let report = Usku::new(input).run()?;
//! println!("{}", report.render());
//! # Ok::<(), usku::UskuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abtest;
pub mod error;
pub mod generator;
pub mod input;
pub mod map;
pub mod metric;
pub mod objective;
pub mod profile;
pub mod scheduler;
pub mod search;
pub mod usku;

pub use abtest::{AbTestConfig, AbTestResult, AbTester, InconclusiveReason, Verdict};
pub use error::UskuError;
pub use generator::{SoftSku, SoftSkuGenerator};
pub use input::{InputFile, SweepConfig};
pub use map::DesignSpaceMap;
pub use metric::PerformanceMetric;
pub use objective::PowerModel;
pub use profile::{ArmCpiStacks, CpiStack, TmamBound, ALL_BOUNDS};
pub use scheduler::{
    default_workers, derive_joint_seed, derive_seed, odometer, plan_exhaustive, plan_independent,
    run_tasks, run_trials, trace_test_span, FleetOutcome, FleetTuner, ReplicaRun, Schedule,
    ServiceTuning, Trial, TrialTarget,
};
pub use search::{
    additive_prediction, exhaustive_sweep, hill_climb, independent_sweep, SearchOutcome,
    SelectedGain, Selection,
};
pub use usku::{AbTestConfigurator, Usku, UskuConfig, UskuReport};
