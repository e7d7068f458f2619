//! The timed benchmark suites behind the `bench` binary.
//!
//! ```text
//! cargo run --release -p softsku-bench --bin bench -- <suite> [--smoke] [--json PATH]
//! ```
//!
//! Each suite measures the simulator's own speed on one layer and returns
//! its measurements as a [`Json`] payload; the binary wraps the payload in
//! one envelope (`bench`, `smoke`, `hardware_threads`, `base_seed`) for
//! BENCH_*.json trajectory tracking. Every wall time is read through
//! [`softsku_telemetry::Stopwatch`]; simulated results never depend on it,
//! and the suites assert their determinism contracts at runtime.

use softsku_rollout::PipelineConfig;
use softsku_telemetry::Json;

pub mod chaos;
pub mod engine;
pub mod mesh;
pub mod obs;
pub mod rollout;
pub mod slo;
pub mod sweep;

/// The seed every suite derives its simulations from.
pub const BASE_SEED: u64 = 21;

/// The suites' error type: any layer's typed error, boxed.
pub type BoxError = Box<dyn std::error::Error>;

/// One benchmark suite, selected by name on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Serial vs parallel tuning schedulers ([`sweep`]).
    Sweep,
    /// The rollout lifecycle and staged-fleet throughput ([`rollout`]).
    Rollout,
    /// Tracing overhead and retention throughput ([`obs`]).
    Obs,
    /// Batched engine throughput, the report memo, and component loops
    /// ([`engine`]).
    Engine,
    /// The fleet coordinator under a chaos campaign ([`chaos`]).
    Chaos,
    /// The request-graph simulator and joint tuner ([`mesh`]).
    Mesh,
    /// Sketch appends, burn-rate evaluation, and the guardrail tax
    /// ([`slo`]).
    Slo,
}

impl Suite {
    /// Every suite, in command-line listing order.
    pub const ALL: [Suite; 7] = [
        Suite::Sweep,
        Suite::Rollout,
        Suite::Obs,
        Suite::Engine,
        Suite::Chaos,
        Suite::Mesh,
        Suite::Slo,
    ];

    /// The suite's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Sweep => "sweep",
            Suite::Rollout => "rollout",
            Suite::Obs => "obs",
            Suite::Engine => "engine",
            Suite::Chaos => "chaos",
            Suite::Mesh => "mesh",
            Suite::Slo => "slo",
        }
    }

    /// Runs the suite (CI-sized when `smoke`) with `hw` hardware threads
    /// available, returning its measurement payload.
    ///
    /// # Errors
    ///
    /// Returns the first simulation or configuration error a suite hits.
    pub fn run(self, smoke: bool, hw: usize) -> Result<Json, BoxError> {
        match self {
            Suite::Sweep => sweep::run(smoke, hw),
            Suite::Rollout => rollout::run(smoke, hw),
            Suite::Obs => obs::run(smoke, hw),
            Suite::Engine => engine::run(smoke, hw),
            Suite::Chaos => chaos::run(smoke, hw),
            Suite::Mesh => mesh::run(smoke, hw),
            Suite::Slo => slo::run(smoke, hw),
        }
    }
}

/// The rollout lifecycle under drift-inducing code churn: pushes land often
/// enough that the drift monitor fires and the pipeline re-tunes.
pub fn drifting_config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::fast_test(seed);
    config.staged.pushes_per_hour = 2.0;
    config.staged.push_magnitude = 0.005;
    config.staged.drift_per_push = 0.0005;
    config
}
