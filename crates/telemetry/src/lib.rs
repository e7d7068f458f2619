//! Telemetry substrate for the SoftSKU reproduction.
//!
//! The paper measures production microservices with two internal tools:
//!
//! * **EMON** — Intel's performance-monitoring tool that time-multiplexes a
//!   large set of hardware events over a limited number of physical counter
//!   slots ([`emon`] reproduces the sampling/multiplexing behaviour, noise
//!   included).
//! * **ODS** — Facebook's Operational Data Store, a fleet-wide time-series
//!   system used for long-horizon QPS validation ([`ods`] reproduces the
//!   append/query/downsample surface the experiments need, as one store
//!   with optional raw → downsampled retention tiers).
//!
//! µSKU's A/B tester decides significance with 95 % confidence intervals over
//! tens of thousands of counter samples; the [`stats`] module provides the
//! underlying machinery (Welford summaries, Student-t quantiles, Welch's
//! unequal-variance t-test, bootstrap intervals, and autocorrelation-aware
//! effective sample sizes).
//!
//! The [`streams`] module is the workspace's seed-stream registry: every
//! derived RNG stream family, its XOR mask, and the debug-mode
//! [`StreamRegistry`] that enforces the determinism contract at runtime
//! (the `detlint` static pass enforces it at the source level). The
//! [`keys`] module is its ledger twin: the closed registry of every ODS
//! series metric and trace-track name ([`LedgerKey`]), so emitters and
//! readers cannot drift apart on a spelling — detlint's `ledger_key` pass
//! resolves every key literal in the workspace against it.
//!
//! The observability layer lives here too: [`trace`] records deterministic
//! sim-time spans and counters (exported as Chrome trace-event JSON through
//! the dep-free [`json`] emitter), and an [`Ods`] with retention tiers
//! bounds ledger memory. On top of both sits the [`slo`] engine:
//! Google-SRE-style multi-window burn-rate alerting over
//! [`Ods`]-backed series, with tail exemplars linking every alert to
//! the slowest requests' trace spans, backed by the deterministic
//! mergeable quantile sketch in [`stats`].
//!
//! The simulator's own wall time is measured by [`Stopwatch`] ([`clock`]),
//! the one place in the workspace that reads the wall clock.
//!
//! # Example
//!
//! ```
//! use softsku_telemetry::stats::{welch_test, Summary};
//!
//! let a: Vec<f64> = (0..200).map(|i| 100.0 + (i % 7) as f64).collect();
//! let b: Vec<f64> = (0..200).map(|i| 104.0 + (i % 7) as f64).collect();
//! let sa = Summary::from_samples(&a).unwrap();
//! let sb = Summary::from_samples(&b).unwrap();
//! let t = welch_test(&sa, &sb);
//! assert!(t.p_value < 0.05, "a clear 4% shift must be significant");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod emon;
pub mod error;
pub mod json;
pub mod keys;
pub mod ods;
pub mod slo;
pub mod stats;
pub mod streams;
pub mod trace;

pub use clock::Stopwatch;
pub use emon::{EventSet, MultiplexedSampler, SamplerConfig};
pub use error::TelemetryError;
pub use json::Json;
pub use keys::{KeyKind, LedgerDomain, LedgerKey};
pub use ods::{Ods, SeriesKey, TierPoint, TierSpec};
pub use slo::{Exemplar, SloEvaluator, SloSpec, SloStatus};
pub use stats::{nearest_rank, welch_test, QuantileSketch, RunningStats, Summary, WelchResult};
pub use streams::{stream_seed, IdentitySeed, StreamFamily, StreamRegistry};
pub use trace::{AttrValue, SpanHandle, TraceCounter, TraceSink, TraceSpan};

/// Former name of [`Ods`], kept only because the `perfbench/` harness
/// imports it; workspace code uses [`Ods`].
pub type TieredOds = Ods;
