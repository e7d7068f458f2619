//! Statistics used by µSKU's A/B decision machinery.
//!
//! The paper's A/B tester (Sec. 4) records EMON samples "with sufficient
//! spacing to ensure independence", computes 95 % confidence intervals on the
//! mean MIPS of each arm, and declares a knob setting better only when the
//! difference is statistically significant; it gives up after roughly 30 000
//! samples. This module provides the pieces:
//!
//! * [`RunningStats`] / [`Summary`] — single-pass Welford accumulation.
//! * [`t_cdf`] / [`t_quantile`] — Student-t CDF and quantiles (no table lookups).
//! * [`welch_test`] — Welch's unequal-variance two-sample t-test.
//! * [`MadFilter`] — rolling median-absolute-deviation outlier rejection,
//!   screening corrupted telemetry before it reaches the accumulators.
//! * [`standard_normal`] — the one Box–Muller normal draw every seeded
//!   noise model shares.

mod mad;
mod normal;
mod sketch;
mod student_t;
mod summary;
mod welch;

pub use mad::MadFilter;
pub use normal::standard_normal;
pub use sketch::{nearest_rank, select_nearest_rank, QuantileSketch, DEFAULT_SKETCH_K};
pub use student_t::{t_cdf, t_quantile};
pub use summary::{RunningStats, Summary};
pub use welch::{welch_test, WelchResult};
