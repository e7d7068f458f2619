//! Error types for the telemetry crate.

use std::error::Error;
use std::fmt;

/// Errors produced by telemetry operations.
///
/// All variants are user-facing and carry enough context to diagnose the
/// offending call without a debugger.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TelemetryError {
    /// A statistic was requested over an empty sample set.
    EmptySamples,
    /// A statistic needing at least `required` samples got `got`.
    InsufficientSamples {
        /// Minimum number of samples the operation needs.
        required: usize,
        /// Number of samples actually supplied.
        got: usize,
    },
    /// A confidence level outside `(0, 1)` was requested.
    InvalidConfidence(f64),
    /// A time-series append went backwards in time.
    NonMonotonicTimestamp {
        /// Timestamp of the last stored point.
        last: f64,
        /// Offending (earlier) timestamp.
        offered: f64,
    },
    /// A time-series append offered a NaN or infinite timestamp.
    NonFiniteTimestamp(f64),
    /// A query referenced a series that does not exist.
    UnknownSeries(String),
    /// A query window was empty or inverted.
    EmptyWindow {
        /// Window start.
        start: f64,
        /// Window end.
        end: f64,
    },
    /// A sampler was configured with zero counter slots or zero dwell.
    InvalidSamplerConfig(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::EmptySamples => write!(f, "no samples provided"),
            TelemetryError::InsufficientSamples { required, got } => {
                write!(f, "need at least {required} samples, got {got}")
            }
            TelemetryError::InvalidConfidence(c) => {
                write!(f, "confidence level {c} outside (0, 1)")
            }
            TelemetryError::NonMonotonicTimestamp { last, offered } => {
                write!(f, "timestamp {offered} precedes last stored point {last}")
            }
            TelemetryError::NonFiniteTimestamp(t) => write!(f, "timestamp {t} is not finite"),
            TelemetryError::UnknownSeries(name) => write!(f, "unknown series {name:?}"),
            TelemetryError::EmptyWindow { start, end } => {
                write!(f, "empty or inverted query window [{start}, {end})")
            }
            TelemetryError::InvalidSamplerConfig(why) => {
                write!(f, "invalid sampler configuration: {why}")
            }
        }
    }
}

impl Error for TelemetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_ish() {
        let variants: Vec<TelemetryError> = vec![
            TelemetryError::EmptySamples,
            TelemetryError::InsufficientSamples {
                required: 2,
                got: 0,
            },
            TelemetryError::InvalidConfidence(0.0),
            TelemetryError::NonMonotonicTimestamp {
                last: 5.0,
                offered: 1.0,
            },
            TelemetryError::NonFiniteTimestamp(f64::NAN),
            TelemetryError::UnknownSeries("web.qps".into()),
            TelemetryError::EmptyWindow {
                start: 2.0,
                end: 1.0,
            },
            TelemetryError::InvalidSamplerConfig("zero slots".into()),
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetryError>();
    }
}
