//! Error types for the architecture simulator.

use std::error::Error;
use std::fmt;

/// Errors produced when configuring or running the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArchSimError {
    /// A cache/TLB geometry parameter was invalid (zero ways, non-power-of-two
    /// sets, etc.).
    InvalidGeometry(String),
    /// A CDP partition did not match the LLC way count or starved one side.
    InvalidCdpPartition {
        /// Ways assigned to data.
        data_ways: u32,
        /// Ways assigned to code.
        code_ways: u32,
        /// Ways the LLC actually has.
        total_ways: u32,
    },
    /// A frequency outside the platform's supported range was requested.
    FrequencyOutOfRange {
        /// Requested frequency in GHz.
        requested_ghz: f64,
        /// Supported minimum in GHz.
        min_ghz: f64,
        /// Supported maximum in GHz.
        max_ghz: f64,
    },
    /// An active-core count outside `[1, cores]` was requested.
    CoreCountOutOfRange {
        /// Requested number of active physical cores.
        requested: u32,
        /// Cores physically present.
        available: u32,
    },
    /// A probability / fraction parameter fell outside `[0, 1]`.
    InvalidFraction {
        /// Name of the offending parameter.
        name: String,
        /// Offending value.
        value: f64,
    },
    /// A window argument was unusable: an empty window, or a non-finite
    /// load or co-runner bandwidth.
    InvalidWindowArgument {
        /// Name of the offending argument.
        name: String,
        /// Offending value.
        value: f64,
    },
    /// A reuse-distance distribution had no components or bad weights.
    InvalidDistribution(String),
    /// The engine's bandwidth/latency fixed point failed to converge.
    FixedPointDiverged {
        /// Iterations attempted.
        iterations: u32,
    },
}

impl fmt::Display for ArchSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchSimError::InvalidGeometry(why) => write!(f, "invalid geometry: {why}"),
            ArchSimError::InvalidCdpPartition {
                data_ways,
                code_ways,
                total_ways,
            } => write!(
                f,
                "invalid CDP partition {{data: {data_ways}, code: {code_ways}}} for an LLC with {total_ways} ways"
            ),
            ArchSimError::FrequencyOutOfRange {
                requested_ghz,
                min_ghz,
                max_ghz,
            } => write!(
                f,
                "frequency {requested_ghz} GHz outside supported range [{min_ghz}, {max_ghz}] GHz"
            ),
            ArchSimError::CoreCountOutOfRange { requested, available } => write!(
                f,
                "active core count {requested} outside [1, {available}]"
            ),
            ArchSimError::InvalidFraction { name, value } => {
                write!(f, "parameter {name} = {value} outside [0, 1]")
            }
            ArchSimError::InvalidWindowArgument { name, value } => {
                write!(f, "window argument {name} = {value} is empty or non-finite")
            }
            ArchSimError::InvalidDistribution(why) => {
                write!(f, "invalid reuse-distance distribution: {why}")
            }
            ArchSimError::FixedPointDiverged { iterations } => write!(
                f,
                "bandwidth/latency fixed point did not converge after {iterations} iterations"
            ),
        }
    }
}

impl Error for ArchSimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_nonempty() {
        let errs = vec![
            ArchSimError::InvalidGeometry("zero ways".into()),
            ArchSimError::InvalidCdpPartition {
                data_ways: 0,
                code_ways: 11,
                total_ways: 11,
            },
            ArchSimError::FrequencyOutOfRange {
                requested_ghz: 9.9,
                min_ghz: 1.6,
                max_ghz: 2.2,
            },
            ArchSimError::CoreCountOutOfRange {
                requested: 99,
                available: 18,
            },
            ArchSimError::InvalidFraction {
                name: "taken_rate".into(),
                value: 1.5,
            },
            ArchSimError::InvalidWindowArgument {
                name: "load_fraction".into(),
                value: f64::NAN,
            },
            ArchSimError::InvalidDistribution("empty mixture".into()),
            ArchSimError::FixedPointDiverged { iterations: 64 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_impls_std_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(ArchSimError::FixedPointDiverged { iterations: 1 });
    }
}
