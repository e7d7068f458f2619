//! Error type for the request-graph scenario.

use softsku_cluster::ClusterError;
use softsku_telemetry::TelemetryError;
use softsku_workloads::WorkloadError;
use std::fmt;

/// Errors from graph construction, calibration, or tuning.
#[derive(Debug)]
pub enum MeshError {
    /// The service graph is structurally invalid (cycle, bad index,
    /// out-of-range parameter); the message names the offending element.
    Graph(String),
    /// The simulation inputs are invalid (zero requests, non-positive
    /// arrival rate, SKU count not matching the tier count, …).
    Config(String),
    /// Calibration of a tier against the cluster simulator failed.
    Cluster(ClusterError),
    /// A tier's workload profile could not be built.
    Workload(WorkloadError),
    /// Telemetry recording failed (non-monotone ledger append).
    Telemetry(TelemetryError),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Graph(msg) => write!(f, "invalid service graph: {msg}"),
            MeshError::Config(msg) => write!(f, "invalid mesh configuration: {msg}"),
            MeshError::Cluster(e) => write!(f, "cluster simulation failed: {e}"),
            MeshError::Workload(e) => write!(f, "workload profile failed: {e}"),
            MeshError::Telemetry(e) => write!(f, "telemetry recording failed: {e}"),
        }
    }
}

impl std::error::Error for MeshError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeshError::Graph(_) | MeshError::Config(_) => None,
            MeshError::Cluster(e) => Some(e),
            MeshError::Workload(e) => Some(e),
            MeshError::Telemetry(e) => Some(e),
        }
    }
}

impl From<ClusterError> for MeshError {
    fn from(e: ClusterError) -> Self {
        MeshError::Cluster(e)
    }
}

impl From<WorkloadError> for MeshError {
    fn from(e: WorkloadError) -> Self {
        MeshError::Workload(e)
    }
}

impl From<TelemetryError> for MeshError {
    fn from(e: TelemetryError) -> Self {
        MeshError::Telemetry(e)
    }
}
