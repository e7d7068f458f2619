//! The workspace's one wall-clock reader.
//!
//! Simulated results are a pure function of (config, seed), so wall time
//! is telemetry only: bench-suite walls, `repro`'s per-experiment progress
//! notes, and the scheduler's `tune.wall_s`. Every such reading goes
//! through [`Stopwatch`], which makes the single escape below the whole
//! wall-clock audit surface; detlint's self-test pins that count at one.

use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        // detlint::allow(wall_clock): the workspace's only wall-clock read;
        // callers report it as telemetry and never feed it into a result.
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
