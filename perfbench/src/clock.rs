//! The benchmark's only wall-clock reader, and the span recorder built on it.
//!
//! Every host-time figure the benchmark reports comes from [`Clock`], so the
//! single `detlint::allow(wall_clock)` below is the whole audit surface. No
//! value read here flows into a simulated result: spans time calls into the
//! library from outside, and the library never sees them.

use softsku_telemetry::Json;
use std::time::Instant;

/// Host time since the process's clock origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts the process clock; call first thing in `main`.
    pub fn start() -> Self {
        Clock { origin: now() }
    }

    /// Seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        now().duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` and returns its result with its host seconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.secs();
        let out = f();
        (out, self.secs() - t0)
    }
}

fn now() -> Instant {
    // detlint::allow(wall_clock): the benchmark measures the simulator's own
    // host time; readings go to the report and the span file, never into a
    // simulated result.
    Instant::now()
}

/// One timed call: name, host start/end seconds, parent span and run id.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `layer.usku.tune`.
    pub name: &'static str,
    /// Host seconds since process start.
    pub start_s: f64,
    /// Host seconds since process start.
    pub end_s: f64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// Which pass of the traced process recorded it (see `run.py`).
    pub run: u32,
}

impl Span {
    /// Host seconds the span covers.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder, written out once at exit.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Spans {
    /// An empty recorder on `clock`.
    pub fn new(clock: Clock) -> Self {
        Spans {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.clock.secs(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.clock.secs();
        out
    }

    /// Total seconds of closed spans named `name` in run `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s())
    }

    /// Seconds covered by top-level spans of run `run`, and the interval
    /// from the first start to the last end.
    pub fn coverage(&self, run: u32) -> (f64, f64) {
        let top: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.run == run && s.parent.is_none())
            .collect();
        let covered = top.iter().fold(0.0, |acc, s| acc + s.dur_s());
        let first = top.iter().map(|s| s.start_s).fold(f64::INFINITY, f64::min);
        let last = top
            .iter()
            .map(|s| s.end_s)
            .fold(f64::NEG_INFINITY, f64::max);
        (covered, last - first)
    }

    /// The spans as a JSON array, in open order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("name", Json::Str(s.name.to_string()))
                        .set("start_s", Json::Num(s.start_s))
                        .set("end_s", Json::Num(s.end_s))
                        .set(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        )
                        .set("run", Json::Int(i64::from(s.run)))
                })
                .collect(),
        )
    }
}
