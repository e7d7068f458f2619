//! Observability layer: tracing overhead and retention throughput.
//!
//! Part 1 (full mode) runs the full rollout lifecycle twice — untraced and
//! traced — and reports the tracing overhead as a percentage of lifecycle
//! wall time, after asserting both runs produced bit-identical reports (the
//! observability contract: a disabled-or-enabled sink never perturbs
//! results). Part 2 measures raw [`TraceSink`] span throughput on the mesh
//! canary's hop shape, record plus drop — the cost floor for instrumenting
//! hotter loops. Part 3 races an [`Ods`] with retention tiers against
//! [`Ods::unbounded`] on a long append stream whose horizon forces
//! continuous eviction and tier cascades — the retention tax, paid to keep
//! a fleet-lifetime ledger on bounded memory.

use super::{drifting_config, BoxError, BASE_SEED};
use softsku_knobs::Knob;
use softsku_rollout::RolloutPipeline;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{Json, Ods, SeriesKey, Stopwatch, TierSpec};
use softsku_workloads::{Microservice, PlatformKind};

/// Measured untraced/traced repetitions per mode (the reported wall is the
/// minimum over these, the standard noise floor estimator).
const LIFECYCLE_REPS: usize = 3;

/// Part 1: lifecycle tracing overhead, traced vs untraced.
///
/// An earlier version timed one cold untraced run against one warm traced
/// run and reported a negative "overhead": the untraced run paid the whole
/// process warm-up (allocator growth, page faults, engine memo population)
/// and the traced run inherited a hot process. Runs are now like-for-like:
/// one discarded warm-up run first, then alternating untraced/traced
/// repetitions with the minimum wall per mode.
fn trace_overhead() -> Result<Json, BoxError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    let knobs = [Knob::Thp, Knob::Shp];

    // Warm-up: pay all one-time process costs before either measured mode,
    // so neither side is charged for them. Timing discarded.
    let warm = RolloutPipeline::new(drifting_config(BASE_SEED)).run(service, platform, &knobs)?;

    let mut untraced_s = f64::INFINITY;
    let mut traced_s = f64::INFINITY;
    let mut sink = TraceSink::new();
    for _ in 0..LIFECYCLE_REPS {
        let clock = Stopwatch::start();
        let untraced =
            RolloutPipeline::new(drifting_config(BASE_SEED)).run(service, platform, &knobs)?;
        untraced_s = untraced_s.min(clock.elapsed_s());

        sink = TraceSink::new();
        let clock = Stopwatch::start();
        let traced = RolloutPipeline::new(drifting_config(BASE_SEED))
            .run_traced(service, platform, &knobs, &mut sink)?;
        traced_s = traced_s.min(clock.elapsed_s());

        assert_eq!(
            untraced.render(),
            traced.render(),
            "tracing must not perturb lifecycle results"
        );
        assert_eq!(
            warm.render(),
            untraced.render(),
            "repeated lifecycles must be deterministic"
        );
    }

    let overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s.max(1e-9);
    println!(
        "== lifecycle: untraced {untraced_s:.2} s, traced {traced_s:.2} s \
         ({overhead_pct:+.1} % overhead over {LIFECYCLE_REPS} interleaved reps, \
         {} spans, {} counters) ==",
        sink.spans().len(),
        sink.counters().len()
    );
    Ok(Json::obj()
        .set("untraced_wall_s", Json::Num(untraced_s))
        .set("traced_wall_s", Json::Num(traced_s))
        .set("overhead_pct", Json::Num(overhead_pct))
        .set("reps", Json::Int(LIFECYCLE_REPS as i64))
        .set("spans", Json::Int(sink.spans().len() as i64))
        .set("counters", Json::Int(sink.counters().len() as i64))
        .set(
            "export_bytes",
            Json::Int(sink.chrome_trace().render().len() as i64),
        ))
}

/// Part 2: raw span-recording throughput, on the mesh canary's hop shape
/// (one leaf span plus three attributes, as `record_trace` writes per
/// job), without reserving room first. The timed span covers building,
/// filling and dropping the sink, so the per-span cost includes freeing
/// what recording allocated.
fn span_throughput(spans: usize) -> Json {
    let clock = Stopwatch::start();
    let mut sink = TraceSink::new();
    for i in 0..spans {
        let t = i as f64;
        let h = sink.leaf("bench.hop", "tier", t, 0.5);
        sink.attr(h, "req", AttrValue::Int(i as i64));
        sink.attr(h, "wait_s", AttrValue::F64(0.25));
        sink.attr(h, "service_s", AttrValue::F64(t));
    }
    let recorded = sink.spans().len();
    drop(sink);
    let wall_s = clock.elapsed_s();
    let ns_per_span = 1e9 * wall_s / recorded as f64;
    println!(
        "== trace sink: {recorded} spans (leaf + 3 attributes) recorded and dropped in \
         {wall_s:.3} s ({ns_per_span:.0} ns/span) =="
    );
    Json::obj()
        .set("spans", Json::Int(recorded as i64))
        .set("wall_s", Json::Num(wall_s))
        .set("ns_per_span", Json::Num(ns_per_span))
}

/// Part 3: tiered-retention append throughput vs an unbounded store, on a
/// stream long enough that every append evicts and cascades.
fn retention_throughput(appends: usize) -> Result<Json, BoxError> {
    // A bench-local series name, deliberately outside every registered
    // ledger domain so the `ledger_key` pass treats it as foreign.
    let key = SeriesKey::new("web", "bench.append");
    // One point per simulated minute; raw keeps an hour, tier 0 folds into
    // 10-minute buckets for a day, tier 1 keeps hourly buckets forever.
    let tiers = [
        TierSpec {
            bucket_s: 600.0,
            window_s: 86_400.0,
        },
        TierSpec {
            bucket_s: 3_600.0,
            window_s: f64::INFINITY,
        },
    ];

    let mut flat = Ods::unbounded();
    let clock = Stopwatch::start();
    for i in 0..appends {
        flat.append(&key, 60.0 * i as f64, (i % 7) as f64)?;
    }
    let flat_s = clock.elapsed_s();

    let mut tiered = Ods::with_tiers(3_600.0, tiers.to_vec())?;
    let clock = Stopwatch::start();
    for i in 0..appends {
        tiered.append(&key, 60.0 * i as f64, (i % 7) as f64)?;
    }
    let tiered_s = clock.elapsed_s();

    assert_eq!(
        tiered.len(&key),
        appends,
        "tiers must not lose observations"
    );
    let flat_rate = appends as f64 / flat_s.max(1e-9);
    let tiered_rate = appends as f64 / tiered_s.max(1e-9);
    let resident = tiered.raw_points(&key).len()
        + (0..tiered.tier_count())
            .map(|t| tiered.tier_points(&key, t).len())
            .sum::<usize>();
    println!(
        "== retention: {appends} appends — flat {flat_rate:.0}/s, tiered {tiered_rate:.0}/s \
         ({resident} resident points vs {appends} flat) ==",
    );
    Ok(Json::obj()
        .set("appends", Json::Int(appends as i64))
        .set("flat_appends_per_s", Json::Num(flat_rate))
        .set("tiered_appends_per_s", Json::Num(tiered_rate))
        .set("tiered_resident_points", Json::Int(resident as i64))
        .set(
            "compression",
            Json::Num(appends as f64 / resident.max(1) as f64),
        ))
}

/// Runs the suite: span and retention throughput at a tenth of full size
/// when `smoke`; full size plus the lifecycle tracing overhead otherwise.
///
/// # Errors
///
/// Returns the first store or pipeline error.
pub fn run(smoke: bool, _hw: usize) -> Result<Json, BoxError> {
    let mut payload = Json::obj()
        .set(
            "span_throughput",
            span_throughput(if smoke { 50_000 } else { 500_000 }),
        )
        .set(
            "retention",
            retention_throughput(if smoke { 100_000 } else { 1_000_000 })?,
        );
    if !smoke {
        payload = payload.set("lifecycle", trace_overhead()?);
    }
    Ok(payload)
}
