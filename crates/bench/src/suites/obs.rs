//! Observability layer: tracing cost and retention throughput.
//!
//! Part 1 measures raw [`TraceSink`] span throughput on the mesh canary's
//! hop shape, record plus drop — the per-span cost of tracing, and the
//! cost floor for instrumenting hotter loops. Part 2 races an [`Ods`] with
//! retention tiers against [`Ods::unbounded`] on a long append stream whose
//! horizon forces continuous eviction and tier cascades — the retention
//! tax, paid to keep a fleet-lifetime ledger on bounded memory.
//!
//! That tracing never perturbs results is checked in tier-1, by
//! `tests/rollout_lifecycle.rs`, not here.

use super::BoxError;
use softsku_telemetry::trace::{AttrValue, TraceSink};
use softsku_telemetry::{Json, Ods, SeriesKey, Stopwatch, TierSpec};

/// Part 1: raw span-recording throughput, on the mesh canary's hop shape
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

/// Part 2: tiered-retention append throughput vs an unbounded store, on a
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

/// Runs the suite: span and retention throughput, at a tenth of full size
/// when `smoke`.
///
/// # Errors
///
/// Returns the first store error.
pub fn run(smoke: bool, _hw: usize) -> Result<Json, BoxError> {
    Ok(Json::obj()
        .set(
            "span_throughput",
            span_throughput(if smoke { 50_000 } else { 500_000 }),
        )
        .set(
            "retention",
            retention_throughput(if smoke { 100_000 } else { 1_000_000 })?,
        ))
}
