//! SLO engine: sketch appends and burn-rate evaluation.
//!
//! Part 1 measures raw [`QuantileSketch`] append throughput — the cost
//! floor for latency observation on the rollout hot path — and asserts the
//! merge contract: per-chunk sketches over canonical contiguous chunks,
//! merged in chunk order, give a repeat-bit-identical estimate that stays
//! within the guaranteed rank-error band of exact nearest-rank. Part 2
//! measures [`SloEvaluator`] observe+evaluate throughput with the ledger
//! and trace sink attached, the per-tick tax a monitored fleet pays for
//! multi-window burn-rate alerting.

use super::BoxError;
use softsku_telemetry::trace::TraceSink;
use softsku_telemetry::{
    nearest_rank, Json, LedgerKey, Ods, QuantileSketch, SeriesKey, SloEvaluator, SloSpec, Stopwatch,
};

/// Deterministic synthetic latency stream: a lognormal-ish body with a
/// sparse heavy tail, from a splitmix-style integer mix (no RNG state to
/// thread, same values at any shard count).
fn synthetic_latency(i: u64) -> f64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
    let body = 0.010 + 0.008 * u;
    // every 97th sample lands in the tail, stretched by its own draw
    if i.is_multiple_of(97) {
        body * (4.0 + 8.0 * u)
    } else {
        body
    }
}

/// Part 1: sketch append throughput plus the fixed-merge-order contract.
fn sketch_throughput(appends: usize) -> Json {
    let mut single = QuantileSketch::new();
    let clock = Stopwatch::start();
    for i in 0..appends {
        single.push(synthetic_latency(i as u64));
    }
    let wall_s = clock.elapsed_s();
    let rate = appends as f64 / wall_s.max(1e-9);

    // Merge contract: shard the stream into a fixed set of canonical
    // contiguous chunks (plan order, independent of worker count), build
    // per-chunk sketches, and merge in chunk order. The result is a pure
    // function of the chunking — repeating the merge is bit-identical no
    // matter how many workers built the chunks — and stays within the
    // guaranteed rank-error bound of the exact nearest-rank estimate.
    let p99_single = single.quantile(0.99);
    const CHUNKS: usize = 8;
    let chunk_len = appends.div_ceil(CHUNKS);
    let shards: Vec<QuantileSketch> = (0..CHUNKS)
        .map(|c| {
            let mut s = QuantileSketch::new();
            for i in (c * chunk_len)..((c + 1) * chunk_len).min(appends) {
                s.push(synthetic_latency(i as u64));
            }
            s
        })
        .collect();
    let merge_all = || {
        let mut merged = QuantileSketch::new();
        for shard in &shards {
            merged.merge(shard);
        }
        merged
    };
    let merged = merge_all();
    let remerged = merge_all();
    assert_eq!(merged.count(), single.count(), "merge must not lose mass");
    let mut exact: Vec<f64> = (0..appends).map(|i| synthetic_latency(i as u64)).collect();
    exact.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(
            merged.quantile(q).map(f64::to_bits),
            remerged.quantile(q).map(f64::to_bits),
            "fixed-order merge must be bit-identical on repeat (q={q})"
        );
        let est = merged.quantile(q).expect("non-empty sketch");
        let err = merged.rank_error_bound();
        let lo = nearest_rank(&exact, (q - err).max(0.0)).expect("non-empty");
        let hi = nearest_rank(&exact, (q + err).min(1.0)).expect("non-empty");
        assert!(
            (lo..=hi).contains(&est),
            "merged q={q} estimate {est} outside rank-error band [{lo}, {hi}]"
        );
    }

    println!(
        "== sketch: {appends} appends in {wall_s:.3} s ({rate:.0}/s, {} retained, \
         rank error ≤ {:.4}, fixed-order merge bit-identical) ==",
        single.retained(),
        single.rank_error_bound()
    );
    Json::obj()
        .set("appends", Json::Int(appends as i64))
        .set("wall_s", Json::Num(wall_s))
        .set("appends_per_s", Json::Num(rate))
        .set("retained", Json::Int(single.retained() as i64))
        .set("rank_error_bound", Json::Num(single.rank_error_bound()))
        .set("p99_s", p99_single.map(Json::Num).unwrap_or(Json::Null))
        .set("merge_bit_identical", Json::Bool(true))
}

/// Part 2: burn-rate evaluation throughput with ledger + sink attached.
fn slo_eval_throughput(evals: usize) -> Result<Json, BoxError> {
    let spec = SloSpec::new("bench", 0.040, 0.99, 5.0, 20.0)?;
    let mut slo = SloEvaluator::new(spec);
    let mut ods = Ods::unbounded();
    let mut sink = TraceSink::new();

    let clock = Stopwatch::start();
    for i in 0..evals {
        let t_s = 0.1 * i as f64;
        slo.observe(t_s, synthetic_latency(i as u64), Some(i as u64))?;
        slo.evaluate(t_s, &mut ods, &mut sink)?;
    }
    let wall_s = clock.elapsed_s();
    let rate = evals as f64 / wall_s.max(1e-9);

    let burn_key = SeriesKey::new("bench", LedgerKey::SloBurnFast.name());
    let burn_points = ods.len(&burn_key);
    assert_eq!(
        burn_points, evals,
        "every evaluation must ledger a fast-burn point"
    );
    println!(
        "== slo: {evals} observe+evaluate in {wall_s:.3} s ({rate:.0}/s, \
         {} alerts, {burn_points} burn points ledgered) ==",
        slo.alerts()
    );
    Ok(Json::obj()
        .set("evals", Json::Int(evals as i64))
        .set("wall_s", Json::Num(wall_s))
        .set("evals_per_s", Json::Num(rate))
        .set("alerts", Json::Int(slo.alerts() as i64))
        .set("burn_points", Json::Int(burn_points as i64)))
}

/// Runs the suite: sketch and evaluator throughput, at a tenth of full
/// size when `smoke`.
///
/// # Errors
///
/// Returns the first SLO-spec or ledger error.
pub fn run(smoke: bool, _hw: usize) -> Result<Json, BoxError> {
    Ok(Json::obj()
        .set(
            "sketch",
            sketch_throughput(if smoke { 100_000 } else { 1_000_000 }),
        )
        .set(
            "slo_eval",
            slo_eval_throughput(if smoke { 20_000 } else { 200_000 })?,
        ))
}
