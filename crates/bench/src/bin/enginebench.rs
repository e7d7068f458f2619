//! Engine hot-path benchmark: batched tick throughput and the report memo.
//!
//! ```text
//! cargo run --release -p softsku-bench --bin enginebench            # full
//! cargo run --release -p softsku-bench --bin enginebench -- --smoke # CI
//! cargo run --release -p softsku-bench --bin enginebench -- --json BENCH_engine.json
//! cargo run --release -p softsku-bench --bin enginebench -- \
//!     --sweep-baseline-wall 131.5 --sweep-current-wall 11.8 \
//!     --rollout-baseline-wall 1365.8 --rollout-current-wall 30.6  # pin full-bench walls
//! ```
//!
//! Part 1 measures raw window-simulation throughput with the memo off —
//! every run is a genuine evaluation — across batch sizes, and asserts at
//! runtime that every batch size produces bit-identical reports (the
//! batched tick is a pure performance control). Part 2 measures the report
//! memo: the cost of a cold evaluation against a memo hit, which is the
//! price `AbEnvironment::fork` replicas pay (or skip) when they re-measure
//! their parent's operating points. Part 3 runs the serial independent
//! sweep from sweepbench Part 1 so the end-to-end tuning wall is tracked
//! in the same file; `--sweep-baseline-wall`/`--sweep-current-wall`
//! additionally pin an externally measured full-sweepbench comparison
//! against the pre-batching engine binary. `--json` writes everything for
//! BENCH_*.json trajectory tracking.

use softsku_archsim::engine::{Engine, WindowReport};
use softsku_cluster::{AbEnvironment, EnvConfig};
use softsku_knobs::{Knob, KnobSpace};
use softsku_telemetry::Json;
use softsku_workloads::{Microservice, PlatformKind};
use std::time::Instant;
use usku::metric::PerformanceMetric;
use usku::search::independent_sweep;
use usku::{AbTestConfig, AbTester};

const BASE_SEED: u64 = 21;

type BoxError = Box<dyn std::error::Error>;

/// A report's content as exact bits, for runtime bit-identity checks:
/// cheap, order-stable, and distinguishes `-0.0` from `0.0` where a float
/// compare would not.
fn signature(r: &WindowReport) -> Vec<u64> {
    let c = &r.counters;
    vec![
        c.instructions,
        c.cycles.to_bits(),
        c.l1i_misses,
        c.l1d_misses,
        c.l2_code_misses + c.l2_data_misses,
        c.llc_code_misses + c.llc_data_misses,
        c.itlb_misses,
        c.dtlb_misses,
        c.itlb_walks + c.dtlb_walks,
        c.branch_mispredicts,
        c.btb_misses,
        r.ipc_thread.to_bits(),
        r.mips_total.to_bits(),
        r.bandwidth_gbps.to_bits(),
        r.mem_latency_ns.to_bits(),
        r.cpi.frontend.to_bits(),
        r.cpi.backend_memory.to_bits(),
    ]
}

fn engine_for(service: Microservice, seed: u64) -> Result<Engine, BoxError> {
    let profile = service.profile(PlatformKind::Skylake18)?;
    Ok(Engine::new(
        profile.stock_config.clone(),
        profile.stream.clone(),
        seed,
    )?)
}

/// Part 1: window throughput per batch size, memo off, with a bit-identity
/// cross-check between every batch size and the default-batch reference.
fn throughput(window: u64, evals: u64, batch_sizes: &[usize]) -> Result<Json, BoxError> {
    let service = Microservice::Web;
    println!("== engine throughput: {service}, {window} instruction window, {evals} evals ==");

    // Reference signatures at the default batch size, one per seed.
    let mut reference = Vec::new();
    for seed in 0..evals {
        let report = engine_for(service, BASE_SEED + seed)?
            .with_memo(false)
            .run_window(window, 0.9)?;
        reference.push(signature(&report));
    }

    let mut runs = Vec::new();
    let mut wall_by_batch = Vec::new();
    for &batch in batch_sizes {
        // detlint::allow(wall_clock): benchmark harness measures its own
        // speed; wall time is the quantity under test, not a simulated
        // result.
        let t0 = Instant::now();
        let mut signatures = Vec::new();
        for seed in 0..evals {
            let report = engine_for(service, BASE_SEED + seed)?
                .with_memo(false)
                .with_batch_size(batch)
                .run_window(window, 0.9)?;
            signatures.push(signature(&report));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            signatures, reference,
            "batch size {batch} changed simulation output bits"
        );
        let minsns_per_s = (window * evals) as f64 / 1e6 / wall_s.max(1e-9);
        println!("  batch {batch:>5}   {wall_s:>6.2} s   {minsns_per_s:>7.2} M window insns/s");
        wall_by_batch.push((batch, wall_s));
        runs.push(
            Json::obj()
                .set("batch_events", Json::Int(batch as i64))
                .set("wall_s", Json::Num(wall_s))
                .set("window_minsns_per_s", Json::Num(minsns_per_s)),
        );
    }

    let wall_at = |b: usize| {
        wall_by_batch
            .iter()
            .find(|&&(batch, _)| batch == b)
            .map(|&(_, w)| w)
    };
    let speedup = match (wall_at(1), wall_by_batch.last()) {
        (Some(w1), Some(&(_, wmax))) => w1 / wmax.max(1e-9),
        _ => 1.0,
    };
    println!("  batched speedup vs batch=1: {speedup:.2}x (bit-identical at every size)");
    Ok(Json::obj()
        .set("service", Json::Str(service.to_string()))
        .set("window_instructions", Json::Int(window as i64))
        .set("evals_per_batch_size", Json::Int(evals as i64))
        .set("bit_identical", Json::Bool(true))
        .set("runs", Json::Arr(runs))
        .set("speedup_vs_batch_1", Json::Num(speedup)))
}

/// Part 2: memo economics — one cold evaluation vs memo hits, the exact
/// cost difference between an `AbEnvironment::fork` replica re-warming a
/// measurement and snapshotting its parent's finished report.
fn memo_economics(window: u64, hits: usize) -> Result<Json, BoxError> {
    // A tuple no other part of this process evaluates, so the first call is
    // guaranteed cold.
    let engine = engine_for(Microservice::Feed2, BASE_SEED + 9001)?;

    // detlint::allow(wall_clock): benchmark harness measures its own speed.
    let t0 = Instant::now();
    let cold = engine.run_colocated(window, 0.85, 3.0, Some(0.7))?;
    let cold_s = t0.elapsed().as_secs_f64();

    // detlint::allow(wall_clock): benchmark harness measures its own speed.
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..hits {
        last = Some(engine.run_colocated(window, 0.85, 3.0, Some(0.7))?);
    }
    let hit_s = t0.elapsed().as_secs_f64() / hits.max(1) as f64;
    if let Some(hit) = last {
        assert_eq!(
            signature(&cold),
            signature(&hit),
            "memo hits must be bit-identical to the cold evaluation"
        );
    }

    let speedup = cold_s / hit_s.max(1e-12);
    println!(
        "== report memo: cold {:.1} ms, hit {:.4} ms ({speedup:.0}x; fork replicas skip re-warm-up) ==",
        cold_s * 1e3,
        hit_s * 1e3
    );
    Ok(Json::obj()
        .set("window_instructions", Json::Int(window as i64))
        .set("cold_eval_ms", Json::Num(cold_s * 1e3))
        .set("memo_hit_ms", Json::Num(hit_s * 1e3))
        .set("hit_reps", Json::Int(hits as i64))
        .set("speedup", Json::Num(speedup))
        .set("bit_identical", Json::Bool(true)))
}

/// Part 3: the serial independent sweep from sweepbench Part 1, timed here
/// so the engine-level trajectory and the end-to-end tuning wall live in
/// one file.
fn serial_sweep(knobs: &[Knob]) -> Result<Json, BoxError> {
    let service = Microservice::Web;
    let platform = PlatformKind::Skylake18;
    let profile = service.profile(platform)?;
    let space = KnobSpace::for_platform(&profile.production_config.platform, profile.constraints);
    let baseline = profile.production_config.clone();
    let mut env = AbEnvironment::new(profile, EnvConfig::fast_test(), BASE_SEED)?;
    let tester = AbTester::new(
        AbTestConfig::fast_test(),
        PerformanceMetric::recommended_for(service),
    );

    // detlint::allow(wall_clock): benchmark harness measures its own speed.
    let t0 = Instant::now();
    let sweep = independent_sweep(&tester, &mut env, &baseline, &space, knobs)?;
    let wall_s = t0.elapsed().as_secs_f64();
    println!(
        "== serial sweep: {service}/{platform}, {knobs:?} — {} tests in {wall_s:.2} s ==",
        sweep.map.test_count()
    );
    Ok(Json::obj()
        .set("service", Json::Str(service.to_string()))
        .set(
            "knobs",
            Json::Arr(knobs.iter().map(|k| Json::Str(k.to_string())).collect()),
        )
        .set("tests", Json::Int(sweep.map.test_count() as i64))
        .set("wall_s", Json::Num(wall_s)))
}

/// Parses `--json <path>` out of the argument list.
fn json_path() -> Option<String> {
    flag_value("--json")
}

/// Parses `--<flag> <value>` out of the argument list.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() -> Result<(), BoxError> {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (window, evals, batch_sizes): (u64, u64, &[usize]) = if smoke {
        (60_000, 3, &[1, 64, 4096])
    } else {
        (200_000, 8, &[1, 16, 64, 512, 4096])
    };

    let mut summary = Json::obj()
        .set("bench", Json::Str("enginebench".into()))
        .set("smoke", Json::Bool(smoke))
        .set("base_seed", Json::Int(BASE_SEED as i64))
        .set("throughput", throughput(window, evals, batch_sizes)?)
        .set(
            "memo",
            memo_economics(window, if smoke { 100 } else { 10_000 })?,
        );

    if !smoke {
        summary = summary.set(
            "serial_sweep",
            serial_sweep(&[Knob::Thp, Knob::Shp, Knob::CoreFrequency])?,
        );
    }

    // Externally measured full-bench walls: the pre-batching binaries vs
    // the current ones, run back to back on the same host. Stamped here
    // (not measured here) because the old binaries are not part of this
    // tree.
    for (key, old_flag, new_flag) in [
        (
            "sweepbench_full",
            "--sweep-baseline-wall",
            "--sweep-current-wall",
        ),
        (
            "rolloutbench_full",
            "--rollout-baseline-wall",
            "--rollout-current-wall",
        ),
    ] {
        if let (Some(old), Some(new)) = (
            flag_value(old_flag).and_then(|v| v.parse::<f64>().ok()),
            flag_value(new_flag).and_then(|v| v.parse::<f64>().ok()),
        ) {
            let speedup = old / new.max(1e-9);
            println!(
                "== full {key}: pre-batching {old:.1} s, current {new:.1} s ({speedup:.1}x) =="
            );
            summary = summary.set(
                key,
                Json::obj()
                    .set("pre_batching_wall_s", Json::Num(old))
                    .set("current_wall_s", Json::Num(new))
                    .set("speedup", Json::Num(speedup))
                    .set(
                        "source",
                        Json::Str(
                            "both binaries run back to back on the same idle host; \
                             pre-batching binary built from the commit before the \
                             batched-tick refactor"
                                .into(),
                        ),
                    ),
            );
        }
    }

    if let Some(path) = json_path() {
        std::fs::write(&path, summary.render_pretty())?;
        println!("wrote {path}");
    }
    if smoke {
        println!("smoke ok");
    }
    Ok(())
}
