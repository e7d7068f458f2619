//! One benchmark process: a single cold run of one workload, or its traced
//! decomposition. `run.py` starts a fresh process per run, so the
//! process-wide memos always start empty.
//!
//! ```text
//! perfbench cold   <workload> <seed>
//! perfbench traced <workload> <seed> <spans.json>
//! ```
//!
//! Each prints one JSON line on stdout and exits 0; any `Err`, broken
//! invariant, digest that differs from the pinned one at the pinned seed,
//! or panic exits non-zero, which the runner counts as a failed run.

mod clock;
mod probes;
mod workloads;

use clock::{Clock, Spans};
use softsku_telemetry::Json;
use workloads::{BoxError, Facts, Verified, Workload, PINNED_SEED, WORKERS};

/// `VmHWM` (peak resident set) from `/proc/self/status`, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One cold run: set-up, then the entry point under the clock.
fn cold(w: Workload, seed: u64, clock: &Clock) -> Result<Json, BoxError> {
    let prepared = workloads::prepare(w, seed)?;
    let setup_s = clock.secs();
    let (verified, wall_s) = clock.time(|| workloads::run(prepared));
    let verified = verified?;
    check_pinned(w, seed, &verified)?;
    Ok(Json::obj()
        .set("digest", Json::Str(verified.digest))
        .set("setup_s", Json::Num(setup_s))
        .set("wall_s", Json::Num(wall_s))
        .set("peak_rss_mb", Json::Num(peak_rss_mb()))
        .set("sim_requests", Json::Int(verified.sim_requests as i64)))
}

/// Span-recorder run ids.
const RUN_COLD: u32 = 0;
const RUN_WARM: u32 = 1;
const RUN_PROBES: u32 = 2;

/// The traced decomposition, the warm re-run, then the layer probes.
fn traced(w: Workload, seed: u64, clock: &Clock, spans_path: &str) -> Result<Json, BoxError> {
    let mut spans = Spans::new(*clock);
    let mut facts = Facts::default();

    spans.set_run(RUN_COLD);
    let prepared = spans.span("layer.setup", |_| workloads::prepare(w, seed))?;
    let verified = workloads::traced(prepared, &mut spans, &mut facts)?;
    check_pinned(w, seed, &verified)?;
    let (covered_s, interval_s) = spans.coverage(RUN_COLD);
    let traced_wall_s = covered_s - spans.total(RUN_COLD, "layer.setup");

    spans.set_run(RUN_WARM);
    let prepared = workloads::prepare(w, seed)?;
    let warm = spans.span("layer.warm_rerun", |_| workloads::run(prepared))?;
    if warm.digest != verified.digest {
        return Err(format!(
            "warm re-run digest {} differs from cold {}",
            warm.digest, verified.digest
        )
        .into());
    }
    let warm_s = spans.total(RUN_WARM, "layer.warm_rerun");
    if w == Workload::MeshCanarySocial {
        spans.span("layer.mesh.request_loop", |_| {
            workloads::mesh_request_loop(seed)
        })?;
    }

    spans.set_run(RUN_PROBES);
    let probes = spans.span("layer.probes", |_| probes::run(w, seed, clock))?;
    if !probes.memo_identical {
        return Err("a memo-on window differs from its memo-off twin".into());
    }
    std::fs::write(spans_path, spans.to_json().render())?;

    let t = |name: &str| spans.total(RUN_COLD, name);
    let tune_s = t("layer.usku.tune");
    let baseline_s = t("layer.mesh.baseline");
    let request_loop_s = spans.total(RUN_WARM, "layer.mesh.request_loop");
    let coordinator_s = t("layer.rollout.coordinator");
    let layers = [
        ("layer.archsim.engine_cold_s", traced_wall_s - warm_s),
        ("layer.archsim.window_nomemo_ms", probes.window_nomemo_ms),
        ("layer.archsim.tracegen_new_ms", probes.tracegen_new_ms),
        (
            "layer.archsim.tracegen_fill_ns_per_event",
            probes.tracegen_fill_ns_per_event,
        ),
        ("layer.archsim.struct_build_ms", probes.struct_build_ms),
        (
            "layer.archsim.struct_pass_ns_per_event",
            probes.struct_pass_ns_per_event,
        ),
        ("layer.archsim.memo_hit_us", probes.memo_hit_us),
        ("layer.cluster.curve_ms", probes.curve_ms),
        ("layer.cluster.fleet_tick_us", probes.fleet_tick_us),
        ("layer.usku.tune_s", tune_s),
        (
            "layer.usku.busy_share",
            if tune_s > 0.0 {
                facts.tune_test_wall_s / (WORKERS as f64 * tune_s)
            } else {
                0.0
            },
        ),
        ("layer.usku.ab_tests", facts.ab_tests as f64),
        ("layer.usku.ab_samples", facts.ab_samples as f64),
        ("layer.rollout.compose_s", t("layer.rollout.compose")),
        ("layer.rollout.staged_s", t("layer.rollout.staged")),
        ("layer.rollout.drift_s", t("layer.rollout.drift")),
        ("layer.rollout.coordinator_s", coordinator_s),
        (
            "layer.rollout.coordinator_warm_s",
            if coordinator_s > 0.0 { warm_s } else { 0.0 },
        ),
        ("layer.rollout.service_ticks", facts.service_ticks as f64),
        ("layer.mesh.baseline_s", baseline_s),
        ("layer.mesh.tune_s", t("layer.mesh.tune")),
        ("layer.mesh.canary_s", t("layer.mesh.canary")),
        ("layer.mesh.request_loop_s", request_loop_s),
        (
            "layer.mesh.calibration_s",
            (baseline_s - request_loop_s).max(0.0),
        ),
        ("layer.telemetry.slo_gate_s", t("layer.telemetry.slo_gate")),
        ("layer.telemetry.spans", facts.spans as f64),
        ("layer.telemetry.ledger_points", facts.ledger_points as f64),
        ("layer.warm_rerun_s", warm_s),
        ("layer.span_coverage", covered_s / interval_s),
    ];
    let mut metrics = Json::obj();
    for (name, value) in layers {
        metrics = metrics.set(name, Json::Num(value));
    }
    Ok(Json::obj()
        .set("digest", Json::Str(verified.digest))
        .set("traced_wall_s", Json::Num(traced_wall_s))
        .set("layers", metrics))
}

/// At the pinned seed, the digest must be the pinned one.
fn check_pinned(w: Workload, seed: u64, v: &Verified) -> Result<(), BoxError> {
    if seed == PINNED_SEED && v.digest != w.pinned_digest() {
        return Err(format!(
            "digest {} differs from the pinned {} at seed {PINNED_SEED}",
            v.digest,
            w.pinned_digest()
        )
        .into());
    }
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench cold <workload> <seed> | perfbench traced <workload> <seed> <spans.json>"
    );
    std::process::exit(2);
}

fn main() {
    let clock = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(w), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|n| Workload::parse(n)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        usage()
    };
    let result = match (mode.as_str(), args.get(3)) {
        ("cold", None) => cold(w, seed, &clock),
        ("traced", Some(path)) => traced(w, seed, &clock, path),
        _ => usage(),
    };
    match result {
        Ok(json) => println!("{}", json.render()),
        Err(e) => {
            eprintln!("perfbench: {} seed {seed}: {e}", w.name());
            std::process::exit(1);
        }
    }
}
