//! Request graphs: the mesh simulator and joint soft-SKU tuner.
//!
//! Part 1 runs every graph preset (social_network, media, colocation_mix)
//! under production SKUs and reports the end-to-end latency distribution,
//! the conservation ledger, and two walls: the cold run, which is almost
//! entirely per-tier engine calibration, and a warm re-run whose
//! calibration is served from the engine's report memo, leaving the
//! request loop — the simulated-requests-per-second rate is taken from it.
//! Part 2 tunes the colocation-mix graph under both objectives — the
//! paper's per-tier-MIPS rule vs joint graph-p99 — and asserts the joint
//! winner is at least as good on the tail. Part 3 (full mode) re-runs the
//! joint tune at 1, 2, and 8 workers and asserts the verdicts are
//! bit-identical — the mesh determinism contract.

use super::{BoxError, BASE_SEED};
use softsku_mesh::{
    colocation_mix, media, social_network, MeshConfig, MeshObjective, MeshSim, MeshTuner,
    ServiceGraph, TunedMesh,
};
use softsku_telemetry::{Json, Stopwatch};

fn bench_config(smoke: bool) -> MeshConfig {
    MeshConfig {
        requests: if smoke { 400 } else { 2_000 },
        arrival_rate_hz: 900.0,
        horizon_s: f64::INFINITY,
        window_insns: if smoke { 60_000 } else { 120_000 },
        service_cv2: 2.0,
        regress_frac: 0.0,
        regress_scale: 1.0,
        seed: BASE_SEED,
    }
}

/// Part 1: one preset under production SKUs, cold and then warm.
fn preset_run(graph: &ServiceGraph, config: MeshConfig) -> Result<Json, BoxError> {
    let skus: Vec<_> = graph
        .tiers()
        .iter()
        .map(|t| t.service.production_config(t.service.default_platform()))
        .collect::<Result<_, _>>()?;
    let sim = MeshSim::new(graph, config)?;
    let clock = Stopwatch::start();
    let report = sim.run(&skus)?;
    let cold_s = clock.elapsed_s();
    let clock = Stopwatch::start();
    let warm = sim.run(&skus)?;
    let loop_s = clock.elapsed_s();
    assert_eq!(
        format!("{report:?}"),
        format!("{warm:?}"),
        "a warm re-run must reproduce the cold report bit for bit"
    );
    let rate = report.injected as f64 / loop_s.max(1e-9);
    assert_eq!(
        report.injected,
        report.completed + report.in_flight,
        "request conservation must hold"
    );
    let hops: u64 = report.tiers.iter().map(|t| t.jobs).sum();
    println!(
        "== {} == p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  mean {:.3} ms",
        report.graph,
        report.p50_s * 1e3,
        report.p95_s * 1e3,
        report.p99_s * 1e3,
        report.mean_s * 1e3
    );
    println!(
        "  {} requests, {hops} hops, cold {cold_s:.3} s, request loop {loop_s:.4} s \
         ({rate:.0} requests/s)",
        report.injected,
    );
    Ok(Json::obj()
        .set("graph", Json::Str(report.graph.clone()))
        .set("requests", Json::Int(report.injected as i64))
        .set("hops", Json::Int(hops as i64))
        .set("p50_ms", Json::Num(report.p50_s * 1e3))
        .set("p95_ms", Json::Num(report.p95_s * 1e3))
        .set("p99_ms", Json::Num(report.p99_s * 1e3))
        .set("mean_ms", Json::Num(report.mean_s * 1e3))
        .set(
            "net_critical_share",
            Json::Num(report.network_critical_share),
        )
        .set("wall_s", Json::Num(cold_s))
        .set("cold_wall_s", Json::Num(cold_s))
        .set("request_loop_s", Json::Num(loop_s))
        .set("requests_per_s", Json::Num(rate)))
}

/// Part 2: the two tuning objectives on the colocation-mix graph.
fn tuner_comparison(config: MeshConfig, workers: usize) -> Result<Json, BoxError> {
    let graph = colocation_mix()?;
    let tuner = MeshTuner::with_default_candidates(&graph, config)?;
    let private = tuner.tune(MeshObjective::PerTierMips, workers)?;
    let joint = tuner.tune(MeshObjective::GraphP99, workers)?;
    assert!(
        joint.report.p99_s <= private.report.p99_s,
        "joint tuning must not lose to the per-tier rule on its own metric"
    );
    println!("== tuner: per-tier MIPS vs joint graph p99 ({workers} workers) ==");
    println!(
        "  per-tier {:?} p99 {:.3} ms ({} evals)",
        private.labels(),
        private.report.p99_s * 1e3,
        private.evaluated
    );
    println!(
        "  joint    {:?} p99 {:.3} ms ({} evals)",
        joint.labels(),
        joint.report.p99_s * 1e3,
        joint.evaluated
    );
    let labels = |t: &TunedMesh| {
        Json::Arr(
            t.labels()
                .iter()
                .map(|l| Json::Str((*l).to_string()))
                .collect(),
        )
    };
    Ok(Json::obj()
        .set("per_tier_labels", labels(&private))
        .set("per_tier_p99_ms", Json::Num(private.report.p99_s * 1e3))
        .set("joint_labels", labels(&joint))
        .set("joint_p99_ms", Json::Num(joint.report.p99_s * 1e3))
        .set(
            "evaluations",
            Json::Int((private.evaluated + joint.evaluated) as i64),
        )
        .set(
            "objectives_diverge",
            Json::Bool(joint.labels() != private.labels()),
        ))
}

/// Part 3: the determinism contract — the joint verdict is bit-identical
/// at 1, 2, and 8 workers.
fn worker_sweep(config: MeshConfig) -> Result<Json, BoxError> {
    let graph = colocation_mix()?;
    let tuner = MeshTuner::with_default_candidates(&graph, config)?;
    let mut runs = Vec::new();
    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        let clock = Stopwatch::start();
        let tuned = tuner.tune(MeshObjective::GraphP99, workers)?;
        let wall_s = clock.elapsed_s();
        let view = format!("{:?}|{:?}", tuned.labels(), tuned.report);
        match &reference {
            None => reference = Some(view),
            Some(first) => assert!(
                *first == view,
                "mesh tuning verdicts must not depend on worker count"
            ),
        }
        println!(
            "  {workers} workers: p99 {:.3} ms, wall {wall_s:.2} s",
            tuned.report.p99_s * 1e3
        );
        runs.push(
            Json::obj()
                .set("workers", Json::Int(workers as i64))
                .set("p99_ms", Json::Num(tuned.report.p99_s * 1e3))
                .set("wall_s", Json::Num(wall_s)),
        );
    }
    println!("== worker sweep: verdicts bit-identical at 1, 2, and 8 workers ==");
    Ok(Json::obj()
        .set("bit_identical", Json::Bool(true))
        .set("runs", Json::Arr(runs)))
}

/// Runs the suite: 400-request presets and the tuner comparison at `hw`
/// workers when `smoke`; 2 000-request presets plus the worker sweep
/// otherwise.
///
/// # Errors
///
/// Returns the first graph, calibration, or tuner error.
pub fn run(smoke: bool, hw: usize) -> Result<Json, BoxError> {
    let config = bench_config(smoke);
    let presets = Json::Arr(vec![
        preset_run(&social_network()?, config)?,
        preset_run(&media()?, config)?,
        preset_run(&colocation_mix()?, config)?,
    ]);
    let mut payload = Json::obj()
        .set("requests", Json::Int(config.requests as i64))
        .set("presets", presets)
        .set("tuner", tuner_comparison(config, hw)?);
    if !smoke {
        payload = payload.set("workers", worker_sweep(config)?);
    }
    Ok(payload)
}
