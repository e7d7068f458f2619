//! Layer probes for `archsim` and `cluster`, run on each workload's own
//! (service, platform, window, load) tuples after the timed spans, so they
//! cannot warm them.
//!
//! Every window here is a cold evaluation unless its name says otherwise:
//! the probe seeds are fresh, so the process-wide report memo has never
//! seen them, and `with_memo(false)` bypasses both the report memo and the
//! structure snapshot cache.

use crate::clock::Clock;
use crate::workloads::{BoxError, Workload};
use softsku_archsim::trace::{EventBatch, HugePageMix, TraceGenerator};
use softsku_archsim::Engine;
use softsku_cluster::{EnvConfig, SimServer, StagedFleet, StagedFleetConfig};
use softsku_telemetry::streams::IdentitySeed;
use softsku_workloads::{Microservice, PlatformKind};

/// One engine operating point a workload evaluates.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    service: Microservice,
    platform: PlatformKind,
    window: u64,
}

/// The engine's warm-up for a window (`engine.rs`: a quarter of the window,
/// clamped to 50k–400k instructions).
fn warmup(window: u64) -> u64 {
    (window / 4).clamp(50_000, 400_000)
}

fn tuples(w: Workload) -> Result<Vec<Tuple>, BoxError> {
    Ok(match w {
        Workload::LifecycleWeb => vec![Tuple {
            service: Microservice::Web,
            platform: PlatformKind::Skylake18,
            window: EnvConfig::fast_test().window_insns,
        }],
        // `demo_campaign`'s four targets at its 6k-instruction window.
        Workload::ChaosCampaign => [
            (Microservice::Web, PlatformKind::Broadwell16),
            (Microservice::Feed1, PlatformKind::Skylake18),
            (Microservice::Ads1, PlatformKind::Skylake18),
            (Microservice::Cache2, PlatformKind::Skylake18),
        ]
        .into_iter()
        .map(|(service, platform)| Tuple {
            service,
            platform,
            window: 6_000,
        })
        .collect(),
        Workload::MeshCanarySocial => {
            let graph = softsku_mesh::social_network()?;
            let mut out: Vec<Tuple> = Vec::new();
            for t in graph.tiers() {
                let platform = t.service.default_platform();
                if !out
                    .iter()
                    .any(|u| u.service == t.service && u.platform == platform)
                {
                    out.push(Tuple {
                        service: t.service,
                        platform,
                        window: crate::workloads::mesh_config(0).window_insns,
                    });
                }
            }
            out
        }
    })
}

/// Mean per-tuple probe readings for one workload.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// `Engine::run_window(..).with_memo(false)`, ms.
    pub window_nomemo_ms: f64,
    /// `TraceGenerator::new`, ms.
    pub tracegen_new_ms: f64,
    /// `fill_batch` over warm-up plus window events, ns per event.
    pub tracegen_fill_ns_per_event: f64,
    /// No-memo window minus a fresh-seed window with the memo on, ms.
    pub struct_build_ms: f64,
    /// Fresh-seed window minus trace generation, ns per event.
    pub struct_pass_ns_per_event: f64,
    /// A repeated tuple served by the report memo, µs.
    pub memo_hit_us: f64,
    /// `SimServer::mips` on a config not seen before, ms.
    pub curve_ms: f64,
    /// `StagedFleet::tick` with no push landing, µs.
    pub fleet_tick_us: f64,
    /// Whether every memo-on window matched its memo-off twin, and every
    /// memo hit the evaluation it replays, bit for bit.
    pub memo_identical: bool,
}

/// Ticks timed per fleet probe.
const FLEET_TICKS: u32 = 200;

/// Probes every tuple of `w`, seeding each from `seed`.
pub fn run(w: Workload, seed: u64, clock: &Clock) -> Result<Probes, BoxError> {
    let tuples = tuples(w)?;
    let mut p = Probes {
        memo_identical: true,
        ..Probes::default()
    };
    for t in &tuples {
        let profile = t.service.profile(t.platform)?;
        let config = profile.production_config.clone();
        let spec = profile.stream.clone();
        let load = profile.peak_utilization;
        let probe_seed = |role: &str| {
            IdentitySeed::new(seed)
                .field("perfbench-probe")
                .field(t.service.name())
                .field(&t.platform.to_string())
                .field(role)
                .finish()
        };
        let (seed_a, seed_b) = (probe_seed("a"), probe_seed("b"));
        let events = t.window + warmup(t.window);

        let engine = |s: u64| Engine::new(config.clone(), spec.clone(), s);
        let (cold, nomemo_s) =
            clock.time(|| engine(seed_a)?.with_memo(false).run_window(t.window, load));
        let cold = cold?;
        // Memo on, same seed: evaluates in full and fills the structure
        // snapshot cache for this hierarchy.
        let primed = engine(seed_a)?.run_window(t.window, load)?;
        p.memo_identical &= primed == cold;
        let (fresh, fresh_s) = clock.time(|| engine(seed_b)?.run_window(t.window, load));
        let (hit, hit_s) = clock.time(|| engine(seed_b)?.run_window(t.window, load));
        p.memo_identical &= hit? == fresh?;

        let (mut gen, new_s) =
            clock.time(|| TraceGenerator::new(&spec, HugePageMix::default(), seed_b));
        let mut batch = EventBatch::with_capacity(4096);
        let ((), fill_s) = clock.time(|| {
            let mut left = events;
            while left > 0 {
                let n = left.min(4096);
                gen.fill_batch(&mut batch, n as usize);
                left -= n;
            }
        });
        std::hint::black_box(&batch);

        let (curve, curve_s) = clock.time(|| {
            SimServer::with_window(
                profile.clone(),
                config.clone(),
                probe_seed("curve"),
                t.window,
            )?
            .mips(load)
        });
        curve?;

        let fleet_config = StagedFleetConfig {
            pushes_per_hour: 0.0,
            window_insns: t.window,
            ..StagedFleetConfig::fast_test()
        };
        let mut fleet = StagedFleet::new(
            profile.clone(),
            config.clone(),
            config.clone(),
            fleet_config,
            probe_seed("fleet"),
        )?;
        fleet.stage_to(0.5);
        fleet.tick()?;
        let (ticks, ticks_s) = clock.time(|| {
            for _ in 0..FLEET_TICKS {
                fleet.tick()?;
            }
            Ok::<_, BoxError>(())
        });
        ticks?;

        p.window_nomemo_ms += nomemo_s * 1e3;
        p.tracegen_new_ms += new_s * 1e3;
        p.tracegen_fill_ns_per_event += fill_s * 1e9 / events as f64;
        p.struct_build_ms += (nomemo_s - fresh_s) * 1e3;
        p.struct_pass_ns_per_event += (fresh_s - new_s - fill_s) * 1e9 / events as f64;
        p.memo_hit_us += hit_s * 1e6;
        p.curve_ms += curve_s * 1e3;
        p.fleet_tick_us += ticks_s * 1e6 / f64::from(FLEET_TICKS);
    }
    let n = tuples.len() as f64;
    for v in [
        &mut p.window_nomemo_ms,
        &mut p.tracegen_new_ms,
        &mut p.tracegen_fill_ns_per_event,
        &mut p.struct_build_ms,
        &mut p.struct_pass_ns_per_event,
        &mut p.memo_hit_us,
        &mut p.curve_ms,
        &mut p.fleet_tick_us,
    ] {
        *v /= n;
    }
    Ok(p)
}
